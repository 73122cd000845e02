"""Seeded SEG-Y fixture: vectorised IBM float encoding and file layout.

``pyrafuse.encode_ibm32`` loops per sample in Python, which would put tens of
seconds into set-up for a survey of millions of samples, so the fixture is
encoded here with whole-array operations and checked against it on a sample.
"""

from __future__ import annotations

import numpy as np

TEXT_HEADER_BYTES = 3200
BINARY_HEADER_BYTES = 400
TRACE_HEADER_BYTES = 240
FORMAT_IBM = 1


def encode_ibm32(values) -> np.ndarray:
    """IBM single-precision words (uint32), rounding like ``pyrafuse.encode_ibm32``.

    With mag = m * 2**k (m in [0.5, 1)), the hex exponent e = ceil(k / 4)
    puts mag / 16**e in [1/16, 1); the 24-bit fraction is rounded half to
    even, and a fraction that rounds up to 1 moves to the next exponent.
    """
    vals = np.asarray(values, dtype=np.float64)
    if not np.isfinite(vals).all():
        raise ValueError("cannot encode non-finite values")
    mag = np.abs(vals)
    _, k = np.frexp(mag)
    e = -((-k) // 4)
    mantissa = np.rint(np.ldexp(mag, 24 - 4 * e)).astype(np.int64)
    carry = mantissa == 1 << 24
    e = np.where(carry, e + 1, e)
    mantissa = np.where(carry, 1 << 20, mantissa)
    zero = mag == 0.0
    if np.any(~zero & ((e < -64) | (e > 63))):
        raise ValueError("value outside the IBM float range")
    words = (
        (np.signbit(vals) & ~zero).astype(np.uint32) << np.uint32(31)
        | ((e + 64).astype(np.uint32) & np.uint32(0x7F)) << np.uint32(24)
        | mantissa.astype(np.uint32)
    )
    return np.where(zero, np.uint32(0), words).astype(np.uint32)


def check_encoder(values, reference, sample: int, rng) -> int:
    """Compare :func:`encode_ibm32` with ``reference`` on ``sample`` values.

    Returns the number of mismatching words.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    picked = flat[rng.integers(0, flat.size, sample)]
    edges = np.array([0.0, 1.0, -1.0, 100.0, 1.0 - 2.0**-30, 15.999999999, 2.0**-20, -3.5e5])
    probe = np.concatenate([picked, edges])
    return int(np.count_nonzero(encode_ibm32(probe) != reference(probe)))


def write_segy(path: str, volume: np.ndarray, dt_us: int, il0: int = 1000, xl0: int = 2000) -> int:
    """Write ``volume`` (ns, n_il, n_xl) as an IBM-float SEG-Y file.

    Traces go inline-major on a complete inline/crossline lattice, with the
    inline and crossline numbers at trace-header bytes 188 and 192.
    Returns the file size in bytes.
    """
    ns, n_il, n_xl = volume.shape
    record = np.dtype(
        [
            ("head", "V188"),
            ("inline", ">i4"),
            ("crossline", ">i4"),
            ("tail", "V44"),
            ("samples", ">u4", (ns,)),
        ]
    )
    traces = np.zeros(n_il * n_xl, dtype=record)
    il, xl = np.meshgrid(np.arange(n_il), np.arange(n_xl), indexing="ij")
    traces["inline"] = il0 + il.ravel()
    traces["crossline"] = xl0 + xl.ravel()
    traces["samples"] = encode_ibm32(volume.reshape(ns, n_il * n_xl).T)

    text = np.full(TEXT_HEADER_BYTES, 0x40, dtype=np.uint8)  # EBCDIC blanks
    binary = np.zeros(BINARY_HEADER_BYTES, dtype=np.uint8)
    words = binary[16:26].view(">u2")  # absolute offsets 3216..3225
    words[0] = dt_us  # 3216 sample interval
    words[2] = ns  # 3220 samples per trace
    words[4] = FORMAT_IBM  # 3224 sample format
    with open(path, "wb") as handle:
        handle.write(text.tobytes())
        handle.write(binary.tobytes())
        handle.write(traces.tobytes())
    return TEXT_HEADER_BYTES + BINARY_HEADER_BYTES + traces.nbytes
