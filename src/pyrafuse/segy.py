"""SEG-Y import: the fixed-trace-length subset with IBM or IEEE samples.

Layout handled here: 3200-byte textual header, 400-byte binary header,
then fixed-size trace records (240-byte trace header + ns samples). From
the binary header only three big-endian words are read (absolute offsets
from the start of the file):

    3216  uint16  sample interval, microseconds
    3220  uint16  samples per trace
    3224  uint16  sample format code (1 = IBM float, 5 = IEEE float32)

Every trace record is 240 + 4*ns bytes long (SEG-Y rev 1). The body size
comes from the file's size, so every header and record-count check runs
before any trace is read. The records are then read twice, in blocks of
whole records (``_BLOCK_WORDS`` sample words or one record) into one
reused buffer, viewed through a structured dtype with three fields: the
inline and crossline trace-header words (offsets 188 and 192 inside each
trace header) and the ns samples. The first pass keeps only the
inline/crossline words, which decide the geometry: traces form a volume
when their pairs fill a complete regular grid, each cell once, with at
least two distinct values on each axis; anything else imports as a single
2D section in file order. The second pass decodes each block with one
:func:`decode_ibm32` call and writes it straight into its columns of the
one (ns, traces) output array: lattice cells for a volume, file order for
a section. That array becomes the container's data without a copy, so the
import peaks at the float64 result plus about one block. A file that ends
early (it shrank after its size was taken) is a ``FormatError`` at the
byte where it ended. Lateral spacings are not stored in this header
subset, so the importer takes them as options.

IBM single precision: sign bit, 7-bit base-16 exponent biased by 64,
24-bit fraction in [0, 1):

    value = (1 - 2*sign) * (fraction / 2**24) * 16**(exponent - 64)

so 0x42640000 decodes to +0.390625 * 16**2 = 100.0. The decoder looks the
sign and exponent up by the word's top byte:

    value = (word & 0xFFFFFF) * _IBM_SCALE[word >> 24]
    _IBM_SCALE[b] = (1 - 2*(b >> 7)) * 16**((b & 0x7F) - 64) / 2**24

Each table entry is a power of two in the float64 normal range and the
24-bit fraction is an exact float64, so every product is exact: the table
gives the formula's bits, -0.0 for a negative sign with a zero fraction
included.

Grid files hold float32, so a sample is accepted only when its float32
rounding is finite; the first one that is not (NaN, infinity, or an IBM
value beyond the float32 range) is a ``FormatError`` at its byte offset.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError, UnsupportedFormatError, _naming
from .grid import Grid2, SeismicSection, SeismicVolume, _Adopted, _check_int, _check_positive
from .gridio import _BLOCK_WORDS, _read_exactly

TEXT_HEADER_BYTES = 3200
BINARY_HEADER_BYTES = 400
HEADER_BYTES = TEXT_HEADER_BYTES + BINARY_HEADER_BYTES
TRACE_HEADER_BYTES = 240

_OFF_SAMPLE_INTERVAL = 3216
_OFF_SAMPLES_PER_TRACE = 3220
_OFF_FORMAT_CODE = 3224
_OFF_INLINE = 188  # within the trace header
_OFF_CROSSLINE = 192

FORMAT_IBM = 1
FORMAT_IEEE = 5
SUPPORTED_FORMATS = (FORMAT_IBM, FORMAT_IEEE)


def _ibm_scale_table() -> np.ndarray:
    top = np.arange(256)
    table = (1 - 2 * (top >> 7)) * np.ldexp(1.0, 4 * ((top & 0x7F) - 64) - 24)
    table.flags.writeable = False
    return table


# IBM value per unit of fraction, by the word's top byte (sign, exponent)
_IBM_SCALE = _ibm_scale_table()

def decode_ibm32(words) -> np.ndarray:
    """Decode IBM System/360 single-precision words (uint32) to float64."""
    w = np.asarray(words, dtype=np.uint32)
    values = (w & 0xFFFFFF).astype(np.float64)
    values *= _IBM_SCALE[w >> 24]
    return values


def encode_ibm32(values) -> np.ndarray:
    """Encode floats as IBM single-precision words (uint32).

    Round-trips IEEE float32 values within float32 precision; used to build
    fixtures and to verify the decoder. With |v| = m * 2**k, m in [0.5, 1)
    (``np.frexp``), the hex exponent e = ceil(k / 4) puts |v| / 16**e in
    [1/16, 1); the 24-bit fraction ``ldexp(|v|, 24 - 4e)`` is exact before
    it is rounded half to even, and a fraction that rounds up to 2**24
    moves to the next exponent. Zeros of either sign encode as word 0.

    Raises:
        ParameterError: a non-finite value, or a magnitude outside the
            representable IBM range; the first such value in C order is
            named.
    """
    vals = np.asarray(values, dtype=np.float64)
    mag = np.abs(vals)
    _, k = np.frexp(mag)
    e = -((-k) // 4)
    mantissa = np.rint(np.ldexp(mag, 24 - 4 * e))
    carry = mantissa == 1 << 24
    e = np.where(carry, e + 1, e)
    mantissa = np.where(carry, 1 << 20, mantissa)
    zero = mag == 0.0
    bad = ~np.isfinite(vals) | (~zero & ((e < -64) | (e > 63)))
    if bad.any():
        v = vals.flat[np.argmax(bad)]
        if not np.isfinite(v):
            raise ParameterError(f"cannot encode non-finite value {v!r}")
        raise ParameterError(f"value {v!r} outside the IBM float range")
    words = (
        (vals < 0.0).astype(np.uint32) << np.uint32(31)
        | (e + 64).astype(np.uint32) << np.uint32(24)
        | mantissa.astype(np.uint32)
    )
    return np.where(zero, np.uint32(0), words)


@dataclass(frozen=True)
class SegyImportOptions:
    """Knobs for :func:`read_segy`.

    format_code overrides the binary-header value (1 or 5); big_endian
    False flips the byte order of header words and samples for
    nonstandard little-endian writers; max_traces, an integer >= 1, caps
    how many traces are read; dx/dy supply the lateral spacings SEG-Y
    does not carry here.
    """

    format_code: int | None = None
    big_endian: bool = True
    max_traces: int | None = None
    dx: float = 25.0
    dy: float = 25.0

    def __post_init__(self):
        if self.format_code is not None:
            object.__setattr__(self, "format_code", _check_int("format_code", self.format_code))
            if self.format_code not in SUPPORTED_FORMATS:
                raise UnsupportedFormatError(
                    f"format code {self.format_code} unsupported; "
                    f"supported: {SUPPORTED_FORMATS}"
                )
        if self.max_traces is not None:
            object.__setattr__(self, "max_traces", _check_int("max_traces", self.max_traces, 1))
        object.__setattr__(self, "dx", _check_positive("dx", self.dx))
        object.__setattr__(self, "dy", _check_positive("dy", self.dy))


def _read_u16(blob: bytes, offset: int, big_endian: bool) -> int:
    order = ">u2" if big_endian else "<u2"
    return int(np.frombuffer(blob, dtype=order, count=1, offset=offset)[0])


def read_segy(path: str, options: SegyImportOptions | None = None):
    """Import a SEG-Y file as a SeismicSection or SeismicVolume.

    A sample must be finite as float32, the precision of grid files: an
    IBM value beyond the float32 range is rejected here, not at write time.
    The file is read in blocks, so the peak is the float64 result plus
    about one block.

    Raises:
        FormatError: file shorter than its headers, zero sample interval
            or trace length, trailing bytes that do not divide into whole
            trace records, a sample whose float32 rounding is not finite
            (the offset is that of the first such sample), or a file that
            ends before the size it had when opened.
        UnsupportedFormatError: sample format other than 1 or 5.
    """
    options = options or SegyImportOptions()
    with _naming(path, FormatError), open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        head = handle.read(HEADER_BYTES)
        if len(head) < HEADER_BYTES:
            raise FormatError(
                f"file holds {len(head)} bytes, SEG-Y headers need {HEADER_BYTES}",
                offset=len(head),
            )
        big = options.big_endian
        dt_us = _read_u16(head, _OFF_SAMPLE_INTERVAL, big)
        ns = _read_u16(head, _OFF_SAMPLES_PER_TRACE, big)
        fmt = options.format_code or _read_u16(head, _OFF_FORMAT_CODE, big)
        if dt_us == 0:
            raise FormatError("sample interval is 0", offset=_OFF_SAMPLE_INTERVAL)
        if ns == 0:
            raise FormatError("samples per trace is 0", offset=_OFF_SAMPLES_PER_TRACE)
        if fmt not in SUPPORTED_FORMATS:
            raise UnsupportedFormatError(
                f"sample format {fmt} unsupported (supported: "
                f"{FORMAT_IBM} = IBM float, {FORMAT_IEEE} = IEEE float32)",
                offset=_OFF_FORMAT_CODE,
            )

        record = TRACE_HEADER_BYTES + 4 * ns
        body = size - HEADER_BYTES
        n_traces = body // record
        if n_traces < 1:
            raise FormatError("no complete trace records", offset=HEADER_BYTES)
        if body % record != 0:
            raise FormatError(
                f"{body} bytes of traces is not a whole number of "
                f"{record}-byte records",
                offset=HEADER_BYTES + n_traces * record,
            )
        if options.max_traces is not None:
            n_traces = min(n_traces, options.max_traces)

        order = ">" if big else "<"
        sample = order + ("f4" if fmt == FORMAT_IEEE else "u4")
        layout = np.dtype({
            "names": ["inline", "crossline", "samples"],
            "formats": [order + "i4", order + "i4", (sample, ns)],
            "offsets": [_OFF_INLINE, _OFF_CROSSLINE, TRACE_HEADER_BYTES],
            "itemsize": record,
        })
        per_block = min(n_traces, max(1, _BLOCK_WORDS // ns))
        buffer = bytearray(per_block * record)
        starts = range(0, n_traces, per_block)
        blocks = [(start, min(start + per_block, n_traces)) for start in starts]

        def records(start: int, stop: int) -> np.ndarray:
            view = memoryview(buffer)[: (stop - start) * record]
            _read_exactly(handle, view, HEADER_BYTES + start * record)
            return np.frombuffer(view, dtype=layout)

        # pass 1: the inline and crossline words decide the geometry
        inlines = np.empty(n_traces, dtype=np.int32)
        crosslines = np.empty(n_traces, dtype=np.int32)
        for start, stop in blocks:
            block = records(start, stop)
            inlines[start:stop] = block["inline"]
            crosslines[start:stop] = block["crossline"]
        lattice, cells = _lattice(inlines, crosslines)

        # pass 2: one column per trace, file order for a section and
        # lattice cells for a volume
        out = np.empty((ns, *(lattice or (n_traces,))))
        columns = out.reshape(ns, n_traces)
        handle.seek(HEADER_BYTES)
        for start, stop in blocks:
            values = records(start, stop)["samples"]
            if fmt == FORMAT_IBM:
                values = decode_ibm32(values)
            _check_samples(values, HEADER_BYTES + start * record, record)
            columns[:, cells[start:stop]] = values.T

    dt = dt_us * 1e-6
    if lattice is None:
        return SeismicSection(Grid2(_Adopted(out)), dt=dt, dx=options.dx, label="segy import",
                              meta={"source": "segy"})
    return SeismicVolume(_Adopted(out), dt=dt, dx=options.dx, dy=options.dy,
                         meta={"source": "segy"})


def _lattice(inlines: np.ndarray, crosslines: np.ndarray):
    """The (inline, crossline) lattice the traces fill, and each one's cell.

    The shape is None unless the pairs fill a complete lattice, each cell
    once, with at least two distinct values on each axis. Cells count
    inline-major; a section's cells are the file order.
    """
    il_values, il_index = np.unique(inlines, return_inverse=True)
    xl_values, xl_index = np.unique(crosslines, return_inverse=True)
    shape = (len(il_values), len(xl_values))
    section = None, np.arange(len(inlines))
    if min(shape) < 2 or shape[0] * shape[1] != len(inlines):
        return section
    cells = il_index * shape[1] + xl_index
    if np.bincount(cells).max() > 1:  # a duplicate pair leaves a hole
        return section
    return shape, cells


def _check_samples(values: np.ndarray, first: int, record: int) -> None:
    """Reject a block whose float32 rounding is not finite everywhere.

    ``values`` is (traces, ns) in file order and ``first`` the byte offset
    of its first record.
    """
    with np.errstate(over="ignore"):
        finite = np.isfinite(values.astype(np.float32))
    if finite.all():
        return
    j, i = np.unravel_index(np.argmin(finite), finite.shape)
    offset = int(first + j * record + TRACE_HEADER_BYTES + 4 * i)
    value = float(values[j, i])
    if np.isfinite(value):
        raise FormatError(f"sample {value!r} is beyond the float32 range", offset=offset)
    raise FormatError("non-finite samples after decode", offset=offset)
