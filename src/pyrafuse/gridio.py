"""Grid file format (PFGRID1) and 8-bit PGM export.

A grid file is a line-oriented ASCII header terminated by one blank line,
followed by the raw sample payload:

    magic=PFGRID1
    rows=256
    cols=96
    dt=0.004
    dx=25.0
    kind=dip
    units=samples_per_trace
    scale=fused
    <blank line>
    <rows * cols (* planes) float32 little-endian samples>

Required keys: magic (first line), rows, cols. Volumes add planes and dy.
Any other key=value pair round-trips as free-form metadata. The payload is
stored first-axis-fastest: all rows of column 0, then column 1, ... (for a
section that makes each trace contiguous; for a volume the time axis varies
fastest, then x, then y). The data offset is wherever the blank line ends;
`info` reports it and format errors carry the byte offset of the first
inconsistency, and a non-finite sample is an error at its own offset.
Values are float32 in the file and float64 in memory. The reader strips
and lowercases keys, so the writer refuses metadata that would not read
back unchanged: a key that is not already stripped and lowercase, a
structural key, and non-ASCII text.

Writes go to a temp file in the target directory followed by an atomic
rename, so readers never observe a half-written grid.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import FormatError, ParameterError
from .grid import (
    KIND_UNITS,
    AttributeKind,
    AttributeMap,
    Grid2,
    SeismicSection,
    SeismicVolume,
    Units,
)

MAGIC = "PFGRID1"

# Keys consumed by the reader; anything else is preserved as metadata.
_STRUCTURAL_KEYS = {
    "magic", "rows", "cols", "planes", "dt", "dx", "dy", "kind", "units", "scale",
}

_MAX_CELLS = 1 << 34  # refuse absurd headers before allocating


def _atomic_write(path: str, *chunks) -> None:
    """Write ``chunks`` (bytes or C-contiguous arrays), in order, to ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(prefix=".pfg-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _format_float(value: float) -> str:
    return repr(float(value))


def _header_and_payload(
    obj, extra_meta: dict[str, str] | None = None
) -> tuple[bytes, np.ndarray]:
    """The header bytes, and the payload as a C-contiguous float32 array.

    The payload array is the transpose of the samples, so its buffer is the
    file's first-axis-fastest payload without another copy.
    """
    if isinstance(obj, Grid2):
        obj = AttributeMap(obj, AttributeKind.RAW)
    if isinstance(obj, AttributeMap):
        data, kind, scale, meta = obj.grid.data, obj.kind, obj.scale, obj.meta
    elif isinstance(obj, SeismicSection):
        data, kind, scale = obj.grid.data, AttributeKind.RAW, 0
        meta = {"label": obj.label} if obj.label else {}
    elif isinstance(obj, SeismicVolume):
        data, kind, scale, meta = obj.data, AttributeKind.RAW, 0, {}
    else:
        raise ParameterError(f"cannot serialize a {type(obj).__name__}")

    meta = {**meta, **(extra_meta or {})}
    pairs = [("magic", MAGIC), *zip(("rows", "cols", "planes"), map(str, data.shape))]
    for key in ("dt", "dx", "dy"):
        value = getattr(obj, key, None)
        if value is not None:
            pairs.append((key, _format_float(value)))
    pairs += [
        ("kind", kind.value),
        ("units", KIND_UNITS[kind].value),
        ("scale", "fused" if scale is None else str(scale)),
    ]
    # each pair must come back from parse_header unchanged
    for key in sorted(meta):
        value = str(meta[key])
        if "\n" in key or "\n" in value or "=" in key or not (key + value).isascii():
            raise ParameterError(f"metadata key/value not representable: {key!r}")
        if key != key.strip().lower():
            raise ParameterError(f"metadata key {key!r} is not stripped and lowercase")
        if key in _STRUCTURAL_KEYS:
            raise ParameterError(f"metadata key {key!r} shadows a structural key")
        pairs.append((key, value))

    samples = _float32_payload(data)
    if not np.isfinite(samples).all():
        raise ParameterError("values overflow float32; cannot serialize")
    header = "".join(f"{k}={v}\n" for k, v in pairs) + "\n"
    return header.encode("ascii"), samples


def _float32_payload(data: np.ndarray) -> np.ndarray:
    """``data`` as float32, transposed and C-contiguous: the file's order.

    It is filled from blocks of 32 first-axis rows, whose transposes stay
    in cache; one transposing cast of a C-order volume took about twice as
    long. Values beyond float32 become inf, for the caller to reject.
    """
    samples = np.empty(data.shape[::-1], dtype="<f4")
    with np.errstate(over="ignore"):
        for i in range(0, data.shape[0], 32):
            samples[..., i : i + 32] = data[i : i + 32].T
    return samples


def write_grid(path: str, obj, extra_meta: dict[str, str] | None = None) -> None:
    """Serialize a section, volume, map, or bare grid to ``path`` atomically.

    ``extra_meta`` adds free-form header pairs on top of the object's own
    metadata (same restrictions: ASCII only, no '=' in a key, no newlines,
    keys already stripped and lowercase, no structural keys).
    """
    _atomic_write(path, *_header_and_payload(obj, extra_meta))


def parse_header(blob: bytes, *, path: str = "") -> tuple[dict[str, str], int]:
    """Parse the ASCII header; returns (pairs, data offset).

    Raises:
        FormatError: missing/blank magic line, malformed line, no blank
            terminator. The error carries the byte offset.
    """
    pairs: dict[str, str] = {}
    offset = 0
    first = True
    while True:
        end = blob.find(b"\n", offset)
        if end < 0:
            raise FormatError(
                f"{path}: header never terminated by a blank line", offset=offset
            )
        line = blob[offset:end]
        if line == b"":
            return pairs, end + 1
        try:
            text = line.decode("ascii")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: non-ASCII header line", offset=offset) from None
        if "=" not in text:
            raise FormatError(
                f"{path}: malformed header line {text!r}", offset=offset
            )
        key, _, value = text.partition("=")
        key = key.strip().lower()
        if first:
            if key != "magic" or value != MAGIC:
                found = value if key == "magic" else text
                raise FormatError(
                    f"{path}: bad magic {found!r}; expected {MAGIC}", offset=0
                )
            first = False
        pairs[key] = value
        offset = end + 1


def _require_int(pairs: dict[str, str], key: str, path: str, offset: int) -> int:
    if key not in pairs:
        raise FormatError(f"{path}: header is missing {key}", offset=offset)
    try:
        value = int(pairs[key])
    except ValueError:
        raise FormatError(f"{path}: {key}={pairs[key]!r} is not an integer", offset=offset) from None
    if value < 1:
        raise FormatError(f"{path}: {key} must be >= 1, got {value}", offset=offset)
    return value


def _optional_interval(pairs: dict[str, str], key: str, path: str, offset: int) -> float:
    if key not in pairs:
        return 1.0
    try:
        value = float(pairs[key])
    except ValueError:
        raise FormatError(f"{path}: {key}={pairs[key]!r} is not a number", offset=offset) from None
    if not np.isfinite(value) or value <= 0.0:
        raise FormatError(
            f"{path}: {key} must be a positive finite number, got {pairs[key]!r}",
            offset=offset,
        )
    return value


def read_grid(path: str):
    """Read a grid file back into the object its header describes.

    kind=raw gives a SeismicSection (or SeismicVolume when planes is
    present); any attribute kind gives an AttributeMap.

    Raises:
        FormatError: bad magic, malformed header, unknown kind/units/scale,
            a dt/dx/dy that is not positive and finite, a negative scale,
            a payload whose byte count disagrees with the header, or a
            non-finite sample (at its byte offset).
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    pairs, data_offset = parse_header(blob, path=path)

    rows = _require_int(pairs, "rows", path, data_offset)
    cols = _require_int(pairs, "cols", path, data_offset)
    planes = _require_int(pairs, "planes", path, data_offset) if "planes" in pairs else None
    cells = rows * cols * (planes or 1)
    if cells > _MAX_CELLS:
        raise FormatError(f"{path}: header declares {cells} cells", offset=data_offset)

    expected = cells * 4
    actual = len(blob) - data_offset
    if actual != expected:
        raise FormatError(
            f"{path}: payload holds {actual} bytes, header implies {expected}",
            offset=data_offset + min(actual, expected),
        )
    flat = np.frombuffer(blob, dtype="<f4", count=cells, offset=data_offset)
    # checked at float32: casting a signalling NaN would raise a warning first
    finite = np.isfinite(flat)
    if not finite.all():
        raise FormatError(
            f"{path}: payload contains non-finite samples",
            offset=data_offset + 4 * int(np.argmin(finite)),
        )
    del finite
    shape = (rows, cols) if planes is None else (rows, cols, planes)
    # a float32 view; the container makes the one float64 copy
    data = flat.reshape(shape, order="F")

    dt = _optional_interval(pairs, "dt", path, data_offset)
    dx = _optional_interval(pairs, "dx", path, data_offset)
    dy = _optional_interval(pairs, "dy", path, data_offset)
    kind_tag = pairs.get("kind", AttributeKind.RAW.value)
    try:
        kind = AttributeKind(kind_tag)
    except ValueError:
        raise FormatError(f"{path}: unknown kind {kind_tag!r}", offset=0) from None
    meta = {k: v for k, v in pairs.items() if k not in _STRUCTURAL_KEYS}

    if kind is AttributeKind.RAW:
        if planes is not None:
            return SeismicVolume(data, dt=dt, dx=dx, dy=dy)
        return SeismicSection(Grid2(data), dt=dt, dx=dx, label=meta.get("label", ""))

    if planes is not None:
        raise FormatError(f"{path}: attribute maps must be 2D", offset=0)
    units_tag = pairs.get("units", KIND_UNITS[kind].value)
    try:
        units = Units(units_tag)
    except ValueError:
        raise FormatError(f"{path}: unknown units {units_tag!r}", offset=0) from None
    if units is not KIND_UNITS[kind]:
        raise FormatError(
            f"{path}: units {units.value!r} do not match kind {kind.value!r}", offset=0
        )
    scale_tag = pairs.get("scale", "0")
    if scale_tag == "fused":
        scale = None
    else:
        try:
            scale = int(scale_tag)
        except ValueError:
            raise FormatError(f"{path}: bad scale tag {scale_tag!r}", offset=0) from None
        if scale < 0:
            raise FormatError(
                f"{path}: scale must be 'fused' or >= 0, got {scale_tag!r}",
                offset=data_offset,
            )
    return AttributeMap(
        grid=Grid2(data),
        kind=kind,
        scale=scale,
        dt=dt,
        dx=dx,
        dy=dy if "dy" in pairs else None,
        meta=meta,
    )


def describe_grid(path: str) -> list[tuple[str, str]]:
    """Header pairs plus derived data-offset/payload-bytes, for `info`."""
    with open(path, "rb") as handle:
        blob = handle.read()
    pairs, data_offset = parse_header(blob, path=path)
    described = list(pairs.items())
    described.append(("data_offset", str(data_offset)))
    described.append(("payload_bytes", str(len(blob) - data_offset)))
    return described


def export_pgm(
    source: AttributeMap | Grid2,
    path: str,
    clip_lo: float = 2.0,
    clip_hi: float = 98.0,
) -> None:
    """Render a map to an 8-bit binary PGM with percentile clipping.

    Values at or below the clip_lo percentile map to 0, at or above the
    clip_hi percentile to 255, linear in between. A constant map renders
    as uniform 128.

    Raises:
        ParameterError: percentiles outside 0 <= lo < hi <= 100.
    """
    if not (0.0 <= clip_lo < clip_hi <= 100.0):
        raise ParameterError(
            f"need 0 <= clip_lo < clip_hi <= 100, got {clip_lo!r}, {clip_hi!r}"
        )
    grid = source.grid if isinstance(source, AttributeMap) else source
    data = grid.data
    lo, hi = np.percentile(data, [clip_lo, clip_hi])
    if hi <= lo:
        pixels = np.full(grid.shape, 128, dtype=np.uint8)
    else:
        unit = np.clip((data - lo) / (hi - lo), 0.0, 1.0)
        pixels = np.rint(unit * 255.0).astype(np.uint8)
    header = f"P5 {grid.cols} {grid.rows} 255\n".encode("ascii")
    _atomic_write(path, header, pixels)
