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
Seismic data (a section or volume) is kind=raw, units=dimensionless,
scale=0; a map has its kind, that kind's units, and its scale or fused.
Any other key=value pair is free-form metadata: the writer takes it from
the container's meta (and a section's label), `info` prints every pair,
and read_grid returns each non-structural one in the container's meta
(label as a section's label field). A key may appear once. The payload is
stored first-axis-fastest: all rows of column 0, then column 1, ... (for a
section that makes each trace contiguous; for a volume the time axis varies
fastest, then x, then y). The data offset is wherever the blank line ends;
`info` reports it and format errors carry the byte offset of the first
inconsistency, and a non-finite sample is an error at its own offset.
Values are float32 in the file and float64 in memory. The reader strips
and lowercases keys, so the writer refuses metadata that would not read
back unchanged: a key that is not already stripped and lowercase, a
structural key, and non-ASCII text.

The reader parses the header from a bounded prefix (one block at a time
until the blank line), takes the payload size from the file's size, and
reads the payload in blocks of whole last-axis slices, each one contiguous
run of the file, into one reused buffer. Each block is checked at float32
and cast into its last-axis slice of the C-order float64 result, which
becomes the container's data without a copy: the peak is the result plus
about one block. `info` reads only the header. The writer casts, checks
and writes the payload one last-axis block at a time; a value beyond the
float32 range fails the write.

Writes go to a temp file in the target directory followed by an atomic
rename, so readers never observe a half-written grid; a failure while
writing (a refused rename, an error raised from a payload block) removes
the temp file and leaves an existing target as it was.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import FormatError, ParameterError, _naming
from .grid import (
    KIND_UNITS,
    AttributeKind,
    AttributeMap,
    Grid2,
    SeismicSection,
    SeismicVolume,
    Units,
    _Adopted,
)

MAGIC = "PFGRID1"

# Keys consumed by the reader; anything else is preserved as metadata.
_STRUCTURAL_KEYS = {
    "magic", "rows", "cols", "planes", "dt", "dx", "dy", "kind", "units", "scale",
}

# the tags of seismic data; no attribute has this kind, so only the format names it
_RAW_TAGS = {"kind": "raw", "units": "dimensionless", "scale": "0"}

_MAX_CELLS = 1 << 34  # refuse absurd headers before allocating

# 4-byte words per block read or written; a block holds whole SEG-Y trace
# records or whole last-axis slices of a grid, at least one
_BLOCK_WORDS = 1 << 17
# last-axis slices a grid read takes per block at least, or the whole axis:
# a 64-byte line of the float64 result holds 8 neighbours along that axis,
# so each line is then written by one block
_READ_SLICES = 8


def _atomic_write(path: str, chunks) -> None:
    """Write ``chunks`` (bytes or C-contiguous arrays), in order, to ``path``.

    ``chunks`` is consumed one item at a time, so a generator need not
    make its blocks all at once. An exception it raises removes the temp
    file and leaves ``path`` as it was.
    """
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


def _header_and_samples(obj) -> tuple[bytes, np.ndarray]:
    """The header bytes and the float64 samples."""
    if isinstance(obj, Grid2):
        obj = SeismicSection(obj, dt=1.0, dx=1.0)
    if isinstance(obj, AttributeMap):
        scale = "fused" if obj.is_fused else str(obj.scale)
        tags = {"kind": obj.kind.value, "units": obj.units.value, "scale": scale}
    elif isinstance(obj, (SeismicSection, SeismicVolume)):
        tags = _RAW_TAGS
    else:
        raise ParameterError(f"cannot serialize a {type(obj).__name__}")
    data = getattr(obj, "grid", obj).data
    label = getattr(obj, "label", "")
    meta = {**obj.meta, "label": label} if label else obj.meta
    pairs = [("magic", MAGIC), *zip(("rows", "cols", "planes"), map(str, data.shape))]
    for key in ("dt", "dx", "dy"):
        value = getattr(obj, key, None)
        if value is not None:
            pairs.append((key, _format_float(value)))
    pairs += tags.items()
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

    header = "".join(f"{k}={v}\n" for k, v in pairs) + "\n"
    return header.encode("ascii"), data


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


def _slices_per_block(data: np.ndarray) -> int:
    """Last-axis slices of ``data`` in one block; each slice is one
    contiguous run of the first-axis-fastest payload."""
    return max(1, _BLOCK_WORDS // (data.size // data.shape[-1]))


def _file_blocks(header: bytes, data: np.ndarray):
    """The header, then the float32 payload one block at a time.

    Raises:
        ParameterError: a block holds a value beyond the float32 range.
    """
    yield header
    step = _slices_per_block(data)
    for k in range(0, data.shape[-1], step):
        samples = _float32_payload(data[..., k : k + step])
        if not np.isfinite(samples).all():
            raise ParameterError("values overflow float32; cannot serialize")
        yield samples


def write_grid(path: str, obj) -> None:
    """Serialize a section, volume, map, or bare grid to ``path`` atomically.

    The header carries the object's ``meta`` (and a section's label):
    ASCII only, no '=' in a key, no newlines, keys already stripped and
    lowercase, no structural keys.

    Raises:
        ParameterError: unserializable object or metadata, or a value
            beyond the float32 range, named after ``path``; an existing
            file at ``path`` is left as it was.
    """
    with _naming(path, ParameterError):
        _atomic_write(path, _file_blocks(*_header_and_samples(obj)))


def parse_header(blob: bytes) -> tuple[dict[str, str], int]:
    """Parse the ASCII header; returns (pairs, data offset).

    Raises:
        FormatError: missing/blank magic line, malformed line, a repeated
            key, no blank terminator. The error carries the byte offset.
    """
    pairs: dict[str, str] = {}
    offset = 0
    first = True
    while True:
        end = blob.find(b"\n", offset)
        if end < 0:
            raise FormatError(
                "header never terminated by a blank line", offset=offset
            )
        line = blob[offset:end]
        if line == b"":
            return pairs, end + 1
        try:
            text = line.decode("ascii")
        except UnicodeDecodeError:
            raise FormatError("non-ASCII header line", offset=offset) from None
        if "=" not in text:
            raise FormatError(
                f"malformed header line {text!r}", offset=offset
            )
        key, _, value = text.partition("=")
        key = key.strip().lower()
        if first:
            if key != "magic" or value != MAGIC:
                found = value if key == "magic" else text
                raise FormatError(
                    f"bad magic {found!r}; expected {MAGIC}", offset=0
                )
            first = False
        if key in pairs:
            raise FormatError(f"repeated header key {key!r}", offset=offset)
        pairs[key] = value
        offset = end + 1


def _read_exactly(handle, buffer, offset: int) -> None:
    """Fill ``buffer`` from ``handle``, which stands at byte ``offset``.

    Raises:
        FormatError: the file ends first, because it shrank after its size
            was taken; the offset is where it ended.
    """
    got = handle.readinto(buffer) or 0
    if got < len(buffer):
        raise FormatError(
            f"file ends at byte {offset + got}, short of the size it had when opened",
            offset=offset + got,
        )


def _read_header(handle) -> tuple[dict[str, str], int, int]:
    """Parse the header of an open grid file: (pairs, data offset, file size).

    The prefix handed to parse_header grows a block at a time until it
    holds the blank line that ends the header, or the whole file, so every
    line it parses is a whole line of the file.
    """
    size = os.fstat(handle.fileno()).st_size
    prefix = b""
    while True:
        chunk = handle.read(4 * _BLOCK_WORDS)
        prefix += chunk
        if not chunk or prefix.startswith(b"\n") or b"\n\n" in prefix:
            return (*parse_header(prefix), size)


def _read_payload(
    handle, pairs: dict[str, str], offset: int, size: int
) -> np.ndarray:
    """The payload the header describes, as a C-order float64 array.

    The payload is read in blocks of whole last-axis slices: about
    ``_BLOCK_WORDS`` words, and at least ``_READ_SLICES`` slices or the
    whole axis, so a volume with large slices is read a few blocks above
    its result rather than writing each cache line from several blocks.
    Each block is checked at float32 before it is cast: casting a
    signalling NaN would raise a warning first.
    """
    rows = _require_int(pairs, "rows", offset)
    cols = _require_int(pairs, "cols", offset)
    planes = _require_int(pairs, "planes", offset) if "planes" in pairs else None
    cells = rows * cols * (planes or 1)
    if cells > _MAX_CELLS:
        raise FormatError(f"header declares {cells} cells", offset=offset)
    expected = cells * 4
    actual = size - offset
    if actual != expected:
        raise FormatError(
            f"payload holds {actual} bytes, header implies {expected}",
            offset=offset + min(actual, expected),
        )

    data = np.empty((rows, cols) if planes is None else (rows, cols, planes))
    step = max(_READ_SLICES, _slices_per_block(data))
    plane = data.size // data.shape[-1]
    buffer = bytearray(4 * plane * min(step, data.shape[-1]))
    handle.seek(offset)
    for k in range(0, data.shape[-1], step):
        stop = min(k + step, data.shape[-1])
        view = memoryview(buffer)[: 4 * plane * (stop - k)]
        _read_exactly(handle, view, offset)
        block = np.frombuffer(view, dtype="<f4")
        finite = np.isfinite(block)
        if not finite.all():
            raise FormatError(
                "payload contains non-finite samples",
                offset=offset + 4 * int(np.argmin(finite)),
            )
        # a slice's words run first-axis-fastest: the reversed shape in C order
        data[..., k:stop] = block.reshape(stop - k, *data.shape[-2::-1]).T
        offset += len(view)
    return data


def _require_int(pairs: dict[str, str], key: str, offset: int) -> int:
    if key not in pairs:
        raise FormatError(f"header is missing {key}", offset=offset)
    try:
        value = int(pairs[key])
    except ValueError:
        raise FormatError(f"{key}={pairs[key]!r} is not an integer", offset=offset) from None
    if value < 1:
        raise FormatError(f"{key} must be >= 1, got {value}", offset=offset)
    return value


def _optional_interval(pairs: dict[str, str], key: str, offset: int) -> float:
    if key not in pairs:
        return 1.0
    try:
        value = float(pairs[key])
    except ValueError:
        raise FormatError(f"{key}={pairs[key]!r} is not a number", offset=offset) from None
    if not np.isfinite(value) or value <= 0.0:
        raise FormatError(
            f"{key} must be a positive finite number, got {pairs[key]!r}",
            offset=offset,
        )
    return value


def read_grid(path: str):
    """Read a grid file back into the object its header describes.

    kind=raw gives a SeismicSection (or SeismicVolume when planes is
    present); any attribute kind gives an AttributeMap. Each other pair
    goes into its meta, and a section's label into its label field.

    Raises:
        FormatError: bad magic, malformed header, unknown kind/units/scale,
            units other than the kind's, raw data whose scale is not 0, a
            dt/dx/dy that is not positive and finite, a negative scale, a
            payload whose byte count disagrees with the header, or a
            non-finite sample (at its byte offset); named after ``path``.
    """
    with _naming(path, FormatError):
        with open(path, "rb") as handle:
            pairs, data_offset, size = _read_header(handle)
            data = _Adopted(_read_payload(handle, pairs, data_offset, size))

        dt = _optional_interval(pairs, "dt", data_offset)
        dx = _optional_interval(pairs, "dx", data_offset)
        dy = _optional_interval(pairs, "dy", data_offset)
        kind_tag = pairs.get("kind", _RAW_TAGS["kind"])
        if kind_tag == _RAW_TAGS["kind"]:
            kind, units = None, _RAW_TAGS["units"]
        else:
            try:
                kind = AttributeKind(kind_tag)
            except ValueError:
                raise FormatError(f"unknown kind {kind_tag!r}", offset=0) from None
            if "planes" in pairs:
                raise FormatError("attribute maps must be 2D", offset=0)
            units = KIND_UNITS[kind].value
        meta = {k: v for k, v in pairs.items() if k not in _STRUCTURAL_KEYS}

        units_tag = pairs.get("units", units)
        if units_tag != units:
            if units_tag not in {_RAW_TAGS["units"], *(u.value for u in Units)}:
                raise FormatError(f"unknown units {units_tag!r}", offset=0)
            raise FormatError(
                f"units {units_tag!r} do not match kind {kind_tag!r}", offset=0
            )
        scale_tag = pairs.get("scale", "0")
        if scale_tag == "fused":
            scale = None
        else:
            try:
                scale = int(scale_tag)
            except ValueError:
                raise FormatError(f"bad scale tag {scale_tag!r}", offset=0) from None
            if scale < 0:
                raise FormatError(
                    f"scale must be 'fused' or >= 0, got {scale_tag!r}",
                    offset=data_offset,
                )
        if kind is None:
            if scale != 0:
                raise FormatError(f"raw data has scale 0, got {scale_tag!r}", offset=0)
            if "planes" in pairs:
                return SeismicVolume(data, dt=dt, dx=dx, dy=dy, meta=meta)
            return SeismicSection(Grid2(data), dt=dt, dx=dx, label=meta.pop("label", ""), meta=meta)
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
    with _naming(path, FormatError), open(path, "rb") as handle:
        pairs, data_offset, size = _read_header(handle)
    described = list(pairs.items())
    described.append(("data_offset", str(data_offset)))
    described.append(("payload_bytes", str(size - data_offset)))
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
        ParameterError: percentiles outside 0 <= lo < hi <= 100, or values
            whose span overflows float64.
    """
    if not (0.0 <= clip_lo < clip_hi <= 100.0):
        raise ParameterError(
            f"need 0 <= clip_lo < clip_hi <= 100, got {clip_lo!r}, {clip_hi!r}"
        )
    grid = source.grid if isinstance(source, AttributeMap) else source
    data = grid.data
    low, high = float(data.min()), float(data.max())
    if not np.isfinite(high - low):  # Python floats overflow to inf without a warning
        raise ParameterError(f"values span {low!r} to {high!r}, which overflows float64")
    lo, hi = np.percentile(data, [clip_lo, clip_hi])
    if hi <= lo:
        pixels = np.full(grid.shape, 128, dtype=np.uint8)
    else:
        unit = np.clip((data - lo) / (hi - lo), 0.0, 1.0)
        pixels = np.rint(unit * 255.0).astype(np.uint8)
    header = f"P5 {grid.cols} {grid.rows} 255\n".encode("ascii")
    _atomic_write(path, (header, pixels))
