"""Independent reference implementations used only by the tests.

Each oracle is written in the most literal way available — explicit loops,
direct DFT sums, Python's ``sorted`` — deliberately sharing no code path
with the package, so agreement between the two is evidence rather than
tautology. :func:`read_segy_reference`, :func:`decode_ibm32_reference` and
:func:`encode_ibm32_reference` are the package's SEG-Y reader and IBM codec
as they were before they were vectorised: a per-trace loop, the sign *
fraction * 16**exponent formula and a per-value encoding loop.
:func:`reduce_reference` is the pyramid reduction as it was before it
gathered mirrored entries per tap: ``np.pad``, then the same separable
passes, so it agrees with the package bit for bit.
:func:`fuse_median_sort`, :func:`fuse_rank_sort` and
:func:`interp_axis_reference` are the median, rank and linear-resize
kernels as they were before fusion used a sorting network and expansion
worked in place; ``np.sort`` is not stable, so the two sort oracles agree
with the package by value, while the Python ``sorted`` oracles agree bit
for bit. The exceptions are :func:`phase_dip_reference`, which states
single-scale phase dip stage by stage in numpy, in the package's operation
order: the quadrature of :func:`quadrature_fft`, the squared envelope and
its relative guard, the phase derivatives along time and trace, and the
dip quotient; :func:`dip_stack_reference`, which reduces a section
one level at a time with :func:`reduce_reference`, takes each level's
:func:`phase_dip_reference` and expands it with ``expand_to``; and
:func:`dip_slice_reference`, which takes time slices of that. The package's
one dip-row builder, which serves ``phase_dip``, section stacks and volume
slices alike, is gated on exact equality with them.
:func:`volume_attribute_reference` applies the per-scale dip-angle and
curvature formulas, as the package wrote them before it computed every
scale at once, to those slices.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from pyrafuse import (
    AttributeKind,
    FormatError,
    Grid2,
    ParameterError,
    SegyImportOptions,
    SeismicSection,
    SeismicVolume,
    UnsupportedFormatError,
    expand_to,
    make_kernel,
)
from pyrafuse.attributes import EPS_FREQ_DEFAULT, P_MAX_DEFAULT, VELOCITY_DEFAULT
from pyrafuse.pyramid import _interp_stencil
from pyrafuse.segy import (
    _OFF_CROSSLINE,
    _OFF_FORMAT_CODE,
    _OFF_INLINE,
    _OFF_SAMPLE_INTERVAL,
    _OFF_SAMPLES_PER_TRACE,
    FORMAT_IBM,
    FORMAT_IEEE,
    HEADER_BYTES,
    SUPPORTED_FORMATS,
    TRACE_HEADER_BYTES,
)


def reduce_naive(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Blur + decimate via the plain double loop.

    out[m, n] = sum_{k,l in [-r, r]} w[k+r, l+r] * in[2m+k, 2n+l]
    with mirror (edge-repeating symmetric) padding, output dims
    ceil(in/2). No separability assumption: the full 2D weight table
    is applied term by term.
    """
    rows, cols = values.shape
    support = weights.shape[0]
    r = (support - 1) // 2
    padded = np.pad(values, r, mode="symmetric")
    out_rows = (rows + 1) // 2
    out_cols = (cols + 1) // 2
    out = np.zeros((out_rows, out_cols))
    for m in range(out_rows):
        for n in range(out_cols):
            acc = 0.0
            for k in range(-r, r + 1):
                for l in range(-r, r + 1):
                    acc += weights[k + r, l + r] * padded[2 * m + k + r, 2 * n + l + r]
            out[m, n] = acc
    return out


def reduce_reference(values: np.ndarray, kernel) -> np.ndarray:
    """The package's separable reduction as it was before it gathered
    mirrored entries per tap: ``np.pad`` both axes, then a row pass and a
    column pass."""
    padded = np.pad(values, kernel.radius, mode="symmetric")
    half_rows = _downsample_pass_reference(padded, kernel.taps, axis=0)
    return _downsample_pass_reference(half_rows, kernel.taps, axis=1)


def _downsample_pass_reference(padded: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Correlate along ``axis`` (already padded by radius) at even offsets."""
    radius = len(taps) // 2
    n = padded.shape[axis] - 2 * radius
    out_len = (n + 1) // 2
    index: list[slice] = [slice(None)] * padded.ndim
    index[axis] = slice(0, 2 * out_len - 1, 2)
    acc = taps[0] * padded[tuple(index)]
    for k in range(1, len(taps)):
        index[axis] = slice(k, k + 2 * out_len - 1, 2)
        acc += taps[k] * padded[tuple(index)]
    return acc


def hilbert_direct(trace: np.ndarray) -> np.ndarray:
    """Quadrature series by direct DFT sums (no FFT library calls).

    Forward coefficients are computed term by term, the positive-
    frequency half is rotated by -i (DC zeroed; the Nyquist bin of an
    even-length trace zeroed), and the series is summed back sample by
    sample.
    """
    x = [float(v) for v in np.asarray(trace, dtype=np.float64)]
    n = len(x)
    coeff = []
    for k in range(n):
        acc = 0j
        for t in range(n):
            acc += x[t] * cmath.exp(-2j * cmath.pi * k * t / n)
        coeff.append(acc)
    for k in range(n):
        if k == 0:
            coeff[k] = 0j
        elif n % 2 == 0 and k == n // 2:
            coeff[k] = 0j
        elif k < (n + 1) // 2:
            coeff[k] *= -1j
        else:
            coeff[k] *= 1j  # negative frequencies: conjugate symmetry
    out = []
    for t in range(n):
        acc = 0j
        for k in range(n):
            acc += coeff[k] * cmath.exp(2j * cmath.pi * k * t / n)
        out.append(acc.real / n)
    return np.array(out)


def phase_derivative_unwrap(real: np.ndarray, imag: np.ndarray, axis: int) -> np.ndarray:
    """Phase derivative the textbook way: arctan2, unwrap, finite diff."""
    theta = np.unwrap(np.arctan2(imag, real), axis=axis)
    return np.gradient(theta, axis=axis, edge_order=1)


def median_listwise(column: list[float]) -> float:
    """Median with the even-count tie rule: mean of the two middle values."""
    ordered = sorted(column)
    n = len(ordered)
    if n == 0:
        return 0.0
    if n % 2 == 1:
        return ordered[n // 2]
    return 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])


def fuse_median_naive(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Cell-by-cell masked median via Python sort."""
    k, rows, cols = values.shape
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            column = [float(values[s, i, j]) for s in range(k) if valid[s, i, j]]
            out[i, j] = median_listwise(column)
    return out


def fuse_median_sort(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Masked median through ``np.sort``, whose ties may land in any order."""
    counts = valid.sum(axis=0)
    # Push guarded entries to +inf so they sort past every real value, then
    # index the middle of each cell's valid run.
    padded = np.where(valid, values, np.inf)
    padded.sort(axis=0)
    safe = np.maximum(counts, 1)
    lower = np.take_along_axis(padded, ((safe - 1) // 2)[None], axis=0)[0]
    upper = np.take_along_axis(padded, (safe // 2)[None], axis=0)[0]
    out = 0.5 * (lower + upper)
    out[counts == 0] = 0.0
    return out


def fuse_rank_sort(values: np.ndarray, rank: int) -> np.ndarray:
    """Rank-``rank`` order statistic of every cell through ``np.sort``."""
    return np.sort(values, axis=0)[rank]


def fuse_rank_naive(values: np.ndarray, rank: int) -> np.ndarray:
    """Cell-by-cell order statistic via Python sort (stable: ties keep scale order)."""
    k, rows, cols = values.shape
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            out[i, j] = sorted(float(values[s, i, j]) for s in range(k))[rank]
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact equality that also tells -0.0 from 0.0 (np.array_equal does not)."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def correlation_lag(a: np.ndarray, b: np.ndarray) -> float:
    """Sub-sample shift of ``b`` relative to ``a`` (positive = delayed).

    Full cross-correlation by explicit sums, integer peak, then a
    three-point parabolic refinement around it.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = len(a)
    lags = range(-(n - 1), n)
    corr = []
    for lag in lags:
        acc = 0.0
        for t in range(n):
            u = t - lag
            if 0 <= u < n:
                acc += b[t] * a[u]
        corr.append(acc)
    corr = np.array(corr)
    peak = int(np.argmax(corr))
    if peak == 0 or peak == len(corr) - 1:
        return float(peak - (n - 1))
    y0, y1, y2 = corr[peak - 1 : peak + 2]
    denom = y0 - 2.0 * y1 + y2
    offset = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
    return float(peak - (n - 1)) + float(offset)


def bilinear_naive(values: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Edge-aligned bilinear resize, one output cell at a time."""
    src_rows, src_cols = values.shape

    def pos(i, target, source):
        if target == 1 or source == 1:
            return 0.0
        return i * (source - 1) / (target - 1)

    out = np.zeros((rows, cols))
    for i in range(rows):
        y = pos(i, rows, src_rows)
        y0 = min(int(math.floor(y)), src_rows - 1)
        y1 = min(y0 + 1, src_rows - 1)
        fy = y - y0
        for j in range(cols):
            x = pos(j, cols, src_cols)
            x0 = min(int(math.floor(x)), src_cols - 1)
            x1 = min(x0 + 1, src_cols - 1)
            fx = x - x0
            top = values[y0, x0] + fx * (values[y0, x1] - values[y0, x0])
            bottom = values[y1, x0] + fx * (values[y1, x1] - values[y1, x0])
            out[i, j] = top + fy * (bottom - top)
    return out


def blend_reference(values: np.ndarray, lower, upper, frac) -> np.ndarray:
    """Linear interpolation between rows ``lower`` and ``upper`` of ``values``."""
    a = values[lower]
    b = values[upper]
    return a + frac * (b - a)


def interp_axis_reference(values: np.ndarray, target: int, axis: int) -> np.ndarray:
    """Edge-aligned linear resize along ``axis`` with :func:`blend_reference`."""
    size = values.shape[axis]
    if target == size:
        return values
    moved = np.moveaxis(values, axis, 0)
    if size == 1:
        out = np.broadcast_to(moved, (target,) + moved.shape[1:]).copy()
        return np.moveaxis(out, 0, axis)
    lower, upper, frac = _interp_stencil(size, target)
    out = blend_reference(moved, lower, upper, frac.reshape((-1,) + (1,) * (moved.ndim - 1)))
    return np.moveaxis(out, 0, axis)


# f^2 + h^2 at or below this fraction of its section maximum is untrusted.
ENVELOPE_GUARD_REL = 1e-10


def quadrature_fft(values: np.ndarray) -> np.ndarray:
    """Quadrature of every trace (axis 0) of ``values``, by FFT.

    The positive-frequency bins are multiplied by -i, the DC bin and the
    Nyquist bin of an even length by 0, and the spectrum is transformed
    back: the same steps, in the same order, as the package.
    """
    n = values.shape[0]
    mult = np.full(n // 2 + 1, -1j)
    mult[0] = 0.0
    if n % 2 == 0:
        mult[-1] = 0.0
    spectrum = np.fft.rfft(values, axis=0)
    spectrum *= mult.reshape((-1,) + (1,) * (values.ndim - 1))
    return np.fft.irfft(spectrum, n=n, axis=0)


def phase_dip_reference(
    section,
    *,
    p_max: float = P_MAX_DEFAULT,
    eps_freq: float = EPS_FREQ_DEFAULT,
):
    """(dip, quality) of a section, stage by stage.

    With f the section and h its :func:`quadrature_fft`, the squared
    envelope is f*f + h*h, trusted where above ``ENVELOPE_GUARD_REL`` times
    its maximum. The phase derivative along an axis is
    (f*dh - h*df)/(f*f + h*h) from ``np.gradient`` differences (one-sided
    at the edges), 0 where untrusted. The dip is -d_trace/d_time where
    |d_time| >= eps_freq, clipped to [-p_max, p_max], and 0 with quality 0
    elsewhere.
    """
    f = section.grid.data
    h = quadrature_fft(f)
    env2 = f * f + h * h
    trusted = env2 > ENVELOPE_GUARD_REL * env2.max()

    def derivative(axis: int) -> np.ndarray:
        num = (f * np.gradient(h, axis=axis, edge_order=1)
               - h * np.gradient(f, axis=axis, edge_order=1))
        out = np.zeros(num.shape)
        out[trusted] = num[trusted] / env2[trusted]
        return out

    d_time = derivative(0)
    d_trace = derivative(1)
    ok = np.abs(d_time) >= eps_freq
    dip = np.zeros(d_time.shape)
    dip[ok] = -(d_trace[ok] / d_time[ok])
    dip = np.clip(dip, -p_max, p_max)
    dip[~ok] = 0.0
    return dip, ok.astype(np.float64)


def dip_stack_reference(
    section,
    scales: int,
    kernel=None,
    *,
    p_max: float = P_MAX_DEFAULT,
    eps_freq: float = EPS_FREQ_DEFAULT,
):
    """Per-scale (dip, quality) of a section, stage by stage.

    Each level is reduced from the one before with :func:`reduce_reference`.
    Its :func:`phase_dip_reference` dip and quality are expanded to the
    base dims on their own; expanded quality is trusted (1.0) where it
    exceeds 0.5.
    """
    kernel = kernel if kernel is not None else make_kernel()
    rows, cols = section.grid.shape
    out = []
    level = section.grid.data
    for i in range(scales):
        if i:
            level = reduce_reference(level, kernel)
        level_section = SeismicSection(Grid2(level), dt=section.dt * 2**i, dx=section.dx * 2**i)
        dip, quality = phase_dip_reference(level_section, p_max=p_max, eps_freq=eps_freq)
        values = expand_to(Grid2(dip), rows, cols).data
        trust = expand_to(Grid2(quality), rows, cols).data > 0.5
        out.append((values, trust.astype(np.float64)))
    return out


def dip_slice_reference(
    volume,
    t: int,
    scales: int,
    kernel=None,
    *,
    p_max: float = P_MAX_DEFAULT,
    eps_freq: float = EPS_FREQ_DEFAULT,
):
    """Per-scale (p, q, quality) at time slice ``t``, one section at a time.

    Row ``t`` of the dip stack of every fixed-y section gives column y of
    ``p``; row ``t`` of every fixed-x section gives row x of ``q``. A cell
    is trusted where both dips are. ``kernel``, ``p_max`` and ``eps_freq``
    go to :func:`dip_stack_reference` unchanged.
    """
    return [
        (p[t], q[t], quality[t])
        for p, q, quality in dip_cube_reference(
            volume, scales, kernel, p_max=p_max, eps_freq=eps_freq
        )
    ]


def dip_cube_reference(
    volume,
    scales: int,
    kernel=None,
    *,
    p_max: float = P_MAX_DEFAULT,
    eps_freq: float = EPS_FREQ_DEFAULT,
):
    """:func:`dip_slice_reference` at every time slice: (nt, nx, ny) arrays."""

    def stack(section):
        return dip_stack_reference(section, scales, kernel, p_max=p_max, eps_freq=eps_freq)

    shape = (scales, volume.nt, volume.nx, volume.ny)
    p, q, p_ok, q_ok = (np.zeros(shape) for _ in range(4))
    for y in range(volume.ny):
        for i, (values, quality) in enumerate(stack(volume.crossline_section(y))):
            p[i, :, :, y] = values
            p_ok[i, :, :, y] = quality
    for x in range(volume.nx):
        for i, (values, quality) in enumerate(stack(volume.inline_section(x))):
            q[i, :, x, :] = values
            q_ok[i, :, x, :] = quality
    return [(p[i], q[i], p_ok[i] * q_ok[i]) for i in range(scales)]


def volume_attribute_reference(volume, kind, slices, velocity: float = VELOCITY_DEFAULT):
    """Per-scale (values, quality) of dip angle or curvature at one time slice.

    ``slices`` is what :func:`dip_slice_reference` returns for ``volume``:
    per scale, the (nx, ny) inline dip p, crossline dip q and quality. Each
    scale goes through the formulas on its own, with the physical slopes
    s_x = p*(v*dt/2)/dx and s_y = q*(v*dt/2)/dy: dip angle
    atan(hypot(s_x, s_y)), and curvature (a + b) +/- hypot(a - b, c) with
    a = ds_x/dx / 2, b = ds_y/dy / 2 and c = (ds_x/dy + ds_y/dx) / 2.
    """
    out = []
    for p, q, quality in slices:
        half_step = velocity * volume.dt / 2.0
        s_x = p * (half_step / volume.dx)
        s_y = q * (half_step / volume.dy)
        if kind is AttributeKind.DIP_ANGLE:
            values = np.arctan(np.hypot(s_x, s_y))
        else:
            a = 0.5 * np.gradient(s_x, volume.dx, axis=0, edge_order=1)
            b = 0.5 * np.gradient(s_y, volume.dy, axis=1, edge_order=1)
            c = 0.5 * (
                np.gradient(s_x, volume.dy, axis=1, edge_order=1)
                + np.gradient(s_y, volume.dx, axis=0, edge_order=1)
            )
            fold = np.hypot(a - b, c)
            mean2 = a + b
            values = mean2 + fold if kind is AttributeKind.CURV_POS else mean2 - fold
        out.append((values, quality))
    return out


def decode_ibm32_reference(words) -> np.ndarray:
    """Decode IBM System/360 single-precision words (uint32) to float64."""
    w = np.asarray(words, dtype=np.uint64)
    sign = 1.0 - 2.0 * ((w >> 31) & 1).astype(np.float64)
    exponent = ((w >> 24) & 0x7F).astype(np.int64) - 64
    fraction = (w & 0xFFFFFF).astype(np.float64) / float(1 << 24)
    return sign * fraction * np.power(16.0, exponent.astype(np.float64))


def encode_ibm32_reference(values) -> np.ndarray:
    """Encode floats as IBM single-precision words (uint32).

    Round-trips IEEE float32 values within float32 precision; used to build
    fixtures and to verify the decoder.

    Raises:
        ParameterError: magnitude outside the representable IBM range.
    """
    vals = np.asarray(values, dtype=np.float64)
    out = np.zeros(vals.shape, dtype=np.uint32)
    flat = vals.ravel()
    out_flat = out.ravel()
    for i, v in enumerate(flat):
        if v == 0.0 or not np.isfinite(v):
            if not np.isfinite(v):
                raise ParameterError(f"cannot encode non-finite value {v!r}")
            continue
        sign = 1 if v < 0 else 0
        mag = abs(v)
        # choose e with mag / 16**e in [1/16, 1)
        e = int(np.floor(np.log2(mag) / 4.0)) + 1
        frac = mag / 16.0**e
        while frac >= 1.0:
            e += 1
            frac /= 16.0
        while frac < 1.0 / 16.0:
            e -= 1
            frac *= 16.0
        mantissa = int(round(frac * (1 << 24)))
        if mantissa == 1 << 24:
            e += 1
            mantissa = 1 << 20
        if not -64 <= e <= 63:
            raise ParameterError(f"value {v!r} outside the IBM float range")
        out_flat[i] = (sign << 31) | ((e + 64) << 24) | mantissa
    return out


def _read_u16(blob: bytes, offset: int, big_endian: bool) -> int:
    order = ">u2" if big_endian else "<u2"
    return int(np.frombuffer(blob, dtype=order, count=1, offset=offset)[0])


def read_segy_reference(path: str, options: SegyImportOptions | None = None):
    """Import a SEG-Y file as a SeismicSection or SeismicVolume, trace by trace.

    Raises:
        FormatError: file shorter than its headers, zero sample interval
            or trace length, or trailing bytes that do not divide into
            whole trace records.
        UnsupportedFormatError: sample format other than 1 or 5.
    """
    options = options or SegyImportOptions()
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < HEADER_BYTES:
        raise FormatError(
            f"{path}: file holds {len(blob)} bytes, SEG-Y headers need {HEADER_BYTES}",
            offset=len(blob),
        )
    big = options.big_endian
    dt_us = _read_u16(blob, _OFF_SAMPLE_INTERVAL, big)
    ns = _read_u16(blob, _OFF_SAMPLES_PER_TRACE, big)
    fmt = options.format_code or _read_u16(blob, _OFF_FORMAT_CODE, big)
    if dt_us == 0:
        raise FormatError(f"{path}: sample interval is 0", offset=_OFF_SAMPLE_INTERVAL)
    if ns == 0:
        raise FormatError(f"{path}: samples per trace is 0", offset=_OFF_SAMPLES_PER_TRACE)
    if fmt not in SUPPORTED_FORMATS:
        raise UnsupportedFormatError(
            f"{path}: sample format {fmt} unsupported (supported: "
            f"{FORMAT_IBM} = IBM float, {FORMAT_IEEE} = IEEE float32)",
        )

    record = TRACE_HEADER_BYTES + 4 * ns
    body = len(blob) - HEADER_BYTES
    n_traces = body // record
    if n_traces < 1:
        raise FormatError(f"{path}: no complete trace records", offset=HEADER_BYTES)
    if body % record != 0:
        raise FormatError(
            f"{path}: {body} bytes of traces is not a whole number of "
            f"{record}-byte records",
            offset=HEADER_BYTES + n_traces * record,
        )
    if options.max_traces is not None:
        n_traces = min(n_traces, int(options.max_traces))

    word_order = ">u4" if big else "<u4"
    ieee_order = ">f4" if big else "<f4"
    int_order = ">i4" if big else "<i4"
    traces = np.empty((ns, n_traces), dtype=np.float64)
    inlines = np.empty(n_traces, dtype=np.int64)
    crosslines = np.empty(n_traces, dtype=np.int64)
    for j in range(n_traces):
        start = HEADER_BYTES + j * record
        inlines[j] = np.frombuffer(blob, dtype=int_order, count=1, offset=start + _OFF_INLINE)[0]
        crosslines[j] = np.frombuffer(blob, dtype=int_order, count=1, offset=start + _OFF_CROSSLINE)[0]
        sample_start = start + TRACE_HEADER_BYTES
        if fmt == FORMAT_IEEE:
            traces[:, j] = np.frombuffer(blob, dtype=ieee_order, count=ns, offset=sample_start)
        else:
            words = np.frombuffer(blob, dtype=word_order, count=ns, offset=sample_start)
            traces[:, j] = decode_ibm32_reference(words)
    if not np.isfinite(traces).all():
        raise FormatError(f"{path}: non-finite samples after decode", offset=HEADER_BYTES)

    dt = dt_us * 1e-6
    volume = _try_volume(traces, inlines, crosslines, dt, options)
    if volume is not None:
        return volume
    return SeismicSection(Grid2(traces), dt=dt, dx=options.dx, label="segy import")


def _try_volume(traces, inlines, crosslines, dt, options):
    unique_il = np.unique(inlines)
    unique_xl = np.unique(crosslines)
    if len(unique_il) < 2 or len(unique_xl) < 2:
        return None
    if len(unique_il) * len(unique_xl) != traces.shape[1]:
        return None
    il_index = {v: i for i, v in enumerate(unique_il)}
    xl_index = {v: i for i, v in enumerate(unique_xl)}
    data = np.full((traces.shape[0], len(unique_il), len(unique_xl)), np.nan)
    for j in range(traces.shape[1]):
        data[:, il_index[inlines[j]], xl_index[crosslines[j]]] = traces[:, j]
    if np.isnan(data).any():  # duplicate pair left a hole: irregular geometry
        return None
    return SeismicVolume(data, dt=dt, dx=options.dx, dy=options.dy)
