"""Geometric attributes and their per-scale stacks.

Phase dip is the ratio of the lateral to the temporal instantaneous phase
derivative, signed so that an event whose time increases with trace index
has positive dip (the slope of constant-phase contours: dt/dx along theta =
const is -(dtheta/dx)/(dtheta/dt)). It stays in sample units
(samples/trace), which makes it invariant under dyadic downsampling; the
conversion to physical units happens only in dip angle and curvature, via
the time-to-depth convention s = p * (v * dt / 2) / dx with a user-supplied
constant velocity.

A stack gathers the same attribute at every pyramid scale, resized back to
base resolution, ready for fusion. Scale 0 of a stack is bit-for-bit the
conventional single-scale attribute. Volumes have no 3D pyramid: dips come
from per-section 2D pyramids in each orientation (fixed-y sections give dip
along x, fixed-x sections give dip along y) and are only then combined into
dip angle or curvature per scale. One builder serves section stacks (every
row) and time slices (one row of each section): it differentiates and
expands only the level rows those rows read, on plain arrays, so a slice is
bit-for-bit that row of the full per-section stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import (
    Axis,
    _envelope_squared,
    _phase_derivative_band,
    _quadrature,
    analytic_section,
)
from .errors import BoundsError, ConfigError, ParameterError, ShapeError, SizeError
from .grid import (
    AttributeKind,
    AttributeMap,
    Grid2,
    SeismicSection,
    SeismicVolume,
    _check_finite,
)
from .pyramid import (
    GaussianKernel,
    _blend,
    _interp_axis,
    _interp_stencil,
    _level_count,
    _reduce,
    make_kernel,
)

# Temporal phase derivatives below this (rad/sample) make the dip quotient
# unstable; such cells output 0 with quality 0.
EPS_FREQ_DEFAULT = 1e-3
# Dips are clamped to this magnitude (samples/trace).
P_MAX_DEFAULT = 5.0
VELOCITY_DEFAULT = 2000.0  # m/s

_MIN_DIP_ROWS = 4
_MIN_DIP_COLS = 3


def phase_dip(
    section: SeismicSection,
    *,
    p_max: float = P_MAX_DEFAULT,
    eps_freq: float = EPS_FREQ_DEFAULT,
    scale: int = 0,
) -> AttributeMap:
    """Phase dip of a section in samples/trace, with a quality mask.

    Cells where the envelope guard fires or |dtheta/dt| < eps_freq are 0
    with quality 0; everything else is clamped to [-p_max, p_max].

    Raises:
        SizeError: section smaller than 4 samples x 3 traces.
        ParameterError: p_max or eps_freq not positive.
    """
    _check_dip_params(p_max, eps_freq)
    rows, cols = section.grid.shape
    if rows < _MIN_DIP_ROWS or cols < _MIN_DIP_COLS:
        raise SizeError(
            f"phase dip needs at least {_MIN_DIP_ROWS}x{_MIN_DIP_COLS}, "
            f"got {rows}x{cols}"
        )
    a = analytic_section(section)
    f, h = a.real.data, a.imag.data
    # what phase_derivative returns, without copying each result into a Grid2
    d_time = _phase_derivative_band(f, h, None, slice(None), Axis.TIME.value)
    d_trace = _phase_derivative_band(f, h, None, slice(None), Axis.TRACE.value)
    dip, ok = _dip_quotient(d_time, d_trace, p_max, eps_freq)
    return AttributeMap(
        grid=Grid2(dip),
        kind=AttributeKind.PHASE_DIP,
        scale=scale,
        dt=section.dt,
        dx=section.dx,
        quality=Grid2(ok.astype(np.float64)),
    )


def _check_dip_params(p_max: float, eps_freq: float) -> None:
    if p_max <= 0.0 or not np.isfinite(p_max):
        raise ParameterError(f"p_max must be positive, got {p_max!r}")
    if eps_freq <= 0.0 or not np.isfinite(eps_freq):
        raise ParameterError(f"eps_freq must be positive, got {eps_freq!r}")


def _dip_quotient(
    d_time: np.ndarray, d_trace: np.ndarray, p_max: float, eps_freq: float
) -> tuple[np.ndarray, np.ndarray]:
    """Dip -d_trace/d_time clamped to [-p_max, p_max], and its trust mask.

    Cells with |d_time| < eps_freq are 0 and untrusted; that includes every
    cell the envelope guard zeroed.
    """
    ok = np.abs(d_time) >= eps_freq
    dip = np.zeros_like(d_time)
    np.divide(d_trace, d_time, out=dip, where=ok)
    np.negative(dip, out=dip)
    np.clip(dip, -p_max, p_max, out=dip)
    dip[~ok] = 0.0
    return dip, ok


@dataclass(frozen=True, eq=False)
class DipField:
    """Inline dip p (and crossline dip q for volumes) on one lateral lattice.

    For time-slice fields the grid rows index x and the columns index y.
    ``quality`` is 1.0 where both dips are trusted.
    """

    p: Grid2
    q: Grid2 | None
    dt: float
    dx: float
    dy: float | None = None
    quality: Grid2 | None = None

    def __post_init__(self):
        if self.q is not None and self.q.shape != self.p.shape:
            raise ShapeError(f"q shape {self.q.shape} != p shape {self.p.shape}")
        if self.quality is not None and self.quality.shape != self.p.shape:
            raise ShapeError("quality shape differs from dip shape")


def dip_angle(
    p: AttributeMap,
    q: AttributeMap,
    dt: float,
    dx: float,
    dy: float,
    velocity: float = VELOCITY_DEFAULT,
) -> AttributeMap:
    """Combine inline and crossline dip into an angle map (radians).

    angle = atan(sqrt(s_x^2 + s_y^2)) with s_x = p*(v*dt/2)/dx and
    s_y = q*(v*dt/2)/dy. Output is in [0, pi/2).

    Raises:
        ShapeError: p and q dims differ.
        ParameterError: inputs are not dip maps, or velocity <= 0.
    """
    if p.kind is not AttributeKind.PHASE_DIP or q.kind is not AttributeKind.PHASE_DIP:
        raise ParameterError("dip_angle expects two phase-dip maps")
    if p.grid.shape != q.grid.shape:
        raise ShapeError(f"p dims {p.grid.shape} != q dims {q.grid.shape}")
    if velocity <= 0.0 or not np.isfinite(velocity):
        raise ParameterError(f"velocity must be positive, got {velocity!r}")
    half_step = velocity * dt / 2.0
    s_x = p.grid.data * (half_step / dx)
    s_y = q.grid.data * (half_step / dy)
    angle = np.arctan(np.hypot(s_x, s_y))
    quality = None
    if p.quality is not None and q.quality is not None:
        quality = Grid2(np.minimum(p.quality.data, q.quality.data))
    else:
        quality = p.quality or q.quality
    return AttributeMap(
        grid=Grid2(angle),
        kind=AttributeKind.DIP_ANGLE,
        scale=p.scale if p.scale == q.scale else None,
        dt=dt,
        dx=dx,
        dy=dy,
        quality=quality,
        meta={"velocity": repr(float(velocity)), "convention": "time-dip"},
    )


@dataclass(frozen=True, eq=False)
class CurvaturePair:
    k_pos: AttributeMap
    k_neg: AttributeMap


def curvature(dips: DipField, velocity: float = VELOCITY_DEFAULT) -> CurvaturePair:
    """Most-positive / most-negative curvature of a time-slice dip field.

    With physical slopes s_x, s_y (same convention as :func:`dip_angle`):

        a = (1/2) ds_x/dx,  b = (1/2) ds_y/dy,
        c = (1/2) (ds_x/dy + ds_y/dx),
        k_pos/k_neg = (a + b) +/- sqrt((a - b)^2 + c^2)

    so k_pos >= k_neg everywhere; units are 1/m.

    Raises:
        ConfigError: no crossline dip (section-derived field).
        SizeError: lattice smaller than 3x3.
    """
    if dips.q is None:
        raise ConfigError("curvature needs a volume-derived dip field (crossline dip missing)")
    if dips.dy is None:
        raise ConfigError("curvature needs the crossline interval dy")
    rows, cols = dips.p.shape
    if rows < 3 or cols < 3:
        raise SizeError(f"curvature needs at least a 3x3 lattice, got {rows}x{cols}")
    if velocity <= 0.0 or not np.isfinite(velocity):
        raise ParameterError(f"velocity must be positive, got {velocity!r}")
    half_step = velocity * dips.dt / 2.0
    s_x = dips.p.data * (half_step / dips.dx)
    s_y = dips.q.data * (half_step / dips.dy)
    a = 0.5 * np.gradient(s_x, dips.dx, axis=0, edge_order=1)
    b = 0.5 * np.gradient(s_y, dips.dy, axis=1, edge_order=1)
    c = 0.5 * (
        np.gradient(s_x, dips.dy, axis=1, edge_order=1)
        + np.gradient(s_y, dips.dx, axis=0, edge_order=1)
    )
    fold = np.hypot(a - b, c)
    mean2 = a + b
    common = dict(
        dt=dips.dt,
        dx=dips.dx,
        dy=dips.dy,
        quality=dips.quality,
        meta={"velocity": repr(float(velocity)), "convention": "time-dip"},
    )
    return CurvaturePair(
        k_pos=AttributeMap(Grid2(mean2 + fold), AttributeKind.CURV_POS, **common),
        k_neg=AttributeMap(Grid2(mean2 - fold), AttributeKind.CURV_NEG, **common),
    )


@dataclass(frozen=True, eq=False)
class AttributeStack:
    """K same-kind maps on one base lattice, ordered by source scale."""

    maps: tuple[AttributeMap, ...]

    def __post_init__(self):
        if len(self.maps) < 1:
            raise ShapeError("a stack needs at least one map")
        first = self.maps[0]
        for m in self.maps[1:]:
            if m.grid.shape != first.grid.shape:
                raise ShapeError(
                    f"stack dims disagree: {m.grid.shape} vs {first.grid.shape}"
                )
            if m.kind is not first.kind:
                raise ShapeError(f"stack kinds disagree: {m.kind} vs {first.kind}")
        object.__setattr__(self, "maps", tuple(self.maps))

    @property
    def scales(self) -> int:
        return len(self.maps)

    @property
    def kind(self) -> AttributeKind:
        return self.maps[0].kind

    def values(self) -> np.ndarray:
        """(K, rows, cols) float array of the stacked maps."""
        return np.stack([m.grid.data for m in self.maps])

    def validity(self) -> np.ndarray:
        """(K, rows, cols) bool array; maps without a mask count as all-valid."""
        return np.stack(
            [
                np.ones(m.grid.shape, dtype=bool)
                if m.quality is None
                else m.quality.data > 0.5
                for m in self.maps
            ]
        )


def _check_dip_request(
    shapes: tuple[tuple[int, int], ...],
    scales: int,
    kernel: GaussianKernel,
    p_max: float,
    eps_freq: float,
) -> int:
    """Validate a dip-stack request on sections of every shape in ``shapes``."""
    scales = int(scales)
    if scales < 1:
        raise ParameterError(f"scales must be >= 1, got {scales}")
    _check_dip_params(p_max, eps_freq)
    min_rows = max(kernel.support, _MIN_DIP_ROWS)
    min_cols = max(kernel.support, _MIN_DIP_COLS)
    for rows, cols in shapes:
        feasible = _level_count(rows, cols, min_rows, min_cols)
        if scales > feasible:
            raise SizeError(
                f"section {rows}x{cols} supports at most "
                f"{feasible} dip scale(s), requested {scales}"
            )
    return scales


def _dip_rows(
    sections: np.ndarray,
    rows: slice,
    scales: int,
    kernel: GaussianKernel,
    *,
    p_max: float,
    eps_freq: float,
    boundary: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per scale: base rows ``rows`` of every section's expanded (dip, trust).

    ``sections`` is (count, nt, n), one section per entry, and ``rows`` a
    contiguous slice of its time axis; each scale gives a float dip array
    and a bool trust array, both (len(rows), count, n). Each section's
    levels are reduced and take their quadrature whole, one section at a
    time, because the envelope guard compares against the level's maximum.
    Phase derivatives and the dip quotient then run, for all sections at
    once, only on the level rows that the time interpolation to ``rows``
    reads (one more row each side for the time differences), and only
    those rows are expanded across.

    ``boundary`` (None: identity) is applied to each level before its
    quadrature, while the reduction chain stays unrounded, and to the dip
    and the 0/1 trust before and after expansion; the trust threshold comes
    after it, because rounding can move a value onto 0.5.

    Raises:
        ParameterError: a level's quadrature is not finite.
    """
    count, nt, n = sections.shape
    first, stop, _ = rows.indices(nt)
    # an index array, not a slice: the plan keeps copies of these rows of
    # each level's stencil, not views that hold the whole stencil alive
    targets = np.arange(first, stop)
    # Per level: ``band``, the rows the time differences need; ``read``,
    # where the interpolation's rows sit in the band; ``blend``, their
    # (lower, upper, fraction) relative to ``read``, or None on the base
    # level, which is not resized; buffers for f and h on the band of every
    # section; and each section's maximum of f^2 + h^2.
    plan = []
    level_rows, level_cols = nt, n
    for _ in range(scales):
        if level_rows == nt:
            lo, up, blend = first, stop - 1, None
        else:
            lower, upper, fracs = _interp_stencil(level_rows, nt)
            lower, upper = lower[targets], upper[targets]
            lo, up = int(lower[0]), int(upper[-1])
            blend = (lower - lo, upper - lo, fracs[targets, None, None])
        start = max(lo - 1, 0)
        band = slice(start, min(up + 2, level_rows))
        read = slice(lo - start, up + 1 - start)
        bands = np.empty((2, band.stop - start, count, level_cols))
        plan.append((band, read, blend, bands, np.empty((count, 1))))
        level_rows, level_cols = (level_rows + 1) // 2, (level_cols + 1) // 2

    for k in range(count):
        level = np.ascontiguousarray(sections[k])
        for i, (band, _, _, bands, env2_max) in enumerate(plan):
            if i:
                level = _reduce(level, kernel)
            f = level if boundary is None else boundary(level)
            h = _quadrature(f, axis=0)
            env2_max[k] = _envelope_squared(f, h).max()
            # a non-finite h makes this maximum NaN or inf; so can finite
            # values whose squares overflow, which the guard handles
            if not np.isfinite(env2_max[k, 0]):
                _check_finite(h)
            bands[0, :, k] = f[band]
            bands[1, :, k] = h[band]

    def expand(values: np.ndarray, blend) -> np.ndarray:
        if boundary is not None:
            values = boundary(values)
        if blend is not None:
            values = _blend(values, *blend)
        values = _interp_axis(values, n, 2)
        return values if boundary is None else boundary(values)

    out: list[tuple[np.ndarray, np.ndarray]] = []
    for _, read, blend, (f, h), env2_max in plan:
        d_time = _phase_derivative_band(f, h, env2_max, slice(None), 0)[read]
        d_trace = _phase_derivative_band(f, h, env2_max, read, 2)
        dip, ok = _dip_quotient(d_time, d_trace, p_max, eps_freq)
        out.append((expand(dip, blend), expand(ok.astype(np.float64), blend) > 0.5))
    return out


def _dip_stack(
    section: SeismicSection,
    scales: int,
    kernel: GaussianKernel,
    *,
    p_max: float,
    eps_freq: float,
    boundary: Callable[[np.ndarray], np.ndarray] | None = None,
) -> AttributeStack:
    scales = _check_dip_request((section.grid.shape,), scales, kernel, p_max, eps_freq)
    levels = _dip_rows(
        section.grid.data[None], slice(None), scales, kernel,
        p_max=p_max, eps_freq=eps_freq, boundary=boundary,
    )
    maps = tuple(
        AttributeMap(
            grid=Grid2(values[:, 0]),
            kind=AttributeKind.PHASE_DIP,
            scale=i,
            dt=section.dt,
            dx=section.dx,
            quality=Grid2(trust[:, 0]),
            meta={"sigma": repr(kernel.sigma), "radius": str(kernel.radius)},
        )
        for i, (values, trust) in enumerate(levels)
    )
    return AttributeStack(maps)


def dip_stack(
    section: SeismicSection,
    scales: int,
    kernel: GaussianKernel | None = None,
    *,
    p_max: float = P_MAX_DEFAULT,
    eps_freq: float = EPS_FREQ_DEFAULT,
) -> AttributeStack:
    """Phase dip at every pyramid scale, expanded to base resolution."""
    kernel = kernel if kernel is not None else make_kernel()
    return _dip_stack(section, scales, kernel, p_max=p_max, eps_freq=eps_freq)


def dip_slice_fields(
    volume: SeismicVolume,
    t_index: int,
    scales: int,
    kernel: GaussianKernel | None = None,
    *,
    p_max: float = P_MAX_DEFAULT,
    eps_freq: float = EPS_FREQ_DEFAULT,
) -> list[DipField]:
    """Per-scale inline+crossline dip fields at one time slice.

    Row ``t_index`` of the expanded dip stack of each fixed-y section fills
    column y of ``p``; that of each fixed-x section fills row x of ``q``.
    Only the level rows that row reads are differentiated and expanded.

    Raises:
        BoundsError: t_index outside the volume.
        ParameterError: scales < 1, or p_max or eps_freq not positive.
        SizeError: either orientation's sections (nt x nx or nt x ny)
            cannot support ``scales`` dip scales; checked before any work.
    """
    kernel = kernel if kernel is not None else make_kernel()
    t = int(t_index)
    if t < 0 or t >= volume.nt:
        raise BoundsError(f"time index {t} outside [0, {volume.nt - 1}]")
    shapes = ((volume.nt, volume.nx), (volume.nt, volume.ny))
    scales = _check_dip_request(shapes, scales, kernel, p_max, eps_freq)

    def rows(lateral_axis: int) -> list[tuple[np.ndarray, np.ndarray]]:
        sections = np.moveaxis(volume.data, lateral_axis, 0)
        return _dip_rows(
            sections, slice(t, t + 1), scales, kernel, p_max=p_max, eps_freq=eps_freq
        )

    # fixed-y sections give (ny, nx) rows of p, fixed-x ones (nx, ny) rows of q
    return [
        DipField(
            p=Grid2(p_vals[0].T),
            q=Grid2(q_vals[0]),
            dt=volume.dt,
            dx=volume.dx,
            dy=volume.dy,
            quality=Grid2(p_ok[0].T & q_ok[0]),
        )
        for (p_vals, p_ok), (q_vals, q_ok) in zip(rows(2), rows(1))
    ]


def attribute_stack(
    data: SeismicSection | SeismicVolume,
    kind: AttributeKind,
    scales: int,
    kernel: GaussianKernel | None = None,
    *,
    time_index: int | None = None,
    velocity: float = VELOCITY_DEFAULT,
    p_max: float = P_MAX_DEFAULT,
    eps_freq: float = EPS_FREQ_DEFAULT,
) -> AttributeStack:
    """K aligned maps of ``kind``, one per pyramid scale.

    Sections support phase dip; volumes support dip angle and curvature at a
    required ``time_index``.

    Raises:
        ConfigError: kind/input combination unsupported, or missing
            time_index for a volume attribute.
    """
    kernel = kernel if kernel is not None else make_kernel()
    if kind is AttributeKind.RAW:
        raise ParameterError("raw data is not a computable attribute")
    if isinstance(data, SeismicSection):
        if kind is not AttributeKind.PHASE_DIP:
            raise ConfigError(
                f"{kind.value} needs a volume; a section only supports phase dip"
            )
        return dip_stack(data, scales, kernel, p_max=p_max, eps_freq=eps_freq)
    if not isinstance(data, SeismicVolume):
        raise ConfigError(f"unsupported input type {type(data).__name__}")
    if kind is AttributeKind.PHASE_DIP:
        raise ConfigError("phase dip runs on sections; extract one from the volume first")
    if kind not in (AttributeKind.DIP_ANGLE, AttributeKind.CURV_POS, AttributeKind.CURV_NEG):
        raise ConfigError(f"unsupported attribute kind {kind.value}")
    if time_index is None:
        raise ConfigError(f"{kind.value} on a volume needs a time index")
    fields = dip_slice_fields(
        volume=data,
        t_index=time_index,
        scales=scales,
        kernel=kernel,
        p_max=p_max,
        eps_freq=eps_freq,
    )
    maps: list[AttributeMap] = []
    for i, field in enumerate(fields):
        if kind is AttributeKind.DIP_ANGLE:
            p_map = AttributeMap(
                field.p, AttributeKind.PHASE_DIP, scale=i,
                dt=data.dt, dx=data.dx, quality=field.quality,
            )
            q_map = AttributeMap(
                field.q, AttributeKind.PHASE_DIP, scale=i,
                dt=data.dt, dx=data.dx, quality=field.quality,
            )
            m = dip_angle(p_map, q_map, data.dt, data.dx, data.dy, velocity)
        else:
            pair = curvature(field, velocity)
            picked = pair.k_pos if kind is AttributeKind.CURV_POS else pair.k_neg
            m = AttributeMap(
                picked.grid, picked.kind, scale=i,
                dt=picked.dt, dx=picked.dx, dy=picked.dy,
                quality=picked.quality, meta=picked.meta,
            )
        m.meta.update(
            {"sigma": repr(kernel.sigma), "radius": str(kernel.radius),
             "time_index": str(int(time_index))}
        )
        maps.append(m)
    return AttributeStack(tuple(maps))
