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
base resolution, ready for fusion. The conventional single-scale attribute,
:func:`phase_dip`, is scale 0 of a one-scale stack by construction, so it
shares the stack's size check: one scale is never reduced and needs only 4
samples x 3 traces, while more scales need the kernel support at every
level. Volumes have no 3D pyramid: dips come from per-section 2D pyramids
in each orientation (fixed-y sections give dip along x, fixed-x sections
give dip along y) and are only then combined into dip angle or curvature,
every scale at once on (scales, nx, ny) arrays. One builder serves section
stacks (every row) and time slices (one row of each section): it
differentiates and expands only the level rows those rows read, on plain
arrays, so a slice is bit-for-bit that row of the full per-section stack.
It builds the base level one section at a time and the levels above it for
batches of four sections. Both orientations of a volume hold the same
traces, so one pass over the fixed-x sections takes the base level's
quadrature for both. None of this changes a byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .analytic import _phase_derivative_band, _quadrature, _trusted
from .errors import BoundsError, ConfigError, ParameterError, ShapeError, SizeError
from .grid import (
    AttributeKind,
    AttributeMap,
    Grid2,
    SeismicSection,
    SeismicVolume,
    _check_finite,
    _check_interval,
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

# Sections whose pyramid levels above the base are reduced and take their
# quadrature together. With 2x2 decimation four level-1 arrays hold about
# as many cells as one base level, which runs one section at a time and
# sets the peak memory.
_BATCH = 4


def phase_dip(
    section: SeismicSection,
    *,
    p_max: float = P_MAX_DEFAULT,
    eps_freq: float = EPS_FREQ_DEFAULT,
    scale: int = 0,
) -> AttributeMap:
    """Phase dip of a section in samples/trace, with a quality mask.

    This is scale 0 of a one-scale :func:`dip_stack`, by construction: one
    scale is never reduced, so it needs no kernel. Cells where the envelope
    guard fires or |dtheta/dt| < eps_freq are 0 with quality 0; everything
    else is clamped to [-p_max, p_max]. ``scale`` only tags the map.

    Raises:
        ConfigError: ``section`` is not a SeismicSection.
        SizeError: section smaller than 4 samples x 3 traces; the message
            is the dip stack's.
        ParameterError: p_max or eps_freq not positive, or the quadrature
            not finite.
    """
    stack = _attribute_layers(section, AttributeKind.PHASE_DIP, 1, p_max=p_max, eps_freq=eps_freq)
    return replace(stack.maps[0], scale=scale, meta={})


def _check_dip_params(p_max: float, eps_freq: float) -> None:
    if p_max <= 0.0 or not np.isfinite(p_max):
        raise ParameterError(f"p_max must be positive, got {p_max!r}")
    if eps_freq <= 0.0 or not np.isfinite(eps_freq):
        raise ParameterError(f"eps_freq must be positive, got {eps_freq!r}")


def _check_velocity(velocity: float) -> None:
    if velocity <= 0.0 or not np.isfinite(velocity):
        raise ParameterError(f"velocity must be positive, got {velocity!r}")


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
        object.__setattr__(self, "dt", _check_interval("dt", self.dt))
        object.__setattr__(self, "dx", _check_interval("dx", self.dx))
        if self.dy is not None:
            object.__setattr__(self, "dy", _check_interval("dy", self.dy))


def _time_dip_meta(velocity: float) -> dict[str, str]:
    return {"velocity": repr(float(velocity)), "convention": "time-dip"}


def _dip_angle_values(p, q, dt: float, dx: float, dy: float, velocity: float) -> np.ndarray:
    """:func:`dip_angle` per cell, over any leading axes. Keep p and q
    C-contiguous: numpy's arctan may round other layouts differently."""
    half_step = velocity * dt / 2.0
    return np.arctan(np.hypot(p * (half_step / dx), q * (half_step / dy)))


def _curvatures(p, q, dt: float, dx: float, dy: float, velocity: float):
    """(a + b, hypot(a - b, c)) of :func:`curvature`, on the last two axes (x, y)."""
    half_step = velocity * dt / 2.0
    s_x = p * (half_step / dx)
    s_y = q * (half_step / dy)
    # halved and summed in place, each slope freed after its last gradient:
    # the same operations with fewer (scales, nx, ny) temporaries alive
    a = np.gradient(s_x, dx, axis=-2, edge_order=1)
    a *= 0.5
    b = np.gradient(s_y, dy, axis=-1, edge_order=1)
    b *= 0.5
    c = np.gradient(s_x, dy, axis=-1, edge_order=1)
    del s_x
    c += np.gradient(s_y, dx, axis=-2, edge_order=1)
    del s_y
    c *= 0.5
    return a + b, np.hypot(a - b, c)


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
        ParameterError: inputs are not dip maps, velocity <= 0, or dt, dx
            or dy not a positive finite number.
    """
    if p.kind is not AttributeKind.PHASE_DIP or q.kind is not AttributeKind.PHASE_DIP:
        raise ParameterError("dip_angle expects two phase-dip maps")
    if p.grid.shape != q.grid.shape:
        raise ShapeError(f"p dims {p.grid.shape} != q dims {q.grid.shape}")
    _check_velocity(velocity)
    dt, dx, dy = (_check_interval(*step) for step in (("dt", dt), ("dx", dx), ("dy", dy)))
    angle = _dip_angle_values(p.grid.data, q.grid.data, dt, dx, dy, velocity)
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
        meta=_time_dip_meta(velocity),
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
    _check_velocity(velocity)
    mean2, fold = _curvatures(dips.p.data, dips.q.data, dips.dt, dips.dx, dips.dy, velocity)
    common = dict(
        dt=dips.dt,
        dx=dips.dx,
        dy=dips.dy,
        quality=dips.quality,
        meta=_time_dip_meta(velocity),
    )
    return CurvaturePair(
        k_pos=AttributeMap(Grid2(mean2 + fold), AttributeKind.CURV_POS, **common),
        k_neg=AttributeMap(Grid2(mean2 - fold), AttributeKind.CURV_NEG, **common),
    )


@dataclass(frozen=True, eq=False)
class AttributeStack:
    """K same-kind scales on one base lattice, ordered by source scale.

    ``values`` is (K, rows, cols) float and ``valid`` the matching bool
    trust; ``dt``, ``dx``, ``dy`` and ``meta`` are those of every scale.
    :meth:`from_maps` stacks per-scale maps; ``maps`` builds them back, on
    first use. The arrays of a stack the package returns are read-only.
    """

    values: np.ndarray
    valid: np.ndarray
    kind: AttributeKind
    dt: float
    dx: float
    dy: float | None
    meta: dict[str, str]

    @classmethod
    def from_maps(cls, maps) -> "AttributeStack":
        """Stack maps of one kind and shape, taking sampling and meta from the
        first; a map without a mask is all-valid. ShapeError on no maps or a mismatch."""
        maps = tuple(maps)
        if len(maps) < 1:
            raise ShapeError("a stack needs at least one map")
        first = maps[0]
        for m in maps[1:]:
            if m.grid.shape != first.grid.shape:
                raise ShapeError(
                    f"stack dims disagree: {m.grid.shape} vs {first.grid.shape}"
                )
            if m.kind is not first.kind:
                raise ShapeError(f"stack kinds disagree: {m.kind} vs {first.kind}")
        return _read_only(cls(
            values=np.stack([m.grid.data for m in maps]),
            valid=np.stack([
                np.ones(m.grid.shape, dtype=bool) if m.quality is None else m.quality.data > 0.5
                for m in maps
            ]),
            kind=first.kind,
            dt=first.dt,
            dx=first.dx,
            dy=first.dy,
            meta=first.meta,
        ))

    @property
    def scales(self) -> int:
        return len(self.values)

    @cached_property
    def maps(self) -> tuple[AttributeMap, ...]:
        """The per-scale maps, tagged with scales 0..K-1."""
        return tuple(
            AttributeMap(
                grid=Grid2(values),
                kind=self.kind,
                scale=i,
                dt=self.dt,
                dx=self.dx,
                dy=self.dy,
                quality=Grid2(valid),
                meta=self.meta,
            )
            for i, (values, valid) in enumerate(zip(self.values, self.valid))
        )


def _read_only(stack: AttributeStack) -> AttributeStack:
    stack.values.flags.writeable = stack.valid.flags.writeable = False
    return stack


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
    # every level needs the 4x3 dip minimum; once the base level is reduced
    # (more than one scale), every level also needs the kernel support
    min_rows = max(kernel.support, _MIN_DIP_ROWS)
    min_cols = max(kernel.support, _MIN_DIP_COLS)
    for rows, cols in shapes:
        feasible = _level_count(rows, cols, min_rows, min_cols)
        if feasible < 2:  # no reduction: one scale, if the base fits 4x3
            feasible = min(1, _level_count(rows, cols, _MIN_DIP_ROWS, _MIN_DIP_COLS))
        if scales > feasible:
            raise SizeError(
                f"section {rows}x{cols} supports at most "
                f"{feasible} dip scale(s), requested {scales}"
            )
    return scales


def _dip_rows(
    data: np.ndarray,
    rows: slice,
    scales: int,
    kernel: GaussianKernel,
    *,
    p_max: float,
    eps_freq: float,
    boundary: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Base rows ``rows`` of the expanded dip and trust of ``data``, per scale.

    ``data`` is a section (nt, n) or a volume (nt, nx, ny), and ``rows`` a
    contiguous slice of its time axis. Returns one (dips, trust) pair per
    lateral axis, a float dip array and a bool trust array, both (scales,
    len(rows), count, n) for ``count`` sections of ``n`` traces: the one
    section of a section; a volume's ny fixed-y sections (dip along x),
    then its nx fixed-x sections (dip along y).

    Each section's levels are reduced and take their quadrature whole,
    because the envelope guard compares against the level's maximum: level
    0 one section at a time, since it is the largest level and sets the
    peak memory, and the levels above it for ``_BATCH`` sections at once.
    Both orientations of a volume hold the same traces, so one pass over
    the fixed-x sections takes the base level's quadrature for both: the
    fixed-y sections read its f, h and f^2 + h^2 through transposed views
    and their maxima as a running maximum over x, and are only reduced.
    Phase derivatives and the dip quotient then run, for all sections of an
    orientation at once, only on the level rows that the time interpolation
    to ``rows`` reads (one more row each side for the time differences),
    and only those rows are expanded across. None of this changes a byte:
    every section's arithmetic is the same, and a maximum is exact.

    ``boundary`` (None: identity) is applied to each level before its
    quadrature, while the reduction chain stays unrounded, and to the dip
    and the 0/1 trust before and after expansion; the trust threshold comes
    after it, because rounding can move a value onto 0.5.

    Raises:
        ParameterError: a level's quadrature is not finite.
    """
    nt = data.shape[0]
    first, stop, _ = rows.indices(nt)
    # an index array, not a slice: the plan keeps copies of these rows of
    # each level's stencil, not views that hold the whole stencil alive
    targets = np.arange(first, stop)
    # Per level: ``band``, the rows the time differences need; ``read``,
    # where the interpolation's rows sit in the band; ``blend``, their
    # (lower, upper, fraction) relative to ``read``, or None on the base
    # level, which is not resized. They depend on the level's row count
    # alone, so every section of ``data`` shares them.
    levels = []
    level_rows = nt
    for _ in range(scales):
        if level_rows == nt:
            lo, up, blend = first, stop - 1, None
        else:
            lower, upper, fracs = _interp_stencil(level_rows, nt)
            lower, upper = lower[targets], upper[targets]
            lo, up = int(lower[0]), int(upper[-1])
            blend = (lower - lo, upper - lo, fracs[targets, None, None])
        start = max(lo - 1, 0)
        levels.append(
            (slice(start, min(up + 2, level_rows)), slice(lo - start, up + 1 - start), blend)
        )
        level_rows = (level_rows + 1) // 2

    def plan(count: int, n: int, base: tuple | None = None) -> list[tuple]:
        """Per level, buffers for ``count`` sections of ``n`` traces: f and h
        on the band, f^2 + h^2 on the read rows, and each section's maximum
        of f^2 + h^2. ``base``, if given, is the base level's."""
        buffers = []
        for i, (band, read, _) in enumerate(levels):
            if i == 0 and base is not None:
                buffers.append(base)
            else:
                buffers.append((
                    np.empty((2, band.stop - band.start, count, n)),
                    np.empty((read.stop - read.start, count, n)),
                    np.empty((count, 1)),
                ))
            n = (n + 1) // 2
        return buffers

    def record(buffers: list, i: int, k: int, values: np.ndarray) -> np.ndarray:
        """Keep the plan's rows of level ``i`` of sections k, k+1, ...

        ``values`` is (b, rows, cols), one level per section, before
        ``boundary``. Returns the levels' f^2 + h^2.
        """
        band, read, _ = levels[i]
        fh, env2_read, env2_max = buffers[i]
        f = values if boundary is None else boundary(values)
        h = _quadrature(f, axis=-2)
        batch = slice(k, k + len(f))
        fh[0, :, batch] = f[:, band].swapaxes(0, 1)
        fh[1, :, batch] = h[:, band].swapaxes(0, 1)
        # f^2 + h^2 in the order _envelope_squared uses, squaring h in place
        env2 = f * f
        env2 += np.square(h, out=h)
        env2_max[batch, 0] = env2.max(axis=(1, 2))
        # a non-finite h makes a maximum NaN or inf, and so can finite
        # values whose squares overflow, which the guard handles; h now
        # holds squares, so that rare case takes the quadrature again
        if not np.isfinite(env2_max[batch]).all():
            _check_finite(_quadrature(f, axis=-2))
        read_rows = slice(band.start + read.start, band.start + read.stop)
        env2_read[:, batch] = env2[:, read_rows].swapaxes(0, 1)
        return env2

    def pyramid(sections: np.ndarray, buffers: list, base: Callable | None) -> None:
        """Record every level above the base of (count, nt, n) ``sections``;
        ``base(k, level)``, if given, takes section k's base level."""
        count, _, n = sections.shape
        for k in range(0, count, _BATCH):
            batch = sections[k : k + _BATCH]
            # level 1 of the batch, one section's at a time after its base level
            upper = np.empty((len(batch), (nt + 1) // 2, (n + 1) // 2)) if scales > 1 else None
            for j, section in enumerate(batch):
                level = np.ascontiguousarray(section)
                if base is not None:
                    base(k + j, level[None])
                if upper is not None:
                    upper[j] = _reduce(level, kernel)
                del level  # not held through the next section's base level
            for i in range(1, scales):
                if i > 1:
                    upper = _reduce(upper, kernel)
                record(buffers, i, k, upper)

    def expand(values: np.ndarray, blend, n: int, out: np.ndarray) -> None:
        if boundary is not None:
            values = boundary(values)
        if blend is not None:
            values = _blend(values, *blend)
        _interp_axis(values, n, 2, out)
        if boundary is not None:
            out[...] = boundary(out)

    def finish(buffers: list, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives, quotient and expansion of the recorded rows."""
        dips = np.empty((scales, len(targets), buffers[0][1].shape[1], n))
        trust = np.empty(dips.shape, dtype=bool)
        for i, ((_, read, blend), ((f, h), env2, env2_max)) in enumerate(zip(levels, buffers)):
            trusted = _trusted(env2, env2_max)
            d_time = _phase_derivative_band(f, h, env2, trusted, 0, read)
            d_trace = _phase_derivative_band(f[read], h[read], env2, trusted, 2)
            dip, ok = _dip_quotient(d_time, d_trace, p_max, eps_freq)
            # the 0/1 trust is expanded through dips[i] before its dip is
            expand(ok.astype(np.float64), blend, n, dips[i])
            np.greater(dips[i], 0.5, out=trust[i])
            expand(dip, blend, n, dips[i])
        return dips, trust

    if data.ndim == 2:
        buffers = plan(1, data.shape[1])
        pyramid(data[None], buffers, lambda k, level: record(buffers, 0, k, level))
        return [finish(buffers, data.shape[1])]
    _, nx, ny = data.shape
    q = plan(nx, ny)
    # each fixed-y section's maximum of f^2 + h^2 at the base level, raised
    # by every fixed-x section where its traces are larger
    y_max = np.full((1, ny), -np.inf)

    def base(k: int, level: np.ndarray) -> None:
        np.maximum(y_max, record(q, 0, k, level).max(axis=1), out=y_max)

    pyramid(np.moveaxis(data, 1, 0), q, base)
    q_rows = finish(q, ny)
    # the fixed-y sections' base level is the fixed-x one, transposed; the
    # buffers above it are freed before the fixed-y ones are made
    fh, env2_read, _ = q[0]
    del q
    p = plan(ny, nx, (fh.transpose(0, 1, 3, 2), env2_read.transpose(0, 2, 1), y_max.T))
    if scales > 1:
        pyramid(np.moveaxis(data, 2, 0), p, None)
    return [finish(p, nx), q_rows]


def dip_stack(
    section: SeismicSection,
    scales: int,
    kernel: GaussianKernel | None = None,
    *,
    p_max: float = P_MAX_DEFAULT,
    eps_freq: float = EPS_FREQ_DEFAULT,
) -> AttributeStack:
    """Phase dip at every pyramid scale, expanded to base resolution: the
    phase-dip :func:`attribute_stack` of a section."""
    return attribute_stack(
        section, AttributeKind.PHASE_DIP, scales, kernel, p_max=p_max, eps_freq=eps_freq
    )


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

    Raises:
        ConfigError: ``volume`` is not a SeismicVolume.
        BoundsError: t_index outside the volume.
        ParameterError: scales < 1, or p_max or eps_freq not positive.
        SizeError: either orientation's sections (nt x nx or nt x ny)
            cannot support ``scales`` dip scales; checked before any work.
    """
    kernel = kernel if kernel is not None else make_kernel()
    p, q, ok = _slice_dips(volume, t_index, scales, kernel, p_max, eps_freq)
    return [
        DipField(Grid2(p_i), Grid2(q_i), volume.dt, volume.dx, volume.dy, quality=Grid2(ok_i))
        for p_i, q_i, ok_i in zip(p, q, ok)
    ]


def _slice_dips(
    volume: SeismicVolume,
    t: int,
    scales: int,
    kernel: GaussianKernel,
    p_max: float,
    eps_freq: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`dip_slice_fields` as C-contiguous (scales, nx, ny) arrays p and
    q, and where both are trusted."""
    if not isinstance(volume, SeismicVolume):
        raise ConfigError(f"dip slice fields need a volume, got a {type(volume).__name__}")
    t = int(t)
    if t < 0 or t >= volume.nt:
        raise BoundsError(f"time index {t} outside [0, {volume.nt - 1}]")
    shapes = ((volume.nt, volume.nx), (volume.nt, volume.ny))
    scales = _check_dip_request(shapes, scales, kernel, p_max, eps_freq)
    # fixed-y sections give (ny, nx) rows of p, fixed-x ones (nx, ny) rows of q
    (p, p_ok), (q, q_ok) = _dip_rows(
        volume.data, slice(t, t + 1), scales, kernel, p_max=p_max, eps_freq=eps_freq
    )
    ok = p_ok[:, 0].transpose(0, 2, 1) & q_ok[:, 0]
    return np.ascontiguousarray(p[:, 0].transpose(0, 2, 1)), q[:, 0], ok


def _attribute_layers(
    data: SeismicSection | SeismicVolume,
    kind: AttributeKind,
    scales: int,
    kernel: GaussianKernel | None = None,
    *,
    time_index: int | None = None,
    velocity: float = VELOCITY_DEFAULT,
    p_max: float = P_MAX_DEFAULT,
    eps_freq: float = EPS_FREQ_DEFAULT,
    boundary: Callable[[np.ndarray], np.ndarray] | None = None,
) -> AttributeStack:
    """:func:`attribute_stack` with writable arrays, for fusion in place.

    ``boundary`` is :func:`_dip_rows`'s, for section dip only: volume
    attributes have no stage route, so it is not applied to them.
    """
    kernel = kernel if kernel is not None else make_kernel()
    if kind is AttributeKind.RAW:
        raise ParameterError("raw data is not a computable attribute")
    meta = {"sigma": repr(kernel.sigma), "radius": str(kernel.radius)}
    if isinstance(data, SeismicSection):
        if kind is not AttributeKind.PHASE_DIP:
            raise ConfigError(
                f"{kind.value} needs a volume; a section only supports phase dip"
            )
        scales = _check_dip_request((data.grid.shape,), scales, kernel, p_max, eps_freq)
        ((dips, trust),) = _dip_rows(
            data.grid.data, slice(None), scales, kernel,
            p_max=p_max, eps_freq=eps_freq, boundary=boundary,
        )
        values, valid, dy = dips[:, :, 0], trust[:, :, 0], None
    else:
        if not isinstance(data, SeismicVolume):
            raise ConfigError(f"unsupported input type {type(data).__name__}")
        if kind is AttributeKind.PHASE_DIP:
            raise ConfigError("phase dip runs on sections; extract one from the volume first")
        if time_index is None:
            raise ConfigError(f"{kind.value} on a volume needs a time index")
        _check_velocity(velocity)
        p, q, valid = _slice_dips(data, time_index, scales, kernel, p_max, eps_freq)
        steps = (data.dt, data.dx, data.dy, velocity)
        if kind is AttributeKind.DIP_ANGLE:
            values = _dip_angle_values(p, q, *steps)
        else:
            mean2, fold = _curvatures(p, q, *steps)
            values = mean2 + fold if kind is AttributeKind.CURV_POS else mean2 - fold
        meta = {**_time_dip_meta(velocity), **meta, "time_index": str(int(time_index))}
        dy = data.dy
    return AttributeStack(
        values=values, valid=valid, kind=kind, dt=data.dt, dx=data.dx, dy=dy, meta=meta
    )


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
    return _read_only(
        _attribute_layers(
            data, kind, scales, kernel, time_index=time_index, velocity=velocity,
            p_max=p_max, eps_freq=eps_freq,
        )
    )
