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
quadrature for both. Once every level is recorded, each output row is
independent of the others, so the finishing (phase derivatives, dip
quotient and expansion) runs in contiguous row parts at once, one per CPU
in the process's affinity for large sections; a time slice is one row and
one part. None of this changes a byte.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .analytic import _phase_derivative_band, _quadrature, _trusted
from .errors import ConfigError, ParameterError, ShapeError, SizeError
from .grid import (
    AttributeKind,
    AttributeMap,
    Grid2,
    SeismicSection,
    SeismicVolume,
    _check_attribute_fields,
    _check_finite,
    _check_positive,
)
from .pyramid import (
    GaussianKernel,
    _blend,
    _check_scales,
    _interp_axis,
    _interp_stencil,
    _kernel_meta,
    _reduce,
    _scale_count,
    make_kernel,
)

# Temporal phase derivatives below this (rad/sample) make the dip quotient
# unstable; such cells output 0 with quality 0.
EPS_FREQ_DEFAULT = 1e-3
# Dips are clamped to this magnitude (samples/trace).
P_MAX_DEFAULT = 5.0
VELOCITY_DEFAULT = 2000.0  # m/s

# The smallest section (samples, traces) a dip scale is taken on.
_DIP_FLOOR = (4, 3)

# Sections whose pyramid levels above the base are reduced and take their
# quadrature together. With 2x2 decimation four level-1 arrays hold about
# as many cells as one base level, which runs one section at a time and
# sets the peak memory.
_BATCH = 4

# Cells a row part of the dip finishing or of fusion holds at least: below
# that a thread costs more than it saves, so a 512x512 section splits in two
# on two CPUs while a 64x64 volume slice, or its one-row finish, runs whole.
_MIN_PART_CELLS = 1 << 16


def phase_dip(
    section: SeismicSection,
    *,
    p_max: float = P_MAX_DEFAULT,
    eps_freq: float = EPS_FREQ_DEFAULT,
) -> AttributeMap:
    """Phase dip of a section in samples/trace, with a quality mask.

    This is scale 0 of a one-scale phase-dip :func:`attribute_stack`, by
    construction: one scale is never reduced, so it needs no kernel. Cells
    where the envelope guard fires or |dtheta/dt| < eps_freq are 0 with
    quality 0; everything else is clamped to [-p_max, p_max]. The map is
    tagged scale 0.

    Raises:
        ConfigError: ``section`` is not a SeismicSection.
        SizeError: section smaller than 4 samples x 3 traces; the message
            is the dip stack's.
        ParameterError: p_max or eps_freq not positive, or the quadrature
            not finite.
    """
    stack = _attribute_layers(section, AttributeKind.PHASE_DIP, 1, p_max=p_max, eps_freq=eps_freq)
    return stack.maps[0]


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


def _dip_angle_values(p, q, dt: float, dx: float, dy: float, velocity: float) -> np.ndarray:
    """Dip angle in radians, in [0, pi/2), per cell over any leading axes.

    angle = atan(hypot(s_x, s_y)) with the physical slopes
    s_x = p * (v * dt / 2) / dx and s_y = q * (v * dt / 2) / dy. Keep p and
    q C-contiguous: numpy's arctan may round other layouts differently.
    """
    half_step = velocity * dt / 2.0
    return np.arctan(np.hypot(p * (half_step / dx), q * (half_step / dy)))


def _curvatures(p, q, dt: float, dx: float, dy: float, velocity: float):
    """(a + b, hypot(a - b, c)) of a dip field, on the last two axes (x, y).

    With the physical slopes s_x, s_y of :func:`_dip_angle_values`:

        a = (1/2) ds_x/dx,  b = (1/2) ds_y/dy,
        c = (1/2) (ds_x/dy + ds_y/dx),
        k_pos/k_neg = (a + b) +/- hypot(a - b, c)

    so k_pos >= k_neg everywhere; both are in 1/m.
    """
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


@dataclass(frozen=True, eq=False)
class AttributeStack:
    """K same-kind scales on one base lattice, ordered by source scale.

    ``values`` is (K, rows, cols) float and ``valid`` the matching bool
    trust; ``kind``, ``dt``, ``dx``, ``dy`` and ``meta`` are those of every
    scale, checked as :class:`AttributeMap` checks them.
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

    def __post_init__(self):
        # O(1) checks only: the builder makes a stack on every op
        shape = np.shape(self.values)
        if len(shape) != 3 or shape[0] < 1:
            raise ShapeError(f"stack values must be (scales >= 1, rows, cols), got {shape}")
        if np.shape(self.valid) != shape:
            raise ShapeError(f"stack valid shape {np.shape(self.valid)} != values shape {shape}")
        if np.asarray(self.valid).dtype != bool:
            raise ParameterError(f"stack valid must be bool, got {np.asarray(self.valid).dtype}")
        if np.asarray(self.values).dtype.kind != "f":
            raise ParameterError(f"stack values must be float, got {np.asarray(self.values).dtype}")
        _check_attribute_fields(self)

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
                raise ShapeError(f"stack kinds disagree: {m.kind.value} vs {first.kind.value}")
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


def _row_plan(nt: int, scales: int, first: int, stop: int) -> list[tuple]:
    """Per level, what base rows [first, stop) of an nt-row section read.

    ``band``, the level rows the time differences need: the interpolation's
    rows and one more each side, clipped to the level; ``read``, where the
    interpolation's rows sit in the band; ``blend``, their (lower, upper,
    fraction) relative to ``read``, or None on the base level, which is not
    resized. They depend on the level's row count alone, so every section
    shares them, and the rows of any sub-range read a sub-band.
    """
    # an index array, not a slice: the plan keeps copies of these rows of
    # each level's stencil, not views that hold the whole stencil alive
    targets = np.arange(first, stop)
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
    return levels


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_parts(first: int, stop: int, cells: int, work: Callable[[int, int], None]) -> None:
    """``work(a, b)`` over contiguous parts [a, b) of rows [first, stop),
    all at once: one part per CPU, each of at least ``_MIN_PART_CELLS`` of
    the ``cells`` the rows hold.

    The parts but the last run on threads started for this call, under the
    caller's numpy error state; the last runs in the caller's thread. Every
    part is joined before the first exception, in part order, is raised.
    A single part runs here, on no thread.
    """
    parts = max(1, min(_cpus(), cells // _MIN_PART_CELLS, stop - first))
    if parts == 1:
        work(first, stop)
        return
    bounds = [first + (stop - first) * i // parts for i in range(parts + 1)]
    errors: list[BaseException | None] = [None] * parts
    # a new thread starts with numpy's default error state
    errstate = {**np.geterr(), "call": np.geterrcall()}

    def run(i: int) -> None:
        try:
            with np.errstate(**errstate):
                work(bounds[i], bounds[i + 1])
        except BaseException as exc:
            errors[i] = exc

    threads = []
    try:
        for i in range(parts - 1):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
        run(parts - 1)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


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
    fixed-y sections read its f and h through transposed views and their
    maxima of f^2 + h^2 as a running maximum over x, and are only reduced.
    That is the record stage; it keeps, per level, only what cannot be
    recomputed: f and h on the band of rows that :func:`_row_plan` gives
    for the whole request, and each section's maximum of f^2 + h^2.

    The finish stage then takes phase derivatives, the dip quotient and the
    expansion for all sections of an orientation at once, only on the level
    rows that the time interpolation to ``rows`` reads (one more row each
    side for the time differences), and expands only those rows across. It
    runs in contiguous parts of ``rows`` at once (:func:`_in_parts`): each
    part reads the sub-band that :func:`_row_plan` gives for its own rows,
    takes f^2 + h^2 again on its read rows by the record stage's
    operations, and writes its rows of the result. None of this changes a
    byte: every section's arithmetic is the same, a maximum is exact, a
    band widened by one row gives its inner rows their full-section time
    differences, and the expansion works row by row.

    ``boundary`` (None: identity) is applied to each level before its
    quadrature, while the reduction chain stays unrounded, and to the dip
    and the 0/1 trust before and after expansion; the trust threshold comes
    after it, because rounding can move a value onto 0.5.

    Raises (the request's refusals before any quadrature):
        ParameterError: scales not an integer >= 1, p_max or eps_freq not
            a positive finite number, or a level's quadrature not finite.
        SizeError: the sections of a lateral axis (x, then y) cannot
            support ``scales`` dip scales.
    """
    scales = _check_scales(scales)
    p_max = _check_positive("p_max", p_max)
    eps_freq = _check_positive("eps_freq", eps_freq)
    nt = data.shape[0]
    for n in data.shape[1:]:
        feasible = _scale_count(nt, n, kernel.support, _DIP_FLOOR)
        if scales > feasible:
            raise SizeError(
                f"section {nt}x{n} supports at most "
                f"{feasible} dip scale(s), requested {scales}"
            )
    first, stop, _ = rows.indices(nt)
    levels = _row_plan(nt, scales, first, stop)

    def plan(count: int, n: int, base: tuple | None = None) -> list[tuple]:
        """Per level, buffers for ``count`` sections of ``n`` traces: f and h
        on the band, and each section's maximum of f^2 + h^2. ``base``, if
        given, is the base level's."""
        buffers = []
        for i, (band, _, _) in enumerate(levels):
            if i == 0 and base is not None:
                buffers.append(base)
            else:
                buffers.append((np.empty((2, band.stop - band.start, count, n)), np.empty((count, 1))))
            n = (n + 1) // 2
        return buffers

    def record(buffers: list, i: int, k: int, values: np.ndarray) -> np.ndarray:
        """Keep the plan's band of level ``i`` of sections k, k+1, ..., and
        their maxima of f^2 + h^2.

        ``values`` is (b, rows, cols), one level per section, before
        ``boundary``. Returns the levels' f^2 + h^2.
        """
        band = levels[i][0]
        fh, env2_max = buffers[i]
        f = values if boundary is None else boundary(values)
        h = _quadrature(f, axis=-2)
        batch = slice(k, k + len(f))
        fh[0, :, batch] = f[:, band].swapaxes(0, 1)
        fh[1, :, batch] = h[:, band].swapaxes(0, 1)
        # f^2 + h^2 as f * f, then h * h added to it, squaring h in place
        env2 = f * f
        env2 += np.square(h, out=h)
        env2_max[batch, 0] = env2.max(axis=(1, 2))
        # a non-finite h makes a maximum NaN or inf, and so can finite
        # values whose squares overflow, which the guard handles; h now
        # holds squares, so that rare case takes the quadrature again
        if not np.isfinite(env2_max[batch]).all():
            _check_finite(_quadrature(f, axis=-2))
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
        """Derivatives, quotient and expansion of the recorded rows, in row
        parts that run at once (:func:`_in_parts`)."""
        dips = np.empty((scales, stop - first, buffers[0][0].shape[2], n))
        trust = np.empty(dips.shape, dtype=bool)

        def part(a: int, b: int) -> None:
            rows = slice(a - first, b - first)
            own = levels if (a, b) == (first, stop) else _row_plan(nt, scales, a, b)
            for i, ((band, _, _), (part_band, read, blend), ((f, h), env2_max)) in (
                enumerate(zip(levels, own, buffers))
            ):
                # the part's band within the recorded one
                in_band = slice(part_band.start - band.start, part_band.stop - band.start)
                f, h = f[in_band], h[in_band]
                # f^2 + h^2 on the read rows, by record's operations
                env2 = f[read] * f[read]
                env2 += np.square(h[read])
                trusted = _trusted(env2, env2_max)
                d_time = _phase_derivative_band(f, h, env2, trusted, 0, read)
                d_trace = _phase_derivative_band(f[read], h[read], env2, trusted, 2)
                dip, ok = _dip_quotient(d_time, d_trace, p_max, eps_freq)
                # the 0/1 trust is expanded through the dip rows before its dip is
                out = dips[i, rows]
                expand(ok.astype(np.float64), blend, n, out)
                np.greater(out, 0.5, out=trust[i, rows])
                expand(dip, blend, n, out)

        _in_parts(first, stop, dips[0].size, part)
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
    fh, _ = q[0]
    del q
    p = plan(ny, nx, (fh.transpose(0, 1, 3, 2), y_max.T))
    if scales > 1:
        pyramid(np.moveaxis(data, 2, 0), p, None)
    return [finish(p, nx), q_rows]


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

    A volume attribute whose values are not finite (lateral steps tiny
    enough, or a velocity large enough, to overflow) is a ParameterError.
    """
    kernel = kernel if kernel is not None else make_kernel()
    if isinstance(data, SeismicSection):
        if kind is not AttributeKind.PHASE_DIP:
            raise ConfigError(
                f"{kind.value} needs a volume; a section only supports phase dip"
            )
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
        velocity = _check_positive("velocity", velocity)
        time_index = data._check_index("time", time_index, data.nt)
        # fixed-y sections give (ny, nx) rows of p, fixed-x ones (nx, ny) rows
        # of q; both become C-contiguous (scales, nx, ny), trusted where both are
        (p, p_ok), (q, q_ok) = _dip_rows(
            data.data, slice(time_index, time_index + 1), scales, kernel,
            p_max=p_max, eps_freq=eps_freq,
        )
        valid = p_ok[:, 0].transpose(0, 2, 1) & q_ok[:, 0]
        del p_ok, q_ok
        p, q = np.ascontiguousarray(p[:, 0].transpose(0, 2, 1)), q[:, 0]
        steps = (data.dt, data.dx, data.dy, velocity)
        # overflowing slopes or gradients are refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            if kind is AttributeKind.DIP_ANGLE:
                values = _dip_angle_values(p, q, *steps)
            else:
                mean2, fold = _curvatures(p, q, *steps)
                values = mean2 + fold if kind is AttributeKind.CURV_POS else mean2 - fold
        if not np.isfinite(values).all():
            raise ParameterError(
                f"{kind.value} is not finite with dt={data.dt!r}, dx={data.dx!r}, "
                f"dy={data.dy!r} and velocity={velocity!r}"
            )
        dy = data.dy
    # one scale is never reduced, so it has no kernel to record
    meta = _kernel_meta(kernel) if len(values) > 1 else {}
    if isinstance(data, SeismicVolume):
        meta = {"velocity": repr(velocity), "convention": "time-dip", **meta,
                "time_index": str(time_index)}
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
    required ``time_index``. ``meta`` records the kernel's ``sigma`` and
    ``radius`` only for two or more scales: one scale is never reduced.

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
