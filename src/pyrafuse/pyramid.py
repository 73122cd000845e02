"""Gaussian pyramid construction and bilinear expansion back to base size.

A pyramid level is produced by correlating the previous level with a small
sampled Gaussian and keeping every other row/column:

    out[m, n] = sum_{k,l in [-r, r]} g[k, l] * in[2m + k, 2n + l]

with mirror (symmetric, edge-repeating) padding at the borders. Output
dimensions follow the ceiling rule: an output index m exists while 2m is a
valid input row, i.e. ceil(rows / 2) rows survive. The kernel is separable,
so the implementation runs two 1D passes, each gathering the mirrored
entries through a cached index instead of building a padded copy, on one
grid or on a batch of grids; a brute-force evaluation of the sum above lives
in the test suite as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ParameterError, SizeError
from .grid import Grid2, _check_int, _check_positive

# Largest kernel half-width accepted. The sample table is (2r+1)^2 float64,
# 33.6 MB at r = 1024, and is built before any grid is seen, so a larger
# radius is refused before anything is allocated.
MAX_RADIUS = 1024


def gaussian_samples(sigma: float, radius: int) -> np.ndarray:
    """Unnormalized Gaussian lattice samples on [-radius, radius]^2.

    g[m, n] = 1 / (2 pi sigma^2) * exp(-(m^2 + n^2) / (2 sigma^2))

    Returned as a (2*radius+1, 2*radius+1) array; the center sample for
    sigma = 1 is 1 / (2 pi) ~= 0.159155.
    """
    sigma = _check_positive("sigma", sigma)
    radius = _check_int("radius", radius, 1)
    if radius > MAX_RADIUS:
        raise ParameterError(f"radius must be <= {MAX_RADIUS}, got {radius}")
    coords = np.arange(-radius, radius + 1, dtype=np.float64)
    sq = coords[:, None] ** 2 + coords[None, :] ** 2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        exponent = -sq / (2.0 * sigma * sigma)
        samples = np.exp(exponent) / (2.0 * np.pi * sigma * sigma)
    # a tiny sigma overflows the exponent or the center; a huge one zeroes the center
    if not (np.isfinite(exponent).all() and 0.0 < samples[radius, radius] < np.inf):
        raise ParameterError(f"sigma {sigma!r} gives non-finite or zero Gaussian samples")
    return samples


def _unit_sum_taps(sigma: float, radius: int) -> np.ndarray:
    coords = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(coords * coords) / (2.0 * sigma**2))
    taps /= taps.sum()
    # Nudge the centre tap until a left-to-right sum is exactly 1.0: the
    # reduction accumulates taps in that order, so constants then survive a
    # reduce/expand round trip bit-exactly.
    for _ in range(4):
        total = 0.0
        for t in taps:
            total += t
        if total == 1.0:
            break
        taps[radius] += 1.0 - total
    return taps


@dataclass(frozen=True, eq=False)
class GaussianKernel:
    """Sampled, unit-sum Gaussian with odd square support.

    ``weights`` is the normalized 2D kernel (outer product of ``taps``, so
    four-fold symmetry is exact); ``taps`` is the 1D factor used by the
    separable passes.
    """

    sigma: float
    radius: int
    taps: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def support(self) -> int:
        return 2 * self.radius + 1


def _kernel_meta(kernel: GaussianKernel) -> dict[str, str]:
    """The provenance of a level or stack reduced with ``kernel``."""
    return {"sigma": repr(kernel.sigma), "radius": str(kernel.radius)}


def make_kernel(sigma: float = 1.0, radius: int = 2) -> GaussianKernel:
    """Build the unit-sum sampled Gaussian used by :func:`build_pyramid`.

    Args:
        sigma: standard deviation in samples, a positive finite number.
        radius: half-width of the square support, an integer >= 1; support
            is ``2 * radius + 1`` per axis.

    Raises:
        ParameterError: sigma not a positive finite number, radius not an
            integer in [1, MAX_RADIUS]; or sigma so small or large that
            :func:`gaussian_samples` refuses it.
    """
    sigma, radius = _check_positive("sigma", sigma), _check_int("radius", radius)
    gaussian_samples(sigma, radius)  # validates the parameter domain
    taps = _unit_sum_taps(sigma, radius)
    weights = np.outer(taps, taps)
    taps.flags.writeable = False
    weights.flags.writeable = False
    return GaussianKernel(sigma=sigma, radius=radius, taps=taps, weights=weights)


def _downsample_pass(values: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Correlate along ``axis``, mirror-padded by radius, at even offsets.

    Tap k reads the padded entries k, k + 2, ..., gathered from ``values``
    through :func:`_mirror_index`, so no padded copy is built; the terms are
    summed in tap order.
    """
    n = values.shape[axis]
    index = _mirror_index(n, len(taps) // 2)
    stop = 2 * ((n + 1) // 2) - 1
    acc = values.take(index[0:stop:2], axis=axis)
    acc *= taps[0]
    for k in range(1, len(taps)):
        term = values.take(index[k : k + stop : 2], axis=axis)
        term *= taps[k]
        acc += term
    return acc


def _reduce(values: np.ndarray, kernel: GaussianKernel) -> np.ndarray:
    """Blur with the kernel and keep every other row and column.

    ``values`` is (..., rows, cols); leading axes are a batch of grids,
    each reduced on its own. Output dims are (ceil(rows/2), ceil(cols/2));
    borders use mirror (symmetric) padding. Sizes are not checked here:
    :func:`build_pyramid` refuses a level count whose levels do not fit
    the kernel support.
    """
    half_rows = _downsample_pass(values, kernel.taps, axis=-2)
    return _downsample_pass(half_rows, kernel.taps, axis=-1)


@lru_cache(maxsize=128)
def _mirror_index(n: int, radius: int) -> np.ndarray:
    """Source index of every entry of an axis of ``n`` padded by ``radius``.

    Built by ``np.pad`` itself, so gathering through it repeats the
    symmetric (edge-repeating) reflection exactly, also where ``radius``
    exceeds ``n``.
    """
    index = np.pad(np.arange(n), radius, mode="symmetric")
    index.flags.writeable = False
    return index


def _check_scales(scales: int) -> int:
    return _check_int("scales", scales, 1)


def _scale_count(rows: int, cols: int, support: int, floor: tuple[int, int] = (1, 1)) -> int:
    """Scales a rows x cols grid supports with a kernel of ``support``.

    One scale is never reduced, so it needs only the ``floor`` (rows,
    cols). Two or more need the kernel support and the floor at every
    level, each level halving both dims by the ceiling rule.
    """
    if rows < floor[0] or cols < floor[1]:
        return 0
    min_rows, min_cols = max(support, floor[0]), max(support, floor[1])
    count = 0
    while rows >= min_rows and cols >= min_cols:  # support >= 3, so this ends
        count += 1
        rows, cols = (rows + 1) // 2, (cols + 1) // 2
    return max(count, 1)


def build_pyramid(grid: Grid2, scales: int, kernel: GaussianKernel | None = None) -> tuple[Grid2, ...]:
    """Repeatedly reduce ``grid`` into a ``scales``-level pyramid.

    Returns the levels, finest first: level 0 is ``grid`` itself, and each
    later level halves both dims (the ceiling rule).

    Args:
        grid: base level (level 0, kept as-is).
        scales: number of levels including the base, an integer >= 1.
            One level is ``grid`` itself, of any size; with two or more,
            every level must keep both dims at or above the kernel support.
        kernel: defaults to ``make_kernel(1.0, 2)``.

    Raises:
        ParameterError: scales not an integer >= 1.
        SizeError: the grid cannot support that many levels; the message
            names the largest feasible count.
    """
    if kernel is None:
        kernel = make_kernel()
    scales = _check_scales(scales)
    feasible = _scale_count(grid.rows, grid.cols, kernel.support)
    if scales > feasible:
        raise SizeError(
            f"grid {grid.rows}x{grid.cols} supports at most {feasible} "
            f"scale(s) with kernel support {kernel.support}, requested {scales}"
        )
    levels = [grid]
    for _ in range(scales - 1):
        levels.append(Grid2(_reduce(levels[-1].data, kernel)))
    return tuple(levels)


def _interp_axis(
    values: np.ndarray, target: int, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Edge-aligned linear resize of ``values`` along ``axis`` to ``target``.

    Writes into ``out`` when given, otherwise into a new C-contiguous array;
    a same-size call without ``out`` returns ``values`` itself.
    """
    size = values.shape[axis]
    if size == target or size == 1:
        if out is None:
            if size == target:
                return values
            out = np.empty(values.shape[:axis] + (target,) + values.shape[axis + 1 :])
        np.copyto(out, values)
        return out
    lower, upper, frac = _interp_stencil(size, target)
    frac = frac.reshape((-1,) + (1,) * (values.ndim - 1 - axis))
    return _blend(values, lower, upper, frac, axis, out)


def _interp_stencil(size: int, target: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source rows and fraction of every target index, for target > size.

    Edge-aligned sampling: index i maps to i * (size-1) / (target-1), so
    both corners land exactly on source corners.
    """
    positions = np.arange(target, dtype=np.float64) * float(size - 1) / float(target - 1)
    lower = np.minimum(positions.astype(np.int64), size - 1)
    upper = np.minimum(lower + 1, size - 1)
    return lower, upper, positions - lower


def _blend(values: np.ndarray, lower, upper, frac, axis: int = 0, out=None) -> np.ndarray:
    """Linear interpolation between entries ``lower`` and ``upper`` along ``axis``.

    a + f*(b-a) keeps constants exact for any fractional offset, and
    integer positions get f == 0, so on-lattice samples copy through bit
    for bit. It is evaluated in place on the gathered ``b`` (into ``out``
    when given), with the same IEEE operations in the same order.
    """
    a = np.take(values, lower, axis=axis)
    # mode="clip" lets take write straight into ``out``; the stencil's
    # indices are always in range, so it never clips
    b = np.take(values, upper, axis=axis, out=out, mode="clip")
    b -= a
    b *= frac
    b += a
    return b


def expand_to(grid: Grid2, rows: int, cols: int) -> Grid2:
    """Bilinear resize up to (rows, cols) with edge-aligned corners.

    Corner pixels map to corner pixels; a same-size call returns an
    identical copy.

    Raises:
        ParameterError: rows or cols not an integer.
        SizeError: target smaller than the input along either axis.
    """
    rows, cols = _check_int("rows", rows), _check_int("cols", cols)
    if rows < grid.rows or cols < grid.cols:
        raise SizeError(
            f"target {rows}x{cols} is smaller than input {grid.rows}x{grid.cols}"
        )
    if (rows, cols) == grid.shape:
        return Grid2(grid.data)
    return Grid2(_interp_axis(_interp_axis(grid.data, rows, 0), cols, 1))
