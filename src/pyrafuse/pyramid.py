"""Gaussian pyramid construction and bilinear expansion back to base size.

A pyramid level is produced by correlating the previous level with a small
sampled Gaussian and keeping every other row/column:

    out[m, n] = sum_{k,l in [-r, r]} g[k, l] * in[2m + k, 2n + l]

with mirror (symmetric, edge-repeating) padding at the borders. Output
dimensions follow the ceiling rule: an output index m exists while 2m is a
valid input row, i.e. ceil(rows / 2) rows survive. The kernel is separable,
so the implementation runs two 1D passes; a brute-force evaluation of the
sum above lives in the test suite as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, SizeError
from .grid import Grid2


def gaussian_samples(sigma: float, radius: int) -> np.ndarray:
    """Unnormalized Gaussian lattice samples on [-radius, radius]^2.

    g[m, n] = 1 / (2 pi sigma^2) * exp(-(m^2 + n^2) / (2 sigma^2))

    Returned as a (2*radius+1, 2*radius+1) array; the center sample for
    sigma = 1 is 1 / (2 pi) ~= 0.159155.
    """
    sigma = float(sigma)
    radius = int(radius)
    if sigma <= 0.0 or not np.isfinite(sigma):
        raise ParameterError(f"sigma must be positive and finite, got {sigma!r}")
    if radius < 1:
        raise ParameterError(f"radius must be >= 1, got {radius}")
    coords = np.arange(-radius, radius + 1, dtype=np.float64)
    sq = coords[:, None] ** 2 + coords[None, :] ** 2
    return np.exp(-sq / (2.0 * sigma * sigma)) / (2.0 * np.pi * sigma * sigma)


def _unit_sum_taps(sigma: float, radius: int) -> np.ndarray:
    coords = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(coords * coords) / (2.0 * float(sigma) ** 2))
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


def make_kernel(sigma: float = 1.0, radius: int = 2) -> GaussianKernel:
    """Build the unit-sum sampled Gaussian used by :func:`reduce_grid`.

    Args:
        sigma: standard deviation in samples (> 0).
        radius: half-width of the square support (>= 1); support is
            ``2 * radius + 1`` per axis.

    Raises:
        ParameterError: sigma <= 0, non-finite, or radius < 1.
    """
    gaussian_samples(sigma, radius)  # validates the parameter domain
    taps = _unit_sum_taps(sigma, radius)
    weights = np.outer(taps, taps)
    taps.flags.writeable = False
    weights.flags.writeable = False
    return GaussianKernel(sigma=float(sigma), radius=int(radius), taps=taps, weights=weights)


def _downsample_pass(padded: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
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


def reduce_grid(grid: Grid2, kernel: GaussianKernel) -> Grid2:
    """Blur with the kernel and keep every other row and column.

    Output dims are (ceil(rows/2), ceil(cols/2)); borders use mirror
    (symmetric) padding.

    Raises:
        SizeError: either input dimension is smaller than the kernel support.
    """
    support = kernel.support
    if grid.rows < support or grid.cols < support:
        raise SizeError(
            f"grid {grid.rows}x{grid.cols} is smaller than the kernel "
            f"support {support}x{support}"
        )
    return Grid2(_reduce(grid.data, kernel))


def _reduce(values: np.ndarray, kernel: GaussianKernel) -> np.ndarray:
    """The array work of :func:`reduce_grid`, without its checks."""
    padded = np.pad(values, kernel.radius, mode="symmetric")
    half_rows = _downsample_pass(padded, kernel.taps, axis=0)
    return _downsample_pass(half_rows, kernel.taps, axis=1)


def max_scales(rows: int, cols: int, radius: int) -> int:
    """Largest level count whose smallest level still fits the kernel support."""
    support = 2 * int(radius) + 1
    return _level_count(rows, cols, support, support)


def _level_count(rows: int, cols: int, min_rows: int, min_cols: int) -> int:
    """Levels of a rows x cols pyramid, while a level keeps both minimum dims."""
    count = 0
    r, c = int(rows), int(cols)
    while r >= min_rows and c >= min_cols:
        count += 1
        r = (r + 1) // 2
        c = (c + 1) // 2
    return count


@dataclass(frozen=True, eq=False)
class Pyramid:
    """levels[0] is the input itself; each later level halves both dims."""

    levels: tuple[Grid2, ...]
    kernel: GaussianKernel

    @property
    def scales(self) -> int:
        return len(self.levels)


def build_pyramid(grid: Grid2, scales: int, kernel: GaussianKernel | None = None) -> Pyramid:
    """Repeatedly reduce ``grid`` into a ``scales``-level pyramid.

    Args:
        grid: base level (level 0, kept as-is).
        scales: number of levels including the base (>= 1). Every level must
            keep both dims at or above the kernel support.
        kernel: defaults to ``make_kernel(1.0, 2)``.

    Raises:
        ParameterError: scales < 1.
        SizeError: the grid cannot support that many levels; the message
            names the largest feasible count.
    """
    if kernel is None:
        kernel = make_kernel()
    scales = int(scales)
    if scales < 1:
        raise ParameterError(f"scales must be >= 1, got {scales}")
    feasible = max_scales(grid.rows, grid.cols, kernel.radius)
    if scales > feasible:
        raise SizeError(
            f"grid {grid.rows}x{grid.cols} supports at most {feasible} "
            f"scale(s) with kernel support {kernel.support}, requested {scales}"
        )
    levels = [grid]
    for _ in range(scales - 1):
        levels.append(reduce_grid(levels[-1], kernel))
    return Pyramid(levels=tuple(levels), kernel=kernel)


def _interp_axis(values: np.ndarray, target: int, axis: int) -> np.ndarray:
    size = values.shape[axis]
    if target == size:
        return values
    moved = np.moveaxis(values, axis, 0)
    if size == 1:
        out = np.broadcast_to(moved, (target,) + moved.shape[1:]).copy()
        return np.moveaxis(out, 0, axis)
    lower, upper, frac = _interp_stencil(size, target)
    out = _blend(moved, lower, upper, frac.reshape((-1,) + (1,) * (moved.ndim - 1)))
    return np.moveaxis(out, 0, axis)


def _interp_stencil(size: int, target: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source rows and fraction of every target index, for target > size.

    Edge-aligned sampling: index i maps to i * (size-1) / (target-1), so
    both corners land exactly on source corners.
    """
    positions = np.arange(target, dtype=np.float64) * float(size - 1) / float(target - 1)
    lower = np.minimum(positions.astype(np.int64), size - 1)
    upper = np.minimum(lower + 1, size - 1)
    return lower, upper, positions - lower


def _blend(values: np.ndarray, lower, upper, frac) -> np.ndarray:
    """Linear interpolation between rows ``lower`` and ``upper`` of ``values``.

    a + f*(b-a) keeps constants exact for any fractional offset, and
    integer positions get f == 0, so on-lattice samples copy through bit
    for bit.
    """
    a = values[lower]
    b = values[upper]
    return a + frac * (b - a)


def expand_to(grid: Grid2, rows: int, cols: int) -> Grid2:
    """Bilinear resize up to (rows, cols) with edge-aligned corners.

    Corner pixels map to corner pixels; a same-size call returns an
    identical copy.

    Raises:
        SizeError: target smaller than the input along either axis.
    """
    rows, cols = int(rows), int(cols)
    if rows < grid.rows or cols < grid.cols:
        raise SizeError(
            f"target {rows}x{cols} is smaller than input {grid.rows}x{grid.cols}"
        )
    if (rows, cols) == grid.shape:
        return Grid2(grid.data)
    return Grid2(_interp_axis(_interp_axis(grid.data, rows, 0), cols, 1))
