"""Fuse per-scale attribute maps into one base-resolution map.

Four element-wise rules: mean, weighted mean (weights normalized
internally, larger weights conventionally on the finer scales), median
(even counts average the two middle values), and rank-r order statistic.

Mean and median honor quality masks: a cell's guarded entries are sentinel
zeros, not measurements, so they are dropped wherever at least one scale is
trusted; a cell guarded at every scale fuses to 0. Weighted mean and rank
use all K values because per-scale weights and rank positions do not
survive per-cell exclusion.

Median and rank order each cell's K values with an odd-even transposition
network (Knuth, TAOCP vol. 3, 5.3.4): K rounds of compare-exchanges
between neighbouring scales, each one whole-map ``np.minimum``/
``np.maximum`` pair. Guarded entries hold +inf and sort last; the median is
then read at each cell's valid count. Equal values keep scale order: -0.0
and +0.0 are the only equal values whose bits differ, and min/max
instructions disagree across CPUs on which of them comes first, so every
cell that holds a zero is ordered again with ``np.sort(kind="stable")``.
Of -0.0 on one scale and +0.0 on a later one, -0.0 sorts first, and the
sign of a fused zero depends only on the data.

Every rule works cell by cell, so a large map is fused in contiguous row
parts at once, one per CPU in the process's affinity; the bytes are those
of one part.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .attributes import (
    EPS_FREQ_DEFAULT,
    P_MAX_DEFAULT,
    VELOCITY_DEFAULT,
    AttributeStack,
    _attribute_layers,
    _in_parts,
)
from .errors import ConfigError, ParameterError, PyrafuseError, _naming
from .grid import AttributeKind, AttributeMap, Grid2, SeismicSection, SeismicVolume, _check_int
from .pyramid import GaussianKernel, _check_scales


class FusionMethod(Enum):
    MEAN = "mean"
    WEIGHTED_MEAN = "wmean"
    MEDIAN = "median"
    RANK = "rank"


@dataclass(frozen=True)
class FusionSpec:
    """Which rule to apply, plus its parameters.

    ``method`` must be a :class:`FusionMethod`. ``weights`` (weighted mean
    only) needs one non-negative real number per scale with a positive sum;
    a weighted mean without them fuses by :func:`default_weights`. ``rank``
    (rank only), an integer, selects the r-th smallest value, 0 <= r < K.
    Fusion checks the spec against the scale count before any work; a wrong
    spec is a ParameterError.
    """

    method: FusionMethod
    weights: tuple[float, ...] | None = None
    rank: int | None = None

    @classmethod
    def mean(cls) -> "FusionSpec":
        return cls(FusionMethod.MEAN)

    @classmethod
    def weighted(cls, weights) -> "FusionSpec":
        return cls(FusionMethod.WEIGHTED_MEAN, weights=tuple(weights))

    @classmethod
    def median(cls) -> "FusionSpec":
        return cls(FusionMethod.MEDIAN)

    @classmethod
    def rank_of(cls, rank: int) -> "FusionSpec":
        return cls(FusionMethod.RANK, rank=rank)


def default_weights(scales: int) -> np.ndarray:
    """Normalized geometric weights, w_i proportional to 2**(-i).

    scales=4 gives [8/15, 4/15, 2/15, 1/15]: finer scales dominate. A
    weighted mean without weights fuses by these; explicit weights express
    any other bias (``(27, 9, 3, 1)`` weighs 4 scales by 3**(-i)).

    Raises:
        ParameterError: scales not an integer >= 1.
    """
    scales = _check_scales(scales)
    w = 2.0 ** -np.arange(scales, dtype=np.float64)
    return w / w.sum()


def _masked_mean(values: np.ndarray, valid: np.ndarray, out: np.ndarray) -> None:
    """Per-cell mean of the valid entries into the zeroed ``out``."""
    counts = valid.sum(axis=0)
    with np.errstate(over="ignore"):
        total = np.where(valid, values, 0.0).sum(axis=0)
    np.divide(total, counts, out=out, where=counts > 0)
    # a sum of values near the float64 maximum can overflow where their
    # mean does not: such cells are summed again from the values halved
    # k times, which is exact, so that K of them stay in range
    over = np.isinf(total)
    if over.any():
        k = len(values).bit_length()
        halved = np.ldexp(np.where(valid[:, over], values[:, over], 0.0), -k)
        out[over] = np.ldexp(halved.sum(axis=0) / counts[over], k)
    # a one-sample mean must be that sample bit for bit (summation would
    # turn -0.0 into +0.0)
    if np.any(counts == 1):
        first = np.argmax(valid, axis=0)
        single = np.take_along_axis(values, first[None], axis=0)[0]
        np.copyto(out, single, where=counts == 1)


def _sort_rows(values: np.ndarray) -> list[np.ndarray]:
    """Cell-wise ascending order of ``values[0..K-1]``, in place.

    Returns the K sorted maps: K of the K + 1 buffers made up of
    ``values``' rows and one spare row; the order of ``values`` itself is
    lost. Each value is exact, but where -0.0 meets +0.0 the order of the
    two zeros is whatever the CPU's min/max instructions make it; see
    :func:`_zero_ties`.
    """
    rows = list(values)
    spare = np.empty_like(values[0])
    for start in range(len(rows)):
        for i in range(start % 2, len(rows) - 1, 2):
            a, b = rows[i], rows[i + 1]
            np.minimum(a, b, out=spare)
            np.maximum(a, b, out=b)
            rows[i], spare = spare, a
    return rows


def _zero_ties(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells holding a zero, and their K values in stable ascending order.

    Only zeros of opposite sign compare equal yet differ in their bits, so
    these cells are the only ones whose fused bits the network's tie order
    can change; ``np.sort(kind="stable")`` keeps equal values in scale
    order. Call before :func:`_sort_rows` overwrites ``values``.
    """
    cells = (values == 0.0).any(axis=0)
    return cells, np.sort(values[:, cells], axis=0, kind="stable")


def _median_of_sorted(rows, counts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-cell median of the first ``counts`` of the ascending ``rows``,
    into ``out`` (zeroed; None: a new one), which cells of no count keep."""
    out = np.zeros(counts.shape) if out is None else out
    for c in range(1, len(rows) + 1):
        lower, upper = rows[(c - 1) // 2], rows[c // 2]
        middle = lower if c % 2 else 0.5 * (lower + upper)
        np.copyto(out, middle, where=counts == c)
    return out


def _masked_median(values: np.ndarray, valid: np.ndarray, out: np.ndarray) -> None:
    """Per-cell median of the valid entries into the zeroed ``out``;
    overwrites ``values``."""
    counts = valid.sum(axis=0)
    # guarded entries go to +inf, past every real value, so a cell's c
    # valid entries are its first c sorted ones
    np.copyto(values, np.inf, where=~valid)
    cells, tied = _zero_ties(values)
    _median_of_sorted(_sort_rows(values), counts, out)
    out[cells] = _median_of_sorted(tied, counts[cells])


def fuse(stack: AttributeStack, spec: FusionSpec) -> AttributeMap:
    """Fuse a stack into one map tagged as fused-at-base-resolution.

    A weighted mean without weights fuses by :func:`default_weights`.

    Raises:
        ParameterError: a method that is not a FusionMethod; weights/rank
            missing, mis-sized, out of range, or given to a rule that does
            not use them.
    """
    spec = _check_fusion(spec, len(stack.values))
    return _fuse_arrays(replace(stack, values=stack.values.copy()), spec)


def _check_fusion(spec: FusionSpec | None, scales: int) -> FusionSpec:
    """The spec that fuses ``scales`` maps: median for None, and a weighted
    mean without weights takes :func:`default_weights`. Its weights are a
    tuple of floats, its rank an int.

    Raises:
        ParameterError: a method that is not a FusionMethod; weights that
            are not real numbers or a rank that is not an integer;
            weights/rank missing, mis-sized, out of range, or given to a
            rule that does not use them.
    """
    if spec is None:
        return FusionSpec.median()
    if not isinstance(spec.method, FusionMethod):
        raise ParameterError(f"fusion method must be a FusionMethod, got {spec.method!r}")
    if spec.weights is not None and spec.method is not FusionMethod.WEIGHTED_MEAN:
        raise ParameterError(f"weights apply to weighted-mean fusion only, not {spec.method.value}")
    if spec.rank is not None and spec.method is not FusionMethod.RANK:
        raise ParameterError(f"a rank applies to rank fusion only, not {spec.method.value}")
    if spec.method is FusionMethod.WEIGHTED_MEAN:
        weights = default_weights(scales) if spec.weights is None else spec.weights
        w = np.asarray(weights, dtype=object)  # a string stays a string, unparsed
        if w.shape != (scales,):
            raise ParameterError(f"need {scales} weights, got {w.shape[0] if w.ndim == 1 else w.shape!r}")
        if not all(isinstance(x, numbers.Real) for x in w):
            raise ParameterError(f"weights must be real numbers, got {tuple(w)!r}")
        w = w.astype(np.float64)
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ParameterError("weights must be finite and non-negative")
        with np.errstate(over="ignore"):
            total = w.sum()
        if total <= 0.0:
            raise ParameterError("weights must not all be zero")
        if not np.isfinite(total):
            raise ParameterError("weights must have a finite sum")
        return FusionSpec.weighted(w.tolist())
    if spec.method is FusionMethod.RANK:
        if spec.rank is None:
            raise ParameterError("rank fusion needs a rank")
        rank = _check_int("rank", spec.rank)
        if rank < 0 or rank >= scales:
            raise ParameterError(f"rank {rank} outside [0, {scales - 1}]")
        return FusionSpec.rank_of(rank)
    return spec


def _fuse_arrays(stack: AttributeStack, spec: FusionSpec) -> AttributeMap:
    """:func:`fuse` by a checked ``spec``, overwriting ``stack.values``.

    Every rule works cell by cell, so the rows are fused in parts that run
    at once (:func:`attributes._in_parts`), each into its rows of the map.
    """
    values, valid = stack.values, stack.valid
    method = spec.method
    meta = {"method": method.value, "scales": str(len(values))}
    if method is FusionMethod.WEIGHTED_MEAN:
        meta["weights"] = ",".join(map(repr, spec.weights))
    elif method is FusionMethod.RANK:
        meta["rank"] = str(spec.rank)
    fused = np.zeros(values.shape[1:])

    def part(a: int, b: int) -> None:
        _fuse_rows(values[:, a:b], valid[:, a:b], spec, fused[a:b])

    _in_parts(0, len(fused), fused.size, part)
    any_valid = valid.any(axis=0)
    for key in ("sigma", "radius", "velocity", "time_index"):
        if key in stack.meta:
            meta[key] = stack.meta[key]
    return AttributeMap(
        grid=Grid2(fused),
        kind=stack.kind,
        scale=None,
        dt=stack.dt,
        dx=stack.dx,
        dy=stack.dy,
        quality=Grid2(any_valid.astype(np.float64)),
        meta=meta,
    )


def _fuse_rows(values: np.ndarray, valid: np.ndarray, spec: FusionSpec, out: np.ndarray) -> None:
    """Fuse (K, ...) ``values`` by a checked ``spec`` into the zeroed
    ``out``; overwrites ``values``."""
    method = spec.method
    if method is FusionMethod.MEAN:
        _masked_mean(values, valid, out)
    elif method is FusionMethod.MEDIAN:
        _masked_median(values, valid, out)
    elif method is FusionMethod.WEIGHTED_MEAN:
        w = np.asarray(spec.weights)
        np.einsum("k,kij->ij", w / w.sum(), values, out=out)
    else:  # rank
        cells, tied = _zero_ties(values)
        np.copyto(out, _sort_rows(values)[spec.rank])
        out[cells] = tied[spec.rank]


def multiscale_attribute(
    data: SeismicSection | SeismicVolume,
    kind: AttributeKind,
    *,
    scales: int = 4,
    kernel: GaussianKernel | None = None,
    fusion: FusionSpec | None = None,
    time_index: int | None = None,
    velocity: float = VELOCITY_DEFAULT,
    p_max: float = P_MAX_DEFAULT,
    eps_freq: float = EPS_FREQ_DEFAULT,
) -> AttributeMap:
    """Pyramid -> per-scale attribute -> expand -> fuse, in one call.

    Defaults follow the package conventions: 4 scales, sigma=1 radius=2
    kernel, median fusion. The fusion spec is checked against ``scales``
    before any attribute is computed, as :func:`fuse` checks it.

    Raises:
        ParameterError: scales not an integer >= 1, or a spec that
            :func:`fuse` refuses.
        Whatever the underlying stage raises. Package errors other than
        ConfigError get the stage named in the message; any other
        exception escapes unchanged.
    """
    return _multiscale(data, kind, scales, kernel, fusion, time_index=time_index,
                       velocity=velocity, p_max=p_max, eps_freq=eps_freq)


def _multiscale(data, kind: AttributeKind, scales: int, kernel: GaussianKernel | None,
                fusion: FusionSpec | None, **attribute) -> AttributeMap:
    """:func:`multiscale_attribute`, passing ``attribute`` (its attribute
    keywords, and the CLI's ``boundary``) to :func:`_attribute_layers`."""
    scales = _check_scales(scales)
    with _naming("fusion stage"):
        fusion = _check_fusion(fusion, scales)
    try:
        stack = _attribute_layers(data, kind, scales, kernel, **attribute)
    except ConfigError:
        raise
    except PyrafuseError as exc:
        raise type(exc)(f"attribute stage: {exc}") from exc
    with _naming("fusion stage"):
        return _fuse_arrays(stack, fusion)
