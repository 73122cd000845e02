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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .attributes import (
    EPS_FREQ_DEFAULT,
    P_MAX_DEFAULT,
    VELOCITY_DEFAULT,
    AttributeStack,
    _attribute_layers,
)
from .errors import ConfigError, ParameterError, PyrafuseError
from .grid import AttributeKind, AttributeMap, Grid2, SeismicSection, SeismicVolume
from .pyramid import GaussianKernel


class FusionMethod(Enum):
    MEAN = "mean"
    WEIGHTED_MEAN = "wmean"
    MEDIAN = "median"
    RANK = "rank"


@dataclass(frozen=True)
class FusionSpec:
    """Which rule to apply, plus its parameters.

    ``weights`` (weighted mean only) needs one non-negative entry per scale
    with a positive sum; ``rank`` (rank only) selects the r-th smallest
    value, 0 <= r < K.
    """

    method: FusionMethod
    weights: tuple[float, ...] | None = None
    rank: int | None = None

    @classmethod
    def mean(cls) -> "FusionSpec":
        return cls(FusionMethod.MEAN)

    @classmethod
    def weighted(cls, weights) -> "FusionSpec":
        return cls(FusionMethod.WEIGHTED_MEAN, weights=tuple(float(w) for w in weights))

    @classmethod
    def median(cls) -> "FusionSpec":
        return cls(FusionMethod.MEDIAN)

    @classmethod
    def rank_of(cls, rank: int) -> "FusionSpec":
        return cls(FusionMethod.RANK, rank=int(rank))


def default_weights(scales: int, bias: float = 2.0) -> np.ndarray:
    """Normalized geometric weights, w_i proportional to bias**(-i).

    scales=4, bias=2 gives [8/15, 4/15, 2/15, 1/15]: finer scales dominate.

    Raises:
        ParameterError: scales < 1, bias <= 0, or weights that overflow.
    """
    scales = int(scales)
    if scales < 1:
        raise ParameterError(f"scales must be >= 1, got {scales}")
    bias = float(bias)
    if bias <= 0.0 or not np.isfinite(bias):
        raise ParameterError(f"bias must be positive, got {bias!r}")
    with np.errstate(over="ignore"):
        w = bias ** -np.arange(scales, dtype=np.float64)
        total = w.sum()
    if not np.isfinite(total):
        raise ParameterError(f"bias {bias!r} overflows the weights of {scales} scales")
    return w / total


def _masked_mean(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    counts = valid.sum(axis=0)
    total = np.where(valid, values, 0.0).sum(axis=0)
    out = np.zeros(values.shape[1:])
    np.divide(total, counts, out=out, where=counts > 0)
    # a one-sample mean must be that sample bit for bit (summation would
    # turn -0.0 into +0.0)
    if np.any(counts == 1):
        first = np.argmax(valid, axis=0)
        single = np.take_along_axis(values, first[None], axis=0)[0]
        out = np.where(counts == 1, single, out)
    return out


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


def _median_of_sorted(rows, counts: np.ndarray) -> np.ndarray:
    """Per-cell median of the first ``counts`` of the ascending ``rows``."""
    out = np.zeros(counts.shape)
    for c in range(1, len(rows) + 1):
        lower, upper = rows[(c - 1) // 2], rows[c // 2]
        middle = lower if c % 2 else 0.5 * (lower + upper)
        np.copyto(out, middle, where=counts == c)
    return out


def _masked_median(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Per-cell median of the valid entries; overwrites ``values``."""
    counts = valid.sum(axis=0)
    # guarded entries go to +inf, past every real value, so a cell's c
    # valid entries are its first c sorted ones
    np.copyto(values, np.inf, where=~valid)
    cells, tied = _zero_ties(values)
    out = _median_of_sorted(_sort_rows(values), counts)
    out[cells] = _median_of_sorted(tied, counts[cells])
    return out


def fuse(stack: AttributeStack, spec: FusionSpec) -> AttributeMap:
    """Fuse a stack into one map tagged as fused-at-base-resolution.

    Raises:
        ParameterError: weights/rank missing, mis-sized, or out of range.
    """
    return _fuse_arrays(replace(stack, values=stack.values.copy()), spec)


def _check_fusion(spec: FusionSpec, scales: int) -> None:
    """Refuse weights or a rank that cannot fuse ``scales`` maps.

    Raises:
        ParameterError: weights/rank missing, mis-sized, or out of range.
    """
    if spec.method is FusionMethod.WEIGHTED_MEAN:
        if spec.weights is None:
            raise ParameterError("weighted-mean fusion needs weights")
        w = np.asarray(spec.weights, dtype=np.float64)
        if w.shape != (scales,):
            raise ParameterError(f"need {scales} weights, got {w.shape[0] if w.ndim == 1 else w.shape!r}")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ParameterError("weights must be finite and non-negative")
        with np.errstate(over="ignore"):
            total = w.sum()
        if total <= 0.0:
            raise ParameterError("weights must not all be zero")
        if not np.isfinite(total):
            raise ParameterError("weights must have a finite sum")
    elif spec.method is FusionMethod.RANK:
        if spec.rank is None:
            raise ParameterError("rank fusion needs a rank")
        r = int(spec.rank)
        if r < 0 or r >= scales:
            raise ParameterError(f"rank {r} outside [0, {scales - 1}]")


def _fuse_arrays(stack: AttributeStack, spec: FusionSpec) -> AttributeMap:
    """:func:`fuse`, overwriting ``stack.values``."""
    values, valid = stack.values, stack.valid
    scales = values.shape[0]
    _check_fusion(spec, scales)
    method = spec.method
    meta = {"method": method.value, "scales": str(scales)}
    if method is FusionMethod.MEAN:
        fused = _masked_mean(values, valid)
    elif method is FusionMethod.MEDIAN:
        fused = _masked_median(values, valid)
    elif method is FusionMethod.WEIGHTED_MEAN:
        w = np.asarray(spec.weights, dtype=np.float64)
        fused = np.einsum("k,kij->ij", w / w.sum(), values)
        meta["weights"] = ",".join(repr(float(x)) for x in spec.weights)
    elif method is FusionMethod.RANK:
        r = int(spec.rank)
        cells, tied = _zero_ties(values)
        fused = _sort_rows(values)[r]
        fused[cells] = tied[r]
        meta["rank"] = str(r)
    else:  # pragma: no cover - enum is closed
        raise ParameterError(f"unknown fusion method {method!r}")

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
    before any attribute is computed.

    Raises:
        ParameterError: scales < 1.
        Whatever the underlying stage raises. Package errors other than
        ConfigError get the stage named in the message; any other
        exception escapes unchanged.
    """
    scales = int(scales)
    if scales < 1:
        raise ParameterError(f"scales must be >= 1, got {scales}")
    fusion = fusion if fusion is not None else FusionSpec.median()
    if fusion.method is FusionMethod.WEIGHTED_MEAN and fusion.weights is None:
        fusion = FusionSpec.weighted(default_weights(scales))
    try:
        _check_fusion(fusion, scales)
    except PyrafuseError as exc:
        raise type(exc)(f"fusion stage: {exc}") from exc
    try:
        stack = _attribute_layers(
            data,
            kind,
            scales,
            kernel,
            time_index=time_index,
            velocity=velocity,
            p_max=p_max,
            eps_freq=eps_freq,
        )
    except ConfigError:
        raise
    except PyrafuseError as exc:
        raise type(exc)(f"attribute stage: {exc}") from exc
    try:
        return _fuse_arrays(stack, fusion)
    except PyrafuseError as exc:
        raise type(exc)(f"fusion stage: {exc}") from exc
