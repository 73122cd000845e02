"""Fuse per-scale attribute maps into one base-resolution map.

Four element-wise rules: mean, weighted mean (weights normalized
internally, larger weights conventionally on the finer scales), median
(even counts average the two middle values), and rank-r order statistic.

Mean and median honor quality masks: a cell's guarded entries are sentinel
zeros, not measurements, so they are dropped wherever at least one scale is
trusted; a cell guarded at every scale fuses to 0. Weighted mean and rank
use all K values because per-scale weights and rank positions do not
survive per-cell exclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .attributes import (
    EPS_FREQ_DEFAULT,
    P_MAX_DEFAULT,
    VELOCITY_DEFAULT,
    AttributeStack,
    attribute_stack,
)
from .errors import ConfigError, ParameterError, PyrafuseError
from .grid import AttributeKind, AttributeMap, Grid2, SeismicSection, SeismicVolume
from .pyramid import GaussianKernel, make_kernel


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
        ParameterError: scales < 1 or bias <= 0.
    """
    scales = int(scales)
    if scales < 1:
        raise ParameterError(f"scales must be >= 1, got {scales}")
    bias = float(bias)
    if bias <= 0.0 or not np.isfinite(bias):
        raise ParameterError(f"bias must be positive, got {bias!r}")
    w = bias ** -np.arange(scales, dtype=np.float64)
    return w / w.sum()


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


def _masked_median(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
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


def fuse(stack: AttributeStack, spec: FusionSpec) -> AttributeMap:
    """Fuse a stack into one map tagged as fused-at-base-resolution.

    Raises:
        ParameterError: weights/rank missing, mis-sized, or out of range.
    """
    values = stack.values()
    valid = stack.validity()
    scales = values.shape[0]
    method = spec.method
    if method is FusionMethod.MEAN:
        fused = _masked_mean(values, valid)
    elif method is FusionMethod.MEDIAN:
        fused = _masked_median(values, valid)
    elif method is FusionMethod.WEIGHTED_MEAN:
        if spec.weights is None:
            raise ParameterError("weighted-mean fusion needs weights")
        w = np.asarray(spec.weights, dtype=np.float64)
        if w.shape != (scales,):
            raise ParameterError(f"need {scales} weights, got {w.shape[0] if w.ndim == 1 else w.shape!r}")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ParameterError("weights must be finite and non-negative")
        total = w.sum()
        if total <= 0.0:
            raise ParameterError("weights must not all be zero")
        w = w / total
        fused = np.einsum("k,kij->ij", w, values)
    elif method is FusionMethod.RANK:
        if spec.rank is None:
            raise ParameterError("rank fusion needs a rank")
        r = int(spec.rank)
        if r < 0 or r >= scales:
            raise ParameterError(f"rank {r} outside [0, {scales - 1}]")
        fused = np.sort(values, axis=0)[r]
    else:  # pragma: no cover - enum is closed
        raise ParameterError(f"unknown fusion method {method!r}")

    first = stack.maps[0]
    any_valid = valid.any(axis=0)
    meta = {
        "method": method.value,
        "scales": str(scales),
    }
    if spec.weights is not None and method is FusionMethod.WEIGHTED_MEAN:
        meta["weights"] = ",".join(repr(float(x)) for x in spec.weights)
    if spec.rank is not None and method is FusionMethod.RANK:
        meta["rank"] = str(int(spec.rank))
    for key in ("sigma", "radius", "velocity", "time_index"):
        if key in first.meta:
            meta[key] = first.meta[key]
    return AttributeMap(
        grid=Grid2(fused),
        kind=stack.kind,
        scale=None,
        dt=first.dt,
        dx=first.dx,
        dy=first.dy,
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
    kernel, median fusion.

    Raises:
        Whatever the underlying stage raises. Package errors other than
        ConfigError get the stage named in the message; any other
        exception escapes unchanged.
    """
    kernel = kernel if kernel is not None else make_kernel()
    fusion = fusion if fusion is not None else FusionSpec.median()
    if fusion.method is FusionMethod.WEIGHTED_MEAN and fusion.weights is None:
        fusion = FusionSpec.weighted(default_weights(scales))
    try:
        stack = attribute_stack(
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
        return fuse(stack, fusion)
    except PyrafuseError as exc:
        raise type(exc)(f"fusion stage: {exc}") from exc
