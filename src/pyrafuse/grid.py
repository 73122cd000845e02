"""Dense float grids and the seismic containers built on them.

Conventions used throughout the package:

* a 2D grid stores ``rows x cols`` 64-bit floats; for a seismic section the
  rows index time samples and the columns index traces,
* a volume stores ``(nt, nx, ny)`` with axes (time, inline position,
  crossline position),
* every container rejects NaN/Inf on construction and exposes its payload as
  a read-only array, so downstream code can share buffers without defensive
  copies.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import BoundsError, ParameterError, ShapeError


class _Adopted:
    """A float64 C-order array that a file reader made and checked.

    Passed as a container's data, the array itself is frozen and kept: no
    copy, and the reader's check of each sample where the data entered
    stands for ``_check_finite``. The reader must hold no other reference
    to it.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _frozen_array(values, ndim: int) -> np.ndarray:
    adopted = isinstance(values, _Adopted)
    if adopted:
        arr = values.array
    else:
        arr = np.array(values, dtype=np.float64, copy=True, order="C")
    if arr.ndim != ndim:
        raise ShapeError(f"expected a {ndim}D array, got {arr.ndim}D")
    if arr.size == 0:
        raise ShapeError("grid dimensions must all be >= 1")
    if not adopted:
        _check_finite(arr)
    arr.flags.writeable = False
    return arr


def _check_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ParameterError("grid values must be finite (no NaN/Inf)")


@dataclass(frozen=True, eq=False)
class Grid2:
    """Immutable 2D grid of finite float64 values.

    Args:
        data: anything ``np.asarray`` accepts with shape (rows, cols).

    Raises:
        ShapeError: not 2D or any dimension is zero.
        ParameterError: NaN or Inf present.
    """

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_array(self.data, 2))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Grid2(rows={self.rows}, cols={self.cols})"


def _check_positive(name: str, value: float) -> float:
    if isinstance(value, numbers.Real) and 0 < value < np.inf:
        return float(value)
    raise ParameterError(f"{name} must be a positive finite number, got {value!r}")


def _check_int(name: str, value: int, low: int | None = None) -> int:
    """A Python or numpy integer (or a bool) as an int >= ``low``; never a truncated float."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")
    return value


def _check_grid(name: str, value: Grid2) -> None:
    if not isinstance(value, Grid2):
        raise ParameterError(f"{name} must be a Grid2, got {type(value).__name__}")


def _check_fields(obj, *intervals: str) -> None:
    """Store a frozen container's positive ``intervals`` as floats and its ``meta`` as a dict."""
    for name in intervals:
        object.__setattr__(obj, name, _check_positive(name, getattr(obj, name)))
    try:
        object.__setattr__(obj, "meta", dict(obj.meta))
    except (TypeError, ValueError):
        raise ParameterError(f"meta must be a mapping, got {obj.meta!r}") from None


@dataclass(frozen=True, eq=False)
class SeismicSection:
    """A 2D section: time down the rows, traces across the columns.

    Args:
        grid: sample values (rows = time samples, cols = traces).
        dt: sample interval in seconds.
        dx: trace spacing in meters.
        label: free-form provenance tag (e.g. "inline 12").
        meta: header pairs, as on :class:`AttributeMap`; a ``label`` key
            in it is a ParameterError, as the label has its own field.
    """

    grid: Grid2
    dt: float
    dx: float
    label: str = ""
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        _check_grid("grid", self.grid)
        _check_fields(self, "dt", "dx")
        if "label" in self.meta:
            raise ParameterError("a section's label is its label field, not a meta key")

    @property
    def n_samples(self) -> int:
        return self.grid.rows

    @property
    def n_traces(self) -> int:
        return self.grid.cols

    def __repr__(self) -> str:
        return (
            f"SeismicSection({self.n_samples}x{self.n_traces}, "
            f"dt={self.dt}, dx={self.dx}, label={self.label!r})"
        )


@dataclass(frozen=True, eq=False)
class SeismicVolume:
    """A 3D volume with axes (time, inline position x, crossline position y).

    The payload is a C-ordered array, so y varies fastest in memory; only
    the grid file stores it first-axis-fastest. Slicing helpers below hand
    out sections/slices that share the layout conventions of
    :class:`SeismicSection` and :class:`Grid2`.
    """

    data: np.ndarray = field(repr=False)
    dt: float
    dx: float
    dy: float
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_array(self.data, 3))
        _check_fields(self, "dt", "dx", "dy")

    @property
    def nt(self) -> int:
        return self.data.shape[0]

    @property
    def nx(self) -> int:
        return self.data.shape[1]

    @property
    def ny(self) -> int:
        return self.data.shape[2]

    def _check_index(self, axis: str, index: int, size: int) -> int:
        index = _check_int(f"{axis} index", index)
        if index < 0 or index >= size:
            raise BoundsError(f"{axis} index {index} outside [0, {size - 1}]")
        return index

    def time_slice(self, t_index: int) -> Grid2:
        """Horizontal slice at one time sample: rows = x, cols = y."""
        t = self._check_index("time", t_index, self.nt)
        return Grid2(self.data[t, :, :])

    def inline_section(self, x_index: int) -> SeismicSection:
        """Vertical section at fixed inline position: lateral axis = y."""
        x = self._check_index("inline", x_index, self.nx)
        return self._section(self.data[:, x, :], self.dy, f"inline {x}")

    def crossline_section(self, y_index: int) -> SeismicSection:
        """Vertical section at fixed crossline position: lateral axis = x."""
        y = self._check_index("crossline", y_index, self.ny)
        return self._section(self.data[:, :, y], self.dx, f"crossline {y}")

    def _section(self, data: np.ndarray, dx: float, label: str) -> SeismicSection:
        """A section with this volume's meta, less any ``label`` key."""
        meta = {k: v for k, v in self.meta.items() if k != "label"}
        return SeismicSection(Grid2(data), dt=self.dt, dx=dx, label=label, meta=meta)

    def __repr__(self) -> str:
        return (
            f"SeismicVolume({self.nt}x{self.nx}x{self.ny}, "
            f"dt={self.dt}, dx={self.dx}, dy={self.dy})"
        )


class AttributeKind(Enum):
    """What a map measures: an attribute the package computes."""

    PHASE_DIP = "dip"
    DIP_ANGLE = "dip_angle"
    CURV_POS = "curv_pos"
    CURV_NEG = "curv_neg"


class Units(Enum):
    """Physical units carried by a map."""

    SAMPLES_PER_TRACE = "samples_per_trace"
    RADIANS = "radians"
    PER_METER = "per_meter"


KIND_UNITS: dict[AttributeKind, Units] = {
    AttributeKind.PHASE_DIP: Units.SAMPLES_PER_TRACE,
    AttributeKind.DIP_ANGLE: Units.RADIANS,
    AttributeKind.CURV_POS: Units.PER_METER,
    AttributeKind.CURV_NEG: Units.PER_METER,
}


def _check_attribute_fields(obj) -> None:
    """Check and normalise the ``kind``, ``dt``, ``dx``, ``dy`` and ``meta``
    of a frozen attribute map or stack, in place."""
    if not isinstance(obj.kind, AttributeKind):
        raise ParameterError(f"kind must be an AttributeKind, got {obj.kind!r}")
    _check_fields(obj, "dt", "dx", *(() if obj.dy is None else ("dy",)))


@dataclass(frozen=True, eq=False)
class AttributeMap:
    """A 2D attribute map plus everything needed to interpret it.

    ``scale`` is the pyramid level the map came from, or ``None`` for a
    fused map at base resolution. ``quality`` is an optional same-shaped
    grid of 1.0 (trusted) / 0.0 (guarded) flags; fusion uses it to skip
    sentinel cells. ``meta`` holds small string pairs that travel into
    file headers (kernel parameters, fusion method, seeds, ...). Raw data
    is a section or a volume, never a map.
    """

    grid: Grid2
    kind: AttributeKind
    scale: int | None = 0
    dt: float = 1.0
    dx: float = 1.0
    dy: float | None = None
    quality: Grid2 | None = None
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        _check_grid("grid", self.grid)
        _check_attribute_fields(self)
        if self.scale is not None:
            scale = _check_int("scale", self.scale)
            if scale < 0:
                raise ParameterError(f"scale must be >= 0 or None, got {scale}")
            object.__setattr__(self, "scale", scale)
        if self.quality is not None:
            _check_grid("quality", self.quality)
            if self.quality.shape != self.grid.shape:
                raise ShapeError(
                    f"quality shape {self.quality.shape} != grid shape {self.grid.shape}"
                )

    @property
    def units(self) -> Units:
        return KIND_UNITS[self.kind]

    @property
    def is_fused(self) -> bool:
        return self.scale is None

    def __repr__(self) -> str:
        tag = "fused" if self.is_fused else str(self.scale)
        return f"AttributeMap({self.kind.value}, scale={tag}, {self.grid.rows}x{self.grid.cols})"
