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

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import BoundsError, ParameterError, ShapeError


def _frozen_array(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True, order="C")
    if arr.ndim != ndim:
        raise ShapeError(f"expected a {ndim}D array, got {arr.ndim}D")
    if arr.size == 0:
        raise ShapeError("grid dimensions must all be >= 1")
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


def _check_interval(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ParameterError(f"{name} must be a positive finite number, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class SeismicSection:
    """A 2D section: time down the rows, traces across the columns.

    Args:
        grid: sample values (rows = time samples, cols = traces).
        dt: sample interval in seconds.
        dx: trace spacing in meters.
        label: free-form provenance tag (e.g. "inline 12").
    """

    grid: Grid2
    dt: float
    dx: float
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dt", _check_interval("dt", self.dt))
        object.__setattr__(self, "dx", _check_interval("dx", self.dx))

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

    The payload is stored time-fastest in memory terms of the first axis;
    slicing helpers below hand out sections/slices that share the layout
    conventions of :class:`SeismicSection` and :class:`Grid2`.
    """

    data: np.ndarray = field(repr=False)
    dt: float
    dx: float
    dy: float

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_array(self.data, 3))
        object.__setattr__(self, "dt", _check_interval("dt", self.dt))
        object.__setattr__(self, "dx", _check_interval("dx", self.dx))
        object.__setattr__(self, "dy", _check_interval("dy", self.dy))

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
        index = int(index)
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
        return SeismicSection(
            Grid2(self.data[:, x, :]), dt=self.dt, dx=self.dy, label=f"inline {x}"
        )

    def crossline_section(self, y_index: int) -> SeismicSection:
        """Vertical section at fixed crossline position: lateral axis = x."""
        y = self._check_index("crossline", y_index, self.ny)
        return SeismicSection(
            Grid2(self.data[:, :, y]), dt=self.dt, dx=self.dx, label=f"crossline {y}"
        )

    def __repr__(self) -> str:
        return (
            f"SeismicVolume({self.nt}x{self.nx}x{self.ny}, "
            f"dt={self.dt}, dx={self.dx}, dy={self.dy})"
        )


class AttributeKind(Enum):
    """What a map measures."""

    RAW = "raw"
    PHASE_DIP = "dip"
    DIP_ANGLE = "dip_angle"
    CURV_POS = "curv_pos"
    CURV_NEG = "curv_neg"


class Units(Enum):
    """Physical units carried by a map."""

    DIMENSIONLESS = "dimensionless"
    SAMPLES_PER_TRACE = "samples_per_trace"
    RADIANS = "radians"
    PER_METER = "per_meter"


KIND_UNITS: dict[AttributeKind, Units] = {
    AttributeKind.RAW: Units.DIMENSIONLESS,
    AttributeKind.PHASE_DIP: Units.SAMPLES_PER_TRACE,
    AttributeKind.DIP_ANGLE: Units.RADIANS,
    AttributeKind.CURV_POS: Units.PER_METER,
    AttributeKind.CURV_NEG: Units.PER_METER,
}

# Scale tag for a map produced by fusing several scales at base resolution.
SCALE_FUSED: None = None


@dataclass(frozen=True, eq=False)
class AttributeMap:
    """A 2D attribute map plus everything needed to interpret it.

    ``scale`` is the pyramid level the map came from, or ``None``
    (:data:`SCALE_FUSED`) for a fused map at base resolution. ``quality``
    is an optional same-shaped grid of 1.0 (trusted) / 0.0 (guarded)
    flags; fusion uses it to skip sentinel cells. ``meta`` holds small
    string pairs that travel into file headers (kernel parameters,
    fusion method, seeds, ...).
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
        if not isinstance(self.kind, AttributeKind):
            raise ParameterError(f"kind must be an AttributeKind, got {self.kind!r}")
        if self.scale is not None:
            scale = int(self.scale)
            if scale < 0:
                raise ParameterError(f"scale must be >= 0 or None, got {scale}")
            object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "dt", _check_interval("dt", self.dt))
        object.__setattr__(self, "dx", _check_interval("dx", self.dx))
        if self.dy is not None:
            object.__setattr__(self, "dy", _check_interval("dy", self.dy))
        if self.quality is not None and self.quality.shape != self.grid.shape:
            raise ShapeError(
                f"quality shape {self.quality.shape} != grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def units(self) -> Units:
        return KIND_UNITS[self.kind]

    @property
    def is_fused(self) -> bool:
        return self.scale is None

    def __repr__(self) -> str:
        tag = "fused" if self.is_fused else str(self.scale)
        return f"AttributeMap({self.kind.value}, scale={tag}, {self.grid.rows}x{self.grid.cols})"


def reassemble_volume(sections: list[SeismicSection], dx: float) -> SeismicVolume:
    """Stack inline sections (fixed x, lateral axis y) back into a volume.

    Inverse of taking ``inline_section`` at every x. Sections must agree in
    shape and sampling.
    """
    if not sections:
        raise ShapeError("need at least one section")
    first = sections[0]
    for s in sections[1:]:
        if s.grid.shape != first.grid.shape or s.dt != first.dt or s.dx != first.dx:
            raise ShapeError("sections disagree in shape or sampling")
    data = np.stack([s.grid.data for s in sections], axis=1)
    return SeismicVolume(data, dt=first.dt, dx=dx, dy=first.dx)
