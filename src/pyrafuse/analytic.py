"""Analytic signal and unwrap-free instantaneous phase derivatives.

The quadrature trace is computed in the frequency domain: every positive
frequency bin is multiplied by -i, every negative bin by +i, and the DC and
Nyquist bins are zeroed. cos maps to sin; applying the operator twice
negates the signal minus its DC and Nyquist parts.

Phase derivatives never touch atan2: with z = f + i h,

    dtheta = (f * dh - h * df) / (f^2 + h^2)

which is branch-cut free. Differences are 2nd-order central in the interior
and one-sided 2-point at the edges. Cells whose squared envelope falls at or
below 1e-10 times the section maximum are zeroed and flagged in the guard
mask: the quotient is meaningless there, not small.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SizeError
from .grid import Grid2, SeismicSection

# Relative envelope-squared floor below which the phase quotient is guarded.
ENVELOPE_GUARD_REL = 1e-10

_MIN_TRACE_LEN = 4


class Axis(Enum):
    TIME = 0
    TRACE = 1


def _quadrature(values: np.ndarray, axis: int) -> np.ndarray:
    n = values.shape[axis]
    spectrum = np.fft.rfft(values, axis=axis)
    mult = np.full(spectrum.shape[axis], -1j)
    mult[0] = 0.0
    if n % 2 == 0:
        mult[-1] = 0.0  # real Nyquist bin has no quadrature counterpart
    shape = [1] * spectrum.ndim
    shape[axis] = -1
    spectrum *= mult.reshape(shape)
    return np.fft.irfft(spectrum, n=n, axis=axis)


def hilbert_trace(trace) -> np.ndarray:
    """Quadrature (90-degree phase-shifted) version of a single trace.

    Raises:
        SizeError: fewer than 4 samples.
    """
    x = np.asarray(trace, dtype=np.float64)
    if x.ndim != 1:
        raise SizeError(f"expected a 1D trace, got {x.ndim}D")
    if x.size < _MIN_TRACE_LEN:
        raise SizeError(f"trace needs >= {_MIN_TRACE_LEN} samples, got {x.size}")
    return _quadrature(x, axis=0)


@dataclass(frozen=True, eq=False)
class AnalyticSection:
    """Real and quadrature parts of a section, with its sampling metadata."""

    real: Grid2
    imag: Grid2
    dt: float
    dx: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.real.shape

    def envelope_squared(self) -> np.ndarray:
        return _envelope_squared(self.real.data, self.imag.data)


def _envelope_squared(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    env2 = f * f
    env2 += h * h
    return env2


def analytic_section(section: SeismicSection) -> AnalyticSection:
    """Per-trace quadrature of every column of the section.

    Raises:
        SizeError: fewer than 4 time samples.
    """
    data = section.grid.data
    if data.shape[0] < _MIN_TRACE_LEN:
        raise SizeError(
            f"section needs >= {_MIN_TRACE_LEN} time samples, got {data.shape[0]}"
        )
    return AnalyticSection(
        real=section.grid,
        imag=Grid2(_quadrature(data, axis=0)),
        dt=section.dt,
        dx=section.dx,
    )


def guard_mask(a: AnalyticSection) -> np.ndarray:
    """Boolean mask, True where the phase quotient is trustworthy."""
    return _guarded_envelope(a.real.data, a.imag.data)[1]


def phase_derivative(a: AnalyticSection, axis: Axis) -> Grid2:
    """Instantaneous phase derivative along time or trace, rad/sample.

    Guarded cells (see :func:`guard_mask`) are set to 0.

    Raises:
        SizeError: fewer than 3 points along the requested axis.
    """
    ax = axis.value
    if a.shape[ax] < 3:
        raise SizeError(
            f"need >= 3 points along {axis.name.lower()} for central differences, "
            f"got {a.shape[ax]}"
        )
    f, h = a.real.data, a.imag.data
    return Grid2(_phase_derivative_band(f, h, *_guarded_envelope(f, h), ax))


def _guarded_envelope(f: np.ndarray, h: np.ndarray):
    """f^2 + h^2 of a whole section and its trust mask, for both derivatives."""
    env2 = _envelope_squared(f, h)
    return env2, _trusted(env2, env2.max())


def _trusted(env2: np.ndarray, env2_max) -> np.ndarray:
    """The envelope guard: True where f^2 + h^2 is above its relative floor.

    ``env2_max`` is the maximum of f^2 + h^2 over the whole section, or an
    array of per-section maxima that broadcasts against ``env2``.
    """
    return env2 > ENVELOPE_GUARD_REL * env2_max


def _phase_derivative_band(
    f: np.ndarray,
    h: np.ndarray,
    env2: np.ndarray,
    trusted: np.ndarray,
    axis: int,
    read: slice = slice(None),
) -> np.ndarray:
    """Phase derivative of ``f + i h`` along ``axis``, 0 where not ``trusted``.

    The differences see only the cells of ``f`` and ``h``, so along time
    the first and last rows of a band are one-sided; a band widened by one
    row on each side (clipped to the section) gives its inner rows exactly
    their full-section values. Only rows ``read`` (of axis 0) of the
    numerator are divided and returned: ``env2`` is f^2 + h^2 and
    ``trusted`` its guard (:func:`_trusted`) on those rows alone.
    """
    num = np.gradient(h, axis=axis, edge_order=1)
    num *= f
    h_df = np.gradient(f, axis=axis, edge_order=1)
    h_df *= h
    num -= h_df
    del h_df
    num = num[read]
    np.divide(num, env2, out=num, where=trusted)
    num[~trusted] = 0.0
    return num
