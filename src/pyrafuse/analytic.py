"""Analytic signal and unwrap-free instantaneous phase derivatives.

The quadrature trace is computed in the frequency domain: every positive
frequency bin is multiplied by -i, every negative bin by +i, and the DC and
Nyquist bins are zeroed. cos maps to sin; applying the operator twice
negates the signal minus its DC and Nyquist parts.

Phase derivatives never touch atan2: with z = f + i h,

    dtheta = (f * dh - h * df) / (f^2 + h^2)

which is branch-cut free. Differences are 2nd-order central in the interior
and one-sided 2-point at the edges. Cells whose squared envelope falls at or
below 1e-10 times the section maximum are zeroed and untrusted: the quotient
is meaningless there, not small.
"""

from __future__ import annotations

import numpy as np

# Relative envelope-squared floor below which the phase quotient is guarded.
ENVELOPE_GUARD_REL = 1e-10


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
