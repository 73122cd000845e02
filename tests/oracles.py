"""Independent reference implementations used only by the tests.

Each oracle is written in the most literal way available — explicit
loops, direct DFT sums, Python's ``sorted`` — deliberately sharing no
code path with the package, so agreement between the two is evidence
rather than tautology. The exception is :func:`dip_slice_reference`,
which states the volume slice-dip definition in terms of the 2D section
path so that a faster volume kernel can be gated on exact equality.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from pyrafuse import dip_stack
from pyrafuse.attributes import EPS_FREQ_DEFAULT, P_MAX_DEFAULT


def reduce_naive(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Blur + decimate via the plain double loop.

    out[m, n] = sum_{k,l in [-r, r]} w[k+r, l+r] * in[2m+k, 2n+l]
    with mirror (edge-repeating symmetric) padding, output dims
    ceil(in/2). No separability assumption: the full 2D weight table
    is applied term by term.
    """
    rows, cols = values.shape
    support = weights.shape[0]
    r = (support - 1) // 2
    padded = np.pad(values, r, mode="symmetric")
    out_rows = (rows + 1) // 2
    out_cols = (cols + 1) // 2
    out = np.zeros((out_rows, out_cols))
    for m in range(out_rows):
        for n in range(out_cols):
            acc = 0.0
            for k in range(-r, r + 1):
                for l in range(-r, r + 1):
                    acc += weights[k + r, l + r] * padded[2 * m + k + r, 2 * n + l + r]
            out[m, n] = acc
    return out


def hilbert_direct(trace: np.ndarray) -> np.ndarray:
    """Quadrature series by direct DFT sums (no FFT library calls).

    Forward coefficients are computed term by term, the positive-
    frequency half is rotated by -i (DC zeroed; the Nyquist bin of an
    even-length trace zeroed), and the series is summed back sample by
    sample.
    """
    x = [float(v) for v in np.asarray(trace, dtype=np.float64)]
    n = len(x)
    coeff = []
    for k in range(n):
        acc = 0j
        for t in range(n):
            acc += x[t] * cmath.exp(-2j * cmath.pi * k * t / n)
        coeff.append(acc)
    for k in range(n):
        if k == 0:
            coeff[k] = 0j
        elif n % 2 == 0 and k == n // 2:
            coeff[k] = 0j
        elif k < (n + 1) // 2:
            coeff[k] *= -1j
        else:
            coeff[k] *= 1j  # negative frequencies: conjugate symmetry
    out = []
    for t in range(n):
        acc = 0j
        for k in range(n):
            acc += coeff[k] * cmath.exp(2j * cmath.pi * k * t / n)
        out.append(acc.real / n)
    return np.array(out)


def phase_derivative_unwrap(real: np.ndarray, imag: np.ndarray, axis: int) -> np.ndarray:
    """Phase derivative the textbook way: arctan2, unwrap, finite diff."""
    theta = np.unwrap(np.arctan2(imag, real), axis=axis)
    return np.gradient(theta, axis=axis, edge_order=1)


def median_listwise(column: list[float]) -> float:
    """Median with the even-count tie rule: mean of the two middle values."""
    ordered = sorted(column)
    n = len(ordered)
    if n == 0:
        return 0.0
    if n % 2 == 1:
        return ordered[n // 2]
    return 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])


def fuse_median_naive(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Cell-by-cell masked median via Python sort."""
    k, rows, cols = values.shape
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            column = [float(values[s, i, j]) for s in range(k) if valid[s, i, j]]
            out[i, j] = median_listwise(column)
    return out


def correlation_lag(a: np.ndarray, b: np.ndarray) -> float:
    """Sub-sample shift of ``b`` relative to ``a`` (positive = delayed).

    Full cross-correlation by explicit sums, integer peak, then a
    three-point parabolic refinement around it.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = len(a)
    lags = range(-(n - 1), n)
    corr = []
    for lag in lags:
        acc = 0.0
        for t in range(n):
            u = t - lag
            if 0 <= u < n:
                acc += b[t] * a[u]
        corr.append(acc)
    corr = np.array(corr)
    peak = int(np.argmax(corr))
    if peak == 0 or peak == len(corr) - 1:
        return float(peak - (n - 1))
    y0, y1, y2 = corr[peak - 1 : peak + 2]
    denom = y0 - 2.0 * y1 + y2
    offset = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
    return float(peak - (n - 1)) + float(offset)


def bilinear_naive(values: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Edge-aligned bilinear resize, one output cell at a time."""
    src_rows, src_cols = values.shape

    def pos(i, target, source):
        if target == 1 or source == 1:
            return 0.0
        return i * (source - 1) / (target - 1)

    out = np.zeros((rows, cols))
    for i in range(rows):
        y = pos(i, rows, src_rows)
        y0 = min(int(math.floor(y)), src_rows - 1)
        y1 = min(y0 + 1, src_rows - 1)
        fy = y - y0
        for j in range(cols):
            x = pos(j, cols, src_cols)
            x0 = min(int(math.floor(x)), src_cols - 1)
            x1 = min(x0 + 1, src_cols - 1)
            fx = x - x0
            top = values[y0, x0] + fx * (values[y0, x1] - values[y0, x0])
            bottom = values[y1, x0] + fx * (values[y1, x1] - values[y1, x0])
            out[i, j] = top + fy * (bottom - top)
    return out


def dip_slice_reference(
    volume,
    t: int,
    scales: int,
    kernel=None,
    *,
    p_max: float = P_MAX_DEFAULT,
    eps_freq: float = EPS_FREQ_DEFAULT,
):
    """Per-scale (p, q, quality) at time slice ``t``, one section at a time.

    Row ``t`` of the dip stack of every fixed-y section gives column y of
    ``p``; row ``t`` of every fixed-x section gives row x of ``q``. A cell
    is trusted where both dips are. ``kernel``, ``p_max`` and ``eps_freq``
    go to :func:`pyrafuse.dip_stack` unchanged.
    """

    def stack(section):
        return dip_stack(section, scales, kernel, p_max=p_max, eps_freq=eps_freq)

    p = np.zeros((scales, volume.nx, volume.ny))
    q = np.zeros((scales, volume.nx, volume.ny))
    p_ok = np.zeros((scales, volume.nx, volume.ny))
    q_ok = np.zeros((scales, volume.nx, volume.ny))
    for y in range(volume.ny):
        for i, m in enumerate(stack(volume.crossline_section(y)).maps):
            p[i, :, y] = m.grid.data[t, :]
            p_ok[i, :, y] = m.quality.data[t, :]
    for x in range(volume.nx):
        for i, m in enumerate(stack(volume.inline_section(x)).maps):
            q[i, x, :] = m.grid.data[t, :]
            q_ok[i, x, :] = m.quality.data[t, :]
    return [(p[i], q[i], p_ok[i] * q_ok[i]) for i in range(scales)]
