from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import hilbert_direct, phase_derivative_unwrap, quadrature_fft
from pyrafuse.analytic import _phase_derivative_band, _quadrature, _trusted


def _phase(values: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase derivative along ``axis`` of a section's analytic signal, and
    its envelope trust, from the whole section's f^2 + h^2."""
    h = _quadrature(values, axis=0)
    env2 = values * values + h * h
    trusted = _trusted(env2, env2.max())
    return _phase_derivative_band(values, h, env2, trusted, axis), trusted


class TestQuadrature:
    def test_cosine_maps_to_sine(self):
        n = 256
        t = np.arange(n)
        for k in (1, 2, 5, 31, 100, 127):
            w = 2.0 * math.pi * k / n
            got = _quadrature(np.cos(w * t), axis=0)
            assert np.max(np.abs(got - np.sin(w * t))) < 1e-9

    def test_sine_maps_to_negative_cosine(self):
        n = 128
        t = np.arange(n)
        w = 2.0 * math.pi * 5 / n
        got = _quadrature(np.sin(w * t), axis=0)
        assert np.max(np.abs(got + np.cos(w * t))) < 1e-9

    def test_double_application_negates_band(self):
        rng = np.random.default_rng(7)
        for n in (64, 128, 255):
            x = rng.standard_normal(n)
            # remove what the quadrature pair cannot represent: the mean,
            # and for even lengths the alternating-sign component
            band = x - x.mean()
            if n % 2 == 0:
                signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
                band -= (band * signs).mean() * signs
            got = _quadrature(_quadrature(x, axis=0), axis=0)
            assert np.max(np.abs(got + band)) < 1e-9

    def test_matches_direct_dft_reference(self):
        rng = np.random.default_rng(8)
        for n in (8, 21, 64):
            x = rng.standard_normal(n)
            got = _quadrature(x, axis=0)
            want = hilbert_direct(x)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_output_orthogonal_to_input(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(512)
        x -= x.mean()
        assert abs(float(np.dot(x, _quadrature(x, axis=0)))) < 1e-6 * float(np.dot(x, x))

    def test_oracle_quadrature_matches_direct_dft_reference(self):
        # the FFT quadrature that phase_dip_reference states for itself
        rng = np.random.default_rng(12)
        for n in (4, 5, 8, 13, 16):
            x = rng.standard_normal(n)
            assert np.max(np.abs(quadrature_fft(x) - hilbert_direct(x))) < 1e-12


class TestAnalyticSection:
    def test_real_part_is_input_and_imag_is_per_trace_quadrature(self):
        rng = np.random.default_rng(10)
        values = rng.standard_normal((64, 5))
        for imag in (_quadrature(values, axis=0), _quadrature(values[None], axis=-2)[0]):
            for j in range(5):
                assert np.max(np.abs(imag[:, j] - _quadrature(values[:, j], axis=0))) < 1e-12


class TestPhaseDerivative:
    def test_uniform_rotation_gives_exact_discrete_rate(self):
        # constant phase step w per sample: the quotient rule gives sin(w)
        # exactly (trig identity), so only rounding noise remains
        n, w = 128, math.pi / 8.0
        t = np.arange(n, dtype=np.float64)
        cols = np.cos(w * t)[:, None] * np.ones(4)
        d, _ = _phase(cols, 0)
        interior = d[1:-1, :]
        assert np.max(np.abs(interior - math.sin(w))) < 1e-9

    def test_rate_approaches_true_frequency_within_scheme_bias(self):
        # central differences report sin(w), not w; at w = pi/8 that bias
        # is w**3/6 + O(w**5) ~ 1.003e-2, so the honest bound is 1.1e-2
        n, w = 128, math.pi / 8.0
        t = np.arange(n, dtype=np.float64)
        cols = np.cos(w * t)[:, None] * np.ones(4)
        d, _ = _phase(cols, 0)
        assert np.max(np.abs(d[1:-1, :] - w)) < 1.1e-2
        assert np.max(np.abs(d[1:-1, :] - w)) > 0.9e-2  # the bias is real

    def test_matches_unwrap_reference_on_chirp(self):
        n = 256
        t = np.arange(n, dtype=np.float64)
        phase = 0.15 * t + 3e-4 * t * t
        cols = np.cos(phase)[:, None] * np.ones(3)
        got, _ = _phase(cols, 0)
        want = phase_derivative_unwrap(cols, _quadrature(cols, axis=0), 0)
        assert np.max(np.abs(got[8:-8, :] - want[8:-8, :])) < 2e-2

    def test_trace_axis_derivative(self):
        # phase falls by s per trace; the carrier sits on an exact DFT bin
        # so the per-trace quadrature is exact and the trace-axis quotient
        # must report -sin(s)
        n, m, s = 64, 32, 0.2
        w = 2.0 * math.pi * 9 / n
        t = np.arange(n, dtype=np.float64)
        values = np.stack([np.cos(w * t - s * j) for j in range(m)], axis=1)
        d, _ = _phase(values, 1)
        interior = d[8:-8, 1:-1]
        assert np.max(np.abs(interior + math.sin(s))) < 1e-9

    def test_zero_section_is_fully_guarded(self):
        d, trusted = _phase(np.zeros((32, 4)), 0)
        assert not trusted.any()
        assert np.array_equal(d, np.zeros((32, 4)))

    def test_weak_cells_are_zeroed_strong_cells_are_not(self):
        n = 128
        t = np.arange(n, dtype=np.float64)
        strong = np.cos(0.4 * t)
        values = np.stack([strong, strong * 1e-9], axis=1)
        d, mask = _phase(values, 0)
        assert mask[:, 0].all()
        assert not mask[:, 1].any()
        assert np.array_equal(d[:, 1], np.zeros(n))
        assert np.abs(d[8:-8, 0]).min() > 0.0

    def test_edges_use_one_sided_differences(self):
        n, w = 64, 0.3
        t = np.arange(n, dtype=np.float64)
        cols = np.cos(w * t)[:, None] * np.ones(3)
        d, _ = _phase(cols, 0)
        # one-sided first difference of the phase at the ends: the phase
        # step between adjacent samples is 2*sin(w/2)-scaled, not sin(w)
        want_edge = 2.0 * math.sin(w / 2.0) * math.cos(w / 2.0)  # = sin(w)
        assert d[0, 0] == pytest.approx(want_edge, abs=0.25)
