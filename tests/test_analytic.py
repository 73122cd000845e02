from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import hilbert_direct, phase_derivative_unwrap
from pyrafuse import (
    Axis,
    Grid2,
    SeismicSection,
    SizeError,
    analytic_section,
    guard_mask,
    hilbert_trace,
    phase_derivative,
)


class TestQuadrature:
    def test_cosine_maps_to_sine(self):
        n = 256
        t = np.arange(n)
        for k in (1, 2, 5, 31, 100, 127):
            w = 2.0 * math.pi * k / n
            got = hilbert_trace(np.cos(w * t))
            assert np.max(np.abs(got - np.sin(w * t))) < 1e-9

    def test_sine_maps_to_negative_cosine(self):
        n = 128
        t = np.arange(n)
        w = 2.0 * math.pi * 5 / n
        got = hilbert_trace(np.sin(w * t))
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
            got = hilbert_trace(hilbert_trace(x))
            assert np.max(np.abs(got + band)) < 1e-9

    def test_matches_direct_dft_reference(self):
        rng = np.random.default_rng(8)
        for n in (8, 21, 64):
            x = rng.standard_normal(n)
            got = hilbert_trace(x)
            want = hilbert_direct(x)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_output_orthogonal_to_input(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(512)
        x -= x.mean()
        assert abs(float(np.dot(x, hilbert_trace(x)))) < 1e-6 * float(np.dot(x, x))

    def test_rejects_short_traces(self):
        with pytest.raises(SizeError):
            hilbert_trace(np.zeros(3))

    def test_rejects_a_trace_that_is_not_1d(self):
        with pytest.raises(SizeError, match="^expected a 1D trace, got 2D$"):
            hilbert_trace(np.zeros((4, 4)))


class TestAnalyticSection:
    def test_real_part_is_input_and_imag_is_per_trace_quadrature(self):
        rng = np.random.default_rng(10)
        values = rng.standard_normal((64, 5))
        section = SeismicSection(Grid2(values), dt=0.004, dx=25.0)
        a = analytic_section(section)
        assert np.array_equal(a.real.data, values)
        for j in range(5):
            assert np.max(np.abs(a.imag.data[:, j] - hilbert_trace(values[:, j]))) < 1e-12

    def test_envelope_squared_matches_definition(self):
        rng = np.random.default_rng(11)
        section = SeismicSection(Grid2(rng.standard_normal((32, 4))), dt=0.004, dx=25.0)
        a = analytic_section(section)
        assert np.array_equal(a.envelope_squared(), a.real.data**2 + a.imag.data**2)

    def test_rejects_short_sections(self):
        section = SeismicSection(Grid2(np.zeros((3, 8))), dt=0.004, dx=25.0)
        with pytest.raises(SizeError, match="^section needs >= 4 time samples, got 3$"):
            analytic_section(section)


class TestPhaseDerivative:
    def _analytic(self, values):
        return analytic_section(SeismicSection(Grid2(values), dt=0.004, dx=25.0))

    def test_uniform_rotation_gives_exact_discrete_rate(self):
        # constant phase step w per sample: the quotient rule gives sin(w)
        # exactly (trig identity), so only rounding noise remains
        n, w = 128, math.pi / 8.0
        t = np.arange(n, dtype=np.float64)
        cols = np.cos(w * t)[:, None] * np.ones(4)
        a = self._analytic(cols)
        d = phase_derivative(a, Axis.TIME).data
        interior = d[1:-1, :]
        assert np.max(np.abs(interior - math.sin(w))) < 1e-9

    def test_rate_approaches_true_frequency_within_scheme_bias(self):
        # central differences report sin(w), not w; at w = pi/8 that bias
        # is w**3/6 + O(w**5) ~ 1.003e-2, so the honest bound is 1.1e-2
        n, w = 128, math.pi / 8.0
        t = np.arange(n, dtype=np.float64)
        cols = np.cos(w * t)[:, None] * np.ones(4)
        a = self._analytic(cols)
        d = phase_derivative(a, Axis.TIME).data
        assert np.max(np.abs(d[1:-1, :] - w)) < 1.1e-2
        assert np.max(np.abs(d[1:-1, :] - w)) > 0.9e-2  # the bias is real

    def test_matches_unwrap_reference_on_chirp(self):
        n = 256
        t = np.arange(n, dtype=np.float64)
        phase = 0.15 * t + 3e-4 * t * t
        cols = np.cos(phase)[:, None] * np.ones(3)
        a = self._analytic(cols)
        got = phase_derivative(a, Axis.TIME).data
        want = phase_derivative_unwrap(a.real.data, a.imag.data, 0)
        assert np.max(np.abs(got[8:-8, :] - want[8:-8, :])) < 2e-2

    def test_trace_axis_derivative(self):
        # phase falls by s per trace; the carrier sits on an exact DFT bin
        # so the per-trace quadrature is exact and the trace-axis quotient
        # must report -sin(s)
        n, m, s = 64, 32, 0.2
        w = 2.0 * math.pi * 9 / n
        t = np.arange(n, dtype=np.float64)
        values = np.stack([np.cos(w * t - s * j) for j in range(m)], axis=1)
        a = self._analytic(values)
        d = phase_derivative(a, Axis.TRACE).data
        interior = d[8:-8, 1:-1]
        assert np.max(np.abs(interior + math.sin(s))) < 1e-9

    def test_zero_section_is_fully_guarded(self):
        a = self._analytic(np.zeros((32, 4)))
        assert not guard_mask(a).any()
        assert np.array_equal(phase_derivative(a, Axis.TIME).data, np.zeros((32, 4)))

    def test_weak_cells_are_zeroed_strong_cells_are_not(self):
        n = 128
        t = np.arange(n, dtype=np.float64)
        strong = np.cos(0.4 * t)
        values = np.stack([strong, strong * 1e-9], axis=1)
        a = self._analytic(values)
        mask = guard_mask(a)
        assert mask[:, 0].all()
        assert not mask[:, 1].any()
        d = phase_derivative(a, Axis.TIME).data
        assert np.array_equal(d[:, 1], np.zeros(n))
        assert np.abs(d[8:-8, 0]).min() > 0.0

    def test_edges_use_one_sided_differences(self):
        n, w = 64, 0.3
        t = np.arange(n, dtype=np.float64)
        cols = np.cos(w * t)[:, None] * np.ones(3)
        a = self._analytic(cols)
        d = phase_derivative(a, Axis.TIME).data
        # one-sided first difference of the phase at the ends: the phase
        # step between adjacent samples is 2*sin(w/2)-scaled, not sin(w)
        want_edge = 2.0 * math.sin(w / 2.0) * math.cos(w / 2.0)  # = sin(w)
        assert d[0, 0] == pytest.approx(want_edge, abs=0.25)

    def test_rejects_axes_shorter_than_three(self):
        a = self._analytic(np.ones((16, 2)) * np.cos(np.arange(16))[:, None])
        with pytest.raises(SizeError):
            phase_derivative(a, Axis.TRACE)
