from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bilinear_naive,
    interp_axis_reference,
    reduce_naive,
    reduce_reference,
    same_bits,
)
from pyrafuse import (
    AttributeKind,
    Grid2,
    ParameterError,
    SeismicSection,
    SizeError,
    attribute_stack,
    build_pyramid,
    expand_to,
    gaussian_samples,
    make_kernel,
)
from pyrafuse.pyramid import MAX_RADIUS, _interp_axis, _reduce


class TestKernel:
    def test_unnormalized_center_is_inverse_two_pi(self):
        raw = gaussian_samples(1.0, 2)
        assert raw[2, 2] == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)
        assert raw[2, 2] == pytest.approx(0.159155, abs=1e-6)

    def test_unnormalized_follows_exponential_law(self):
        raw = gaussian_samples(1.0, 2)
        for m in range(-2, 3):
            for n in range(-2, 3):
                expected = math.exp(-(m * m + n * n) / 2.0) / (2.0 * math.pi)
                assert raw[m + 2, n + 2] == pytest.approx(expected, rel=1e-12)

    def test_normalized_tap_sum_is_exactly_one(self):
        kernel = make_kernel()
        acc = 0.0
        for tap in kernel.taps:
            acc += tap
        assert acc == 1.0

    def test_weights_sum_to_one(self):
        kernel = make_kernel()
        assert abs(float(kernel.weights.sum()) - 1.0) < 1e-12

    def test_four_fold_symmetry_exact(self):
        w = make_kernel().weights
        assert np.array_equal(w, w[::-1, :])
        assert np.array_equal(w, w[:, ::-1])
        assert np.array_equal(w, w.T)

    def test_center_to_diagonal_ratio_is_e(self):
        w = make_kernel().weights
        assert w[2, 2] / w[3, 3] == pytest.approx(math.e, abs=1e-12)

    def test_rejects_bad_sigma_and_radius(self):
        with pytest.raises(ParameterError):
            make_kernel(sigma=0.0)
        with pytest.raises(ParameterError):
            make_kernel(sigma=-1.0)
        with pytest.raises(ParameterError):
            make_kernel(radius=0)

    def test_radius_above_the_cap_is_refused_before_any_allocation(self):
        tracemalloc.start()
        try:
            for call in (gaussian_samples, make_kernel):
                with pytest.raises(
                    ParameterError, match=f"radius must be <= {MAX_RADIUS}, got {MAX_RADIUS + 1}"
                ):
                    call(1.0, MAX_RADIUS + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # one (2r+1)^2 table at the cap is 33.6 MB

    @pytest.mark.parametrize("sigma", [1e-170, 1e-155, 5e-155, 6e153, 1e200])
    def test_sigma_whose_samples_are_not_finite_is_named(self, sigma):
        # tiny: the exponent or the center overflows (NaN taps or numpy
        # warnings before); huge: sigma^2 overflows and the center is 0
        # (an OverflowError in the taps before)
        for call in (gaussian_samples, make_kernel):
            with pytest.raises(ParameterError, match=re.escape(f"sigma {sigma!r} gives non-finite")):
                call(sigma, 2)

    @pytest.mark.parametrize("sigma", [1e-150, 5e153])
    def test_extreme_sigma_with_finite_samples_still_works(self, sigma):
        kernel = make_kernel(sigma, 2)
        assert np.isfinite(kernel.taps).all() and np.isfinite(gaussian_samples(sigma, 2)).all()
        assert math.fsum(kernel.taps) == 1.0

    def test_wider_kernel_shapes(self):
        kernel = make_kernel(sigma=2.0, radius=4)
        assert kernel.weights.shape == (9, 9)
        assert abs(float(kernel.weights.sum()) - 1.0) < 1e-12


class TestReduce:
    def test_matches_double_loop_reference(self):
        rng = np.random.default_rng(11)
        kernel = make_kernel()
        for _ in range(20):
            rows = int(rng.integers(5, 65))
            cols = int(rng.integers(5, 65))
            values = rng.standard_normal((rows, cols))
            got = _reduce(values, kernel)
            want = reduce_naive(values, kernel.weights)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-9

    def test_output_dims_are_ceil_half(self):
        kernel = make_kernel()
        for rows, cols in [(8, 8), (9, 9), (10, 7), (5, 12)]:
            out = _reduce(np.zeros((rows, cols)), kernel)
            assert out.shape == ((rows + 1) // 2, (cols + 1) // 2)

    def test_constant_grid_stays_constant_power_of_two(self):
        # power-of-two values scale every tap exactly, so the unit tap sum
        # carries through bit for bit
        kernel = make_kernel()
        for value in (1.0, 0.5, 8.0, -2.0):
            out = _reduce(np.full((12, 12), value), kernel)
            assert np.all(out == value)

    def test_constant_grid_stays_constant_generic(self):
        kernel = make_kernel()
        out = _reduce(np.full((12, 12), 3.7), kernel)
        assert np.max(np.abs(out - 3.7)) < 1e-14

    def test_rejects_grid_smaller_than_support(self):
        # a 4-wide grid cannot be reduced by the 5x5 default kernel
        for shape in [(4, 10), (10, 4)]:
            with pytest.raises(SizeError):
                build_pyramid(Grid2(np.zeros(shape)), 2)

    def test_mirror_padding_not_zero_padding(self):
        # an all-ones grid keeps value 1.0 at the corner only under
        # edge-repeating padding; zero padding would pull it down
        kernel = make_kernel()
        out = _reduce(np.ones((8, 8)), kernel)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-14)


class TestReduceMatchesPadReference:
    """Gathering through the mirror index instead of ``np.pad`` changes no bit."""

    @staticmethod
    def _values(rng, shape):
        values = rng.standard_normal(shape)
        values[..., ::3, ::2] = -0.0
        return values

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_every_small_size(self, radius):
        kernel = make_kernel(1.0, radius)
        rng = np.random.default_rng(radius)
        for rows in range(kernel.support, kernel.support + 6):
            for cols in range(kernel.support, kernel.support + 5):
                values = self._values(rng, (rows, cols))
                assert same_bits(_reduce(values, kernel), reduce_reference(values, kernel))

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_batch_entries_reduce_on_their_own(self, radius):
        kernel = make_kernel(1.5, radius)
        rng = np.random.default_rng(10 + radius)
        s = kernel.support
        for rows, cols in [(s, s), (s + 1, s + 4), (2 * s + 1, s + 3), (40, 17)]:
            stack = self._values(rng, (3, rows, cols))
            got = _reduce(stack, kernel)
            assert got.shape == (3, (rows + 1) // 2, (cols + 1) // 2)
            for j in range(3):
                assert same_bits(got[j], reduce_reference(stack[j], kernel))

    def test_strided_input(self):
        kernel = make_kernel()
        volume = np.random.default_rng(5).standard_normal((33, 7, 19))
        section = volume[:, 3, :]
        assert same_bits(_reduce(section, kernel), reduce_reference(section, kernel))


class TestBuildPyramid:
    def test_level_dims_halve(self):
        levels = build_pyramid(Grid2(np.random.default_rng(0).standard_normal((128, 96))), 4)
        assert [lvl.shape for lvl in levels] == [
            (128, 96),
            (64, 48),
            (32, 24),
            (16, 12),
        ]

    def test_level_zero_is_the_input_values(self):
        values = np.random.default_rng(1).standard_normal((32, 32))
        levels = build_pyramid(Grid2(values), 2)
        assert np.array_equal(levels[0].data, values)

    def test_refusal_names_the_largest_count(self):
        for rows, cols, most in [(128, 128, 5), (5, 5, 1), (10, 5, 1), (10, 10, 2)]:
            # 128/64/32/16/8 at most: a fifth halving leaves 4 < support
            grid = Grid2(np.zeros((rows, cols)))
            assert len(build_pyramid(grid, most)) == most
            with pytest.raises(SizeError, match=f"supports at most {most} scale"):
                build_pyramid(grid, most + 1)

    def test_too_many_scales_raises_and_names_limit(self):
        with pytest.raises(SizeError) as err:
            build_pyramid(Grid2(np.zeros((16, 16))), 5)
        assert "2" in str(err.value)  # feasible max for 16x16 with radius 2

    def test_scales_must_be_positive(self):
        with pytest.raises(ParameterError):
            build_pyramid(Grid2(np.zeros((16, 16))), 0)

    def test_matches_repeated_reduce(self):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((40, 33))
        kernel = make_kernel()
        levels = build_pyramid(Grid2(values), 3, kernel)
        level = values
        for got in levels[1:]:
            level = _reduce(level, kernel)
            assert np.array_equal(got.data, level)


class TestExpand:
    def test_two_by_two_to_three_by_three_frozen(self):
        out = expand_to(Grid2(np.array([[0.0, 1.0], [2.0, 3.0]])), 3, 3)
        want = np.array([[0.0, 0.5, 1.0], [1.0, 1.5, 2.0], [2.0, 2.5, 3.0]])
        assert np.array_equal(out.data, want)

    def test_same_size_is_identical_copy(self):
        values = np.random.default_rng(3).standard_normal((7, 9))
        out = expand_to(Grid2(values), 7, 9)
        assert np.array_equal(out.data, values)
        assert out.data is not values

    def test_corners_are_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rows = int(rng.integers(2, 20))
            cols = int(rng.integers(2, 20))
            values = rng.standard_normal((rows, cols))
            out = expand_to(Grid2(values), rows * 3 + 1, cols * 2 + 1).data
            assert out[0, 0] == values[0, 0]
            assert out[0, -1] == values[0, -1]
            assert out[-1, 0] == values[-1, 0]
            assert out[-1, -1] == values[-1, -1]

    def test_matches_per_cell_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            src = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
            dst = (src[0] + int(rng.integers(0, 20)), src[1] + int(rng.integers(0, 20)))
            values = rng.standard_normal(src)
            got = expand_to(Grid2(values), *dst).data
            want = bilinear_naive(values, *dst)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_linear_ramp_reproduced(self):
        rows = np.arange(5.0)[:, None] * np.ones(4)
        out = expand_to(Grid2(rows), 9, 7).data
        want = np.linspace(0.0, 4.0, 9)[:, None] * np.ones(7)
        assert np.max(np.abs(out - want)) < 1e-14

    def test_single_row_and_column_sources(self):
        row = expand_to(Grid2(np.array([[1.0, 2.0, 3.0]])), 4, 5)
        assert row.shape == (4, 5)
        assert np.array_equal(row.data[0], row.data[3])
        col = expand_to(Grid2(np.array([[1.0], [4.0]])), 3, 3)
        assert np.array_equal(col.data[:, 0], np.array([1.0, 2.5, 4.0]))
        one = expand_to(Grid2(np.array([[7.0]])), 3, 2)
        assert np.all(one.data == 7.0)

    def test_shrinking_is_rejected(self):
        with pytest.raises(SizeError):
            expand_to(Grid2(np.zeros((4, 4))), 3, 8)
        with pytest.raises(SizeError):
            expand_to(Grid2(np.zeros((4, 4))), 8, 3)

    def test_round_trip_with_pyramid_dims(self):
        # expanding a reduced level back to base dims keeps the grid finite
        # and inside the level's value range (bilinear is a convex blend)
        rng = np.random.default_rng(6)
        values = rng.standard_normal((21, 17))
        kernel = make_kernel()
        level = Grid2(_reduce(values, kernel))
        out = expand_to(level, 21, 17).data
        assert out.shape == (21, 17)
        assert out.min() >= level.data.min() - 1e-12
        assert out.max() <= level.data.max() + 1e-12


class TestInPlaceBlend:
    """Expansion evaluates a + f*(b - a) in place on the gathered b; the
    bytes are those of the out-of-place formula it replaced."""

    SHAPES = [((7, 5), (13, 9)), ((1, 4), (5, 11)), ((6, 1), (6, 8)), ((3, 3), (3, 3)),
              ((2, 9), (17, 9)), ((64, 32), (512, 256))]

    def test_expand_matches_reference_bitwise(self):
        rng = np.random.default_rng(30)
        for src, dst in self.SHAPES:
            values = rng.standard_normal(src)
            want = interp_axis_reference(interp_axis_reference(values, dst[0], 0), dst[1], 1)
            assert same_bits(expand_to(Grid2(values), *dst).data, want)

    def test_flat_negative_zero_matches_reference(self):
        # resized cells come out +0.0 (-0.0 - -0.0 is +0.0), on-lattice ones too
        values = np.full((4, 3), -0.0)
        for dst in ((4, 3), (9, 7), (4, 8)):
            want = interp_axis_reference(interp_axis_reference(values, dst[0], 0), dst[1], 1)
            assert same_bits(expand_to(Grid2(values), *dst).data, want)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_interp_axis_matches_reference_on_every_axis(self, axis):
        values = np.random.default_rng(31 + axis).standard_normal((5, 4, 6))
        for target in (values.shape[axis], values.shape[axis] + 1, 3 * values.shape[axis] - 1):
            got = _interp_axis(values, target, axis)
            assert same_bits(got, interp_axis_reference(values, target, axis))
            out = np.full(got.shape, np.nan)
            assert _interp_axis(values, target, axis, out) is out
            assert same_bits(out, got)
            if target != values.shape[axis]:
                assert got.flags.c_contiguous

    def test_inputs_are_not_written(self):
        rng = np.random.default_rng(32)
        values = rng.standard_normal((6, 5, 4))
        before = values.copy()
        for axis in range(3):
            target = 2 * values.shape[axis] + 1
            out = np.empty(values.shape[:axis] + (target,) + values.shape[axis + 1 :])
            _interp_axis(values, target, axis)
            _interp_axis(values, target, axis, out)
        assert same_bits(values, before)
        grid = Grid2(before[0])
        expand_to(grid, 11, 13)
        assert same_bits(grid.data, before[0])


def _rule_allows(rows: int, cols: int, support: int, floor: tuple[int, int], scales: int) -> bool:
    """The scale rule, written out: level dims halve by the ceiling rule;
    every level keeps the floor (rows, cols), and with two or more levels
    also the kernel support."""
    need_rows, need_cols = floor
    if scales > 1:
        need_rows, need_cols = max(need_rows, support), max(need_cols, support)
    for _ in range(scales):
        if rows < need_rows or cols < need_cols:
            return False
        rows, cols = -(-rows // 2), -(-cols // 2)
    return True


def test_pyramid_and_dip_stack_follow_one_scale_rule(hypothesis_home):
    """``build_pyramid`` (1x1 floor) and a phase-dip stack (4x3 floor)
    succeed exactly when the rule allows the scale count, and otherwise
    refuse it with a SizeError."""

    @settings(database=None, deadline=None, max_examples=300)
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        radius=st.integers(1, 3),
        scales=st.integers(1, 6),
    )
    def check(rows, cols, radius, scales):
        kernel = make_kernel(1.0, radius)
        grid = Grid2(np.random.default_rng(rows * 41 + cols).standard_normal((rows, cols)))
        if _rule_allows(rows, cols, kernel.support, (1, 1), scales):
            assert len(build_pyramid(grid, scales, kernel)) == scales
        else:
            with pytest.raises(SizeError):
                build_pyramid(grid, scales, kernel)
        section = SeismicSection(grid, dt=1.0, dx=1.0)
        if _rule_allows(rows, cols, kernel.support, (4, 3), scales):
            stack = attribute_stack(section, AttributeKind.PHASE_DIP, scales, kernel)
            assert stack.scales == scales
        else:
            with pytest.raises(SizeError):
                attribute_stack(section, AttributeKind.PHASE_DIP, scales, kernel)

    check()
