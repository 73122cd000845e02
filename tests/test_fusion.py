from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    fuse_median_naive,
    fuse_median_sort,
    fuse_rank_naive,
    fuse_rank_sort,
    same_bits,
)
from pyrafuse import (
    AttributeKind,
    AttributeMap,
    AttributeStack,
    ConfigError,
    FusionMethod,
    FusionSpec,
    Grid2,
    ParameterError,
    PlaneEvent,
    SeismicSection,
    SizeError,
    SynthSpec,
    default_weights,
    fuse,
    make_synthetic,
    multiscale_attribute,
    phase_dip,
)


def _stack(layers, masks=None, kind=AttributeKind.PHASE_DIP):
    maps = []
    for i, layer in enumerate(layers):
        quality = None
        if masks is not None:
            quality = Grid2(np.asarray(masks[i], dtype=np.float64))
        maps.append(
            AttributeMap(Grid2(np.asarray(layer, dtype=np.float64)), kind,
                         scale=i, quality=quality)
        )
    return AttributeStack.from_maps(maps)


class TestMean:
    def test_plain_mean(self):
        stack = _stack([[[1.0, 2.0]], [[3.0, 6.0]]])
        out = fuse(stack, FusionSpec.mean())
        assert np.array_equal(out.grid.data, np.array([[2.0, 4.0]]))

    def test_masked_mean_skips_invalid_cells(self):
        stack = _stack(
            [[[1.0, 2.0]], [[3.0, 10.0]]],
            masks=[[[1.0, 1.0]], [[0.0, 1.0]]],
        )
        out = fuse(stack, FusionSpec.mean())
        assert np.array_equal(out.grid.data, np.array([[1.0, 6.0]]))

    def test_all_invalid_cell_is_zero_with_zero_quality(self):
        stack = _stack(
            [[[5.0]], [[7.0]]],
            masks=[[[0.0]], [[0.0]]],
        )
        out = fuse(stack, FusionSpec.mean())
        assert out.grid.data[0, 0] == 0.0
        assert out.quality.data[0, 0] == 0.0

    def test_mean_of_values_near_the_float64_maximum_is_finite(self):
        # the sum overflows, the mean does not; warnings are errors here
        stack = _stack([np.full((4, 3), 1.5e308)] * 2)
        assert np.array_equal(fuse(stack, FusionSpec.mean()).grid.data, np.full((4, 3), 1.5e308))

    def test_masked_mean_near_the_float64_maximum_keeps_other_cells(self):
        big = [[1.5e308, 1.0, 1.5e308], [3.0, 1.7e308, 2.0]]
        small = [[1.7e308, 2.0, 1.0], [-5.0, 1.7e308, 1.0]]
        guarded = [[1.7e308, 4.0, 3.0], [7.0, -1.7e308, 9.0]]
        masks = [np.ones((2, 3)), np.ones((2, 3)), [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]]
        out = fuse(_stack([big, small, guarded], masks=masks), FusionSpec.mean()).grid.data
        exact = [[(1.5e308 + 2 * 1.7e308) / 3, (1.0 + 2.0 + 4.0) / 3, (1.5e308 + 1.0 + 3.0) / 3],
                 [(3.0 - 5.0 + 7.0) / 3, 1.7e308, (2.0 + 1.0) / 2]]
        # the first sum overflows only in float64; its exact mean is finite
        assert out[0, 0] == pytest.approx(float(sum(map(Fraction, (1.5e308, 1.7e308, 1.7e308))) / 3), rel=1e-15)
        assert np.array_equal(out.ravel()[1:], np.ravel(exact)[1:])


class TestMedian:
    def test_odd_count(self):
        stack = _stack([[[1.0]], [[9.0]], [[2.0]]])
        out = fuse(stack, FusionSpec.median())
        assert out.grid.data[0, 0] == 2.0

    def test_even_count_tie_rule(self):
        stack = _stack([[[1.0]], [[2.0]], [[3.0]], [[100.0]]])
        out = fuse(stack, FusionSpec.median())
        assert out.grid.data[0, 0] == 2.5

    def test_matches_listwise_reference_with_masks(self):
        rng = np.random.default_rng(13)
        for k in range(1, 9):
            values = rng.standard_normal((k, 6, 7))
            valid = rng.random((k, 6, 7)) > 0.3
            stack = _stack(list(values), masks=list(valid.astype(float)))
            out = fuse(stack, FusionSpec.median())
            assert same_bits(out.grid.data, fuse_median_naive(values, valid))
            assert np.array_equal(out.grid.data, fuse_median_sort(values, valid))

    def test_single_layer_is_identity(self):
        values = np.random.default_rng(14).standard_normal((4, 5)).astype(np.float32)
        values = values.astype(np.float64)
        stack = _stack([values])
        out = fuse(stack, FusionSpec.median())
        assert np.array_equal(out.grid.data, values)


class TestWeightedMean:
    def test_weighted_combination(self):
        stack = _stack([[[2.0]], [[6.0]]])
        out = fuse(stack, FusionSpec.weighted((3.0, 1.0)))
        assert out.grid.data[0, 0] == pytest.approx(3.0, abs=1e-15)

    def test_weights_are_normalized(self):
        stack = _stack([[[2.0]], [[6.0]]])
        a = fuse(stack, FusionSpec.weighted((3.0, 1.0)))
        b = fuse(stack, FusionSpec.weighted((0.75, 0.25)))
        assert np.array_equal(a.grid.data, b.grid.data)

    def test_ignores_masks_by_design(self):
        # weighted fusion is a fixed linear blend: masks do not re-weight it
        stack = _stack(
            [[[2.0]], [[6.0]]],
            masks=[[[0.0]], [[1.0]]],
        )
        out = fuse(stack, FusionSpec.weighted((0.5, 0.5)))
        assert out.grid.data[0, 0] == 4.0

    def test_weight_validation(self):
        stack = _stack([[[1.0]], [[2.0]]])
        with pytest.raises(ParameterError):
            fuse(stack, FusionSpec.weighted((1.0,)))
        with pytest.raises(ParameterError):
            fuse(stack, FusionSpec.weighted((1.0, -0.5)))
        with pytest.raises(ParameterError):
            fuse(stack, FusionSpec.weighted((0.0, 0.0)))
        # each weight is finite but their sum is not: w / w.sum() was 0
        with pytest.raises(ParameterError, match="^weights must have a finite sum$"):
            fuse(stack, FusionSpec.weighted((1e308, 1e308)))
        assert fuse(stack, FusionSpec.weighted((1e308, 0.0))).grid.data[0, 0] == 1.0

    @pytest.mark.parametrize("weights", [(1, "a"), ("1", "2"), (1.0, None)], ids=["word", "numeric", "none"])
    def test_weights_must_be_real_numbers(self, weights):
        stack = _stack([[[1.0]], [[2.0]]])
        spec = FusionSpec.weighted(weights)
        for spec in (spec, FusionSpec(FusionMethod.WEIGHTED_MEAN, weights=weights)):
            with pytest.raises(ParameterError) as err:
                fuse(stack, spec)
            assert str(err.value) == f"weights must be real numbers, got {weights!r}"

    def test_the_resolved_weights_are_python_floats(self):
        stack = _stack([[[1.0]], [[2.0]], [[4.0]]])
        for weights in ([1, 2, 1], np.array([1.0, 2.0, 1.0]), (np.int64(1), np.float32(2.0), True)):
            out = fuse(stack, FusionSpec.weighted(weights))
            assert out.meta["weights"] == "1.0,2.0,1.0"
            assert out.grid.data[0, 0] == 2.25

    def test_default_weights_geometric(self):
        w = default_weights(4)
        assert np.allclose(w, np.array([8.0, 4.0, 2.0, 1.0]) / 15.0, atol=1e-15)
        assert sum(w) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ParameterError):
            default_weights(0)

    @pytest.mark.parametrize("scales", [1, 2, 3, 4, 7])
    def test_no_weights_fuse_by_the_default_weights(self, scales):
        rng = np.random.default_rng(scales)
        stack = _stack(list(rng.standard_normal((scales, 5, 4))))
        weightless = fuse(stack, FusionSpec(FusionMethod.WEIGHTED_MEAN))
        explicit = fuse(stack, FusionSpec.weighted(default_weights(scales)))
        assert same_bits(weightless.grid.data, explicit.grid.data)
        assert weightless.meta == explicit.meta
        assert weightless.meta["weights"] == ",".join(repr(float(w)) for w in default_weights(scales))


class TestRank:
    def test_rank_selects_order_statistic(self):
        stack = _stack([[[5.0]], [[1.0]], [[3.0]]])
        assert fuse(stack, FusionSpec.rank_of(0)).grid.data[0, 0] == 1.0
        assert fuse(stack, FusionSpec.rank_of(1)).grid.data[0, 0] == 3.0
        assert fuse(stack, FusionSpec.rank_of(2)).grid.data[0, 0] == 5.0

    def test_matches_sort_oracles(self):
        rng = np.random.default_rng(16)
        for k in range(1, 9):
            values = rng.standard_normal((k, 6, 7))
            stack = _stack(list(values))
            for r in range(k):
                out = fuse(stack, FusionSpec.rank_of(r)).grid.data
                assert same_bits(out, fuse_rank_naive(values, r))
                assert np.array_equal(out, fuse_rank_sort(values, r))

    def test_rank_out_of_range(self):
        stack = _stack([[[1.0]], [[2.0]]])
        with pytest.raises(ParameterError):
            fuse(stack, FusionSpec.rank_of(2))
        with pytest.raises(ParameterError):
            fuse(stack, FusionSpec.rank_of(-1))

    def test_rank_requires_rank_value(self):
        stack = _stack([[[1.0]], [[2.0]]])
        with pytest.raises(ParameterError):
            fuse(stack, FusionSpec(FusionMethod.RANK))


@pytest.mark.parametrize("method", ["median", "wmean", None, AttributeKind.PHASE_DIP])
def test_a_method_that_is_not_a_fusion_method_is_refused(method):
    with pytest.raises(ParameterError) as err:
        fuse(_stack([[[1.0]], [[2.0]]]), FusionSpec(method))
    assert str(err.value) == f"fusion method must be a FusionMethod, got {method!r}"


class TestUnusedParameters:
    @pytest.mark.parametrize(
        "spec, message",
        [
            (FusionSpec(FusionMethod.MEDIAN, rank=1), "a rank applies to rank fusion only, not median"),
            (FusionSpec(FusionMethod.WEIGHTED_MEAN, (1.0, 1.0), rank=0),
             "a rank applies to rank fusion only, not wmean"),
            (FusionSpec(FusionMethod.MEAN, weights=(1.0, 1.0)),
             "weights apply to weighted-mean fusion only, not mean"),
            (FusionSpec(FusionMethod.RANK, (1.0, 1.0), rank=0),
             "weights apply to weighted-mean fusion only, not rank"),
        ],
        ids=["median-rank", "wmean-rank", "mean-weights", "rank-weights"],
    )
    def test_a_parameter_the_rule_does_not_use_is_refused(self, spec, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            fuse(_stack([[[1.0]], [[2.0]]]), spec)


def _sort_rows_by_sign(negative_first):
    """The sorting network as it runs where min/max order -0.0 and +0.0 by
    sign (as aarch64 FMIN/FMAX do) rather than by operand position."""

    def sort_rows(values):
        rows = [row.copy() for row in values]
        for start in range(len(rows)):
            for i in range(start % 2, len(rows) - 1, 2):
                a, b = rows[i], rows[i + 1]
                first = np.signbit(a) == negative_first
                keep = (a < b) | ((a == b) & first)
                rows[i], rows[i + 1] = np.where(keep, a, b), np.where(keep, b, a)
        return rows

    return sort_rows


def test_emulated_min_max_order_zeros_by_sign():
    values = np.array([[[0.0]], [[-0.0]]])
    for negative_first in (True, False):
        lower = _sort_rows_by_sign(negative_first)(values)[0]
        assert np.signbit(lower[0, 0]) == negative_first


class TestTieOrder:
    """Equal values keep scale order, so the sign of a fused zero follows
    the data (Python's stable ``sorted``), not the CPU's sorting kernel or
    min/max instructions."""

    @pytest.fixture(autouse=True, params=["native", "negative-first", "positive-first"])
    def zero_order(self, request, monkeypatch):
        if request.param != "native":
            monkeypatch.setattr(
                "pyrafuse.fusion._sort_rows",
                _sort_rows_by_sign(request.param == "negative-first"),
            )

    @staticmethod
    def _every_combination(k):
        """(k, 1, n) values and validity: every pattern of {-0, +0, 1} x mask."""
        values = np.array(list(itertools.product((-0.0, 0.0, 1.0), repeat=k))).T
        masks = np.array(list(itertools.product((False, True), repeat=k))).T
        n_masks = masks.shape[1]
        return (
            np.repeat(values, n_masks, axis=1)[:, None, :],
            np.tile(masks, values.shape[1])[:, None, :],
        )

    @pytest.mark.parametrize("k", range(1, 7))
    def test_signed_zero_median_is_bitwise_stable(self, k):
        values, valid = self._every_combination(k)
        stack = _stack(list(values), masks=list(valid.astype(float)))
        out = fuse(stack, FusionSpec.median())
        assert same_bits(out.grid.data, fuse_median_naive(values, valid))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_signed_zero_rank_is_bitwise_stable(self, k):
        values = np.array(list(itertools.product((-0.0, 0.0, 1.0), repeat=k))).T[:, None, :]
        stack = _stack(list(values))
        for r in range(k):
            out = fuse(stack, FusionSpec.rank_of(r))
            assert same_bits(out.grid.data, fuse_rank_naive(values, r))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_random_ties_are_bitwise_stable(self, k):
        rng = np.random.default_rng(40 + k)
        # few distinct values, zeros of both signs among them, so most cells tie
        values = rng.choice([-0.0, 0.0, -1.5, 1.5, 2.0], size=(k, 9, 11))
        valid = rng.random((k, 9, 11)) > 0.3
        stack = _stack(list(values), masks=list(valid.astype(float)))
        out = fuse(stack, FusionSpec.median())
        assert same_bits(out.grid.data, fuse_median_naive(values, valid))
        for r in range(k):
            out = fuse(stack, FusionSpec.rank_of(r))
            assert same_bits(out.grid.data, fuse_rank_naive(values, r))

    def test_inputs_are_not_written(self):
        # writable arrays, as the library's own stages build them, so that
        # only fuse's copy keeps median and rank from sorting them in place
        values = np.array([[[0.0, 3.0]], [[-0.0, 1.0]], [[2.0, -0.0]]])
        valid = np.array([[[True, False]], [[True, True]], [[False, True]]])
        stack = AttributeStack(values, valid, AttributeKind.PHASE_DIP, 1.0, 1.0, None, {})
        before = (values.tobytes(), valid.tobytes())
        for spec in (
            FusionSpec.median(), FusionSpec.rank_of(1), FusionSpec.mean(),
            FusionSpec.weighted((3.0, 2.0, 1.0)),
        ):
            fuse(stack, spec)
            assert (stack.values.tobytes(), stack.valid.tobytes()) == before, spec.method


class TestFusedMapShape:
    def test_output_is_tagged_fused_and_keeps_kind(self):
        stack = _stack([[[1.0]], [[2.0]]], kind=AttributeKind.CURV_POS)
        out = fuse(stack, FusionSpec.mean())
        assert out.scale is None
        assert out.is_fused
        assert out.kind is AttributeKind.CURV_POS
        assert out.meta["method"] == "mean"
        assert out.meta["scales"] == "2"

    def test_weight_and_rank_metadata(self):
        stack = _stack([[[1.0]], [[2.0]]])
        w = fuse(stack, FusionSpec.weighted((0.5, 0.5)))
        assert "weights" in w.meta
        r = fuse(stack, FusionSpec.rank_of(1))
        assert r.meta["rank"] == "1"

    def test_quality_is_any_valid(self):
        stack = _stack(
            [[[1.0, 1.0]], [[2.0, 2.0]]],
            masks=[[[0.0, 1.0]], [[0.0, 0.0]]],
        )
        out = fuse(stack, FusionSpec.median())
        assert np.array_equal(out.quality.data, np.array([[0.0, 1.0]]))


class TestIdenticalLayers:
    def test_fusing_identical_maps_is_bit_exact_identity(self):
        rng = np.random.default_rng(15)
        values = rng.standard_normal((8, 9)).astype(np.float32).astype(np.float64)
        for spec in (
            FusionSpec.mean(),
            FusionSpec.median(),
            FusionSpec.weighted((0.25, 0.5, 0.25)),
            FusionSpec.rank_of(1),
        ):
            stack = _stack([values, values, values])
            out = fuse(stack, spec)
            assert np.array_equal(out.grid.data, values), spec.method

    def test_negative_zero_survives_single_layer_paths(self):
        values = np.array([[-0.0, 0.0]])
        stack = _stack([values])
        for spec in (FusionSpec.mean(), FusionSpec.median()):
            out = fuse(stack, spec)
            assert np.signbit(out.grid.data[0, 0])
            assert not np.signbit(out.grid.data[0, 1])


def _no_attribute_stage(*args, **kwargs):
    raise AssertionError("the attribute stage ran before the fusion spec was checked")


class TestMultiscaleAttribute:
    def _section(self):
        events = tuple(PlaneEvent(t0=t, sx=0.5) for t in range(10, 120, 25))
        spec = SynthSpec(nt=128, nx=48, events=events, f_peak=10.0, seed=20)
        section, _ = make_synthetic(spec)
        return section

    def test_default_is_median_of_four_scales(self):
        out = multiscale_attribute(self._section(), AttributeKind.PHASE_DIP)
        assert out.meta["method"] == "median"
        assert out.meta["scales"] == "4"
        assert out.is_fused

    def test_wmean_defaults_to_geometric_weights(self):
        out = multiscale_attribute(
            self._section(),
            AttributeKind.PHASE_DIP,
            scales=3,
            fusion=FusionSpec(FusionMethod.WEIGHTED_MEAN),
        )
        weights = [float(w) for w in out.meta["weights"].split(",")]
        assert np.allclose(weights, np.array([4.0, 2.0, 1.0]) / 7.0, atol=1e-12)

    def test_single_scale_median_equals_plain_attribute(self):
        section = self._section()
        fused = multiscale_attribute(section, AttributeKind.PHASE_DIP, scales=1)
        plain = phase_dip(section)
        assert np.array_equal(fused.grid.data, plain.grid.data)

    def test_stage_errors_name_the_stage(self):
        small = SeismicSection(Grid2(np.zeros((4, 3))), dt=0.004, dx=25.0)
        with pytest.raises(SizeError) as err:
            multiscale_attribute(small, AttributeKind.PHASE_DIP, scales=4)
        assert str(err.value).startswith("attribute stage:")

    @pytest.mark.parametrize("stage", ["_attribute_layers", "_fuse_arrays"])
    def test_foreign_errors_escape_unchanged(self, monkeypatch, stage):
        class ArrayMemoryError(MemoryError):
            # like numpy's allocation error: no one-argument constructor
            def __init__(self, shape, dtype):
                super().__init__(f"cannot allocate {shape} {dtype}")

        raised = ArrayMemoryError((1 << 40,), np.dtype(np.float64))

        def fail(*args, **kwargs):
            raise raised

        monkeypatch.setattr(f"pyrafuse.fusion.{stage}", fail)
        with pytest.raises(ArrayMemoryError) as err:
            multiscale_attribute(self._section(), AttributeKind.PHASE_DIP, scales=2)
        assert err.value is raised

    @pytest.mark.parametrize(
        "spec, message",
        [
            (FusionSpec.rank_of(4), r"rank 4 outside \[0, 3\]"),
            (FusionSpec.rank_of(-1), r"rank -1 outside \[0, 3\]"),
            (FusionSpec.weighted([1, 2]), "need 4 weights, got 2"),
            (FusionSpec.weighted([1, -1, 1, 1]), "weights must be finite and non-negative"),
            (FusionSpec.weighted([1e308] * 4), "weights must have a finite sum"),
            (FusionSpec(FusionMethod.MEDIAN, rank=1), "a rank applies to rank fusion only, not median"),
            (FusionSpec(FusionMethod.MEAN, weights=(1.0,) * 4),
             "weights apply to weighted-mean fusion only, not mean"),
            (FusionSpec("median"), "fusion method must be a FusionMethod, got 'median'"),
        ],
        ids=["rank-4", "rank-minus-1", "two-weights", "negative-weight", "overflowing-weights",
             "median-with-rank", "mean-with-weights", "method-not-an-enum"],
    )
    def test_bad_spec_fails_before_the_attribute_stage(self, monkeypatch, spec, message):
        monkeypatch.setattr("pyrafuse.fusion._attribute_layers", _no_attribute_stage)
        with pytest.raises(ParameterError, match=f"^fusion stage: {message}$"):
            multiscale_attribute(
                self._section(), AttributeKind.PHASE_DIP, scales=4, fusion=spec
            )

    @pytest.mark.parametrize(
        "spec",
        [
            FusionSpec.median(),
            FusionSpec.rank_of(0),
            FusionSpec.weighted([1.0]),
            FusionSpec(FusionMethod.WEIGHTED_MEAN),
        ],
        ids=["median", "rank-0", "one-weight", "default-weights"],
    )
    @pytest.mark.parametrize("scales", [0, -1])
    def test_scales_below_one_is_named_whatever_the_spec(self, monkeypatch, scales, spec):
        monkeypatch.setattr("pyrafuse.fusion._attribute_layers", _no_attribute_stage)
        with pytest.raises(ParameterError, match=f"scales must be >= 1, got {scales}"):
            multiscale_attribute(
                self._section(), AttributeKind.PHASE_DIP, scales=scales, fusion=spec
            )

    def test_fusion_errors_name_the_stage(self, monkeypatch):
        # a stack does not check that its values are finite, so a stack of
        # infinities fuses to an infinite mean, which the fused map refuses
        def huge_stack(*args, **kwargs):
            return AttributeStack(
                values=np.full((2, 8, 6), np.inf), valid=np.ones((2, 8, 6), dtype=bool),
                kind=AttributeKind.PHASE_DIP, dt=0.004, dx=25.0, dy=None, meta={},
            )

        monkeypatch.setattr("pyrafuse.fusion._attribute_layers", huge_stack)
        with np.errstate(over="ignore"):
            with pytest.raises(ParameterError, match="^fusion stage: grid values must be finite"):
                multiscale_attribute(
                    self._section(), AttributeKind.PHASE_DIP, scales=2, fusion=FusionSpec.mean()
                )

    def test_config_errors_pass_through_unwrapped(self):
        with pytest.raises(ConfigError) as err:
            multiscale_attribute(self._section(), AttributeKind.DIP_ANGLE)
        assert not str(err.value).startswith("attribute stage:")
