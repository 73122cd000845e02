from __future__ import annotations

import functools
import math
import re
import tracemalloc

import numpy as np
import pytest

from oracles import (
    dip_cube_reference,
    dip_slice_reference,
    dip_stack_reference,
    fuse_median_naive,
    phase_dip_reference,
    same_bits,
    volume_attribute_reference,
)
from pyrafuse import (
    AttributeKind,
    AttributeMap,
    AttributeStack,
    BoundsError,
    ConfigError,
    DipField,
    Grid2,
    ParameterError,
    QuadraticEvent,
    SeismicSection,
    SeismicVolume,
    ShapeError,
    SizeError,
    SynthSpec,
    analytic_section,
    attribute_stack,
    curvature,
    dip_angle,
    dip_slice_fields,
    dip_stack,
    guard_mask,
    make_kernel,
    make_synthetic,
    multiscale_attribute,
    phase_dip,
)
from pyrafuse import attributes
from pyrafuse.attributes import VELOCITY_DEFAULT
from pyrafuse.cli import _f32


def _plane_wave_section(n=128, m=48, k=6, p=0.5, dt=0.004, dx=25.0):
    """cos(w*(t - p*x)) with w on an exact DFT bin, so quadrature is exact."""
    w = 2.0 * math.pi * k / n
    t = np.arange(n, dtype=np.float64)[:, None]
    x = np.arange(m, dtype=np.float64)[None, :]
    return SeismicSection(Grid2(np.cos(w * (t - p * x))), dt=dt, dx=dx), w


class TestPhaseDip:
    def test_positive_dip_for_events_arriving_later_with_x(self):
        section, w = _plane_wave_section(p=0.5)
        m = phase_dip(section)
        # the discrete quotient reports sin(w*p)/sin(w) for a pure carrier
        expected = math.sin(w * 0.5) / math.sin(w)
        interior = m.grid.data[1:-1, 1:-1]
        assert np.max(np.abs(interior - expected)) < 1e-9
        assert expected > 0.0

    def test_negative_dip_for_events_arriving_earlier_with_x(self):
        section, w = _plane_wave_section(p=-0.7)
        m = phase_dip(section)
        expected = -math.sin(w * 0.7) / math.sin(w)
        interior = m.grid.data[1:-1, 1:-1]
        assert np.max(np.abs(interior - expected)) < 1e-9

    def test_flat_events_give_zero_dip(self):
        section, _ = _plane_wave_section(p=0.0)
        m = phase_dip(section)
        assert np.max(np.abs(m.grid.data[1:-1, :])) < 1e-9

    def test_clamped_to_p_max(self):
        section, _ = _plane_wave_section(p=3.0, k=2)
        m = phase_dip(section, p_max=1.5)
        assert np.max(m.grid.data) <= 1.5
        assert np.min(m.grid.data) >= -1.5
        assert np.any(np.abs(m.grid.data[1:-1, 1:-1]) == 1.5)

    def test_slow_cells_are_zeroed_with_zero_quality(self):
        section, w = _plane_wave_section(p=0.5)
        m = phase_dip(section, eps_freq=10.0)  # every cell is "too slow"
        assert np.array_equal(m.grid.data, np.zeros(m.grid.shape))
        assert np.array_equal(m.quality.data, np.zeros(m.grid.shape))

    def test_quality_is_binary_and_marks_live_cells(self):
        section, _ = _plane_wave_section(p=0.5)
        m = phase_dip(section)
        assert set(np.unique(m.quality.data)) <= {0.0, 1.0}
        assert m.quality.data[1:-1, 1:-1].all()

    def test_map_metadata(self):
        section, _ = _plane_wave_section()
        m = phase_dip(section, scale=3)
        assert m.kind is AttributeKind.PHASE_DIP
        assert m.scale == 3
        assert m.dt == section.dt and m.dx == section.dx

    def test_minimum_dims(self):
        # the one-scale dip request's check: 4 samples x 3 traces
        for rows, cols in ((3, 8), (8, 2)):
            with pytest.raises(
                SizeError,
                match=rf"section {rows}x{cols} supports at most 0 dip scale\(s\), requested 1",
            ):
                phase_dip(SeismicSection(Grid2(np.zeros((rows, cols))), dt=1.0, dx=1.0))

    @pytest.mark.parametrize("case", ["default", "clamp", "guard"])
    @pytest.mark.parametrize(
        "shape", [(512, 512), (101, 37), (45, 13), (64, 32), (48, 4), (4, 3)], ids=str
    )
    def test_equals_reference(self, shape, case):
        if case == "guard":
            # a spike on zeros: the guard fires on every trace but the spike's
            data = np.zeros(shape)
            data[shape[0] // 2, shape[1] // 2] = 1.0
        else:
            data = np.random.default_rng(shape[0] * shape[1]).standard_normal(shape)
        section = SeismicSection(Grid2(data), dt=0.004, dx=25.0)
        if case == "guard":
            assert not guard_mask(analytic_section(section)).all()
        kw = {"p_max": 0.5, "eps_freq": 0.05} if case == "clamp" else {}
        m = phase_dip(section, scale=1, **kw)
        dip, quality = phase_dip_reference(section, **kw)
        assert same_bits(m.grid.data, dip)
        assert same_bits(m.quality.data, quality)
        assert (m.kind, m.scale, m.dt, m.dx, m.dy, m.meta) == (
            AttributeKind.PHASE_DIP, 1, 0.004, 25.0, None, {}
        )

    def test_parameter_validation(self):
        section, _ = _plane_wave_section()
        with pytest.raises(ParameterError):
            phase_dip(section, p_max=0.0)
        with pytest.raises(ParameterError):
            phase_dip(section, eps_freq=-1.0)


class TestDipAngle:
    def _maps(self, p_val, q_val, shape=(6, 5)):
        p = AttributeMap(Grid2(np.full(shape, p_val)), AttributeKind.PHASE_DIP, scale=1)
        q = AttributeMap(Grid2(np.full(shape, q_val)), AttributeKind.PHASE_DIP, scale=1)
        return p, q

    def test_matches_closed_form(self):
        p, q = self._maps(0.5, -0.25)
        out = dip_angle(p, q, dt=0.004, dx=25.0, dy=12.5, velocity=2000.0)
        s_x = 0.5 * (2000.0 * 0.004 / 2.0) / 25.0
        s_y = -0.25 * (2000.0 * 0.004 / 2.0) / 12.5
        want = math.atan(math.hypot(s_x, s_y))
        assert np.allclose(out.grid.data, want, atol=1e-12)
        assert out.kind is AttributeKind.DIP_ANGLE

    def test_flat_gives_zero_angle(self):
        p, q = self._maps(0.0, 0.0)
        out = dip_angle(p, q, dt=0.004, dx=25.0, dy=25.0)
        assert np.array_equal(out.grid.data, np.zeros((6, 5)))

    def test_angle_is_bounded_below_right_angle(self):
        p, q = self._maps(100.0, 100.0)
        out = dip_angle(p, q, dt=0.004, dx=25.0, dy=25.0)
        assert np.max(out.grid.data) < math.pi / 2.0

    def test_records_convention_metadata(self):
        p, q = self._maps(0.1, 0.2)
        out = dip_angle(p, q, dt=0.004, dx=25.0, dy=25.0, velocity=1500.0)
        assert out.meta["velocity"] == repr(1500.0)
        assert out.meta["convention"] == "time-dip"

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("name", ["dt", "dx", "dy"])
    def test_rejects_bad_intervals(self, name, value):
        p, q = self._maps(0.1, 0.2)
        steps = {"dt": 0.004, "dx": 25.0, "dy": 25.0, name: value}
        with pytest.raises(ParameterError, match=f"{name} must be a positive finite number"):
            dip_angle(p, q, **steps)

    def test_quality_is_the_minimum_of_both_masks(self):
        p, q = self._maps(0.1, 0.2, shape=(2, 3))
        p = AttributeMap(p.grid, p.kind, quality=Grid2([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        q = AttributeMap(q.grid, q.kind, quality=Grid2([[1.0, 1.0, 0.0], [0.0, 0.5, 1.0]]))
        out = dip_angle(p, q, dt=0.004, dx=25.0, dy=25.0)
        assert np.array_equal(out.quality.data, [[1.0, 0.0, 0.0], [0.0, 0.5, 1.0]])

    def test_rejects_wrong_kinds_and_shapes(self):
        p, q = self._maps(0.1, 0.2)
        raw = AttributeMap(Grid2(np.zeros((6, 5))), AttributeKind.RAW)
        with pytest.raises(ParameterError):
            dip_angle(p, raw, dt=0.004, dx=25.0, dy=25.0)
        small = AttributeMap(Grid2(np.zeros((3, 3))), AttributeKind.PHASE_DIP)
        with pytest.raises(ShapeError):
            dip_angle(p, small, dt=0.004, dx=25.0, dy=25.0)


class TestCurvature:
    def test_constant_dip_field_has_exactly_zero_curvature(self):
        field = DipField(
            Grid2(np.full((8, 7), 0.3)),
            Grid2(np.full((8, 7), -0.2)),
            dt=0.004,
            dx=25.0,
            dy=12.5,
        )
        pair = curvature(field)
        assert np.array_equal(pair.k_pos.grid.data, np.zeros((8, 7)))
        assert np.array_equal(pair.k_neg.grid.data, np.zeros((8, 7)))

    def test_cylindrical_ramp_recovers_kappa(self):
        # s_x = kappa * X (lateral meters): a linear slope field whose
        # half-gradient is kappa/2, so k_pos = kappa and k_neg = 0
        kappa, dx, dt, v = 2e-4, 25.0, 0.004, 2000.0
        nx, ny = 9, 6
        lateral = (np.arange(nx, dtype=np.float64) - 4.0) * dx
        s_x = kappa * lateral
        p = s_x[:, None] * np.ones(ny) / ((v * dt / 2.0) / dx)
        field = DipField(Grid2(p), Grid2(np.zeros((nx, ny))), dt=dt, dx=dx, dy=dx)
        pair = curvature(field, velocity=v)
        assert np.allclose(pair.k_pos.grid.data, kappa, atol=1e-15)
        assert np.allclose(pair.k_neg.grid.data, 0.0, atol=1e-15)

    def test_ordering_holds_on_random_fields(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = Grid2(rng.standard_normal((10, 9)))
            q = Grid2(rng.standard_normal((10, 9)))
            field = DipField(p, q, dt=0.004, dx=25.0, dy=25.0)
            pair = curvature(field)
            assert np.all(pair.k_pos.grid.data >= pair.k_neg.grid.data)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("name", ["dt", "dx", "dy"])
    def test_dip_field_rejects_bad_intervals(self, name, value):
        dips = Grid2(np.zeros((8, 7)))
        steps = {"dt": 0.004, "dx": 25.0, "dy": 12.5, name: value}
        with pytest.raises(ParameterError, match=f"{name} must be a positive finite number"):
            DipField(dips, dips, **steps)

    def test_dip_field_rejects_mis_shaped_q_and_quality(self):
        p = Grid2(np.zeros((8, 7)))
        other = Grid2(np.zeros((7, 8)))
        with pytest.raises(ShapeError, match="q shape"):
            DipField(p, other, dt=0.004, dx=25.0, dy=25.0)
        with pytest.raises(ShapeError, match="quality shape"):
            DipField(p, p, dt=0.004, dx=25.0, dy=25.0, quality=other)

    def test_requires_crossline_dip_and_min_size(self):
        p = Grid2(np.zeros((8, 8)))
        with pytest.raises(ConfigError):
            curvature(DipField(p, None, dt=0.004, dx=25.0, dy=None))
        with pytest.raises(ConfigError, match="crossline interval dy"):
            curvature(DipField(p, p, dt=0.004, dx=25.0, dy=None))
        with pytest.raises(SizeError):
            curvature(
                DipField(Grid2(np.zeros((2, 8))), Grid2(np.zeros((2, 8))),
                         dt=0.004, dx=25.0, dy=25.0)
            )


class TestDipStack:
    def test_levels_are_tagged_and_expanded(self):
        section, _ = _plane_wave_section(n=128, m=64)
        stack = dip_stack(section, 3)
        assert stack.scales == 3
        assert [m.scale for m in stack.maps] == [0, 1, 2]
        for m in stack.maps:
            assert m.grid.shape == (128, 64)
            assert m.kind is AttributeKind.PHASE_DIP
            assert set(np.unique(m.quality.data)) <= {0.0, 1.0}
        assert stack.maps[0].meta["radius"] == "2"

    def test_plane_wave_dip_consistent_across_scales(self):
        # low-frequency carrier: the same dip must be seen at every level
        section, _ = _plane_wave_section(n=256, m=96, k=3, p=0.5)
        stack = dip_stack(section, 3)
        vals = stack.values
        for i in range(3):
            mt, mx = 8 * 2**i, 4 * 2**i
            interior = vals[i][mt:-mt, mx:-mx]
            assert abs(float(np.median(interior)) - 0.5) < 0.02

    def test_stack_values_and_validity_shapes(self):
        section, _ = _plane_wave_section(n=64, m=32)
        stack = dip_stack(section, 2)
        assert stack.values.shape == (2, 64, 32)
        assert stack.valid.shape == (2, 64, 32)
        assert stack.valid.dtype == bool

    def test_rejects_oversized_scale_count(self):
        section, _ = _plane_wave_section(n=32, m=16)
        with pytest.raises(SizeError):
            dip_stack(section, 6)

    @pytest.mark.parametrize(
        "shape", [(3, 8), (4, 3), (48, 4), (8, 6), (9, 9), (40, 17)], ids=str
    )
    def test_refusal_names_the_largest_accepted_count(self, shape):
        # a section narrower than the kernel support still takes one scale
        section = SeismicSection(Grid2(np.zeros(shape)), dt=1.0, dx=1.0)
        with pytest.raises(SizeError) as err:
            dip_stack(section, 9)
        most = int(re.search(r"supports at most (\d+) dip scale", str(err.value)).group(1))
        if most:
            assert dip_stack(section, most).scales == most
        with pytest.raises(SizeError, match=f"at most {most} dip scale"):
            dip_stack(section, most + 1)

    @pytest.mark.parametrize(
        "section, kernel, scales, p_max, eps_freq",
        [
            ("odd", (1.0, 2), 4, 5.0, 1e-3),
            ("odd", (1.3, 3), 3, 5.0, 1e-3),
            ("noisy", (1.0, 1), 3, 5.0, 1e-3),
            ("noisy", (1.0, 1), 3, 0.5, 0.05),
            ("noisy", (1.0, 2), 2, 0.5, 0.05),
            ("packet", (1.0, 1), 3, 5.0, 1e-3),
            ("packet", (1.0, 2), 2, 5.0, 1e-3),
            ("flat", (1.0, 2), 3, 5.0, 1e-3),
            ("thin", (1.0, 2), 1, 5.0, 1e-3),
            ("tiny", (1.0, 2), 1, 0.5, 0.05),
        ],
    )
    def test_equals_stage_composition_reference(self, section, kernel, scales, p_max, eps_freq):
        # odd sizes and kernels; the clamp/eps case and the guard-firing
        # packet are the ones test_slice_cases_clamp_reject_and_guard checks;
        # flat events give -0.0 dips, which a blended base level would flip;
        # one scale is never reduced, so sections narrower than the kernel
        # support down to the 4x3 dip minimum have one
        section = _DIP_SECTIONS[section]()
        kernel = make_kernel(*kernel)
        stack = dip_stack(section, scales, kernel, p_max=p_max, eps_freq=eps_freq)
        reference = dip_stack_reference(section, scales, kernel, p_max=p_max, eps_freq=eps_freq)
        assert len(stack.maps) == len(reference) == scales
        for m, (values, quality) in zip(stack.maps, reference):
            assert same_bits(m.grid.data, values)
            assert same_bits(m.quality.data, quality)


@functools.lru_cache(maxsize=1)
def _odd_volume():
    """Seeded noisy 45x13x11 volume; with a support-3 kernel both section
    orientations (45x13 and 45x11) allow exactly three dip scales."""
    spec = SynthSpec(
        nt=45, nx=13, ny=11, f_peak=12.0, snr_db=6.0, seed=29,
        events=(QuadraticEvent(t0=14, kappa=3e-4), QuadraticEvent(t0=31, kappa=-2e-4)),
    )
    return make_synthetic(spec)[0]


@functools.lru_cache(maxsize=1)
def _packet_volume():
    """Noise-free dipping Gaussian wave packet on the same 45x13x11 lattice.

    Far from the packet the squared envelope falls below 1e-10 of the
    section maximum, so the envelope guard fires on whole rows.
    """
    t = np.arange(45.0)[:, None, None]
    x = np.arange(13.0)[None, :, None]
    y = np.arange(11.0)[None, None, :]
    tau = t - (12.0 + 0.3 * x + 0.2 * y)
    data = np.exp(-tau**2 / 18.0) * np.cos(0.5 * np.pi * tau)
    return SeismicVolume(data, dt=0.004, dx=25.0, dy=25.0)


_SLICE_VOLUMES = {"noisy": _odd_volume, "packet": _packet_volume}
_DIP_SECTIONS = {
    "odd": lambda: SeismicSection(
        Grid2(np.random.default_rng(31).standard_normal((101, 37))), dt=0.004, dx=25.0
    ),
    "noisy": lambda: _odd_volume().crossline_section(4),
    "packet": lambda: _packet_volume().crossline_section(5),
    "flat": lambda: _plane_wave_section(n=64, m=32, k=4, p=0.0)[0],
    "thin": lambda: SeismicSection(
        Grid2(np.random.default_rng(37).standard_normal((48, 4))), dt=0.004, dx=25.0
    ),
    "tiny": lambda: SeismicSection(
        Grid2(np.random.default_rng(43).standard_normal((4, 3))), dt=0.004, dx=25.0
    ),
}
# (volume, p_max, eps_freq): the defaults, a case that clamps and rejects
# often, and one where the envelope guard fires
_SLICE_CASES = [("noisy", 5.0, 1e-3), ("noisy", 0.5, 0.05), ("packet", 5.0, 1e-3)]

# the 45x13x11 slice volumes as they are (nx > ny) and with x and y
# swapped (nx < ny)
_ASPECTS = {
    "nx>ny": lambda vol: vol,
    "nx<ny": lambda vol: SeismicVolume(
        vol.data.transpose(0, 2, 1), dt=vol.dt, dx=vol.dy, dy=vol.dx
    ),
}


@functools.lru_cache(maxsize=None)
def _cube_reference(aspect, volume, p_max, eps_freq):
    vol = _ASPECTS[aspect](_SLICE_VOLUMES[volume]())
    return dip_cube_reference(vol, 3, make_kernel(1.0, 1), p_max=p_max, eps_freq=eps_freq)


def _plane_wave_volume(nt=96, nx=28, ny=24, k=4, px=0.4, py=-0.3):
    w = 2.0 * math.pi * k / nt
    t = np.arange(nt, dtype=np.float64)[:, None, None]
    x = np.arange(nx, dtype=np.float64)[None, :, None]
    y = np.arange(ny, dtype=np.float64)[None, None, :]
    data = np.cos(w * (t - px * x - py * y))
    return SeismicVolume(data, dt=0.004, dx=25.0, dy=25.0), w


class TestVolumeDips:
    def test_slice_fields_recover_both_lateral_dips(self):
        vol, w = _plane_wave_volume()
        fields = dip_slice_fields(vol, 48, 2)
        assert len(fields) == 2
        f0 = fields[0]
        assert f0.p.shape == (28, 24)
        expected_p = math.sin(w * 0.4) / math.sin(w)
        expected_q = -math.sin(w * 0.3) / math.sin(w)
        assert abs(float(np.median(f0.p.data[2:-2, 2:-2])) - expected_p) < 1e-6
        assert abs(float(np.median(f0.q.data[2:-2, 2:-2])) - expected_q) < 1e-6

    def test_bad_time_index(self):
        vol, _ = _plane_wave_volume(nt=32)
        with pytest.raises(BoundsError):
            dip_slice_fields(vol, 32, 1)

    def test_slice_fields_equal_per_section_reference(self):
        spec = SynthSpec(
            nt=48, nx=16, ny=12, f_peak=12.0, snr_db=10.0, seed=11,
            events=(QuadraticEvent(t0=20, kappa=2e-4), QuadraticEvent(t0=34, kappa=-1e-4)),
        )
        vol, _ = make_synthetic(spec)
        for t in (0, 23, vol.nt - 1):
            fields = dip_slice_fields(vol, t, 2)
            reference = dip_slice_reference(vol, t, 2)
            assert len(fields) == len(reference) == 2
            for field, (p, q, quality) in zip(fields, reference):
                assert same_bits(field.p.data, p)
                assert same_bits(field.q.data, q)
                assert same_bits(field.quality.data, quality)

    @pytest.mark.parametrize("volume, p_max, eps_freq", _SLICE_CASES)
    @pytest.mark.parametrize("t", range(45))
    def test_slice_fields_equal_reference_at_every_t(self, t, volume, p_max, eps_freq):
        vol = _SLICE_VOLUMES[volume]()
        kernel = make_kernel(1.0, 1)
        fields = dip_slice_fields(vol, t, 3, kernel, p_max=p_max, eps_freq=eps_freq)
        reference = _cube_reference("nx>ny", volume, p_max, eps_freq)
        assert len(fields) == len(reference) == 3
        for field, (p, q, quality) in zip(fields, reference):
            assert same_bits(field.p.data, p[t])
            assert same_bits(field.q.data, q[t])
            assert same_bits(field.quality.data, quality[t])

    def test_slice_cases_clamp_reject_and_guard(self):
        # the exact comparison above only covers the clamp, the eps
        # rejection and the envelope guard if its cases hit them
        section = _packet_volume().crossline_section(5)
        assert not guard_mask(analytic_section(section)).all()
        volume, p_max, eps_freq = _SLICE_CASES[1]
        # scale 0 at every t
        p, q, quality = _cube_reference("nx>ny", volume, p_max, eps_freq)[0]
        assert np.sum(np.abs(p) == p_max) + np.sum(np.abs(q) == p_max) > 0
        assert np.sum(quality == 0.0) > 0

    @pytest.mark.parametrize("scales", [0, -1])
    def test_scales_below_one_is_a_parameter_error(self, scales):
        vol, _ = _plane_wave_volume(nt=32, nx=12, ny=10)
        with pytest.raises(ParameterError, match=f"scales must be >= 1, got {scales}"):
            dip_slice_fields(vol, 4, scales)
        with pytest.raises(ParameterError, match="scales must be >= 1"):
            attribute_stack(vol, AttributeKind.DIP_ANGLE, scales, time_index=4)
        with pytest.raises(ParameterError, match="scales must be >= 1"):
            multiscale_attribute(vol, AttributeKind.CURV_POS, scales=scales, time_index=4)

    @pytest.mark.parametrize(
        "kw", [{"p_max": 0.0}, {"p_max": -1.0}, {"p_max": math.inf}, {"p_max": math.nan},
               {"eps_freq": 0.0}, {"eps_freq": -1e-3}, {"eps_freq": math.inf},
               {"eps_freq": math.nan}],
    )
    def test_dip_parameters_out_of_domain(self, kw):
        vol, _ = _plane_wave_volume(nt=32, nx=12, ny=10)
        with pytest.raises(ParameterError, match=next(iter(kw))):
            dip_slice_fields(vol, 4, 1, **kw)

    def test_infeasible_orientation_fails_before_any_work(self, monkeypatch):
        # fixed-y sections (32x40) allow 4 scales, fixed-x sections (32x4)
        # one, unreduced, with the default support-5 kernel
        vol, _ = _plane_wave_volume(nt=32, nx=40, ny=4)

        def no_work(*args, **kwargs):
            raise AssertionError("a section was processed before the size check")

        monkeypatch.setattr(attributes, "_quadrature", no_work)
        with pytest.raises(SizeError, match=r"section 32x4 supports at most 1 dip scale\(s\), requested 2"):
            dip_slice_fields(vol, 10, 2)


class TestBatchedLevels:
    """Levels above the base run ``_BATCH`` sections at a time."""

    # 13 and 11 sections: batches of 3 and 4 leave remainders of 1, 2 and 3
    @pytest.mark.parametrize("batch", [1, 3, 4, 64])
    @pytest.mark.parametrize("volume, p_max, eps_freq", _SLICE_CASES)
    def test_no_batch_size_changes_a_bit(self, monkeypatch, batch, volume, p_max, eps_freq):
        monkeypatch.setattr(attributes, "_BATCH", batch)
        vol = _SLICE_VOLUMES[volume]()
        kernel = make_kernel(1.0, 1)
        reference = _cube_reference("nx>ny", volume, p_max, eps_freq)
        for t in (0, 9, 22, 44):
            fields = dip_slice_fields(vol, t, 3, kernel, p_max=p_max, eps_freq=eps_freq)
            for field, (p, q, quality) in zip(fields, reference):
                assert same_bits(field.p.data, p[t])
                assert same_bits(field.q.data, q[t])
                assert same_bits(field.quality.data, quality[t])

    def test_batches_hold_the_peak(self, monkeypatch):
        # the base level runs one section at a time and sets the peak; four
        # sections' level 1 together are about one base level
        vol, _ = _plane_wave_volume(nt=96, nx=24, ny=20)

        def peak() -> int:
            dip_slice_fields(vol, 40, 3)
            tracemalloc.start()
            try:
                dip_slice_fields(vol, 40, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        batched = peak()
        monkeypatch.setattr(attributes, "_BATCH", 1)
        assert batched <= 1.25 * peak()


class TestSharedBaseLevel:
    """One pass over the fixed-x sections takes the base level's quadrature
    for both orientations; the fixed-y sections read it transposed."""

    @pytest.mark.parametrize("aspect", sorted(_ASPECTS))
    def test_base_level_quadrature_runs_once_per_trace(self, monkeypatch, aspect):
        vol = _ASPECTS[aspect](_odd_volume())
        calls = []

        def counting(values, axis):
            calls.append(values.shape)
            return quadrature(values, axis)

        quadrature = attributes._quadrature
        monkeypatch.setattr(attributes, "_quadrature", counting)
        dip_slice_fields(vol, 20, 3, make_kernel(1.0, 1))
        base = [shape for shape in calls if shape[-2] == vol.nt]
        # nx fixed-x sections of ny traces, not also ny fixed-y ones
        assert base == [(1, vol.nt, vol.ny)] * vol.nx
        # levels 1 and 2 of every batch of four sections, both orientations
        assert len(calls) - len(base) == 2 * (-(-vol.nx // 4) + -(-vol.ny // 4))

    # The batch groups whole levels and the time slice picks their rows, so
    # the two do not interact: each batch size takes every fourth t and the
    # edge rows, and together the four sizes take every t of each case.
    @pytest.mark.parametrize("batch", [1, 3, 4, 64])
    @pytest.mark.parametrize("volume, p_max, eps_freq", _SLICE_CASES)
    @pytest.mark.parametrize("aspect", sorted(_ASPECTS))
    def test_every_t_equals_reference(self, monkeypatch, aspect, volume, p_max, eps_freq, batch):
        monkeypatch.setattr(attributes, "_BATCH", batch)
        vol = _ASPECTS[aspect](_SLICE_VOLUMES[volume]())
        kernel = make_kernel(1.0, 1)
        reference = _cube_reference(aspect, volume, p_max, eps_freq)
        offset = [1, 3, 4, 64].index(batch)
        for t in sorted({0, 1, vol.nt - 2, vol.nt - 1, *range(offset, vol.nt, 4)}):
            fields = dip_slice_fields(vol, t, 3, kernel, p_max=p_max, eps_freq=eps_freq)
            for field, (p, q, quality) in zip(fields, reference):
                assert same_bits(field.p.data, p[t])
                assert same_bits(field.q.data, q[t])
                assert same_bits(field.quality.data, quality[t])


class TestVolumeAttributes:
    """Dip angle and curvature stacks are the per-scale formulas applied to
    the dip slice reference, bit for bit, before and after fusion."""

    @pytest.mark.parametrize("velocity", [VELOCITY_DEFAULT, 3100.0])
    @pytest.mark.parametrize(
        "kind", [AttributeKind.DIP_ANGLE, AttributeKind.CURV_POS, AttributeKind.CURV_NEG],
        ids=lambda kind: kind.value,
    )
    @pytest.mark.parametrize("volume, p_max, eps_freq", _SLICE_CASES)
    @pytest.mark.parametrize("aspect", sorted(_ASPECTS))
    def test_equal_reference(self, aspect, volume, p_max, eps_freq, kind, velocity):
        vol = _ASPECTS[aspect](_SLICE_VOLUMES[volume]())
        kernel = make_kernel(1.0, 1)
        cube = _cube_reference(aspect, volume, p_max, eps_freq)
        kw = dict(velocity=velocity, p_max=p_max, eps_freq=eps_freq)
        for t in (0, 17, vol.nt - 1):
            reference = volume_attribute_reference(
                vol, kind, [(p[t], q[t], quality[t]) for p, q, quality in cube], velocity
            )
            values = np.stack([v for v, _ in reference])
            valid = np.stack([quality > 0.5 for _, quality in reference])
            meta = {"velocity": repr(velocity), "convention": "time-dip",
                    "sigma": "1.0", "radius": "1", "time_index": str(t)}

            layers = attributes._attribute_layers(vol, kind, 3, kernel, time_index=t, **kw)
            assert same_bits(layers.values, values)
            assert same_bits(layers.valid, valid)
            assert list(layers.meta.items()) == list(meta.items())

            fused = multiscale_attribute(vol, kind, scales=3, kernel=kernel, time_index=t, **kw)
            assert same_bits(fused.grid.data, fuse_median_naive(values, valid))
            assert same_bits(fused.quality.data, valid.any(axis=0).astype(np.float64))
            del meta["convention"]  # fusion keeps the recipe, not the convention
            assert fused.meta == {"method": "median", "scales": "3", **meta}

    @pytest.mark.parametrize(
        "kind", [AttributeKind.DIP_ANGLE, AttributeKind.CURV_POS, AttributeKind.CURV_NEG],
        ids=lambda kind: kind.value,
    )
    def test_one_scale_on_a_thin_volume(self, kind):
        # the fixed-x sections are 48x4, narrower than the default kernel
        # support; one scale is never reduced, so only two scales are refused
        vol = SeismicVolume(
            np.random.default_rng(41).standard_normal((48, 20, 4)), dt=0.004, dx=25.0, dy=25.0
        )
        stack = attribute_stack(vol, kind, 1, time_index=10)
        cube = dip_cube_reference(vol, 1)
        ((values, quality),) = volume_attribute_reference(
            vol, kind, [(p[10], q[10], quality[10]) for p, q, quality in cube]
        )
        assert same_bits(stack.maps[0].grid.data, values)
        assert same_bits(stack.maps[0].quality.data, quality)
        with pytest.raises(SizeError, match=r"section 48x4 supports at most 1 dip scale\(s\), requested 2"):
            attribute_stack(vol, kind, 2, time_index=10)

    def test_curvature_peak_stays_at_the_dip_angle_peak(self):
        # the curvature formula's temporaries fit under the dip builder's
        # peak, to within half of one (scales, nx, ny) float64 array
        vol, _ = _plane_wave_volume(nt=48, nx=64, ny=64)

        def peak(kind) -> int:
            attributes._attribute_layers(vol, kind, 4, time_index=24)
            tracemalloc.start()
            try:
                attributes._attribute_layers(vol, kind, 4, time_index=24)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        dip_angle_peak = peak(AttributeKind.DIP_ANGLE)
        half_array = 4 * 64 * 64 * 8 // 2
        for kind in (AttributeKind.CURV_POS, AttributeKind.CURV_NEG):
            assert peak(kind) <= dip_angle_peak + half_array

    @pytest.mark.parametrize("velocity", [0.0, -1.0, math.inf, math.nan])
    def test_bad_velocity_fails_before_any_work(self, monkeypatch, velocity):
        vol = _odd_volume()

        def no_work(*args, **kwargs):
            raise AssertionError("a section was processed before the velocity check")

        monkeypatch.setattr(attributes, "_quadrature", no_work)
        for kind in (AttributeKind.DIP_ANGLE, AttributeKind.CURV_POS, AttributeKind.CURV_NEG):
            with pytest.raises(ParameterError, match="velocity must be positive"):
                attributes._attribute_layers(vol, kind, 2, time_index=20, velocity=velocity)
            with pytest.raises(ParameterError, match="velocity must be positive"):
                multiscale_attribute(vol, kind, scales=2, time_index=20, velocity=velocity)


class TestQuadratureOverflow:
    """A level whose quadrature overflows is rejected on every path; the
    envelope guard would otherwise turn it into untrusted zeros."""

    @staticmethod
    def _volume():
        rng = np.random.default_rng(0)
        return SeismicVolume(
            rng.standard_normal((64, 16, 16)) * 1e306, dt=0.004, dx=25.0, dy=25.0
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda vol: phase_dip(vol.crossline_section(3)),
            lambda vol: dip_stack(vol.crossline_section(3), 2),
            lambda vol: attributes._attribute_layers(
                vol.crossline_section(3), AttributeKind.PHASE_DIP, 2, make_kernel(),
                p_max=5.0, eps_freq=1e-3, boundary=_f32,
            ),
            lambda vol: dip_slice_fields(vol, 10, 2),
            lambda vol: multiscale_attribute(
                vol, AttributeKind.DIP_ANGLE, scales=2, time_index=10
            ),
        ],
        ids=["phase_dip", "dip_stack", "float32_boundary", "dip_slice_fields", "multiscale_attribute"],
    )
    def test_non_finite_quadrature_is_a_parameter_error(self, call):
        vol = self._volume()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ParameterError, match="grid values must be finite"):
                call(vol)

    def test_finite_quadrature_whose_envelope_overflows_is_untrusted(self):
        # f^2 + h^2 overflows but f and h are finite: the guard, not the
        # finiteness check, handles it, on both paths alike
        rng = np.random.default_rng(0)
        vol = SeismicVolume(rng.standard_normal((64, 16, 16)) * 1e160, dt=0.004, dx=25.0, dy=25.0)
        with np.errstate(over="ignore", invalid="ignore"):
            stack = dip_stack(vol.crossline_section(3), 2)
            fields = dip_slice_fields(vol, 10, 2)
        for quality in [m.quality for m in stack.maps] + [f.quality for f in fields]:
            assert not quality.data.any()


class TestAttributeStackDispatch:
    def test_section_dip_stack(self):
        section, _ = _plane_wave_section(n=64, m=32)
        stack = attribute_stack(section, AttributeKind.PHASE_DIP, 2)
        assert stack.kind is AttributeKind.PHASE_DIP
        assert stack.scales == 2

    def test_volume_angle_and_curvature_stacks(self):
        vol, _ = _plane_wave_volume(nt=64, nx=20, ny=16)
        for kind in (AttributeKind.DIP_ANGLE, AttributeKind.CURV_POS, AttributeKind.CURV_NEG):
            stack = attribute_stack(vol, kind, 2, time_index=32)
            assert stack.kind is kind
            assert [m.scale for m in stack.maps] == [0, 1]
            assert stack.maps[0].grid.shape == (20, 16)
            assert stack.maps[0].meta["time_index"] == "32"

    def test_wrong_combinations_raise(self):
        section, _ = _plane_wave_section(n=64, m=32)
        vol, _ = _plane_wave_volume(nt=64, nx=20, ny=16)
        with pytest.raises(ConfigError):
            attribute_stack(section, AttributeKind.DIP_ANGLE, 2)
        with pytest.raises(ConfigError):
            attribute_stack(vol, AttributeKind.PHASE_DIP, 2, time_index=32)
        with pytest.raises(ConfigError):
            attribute_stack(vol, AttributeKind.DIP_ANGLE, 2)  # no time_index
        with pytest.raises(ParameterError):
            attribute_stack(section, AttributeKind.RAW, 2)

    @pytest.mark.parametrize(
        "call, needs",
        [
            (lambda section, vol: phase_dip(vol), "phase dip runs on sections"),
            (lambda section, vol: dip_stack(vol, 2), "phase dip runs on sections"),
            (lambda section, vol: dip_slice_fields(section, 3, 1), "need a volume"),
        ],
        ids=["phase_dip", "dip_stack", "dip_slice_fields"],
    )
    def test_wrong_container_at_a_dip_entry_is_a_config_error(self, call, needs):
        section, _ = _plane_wave_section(n=64, m=32)
        vol, _ = _plane_wave_volume(nt=64, nx=20, ny=16)
        with pytest.raises(ConfigError, match=needs):
            call(section, vol)


class TestStackContainer:
    def test_rejects_mixed_kinds_and_shapes(self):
        a = AttributeMap(Grid2(np.zeros((4, 4))), AttributeKind.PHASE_DIP)
        b = AttributeMap(Grid2(np.zeros((4, 4))), AttributeKind.DIP_ANGLE)
        c = AttributeMap(Grid2(np.zeros((5, 4))), AttributeKind.PHASE_DIP)
        with pytest.raises(ShapeError):
            AttributeStack.from_maps((a, b))
        with pytest.raises(ShapeError):
            AttributeStack.from_maps((a, c))
        with pytest.raises(ShapeError):
            AttributeStack.from_maps(())

    def test_from_maps_stacks_arrays_and_counts_a_missing_mask_as_valid(self):
        a = AttributeMap(Grid2([[1.0, -0.0]]), AttributeKind.CURV_POS, dt=0.5, meta={"k": "v"})
        b = AttributeMap(Grid2([[3.0, 4.0]]), AttributeKind.CURV_POS, quality=Grid2([[0.0, 1.0]]))
        stack = AttributeStack.from_maps([a, b])
        assert same_bits(stack.values, np.array([[[1.0, -0.0]], [[3.0, 4.0]]]))
        assert stack.valid.tolist() == [[[True, True]], [[False, True]]]
        assert (stack.kind, stack.scales, stack.dt, stack.meta) == (AttributeKind.CURV_POS, 2, 0.5, {"k": "v"})

    def test_returned_stacks_are_read_only_and_build_their_maps_once(self):
        section, _ = _plane_wave_section(n=64, m=32)
        vol, _ = _plane_wave_volume(nt=64, nx=20, ny=16)
        a = AttributeMap(Grid2(np.zeros((4, 4))), AttributeKind.PHASE_DIP)
        for stack in (
            dip_stack(section, 2),
            attribute_stack(section, AttributeKind.PHASE_DIP, 2),
            attribute_stack(vol, AttributeKind.CURV_NEG, 2, time_index=32),
            AttributeStack.from_maps((a, a)),
        ):
            for array in (stack.values, stack.valid):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0, 0, 0] = 1
            maps = stack.maps
            assert stack.maps is maps and len(maps) == stack.scales
            for i, m in enumerate(maps):
                assert m.scale == i
                assert same_bits(m.grid.data, stack.values[i])
                assert same_bits(m.quality.data, stack.valid[i].astype(np.float64))
