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
    Grid2,
    ParameterError,
    QuadraticEvent,
    SeismicSection,
    SeismicVolume,
    ShapeError,
    SizeError,
    SynthSpec,
    attribute_stack,
    make_kernel,
    make_synthetic,
    multiscale_attribute,
    phase_dip,
)
from pyrafuse import attributes
from pyrafuse.analytic import _quadrature, _trusted
from pyrafuse.attributes import (
    EPS_FREQ_DEFAULT,
    P_MAX_DEFAULT,
    VELOCITY_DEFAULT,
    _curvatures,
    _dip_angle_values,
)
from pyrafuse.cli import _f32


def _plane_wave_section(n=128, m=48, k=6, p=0.5, dt=0.004, dx=25.0):
    """cos(w*(t - p*x)) with w on an exact DFT bin, so quadrature is exact."""
    w = 2.0 * math.pi * k / n
    t = np.arange(n, dtype=np.float64)[:, None]
    x = np.arange(m, dtype=np.float64)[None, :]
    return SeismicSection(Grid2(np.cos(w * (t - p * x))), dt=dt, dx=dx), w


def _guard_fires(section) -> bool:
    """Whether the envelope guard leaves some cell of ``section`` untrusted."""
    f = section.grid.data
    h = _quadrature(f, axis=0)
    env2 = f * f + h * h
    return not _trusted(env2, env2.max()).all()


def _slice_fields(vol, t, scales, kernel=None, *, p_max=P_MAX_DEFAULT, eps_freq=EPS_FREQ_DEFAULT):
    """Per scale, the inline dip p, crossline dip q and 0/1 quality of the
    dip builder at time slice ``t``, laid out as the volume attributes read
    them."""
    kernel = kernel if kernel is not None else make_kernel()
    t = vol._check_index("time", t, vol.nt)
    (p, p_ok), (q, q_ok) = attributes._dip_rows(
        vol.data, slice(t, t + 1), scales, kernel, p_max=p_max, eps_freq=eps_freq
    )
    ok = p_ok[:, 0].transpose(0, 2, 1) & q_ok[:, 0]
    p = np.ascontiguousarray(p[:, 0].transpose(0, 2, 1))
    return list(zip(p, q[:, 0], ok.astype(np.float64)))


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
        m = phase_dip(section)
        assert m.kind is AttributeKind.PHASE_DIP
        assert m.scale == 0
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
            assert _guard_fires(section)
        kw = {"p_max": 0.5, "eps_freq": 0.05} if case == "clamp" else {}
        m = phase_dip(section, **kw)
        dip, quality = phase_dip_reference(section, **kw)
        assert same_bits(m.grid.data, dip)
        assert same_bits(m.quality.data, quality)
        assert (m.kind, m.scale, m.dt, m.dx, m.dy, m.meta) == (
            AttributeKind.PHASE_DIP, 0, 0.004, 25.0, None, {}
        )

    def test_parameter_validation(self):
        section, _ = _plane_wave_section()
        with pytest.raises(ParameterError):
            phase_dip(section, p_max=0.0)
        with pytest.raises(ParameterError):
            phase_dip(section, eps_freq=-1.0)


class TestDipAngle:
    def test_matches_closed_form(self):
        p, q = np.full((6, 5), 0.5), np.full((6, 5), -0.25)
        out = _dip_angle_values(p, q, dt=0.004, dx=25.0, dy=12.5, velocity=2000.0)
        s_x = 0.5 * (2000.0 * 0.004 / 2.0) / 25.0
        s_y = -0.25 * (2000.0 * 0.004 / 2.0) / 12.5
        want = math.atan(math.hypot(s_x, s_y))
        assert np.allclose(out, want, atol=1e-12)

    def test_flat_gives_zero_angle(self):
        flat = np.zeros((6, 5))
        out = _dip_angle_values(flat, flat, 0.004, 25.0, 25.0, VELOCITY_DEFAULT)
        assert np.array_equal(out, np.zeros((6, 5)))

    def test_angle_is_bounded_below_right_angle(self):
        steep = np.full((6, 5), 100.0)
        out = _dip_angle_values(steep, steep, 0.004, 25.0, 25.0, VELOCITY_DEFAULT)
        assert np.max(out) < math.pi / 2.0

    def test_records_convention_metadata(self):
        vol, _ = _plane_wave_volume(nt=32, nx=12, ny=10)
        out = attribute_stack(vol, AttributeKind.DIP_ANGLE, 1, time_index=4, velocity=1500.0)
        assert out.meta["velocity"] == repr(1500.0)
        assert out.meta["convention"] == "time-dip"

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("name", ["dt", "dx", "dy"])
    def test_rejects_bad_intervals(self, name, value):
        # the angle's intervals are the volume's, which refuses bad ones
        steps = {"dt": 0.004, "dx": 25.0, "dy": 25.0, name: value}
        with pytest.raises(ParameterError, match=f"{name} must be a positive finite number"):
            SeismicVolume(np.zeros((8, 6, 5)), **steps)


class TestCurvature:
    @staticmethod
    def _k(p, q, dx=25.0, dy=25.0, velocity=VELOCITY_DEFAULT):
        mean2, fold = _curvatures(p, q, 0.004, dx, dy, velocity)
        return mean2 + fold, mean2 - fold

    def test_constant_dip_field_has_exactly_zero_curvature(self):
        k_pos, k_neg = self._k(np.full((8, 7), 0.3), np.full((8, 7), -0.2), dy=12.5)
        assert np.array_equal(k_pos, np.zeros((8, 7)))
        assert np.array_equal(k_neg, np.zeros((8, 7)))

    def test_cylindrical_ramp_recovers_kappa(self):
        # s_x = kappa * X (lateral meters): a linear slope field whose
        # half-gradient is kappa/2, so k_pos = kappa and k_neg = 0
        kappa, dx, dt, v = 2e-4, 25.0, 0.004, 2000.0
        nx, ny = 9, 6
        lateral = (np.arange(nx, dtype=np.float64) - 4.0) * dx
        s_x = kappa * lateral
        p = s_x[:, None] * np.ones(ny) / ((v * dt / 2.0) / dx)
        k_pos, k_neg = self._k(p, np.zeros((nx, ny)), dx=dx, dy=dx, velocity=v)
        assert np.allclose(k_pos, kappa, atol=1e-15)
        assert np.allclose(k_neg, 0.0, atol=1e-15)

    def test_ordering_holds_on_random_fields(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            k_pos, k_neg = self._k(rng.standard_normal((10, 9)), rng.standard_normal((10, 9)))
            assert np.all(k_pos >= k_neg)


class TestDipStack:
    def test_levels_are_tagged_and_expanded(self):
        section, _ = _plane_wave_section(n=128, m=64)
        stack = attribute_stack(section, AttributeKind.PHASE_DIP, 3)
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
        stack = attribute_stack(section, AttributeKind.PHASE_DIP, 3)
        vals = stack.values
        for i in range(3):
            mt, mx = 8 * 2**i, 4 * 2**i
            interior = vals[i][mt:-mt, mx:-mx]
            assert abs(float(np.median(interior)) - 0.5) < 0.02

    def test_stack_values_and_validity_shapes(self):
        section, _ = _plane_wave_section(n=64, m=32)
        stack = attribute_stack(section, AttributeKind.PHASE_DIP, 2)
        assert stack.values.shape == (2, 64, 32)
        assert stack.valid.shape == (2, 64, 32)
        assert stack.valid.dtype == bool

    def test_rejects_oversized_scale_count(self):
        section, _ = _plane_wave_section(n=32, m=16)
        with pytest.raises(SizeError):
            attribute_stack(section, AttributeKind.PHASE_DIP, 6)

    @pytest.mark.parametrize(
        "shape", [(3, 8), (4, 3), (48, 4), (8, 6), (9, 9), (40, 17)], ids=str
    )
    def test_refusal_names_the_largest_accepted_count(self, shape):
        # a section narrower than the kernel support still takes one scale
        section = SeismicSection(Grid2(np.zeros(shape)), dt=1.0, dx=1.0)
        with pytest.raises(SizeError) as err:
            attribute_stack(section, AttributeKind.PHASE_DIP, 9)
        most = int(re.search(r"supports at most (\d+) dip scale", str(err.value)).group(1))
        if most:
            assert attribute_stack(section, AttributeKind.PHASE_DIP, most).scales == most
        with pytest.raises(SizeError, match=f"at most {most} dip scale"):
            attribute_stack(section, AttributeKind.PHASE_DIP, most + 1)

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
        stack = attribute_stack(
            section, AttributeKind.PHASE_DIP, scales, kernel, p_max=p_max, eps_freq=eps_freq
        )
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
        fields = _slice_fields(vol, 48, 2)
        assert len(fields) == 2
        p0, q0, _ = fields[0]
        assert p0.shape == (28, 24)
        expected_p = math.sin(w * 0.4) / math.sin(w)
        expected_q = -math.sin(w * 0.3) / math.sin(w)
        assert abs(float(np.median(p0[2:-2, 2:-2])) - expected_p) < 1e-6
        assert abs(float(np.median(q0[2:-2, 2:-2])) - expected_q) < 1e-6

    def test_bad_time_index(self):
        vol, _ = _plane_wave_volume(nt=32)
        with pytest.raises(BoundsError):
            _slice_fields(vol, 32, 1)

    def test_slice_fields_equal_per_section_reference(self):
        spec = SynthSpec(
            nt=48, nx=16, ny=12, f_peak=12.0, snr_db=10.0, seed=11,
            events=(QuadraticEvent(t0=20, kappa=2e-4), QuadraticEvent(t0=34, kappa=-1e-4)),
        )
        vol, _ = make_synthetic(spec)
        for t in (0, 23, vol.nt - 1):
            fields = _slice_fields(vol, t, 2)
            reference = dip_slice_reference(vol, t, 2)
            assert len(fields) == len(reference) == 2
            for field, want in zip(fields, reference):
                for got, value in zip(field, want):
                    assert same_bits(got, value)

    @pytest.mark.parametrize("volume, p_max, eps_freq", _SLICE_CASES)
    @pytest.mark.parametrize("t", range(45))
    def test_slice_fields_equal_reference_at_every_t(self, t, volume, p_max, eps_freq):
        vol = _SLICE_VOLUMES[volume]()
        kernel = make_kernel(1.0, 1)
        fields = _slice_fields(vol, t, 3, kernel, p_max=p_max, eps_freq=eps_freq)
        reference = _cube_reference("nx>ny", volume, p_max, eps_freq)
        assert len(fields) == len(reference) == 3
        for field, cube in zip(fields, reference):
            for got, value in zip(field, cube):
                assert same_bits(got, value[t])

    def test_slice_cases_clamp_reject_and_guard(self):
        # the exact comparison above only covers the clamp, the eps
        # rejection and the envelope guard if its cases hit them
        section = _packet_volume().crossline_section(5)
        assert _guard_fires(section)
        volume, p_max, eps_freq = _SLICE_CASES[1]
        # scale 0 at every t
        p, q, quality = _cube_reference("nx>ny", volume, p_max, eps_freq)[0]
        assert np.sum(np.abs(p) == p_max) + np.sum(np.abs(q) == p_max) > 0
        assert np.sum(quality == 0.0) > 0

    @pytest.mark.parametrize("scales", [0, -1])
    def test_scales_below_one_is_a_parameter_error(self, scales):
        vol, _ = _plane_wave_volume(nt=32, nx=12, ny=10)
        with pytest.raises(ParameterError, match=f"scales must be >= 1, got {scales}"):
            _slice_fields(vol, 4, scales)
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
            _slice_fields(vol, 4, 1, **kw)

    def test_infeasible_orientation_fails_before_any_work(self, monkeypatch):
        # fixed-y sections (32x40) allow 4 scales, fixed-x sections (32x4)
        # one, unreduced, with the default support-5 kernel
        vol, _ = _plane_wave_volume(nt=32, nx=40, ny=4)

        def no_work(*args, **kwargs):
            raise AssertionError("a section was processed before the size check")

        monkeypatch.setattr(attributes, "_quadrature", no_work)
        with pytest.raises(SizeError, match=r"section 32x4 supports at most 1 dip scale\(s\), requested 2"):
            _slice_fields(vol, 10, 2)


def _no_quadrature(*args, **kwargs):
    raise AssertionError("a quadrature ran before the request was checked")


class TestDipBuilderRequest:
    """``_dip_rows`` is the one entry of the dip stage: it refuses a bad
    request itself, on a section or a volume, before any quadrature."""

    _DATA = {
        "section": lambda: np.random.default_rng(3).standard_normal((32, 12)),
        "volume": lambda: np.random.default_rng(3).standard_normal((32, 12, 10)),
    }

    @pytest.mark.parametrize(
        "scales, kw, error, message",
        [
            (0, {}, ParameterError, "scales must be >= 1, got 0"),
            (1, {"p_max": math.nan}, ParameterError, "p_max must be a positive finite number"),
            (1, {"eps_freq": -1e-3}, ParameterError, "eps_freq must be a positive finite number"),
            (3, {}, SizeError, r"section 32x12 supports at most 2 dip scale\(s\), requested 3"),
        ],
        ids=["scales", "p_max", "eps_freq", "size"],
    )
    @pytest.mark.parametrize("data", sorted(_DATA))
    def test_bad_request_is_refused_before_any_quadrature(self, monkeypatch, data, scales, kw,
                                                           error, message):
        monkeypatch.setattr(attributes, "_quadrature", _no_quadrature)
        request = {"p_max": P_MAX_DEFAULT, "eps_freq": EPS_FREQ_DEFAULT, **kw}
        with pytest.raises(error, match=message):
            attributes._dip_rows(self._DATA[data](), slice(4, 5), scales, make_kernel(), **request)

    def test_volume_size_names_the_x_sections_first(self, monkeypatch):
        # both lateral axes are too narrow for two scales
        monkeypatch.setattr(attributes, "_quadrature", _no_quadrature)
        with pytest.raises(SizeError, match=r"section 32x4 supports at most 1 dip scale\(s\), requested 2"):
            attributes._dip_rows(np.zeros((32, 4, 3)), slice(0, 1), 2, make_kernel(),
                                 p_max=P_MAX_DEFAULT, eps_freq=EPS_FREQ_DEFAULT)


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
            fields = _slice_fields(vol, t, 3, kernel, p_max=p_max, eps_freq=eps_freq)
            for field, cube in zip(fields, reference):
                for got, value in zip(field, cube):
                    assert same_bits(got, value[t])

    def test_batches_hold_the_peak(self, monkeypatch):
        # the base level runs one section at a time and sets the peak; four
        # sections' level 1 together are about one base level
        vol, _ = _plane_wave_volume(nt=96, nx=24, ny=20)

        def peak() -> int:
            _slice_fields(vol, 40, 3)
            tracemalloc.start()
            try:
                _slice_fields(vol, 40, 3)
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
        _slice_fields(vol, 20, 3, make_kernel(1.0, 1))
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
            fields = _slice_fields(vol, t, 3, kernel, p_max=p_max, eps_freq=eps_freq)
            for field, cube in zip(fields, reference):
                for got, value in zip(field, cube):
                    assert same_bits(got, value[t])


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

    @pytest.mark.parametrize(
        "kind", [AttributeKind.CURV_POS, AttributeKind.CURV_NEG], ids=lambda kind: kind.value
    )
    def test_curvature_that_overflows_is_refused_without_a_warning(self, kind):
        # a tiny inline step overflows the slope gradients; the refusal
        # names the kind, and no stack of NaN comes back (warnings are
        # errors in this suite)
        vol = SeismicVolume(
            np.random.default_rng(5).standard_normal((64, 24, 24)), dt=0.004, dx=1e-300, dy=25.0
        )
        message = f"{kind.value} is not finite with dt=0.004, dx=1e-300, dy=25.0 and velocity=2000.0"
        with pytest.raises(ParameterError, match=f"^{message}$"):
            attribute_stack(vol, kind, 2, time_index=30)
        with pytest.raises(ParameterError, match=f"^attribute stage: {message}$"):
            multiscale_attribute(vol, kind, scales=2, time_index=30)
        # the dip angle's arctan saturates instead, so it stays finite
        assert np.isfinite(attribute_stack(vol, AttributeKind.DIP_ANGLE, 2, time_index=30).values).all()

    @pytest.mark.parametrize("velocity", [0.0, -1.0, math.inf, math.nan])
    def test_bad_velocity_fails_before_any_work(self, monkeypatch, velocity):
        vol = _odd_volume()

        def no_work(*args, **kwargs):
            raise AssertionError("a section was processed before the velocity check")

        monkeypatch.setattr(attributes, "_quadrature", no_work)
        for kind in (AttributeKind.DIP_ANGLE, AttributeKind.CURV_POS, AttributeKind.CURV_NEG):
            with pytest.raises(ParameterError, match="velocity must be a positive finite number"):
                attributes._attribute_layers(vol, kind, 2, time_index=20, velocity=velocity)
            with pytest.raises(ParameterError, match="velocity must be a positive finite number"):
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
            lambda vol: attribute_stack(vol.crossline_section(3), AttributeKind.PHASE_DIP, 2),
            lambda vol: attributes._attribute_layers(
                vol.crossline_section(3), AttributeKind.PHASE_DIP, 2, make_kernel(),
                p_max=5.0, eps_freq=1e-3, boundary=_f32,
            ),
            lambda vol: _slice_fields(vol, 10, 2),
            lambda vol: multiscale_attribute(
                vol, AttributeKind.DIP_ANGLE, scales=2, time_index=10
            ),
        ],
        ids=["phase_dip", "dip_stack", "float32_boundary", "dip_slices", "multiscale_attribute"],
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
            stack = attribute_stack(vol.crossline_section(3), AttributeKind.PHASE_DIP, 2)
            fields = _slice_fields(vol, 10, 2)
        for quality in [m.quality.data for m in stack.maps] + [f[2] for f in fields]:
            assert not quality.any()


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

    @pytest.mark.parametrize(
        "data", [Grid2(np.zeros((64, 32))), np.zeros((64, 32))], ids=["Grid2", "ndarray"]
    )
    def test_unsupported_input_type_is_a_config_error(self, data):
        name = type(data).__name__
        with pytest.raises(ConfigError, match=f"^unsupported input type {name}$"):
            attribute_stack(data, AttributeKind.PHASE_DIP, 2)
        with pytest.raises(ConfigError, match=f"^unsupported input type {name}$"):
            multiscale_attribute(data, AttributeKind.PHASE_DIP, scales=2)

    @pytest.mark.parametrize(
        "call, needs",
        [
            (lambda section, vol: phase_dip(vol), "phase dip runs on sections"),
            (lambda section, vol: attribute_stack(vol, AttributeKind.PHASE_DIP, 2),
             "phase dip runs on sections"),
        ],
        ids=["phase_dip", "dip_stack"],
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
        with pytest.raises(ShapeError, match=r"^stack kinds disagree: dip_angle vs dip$"):
            AttributeStack.from_maps((a, b))
        with pytest.raises(ShapeError):
            AttributeStack.from_maps((a, c))
        with pytest.raises(ShapeError):
            AttributeStack.from_maps(())

    def test_constructor_refuses_arrays_fusion_cannot_read(self):
        # a (1, 4, 3) mask would broadcast over the scales, so mean and
        # median fusion would read scale 0 alone; a float mask would reach
        # numpy's invert in median fusion
        values = np.arange(36.0).reshape(3, 4, 3)
        rest = (AttributeKind.PHASE_DIP, 1.0, 1.0, None, {})
        with pytest.raises(ShapeError, match=r"^stack valid shape \(1, 4, 3\) != values shape"):
            AttributeStack(values, np.ones((1, 4, 3), bool), *rest)
        with pytest.raises(ParameterError, match="^stack valid must be bool, got float64$"):
            AttributeStack(values, np.ones((3, 4, 3)), *rest)
        for bad in (values[0], values[:0]):
            with pytest.raises(ShapeError, match=r"^stack values must be \(scales >= 1"):
                AttributeStack(bad, np.ones(bad.shape, bool), *rest)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("values", np.arange(36, dtype=np.int64).reshape(3, 4, 3), "stack values must be float, got int64"),
            ("meta", None, "meta must be a mapping, got None"),
            ("kind", "dip", "kind must be an AttributeKind, got 'dip'"),
            ("dt", -1.0, "dt must be a positive finite number, got -1.0"),
            ("dx", math.inf, "dx must be a positive finite number, got inf"),
            ("dy", 0.0, "dy must be a positive finite number, got 0.0"),
        ],
        ids=["int-values", "no-meta", "kind-tag", "negative-dt", "infinite-dx", "zero-dy"],
    )
    def test_constructor_refuses_fields_fusion_cannot_use(self, name, value, message):
        # fusion can use none of these, so the stack refuses them where it
        # is made, before any fusion work
        fields = dict(values=np.arange(36.0).reshape(3, 4, 3), valid=np.ones((3, 4, 3), bool),
                      kind=AttributeKind.PHASE_DIP, dt=1.0, dx=1.0, dy=None, meta={})
        with pytest.raises(ParameterError) as err:
            AttributeStack(**{**fields, name: value})
        assert str(err.value) == message

    def test_constructor_normalises_intervals_and_copies_meta(self):
        meta = {"k": "v"}
        values = np.arange(36, dtype=np.float32).reshape(3, 4, 3)
        stack = AttributeStack(values, np.ones((3, 4, 3), bool), AttributeKind.CURV_POS, 1, 2, 3, meta)
        meta["k"] = "w"
        assert [(type(x), x) for x in (stack.dt, stack.dx, stack.dy)] == [(float, 1.0), (float, 2.0), (float, 3.0)]
        assert stack.meta == {"k": "v"}
        assert stack.values is values

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
