from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import correlation_lag
from pyrafuse import (
    Fault,
    ParameterError,
    PyrafuseError,
    PlaneEvent,
    QuadraticEvent,
    SeismicSection,
    SeismicVolume,
    SizeError,
    SynthSpec,
    derivative_noise_demo,
    make_synthetic,
    parse_synth_spec,
    phase_dip,
    ricker,
)


class TestRicker:
    def test_peak_is_one_at_center(self):
        w = ricker(25.0, 0.004, 20)
        assert w[20] == 1.0
        assert np.max(w) == 1.0

    def test_symmetry(self):
        w = ricker(25.0, 0.004, 15)
        assert np.array_equal(w, w[::-1])

    def test_side_lobes_are_negative(self):
        w = ricker(25.0, 0.004, 20)
        assert w.min() < -0.3

    def test_validation(self):
        with pytest.raises(ParameterError):
            ricker(0.0, 0.004, 10)
        with pytest.raises(ParameterError):
            ricker(200.0, 0.004, 10)  # at/above Nyquist for dt=4 ms
        with pytest.raises(ParameterError):
            ricker(25.0, -0.004, 10)
        with pytest.raises(ParameterError):
            ricker(25.0, 0.004, 0)


class TestProvenance:
    def test_clean_section_records_seed_and_f_peak(self):
        spec = SynthSpec(nt=32, nx=8, events=(PlaneEvent(t0=10, sx=0.0),), seed=4, f_peak=20)
        section, _ = make_synthetic(spec)
        assert section.label == "synthetic"
        assert section.meta == {"seed": "4", "f_peak": "20.0"}

    def test_noisy_volume_records_the_noise(self):
        spec = SynthSpec(
            nt=32, nx=4, ny=3, events=(PlaneEvent(t0=10, sx=0.0),), seed=2, snr_db=6,
        )
        volume, _ = make_synthetic(spec)
        assert volume.meta == {
            "seed": "2", "f_peak": "25.0", "snr_db": "6.0", "noise_prng": "PCG64",
        }


class TestPlaneEvents:
    def test_flat_event_peaks_on_its_row(self):
        spec = SynthSpec(nt=64, nx=16, events=(PlaneEvent(t0=30, sx=0.0),), seed=0)
        section, truth = make_synthetic(spec)
        peaks = np.argmax(section.grid.data, axis=0)
        assert np.all(peaks == 30)
        assert np.array_equal(truth.dip_p.data, np.zeros((64, 16)))

    def test_adjacent_trace_lag_matches_dip(self):
        spec = SynthSpec(nt=128, nx=8, events=(PlaneEvent(t0=60, sx=0.5),), seed=0)
        section, _ = make_synthetic(spec)
        data = section.grid.data
        for x in (2, 4):
            lag = correlation_lag(data[:, x], data[:, x + 1])
            assert lag == pytest.approx(0.5, abs=0.01)

    def test_truth_carries_the_constant_dip(self):
        spec = SynthSpec(nt=64, nx=16, events=(PlaneEvent(t0=20, sx=0.37),), seed=0)
        _, truth = make_synthetic(spec)
        assert np.all(truth.dip_p.data == 0.37)

    def test_shallowest_event_owns_the_truth(self):
        # event B starts deeper but rises with x and crosses above A
        a = PlaneEvent(t0=30, sx=0.0)
        b = PlaneEvent(t0=45, sx=-1.0)
        spec = SynthSpec(nt=96, nx=32, events=(a, b), seed=0)
        _, truth = make_synthetic(spec)
        assert truth.dip_p.data[0, 0] == 0.0  # column 0: A (30) above B (45)
        assert truth.dip_p.data[0, 31] == -1.0  # column 31: B at 14 beats A

    def test_amplitude_scales_the_wavelet(self):
        base = SynthSpec(nt=64, nx=8, events=(PlaneEvent(t0=30, sx=0.0),), seed=0)
        loud = SynthSpec(
            nt=64, nx=8, events=(PlaneEvent(t0=30, sx=0.0, amplitude=2.0),), seed=0
        )
        s1, _ = make_synthetic(base)
        s2, _ = make_synthetic(loud)
        assert np.allclose(s2.grid.data, 2.0 * s1.grid.data, atol=1e-15)


class TestQuadraticEvents:
    def test_apex_is_centered_and_truth_matches_construction(self):
        kappa = 1e-4
        spec = SynthSpec(
            nt=96, nx=25, events=(QuadraticEvent(t0=40, kappa=kappa),), seed=0
        )
        section, truth = make_synthetic(spec)
        peaks = np.argmax(section.grid.data, axis=0)
        assert peaks[12] == 40  # apex at the middle trace
        assert peaks[0] > 40 and peaks[24] > 40  # flanks arrive later
        assert np.array_equal(peaks, peaks[::-1])  # symmetric about the apex
        # truth dip: p(x) = 2*kappa*(x-cx)*dx^2 / (v*dt)
        x = np.arange(25, dtype=np.float64)
        want = 2.0 * kappa * (x - 12.0) * 25.0**2 / (2000.0 * 0.004)
        assert np.allclose(truth.dip_p.data[0], want, atol=1e-12)
        assert np.all(truth.k_pos is None or truth.k_pos.data == kappa)

    def test_volume_truth_has_curvatures(self):
        spec = SynthSpec(
            nt=64, nx=12, ny=10, events=(QuadraticEvent(t0=30, kappa=5e-5),), seed=0
        )
        _, truth = make_synthetic(spec)
        assert truth.k_pos is not None and np.all(truth.k_pos.data == 5e-5)
        assert truth.k_neg is not None and np.all(truth.k_neg.data == 0.0)


class TestFaults:
    def test_throw_shifts_traces_after_the_fault(self):
        clean = SynthSpec(nt=96, nx=16, events=(PlaneEvent(t0=40, sx=0.0),), seed=0)
        faulted = SynthSpec(
            nt=96,
            nx=16,
            events=(PlaneEvent(t0=40, sx=0.0),),
            faults=(Fault(trace=8, throw=5),),
            seed=0,
        )
        s1, _ = make_synthetic(clean)
        s2, _ = make_synthetic(faulted)
        assert np.array_equal(s2.grid.data[:, :8], s1.grid.data[:, :8])
        assert np.array_equal(s2.grid.data[45:60, 8:], s1.grid.data[40:55, 8:])

    def test_fault_validation(self):
        with pytest.raises(ParameterError):
            SynthSpec(nt=64, nx=8, events=(PlaneEvent(t0=30),), faults=(Fault(trace=99, throw=2),))
        with pytest.raises(ParameterError):
            Fault(trace=4, throw=1.5)  # type: ignore[arg-type]


class TestNoise:
    def test_snr_is_calibrated(self):
        spec = SynthSpec(
            nt=256,
            nx=32,
            events=tuple(PlaneEvent(t0=t, sx=0.2) for t in range(20, 240, 30)),
            snr_db=10.0,
            seed=3,
        )
        noisy, _ = make_synthetic(spec)
        clean, _ = make_synthetic(
            SynthSpec(nt=256, nx=32, events=spec.events, snr_db=None, seed=3)
        )
        noise = noisy.grid.data - clean.grid.data
        snr = 10.0 * math.log10(
            float(np.mean(clean.grid.data**2)) / float(np.mean(noise**2))
        )
        assert snr == pytest.approx(10.0, abs=0.5)

    def test_seed_reproducibility(self):
        spec = SynthSpec(nt=64, nx=8, events=(PlaneEvent(t0=30),), snr_db=5.0, seed=11)
        a, _ = make_synthetic(spec)
        b, _ = make_synthetic(spec)
        assert np.array_equal(a.grid.data, b.grid.data)
        other = SynthSpec(nt=64, nx=8, events=(PlaneEvent(t0=30),), snr_db=5.0, seed=12)
        c, _ = make_synthetic(other)
        assert not np.array_equal(a.grid.data, c.grid.data)

    def test_dip_recovery_on_clean_section(self):
        # ties the generator to the dip estimator: 5% RMS in the live band
        spec = SynthSpec(
            nt=384,
            nx=96,
            events=tuple(PlaneEvent(t0=t, sx=0.5) for t in range(10, 380, 100)),
            f_peak=2.5,
            seed=0,
        )
        section, truth = make_synthetic(spec)
        m = phase_dip(section)
        interior = (slice(8, -8), slice(4, -4))
        ok = m.quality.data[interior] > 0.5
        err = m.grid.data[interior][ok] - truth.dip_p.data[interior][ok]
        assert ok.mean() > 0.9
        assert float(np.sqrt(np.mean(err**2))) < 0.05 * 0.5


class TestSpecValidation:
    def test_dimension_and_event_domains(self):
        with pytest.raises(SizeError):
            SynthSpec(nt=4, nx=8, events=(PlaneEvent(t0=2),))
        with pytest.raises(SizeError):
            SynthSpec(nt=64, nx=2, events=(PlaneEvent(t0=2),))
        with pytest.raises(SizeError, match="^ny must be >= 3 when present, got 2$"):
            SynthSpec(nt=64, nx=8, ny=2, events=(PlaneEvent(t0=2),))
        with pytest.raises(ParameterError):
            SynthSpec(nt=64, nx=8, events=())
        with pytest.raises(ParameterError):
            SynthSpec(nt=64, nx=8, events=(PlaneEvent(t0=80),))  # outside window
        with pytest.raises(ParameterError):
            SynthSpec(nt=64, nx=8, events=(PlaneEvent(t0=30),), dt=-1.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"f_peak": math.nan}, "f_peak must lie in"),
            ({"f_peak": math.inf}, "f_peak must lie in"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"events": (PlaneEvent(t0=3), PlaneEvent(t0=9, sx=math.nan))},
             r"event 2 \(plane\): sx must be finite, got nan"),
            ({"events": (PlaneEvent(t0=9, sy=-math.inf),)},
             r"event 1 \(plane\): sy must be finite, got -inf"),
            ({"events": (PlaneEvent(t0=9, amplitude=math.inf),)},
             r"event 1 \(plane\): amplitude must be finite"),
            ({"events": (QuadraticEvent(t0=9, kappa=float("1e400")),)},
             r"event 1 \(quadratic\): kappa must be finite, got inf"),
            ({"events": (QuadraticEvent(t0=9, kappa=1e-4, amplitude=math.nan),)},
             r"event 1 \(quadratic\): amplitude must be finite"),
            ({"events": (PlaneEvent(t0=9, sx=1e300),)},
             r"event 1 \(plane\): sx=1e\+300 puts the event out of range"),
            ({"events": (PlaneEvent(t0=9), PlaneEvent(t0=9, sx=0.1, sy=-1e300)), "ny": 4},
             r"event 2 \(plane\): sy=-1e\+300 puts the event out of range"),
            ({"events": (QuadraticEvent(t0=9, kappa=1e290),)},
             r"event 1 \(quadratic\): kappa=1e\+290 puts the event out of range"),
            ({"events": (PlaneEvent(t0=9, amplitude=1e308),) * 2},
             r"event 2: amplitude=1e\+308 makes the summed amplitudes out of range"),
            ({"faults": (Fault(trace=2, throw=10**400),)}, "fault throws of 1000"),
            ({"faults": ((8, 2),)}, "unsupported fault type tuple"),
            ({"snr_db": math.inf}, "snr_db must be finite, got inf"),
            ({"events": (PlaneEvent(t0=9), Fault(trace=2, throw=1))},
             "unsupported event type Fault"),
        ],
    )
    def test_fields_that_break_synthesis_are_named(self, kwargs, message):
        spec = {"nt": 16, "nx": 5, "events": (PlaneEvent(t0=9),), **kwargs}
        with pytest.raises(ParameterError, match=message):
            SynthSpec(**spec)

    def test_steep_finite_events_still_synthesize(self):
        # far outside the window the wavelet is exactly zero: legal, silent
        spec = SynthSpec(
            nt=16, nx=5, ny=4, events=(PlaneEvent(t0=9, sx=1e150, sy=1e150),), snr_db=None
        )
        volume, _ = make_synthetic(spec)
        assert volume.data[9, 0, 0] == 1.0
        assert not volume.data[:, 1:].any() and not volume.data[:, :, 1:].any()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"events": (PlaneEvent(t0=9, amplitude=1e200),), "snr_db": 10.0},
             "event amplitudes are out of range"),
            ({"events": (PlaneEvent(t0=9),), "snr_db": -5000.0}, "noise level out of range"),
            ({"events": (PlaneEvent(t0=9, amplitude=1e150),), "snr_db": -3000.0},
             "noise level out of range"),
            ({"events": (PlaneEvent(t0=9, amplitude=0.0),), "snr_db": 10.0},
             "cannot set an SNR for an all-zero signal"),
        ],
    )
    def test_noise_out_of_range_is_a_parameter_error(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            make_synthetic(SynthSpec(nt=16, nx=5, **kwargs))

    def test_volume_synthesis_shape(self):
        spec = SynthSpec(nt=32, nx=8, ny=6, events=(PlaneEvent(t0=16, sx=0.1, sy=0.2),), seed=0)
        vol, truth = make_synthetic(spec)
        assert isinstance(vol, SeismicVolume)
        assert vol.data.shape == (32, 8, 6)
        assert truth.dip_q is not None and np.all(truth.dip_q.data == 0.2)

    def test_section_synthesis_type(self):
        spec = SynthSpec(nt=32, nx=8, events=(PlaneEvent(t0=16),), seed=0)
        section, _ = make_synthetic(spec)
        assert isinstance(section, SeismicSection)


class TestSpecGrammar:
    def test_full_round_trip(self):
        text = """
        # comment line
        nt = 64          # trailing comment
        nx = 16
        dt = 0.002
        dx = 12.5
        f_peak = 30
        seed = 42
        snr_db = 12
        event = plane, t0=20, sx=0.25, amp=2
        event = quadratic, t0=40, kappa=1e-4
        fault = 8, 3
        """
        spec = parse_synth_spec(text)
        assert (spec.nt, spec.nx, spec.ny) == (64, 16, None)
        assert spec.dt == 0.002 and spec.dx == 12.5
        assert spec.f_peak == 30.0 and spec.seed == 42 and spec.snr_db == 12.0
        assert isinstance(spec.events[0], PlaneEvent)
        assert spec.events[0].amplitude == 2.0
        assert isinstance(spec.events[1], QuadraticEvent)
        assert spec.faults == (Fault(trace=8, throw=3),)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParameterError) as err:
            parse_synth_spec("nt = 64\nnx = 16\nbogus line\nevent = plane, t0=10")
        assert "line 3" in str(err.value)
        with pytest.raises(ParameterError) as err:
            parse_synth_spec("nt = 64\nnx = 16\nevent = blob, t0=10")
        assert "line 3" in str(err.value)

    def test_unknown_key_and_missing_dims(self):
        with pytest.raises(ParameterError):
            parse_synth_spec("nt = 64\nnx = 16\nwhat = 3\nevent = plane, t0=10")
        with pytest.raises(ParameterError):
            parse_synth_spec("nx = 16\nevent = plane, t0=10")

    def test_event_field_errors(self):
        with pytest.raises(ParameterError) as err:
            parse_synth_spec("nt = 64\nnx = 16\nevent = plane, sx=0.5")
        assert "t0" in str(err.value)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("event = plane, , t0", "line 3: expected name=value, got 't0'"),
            ("fault = 1, 2, 3", "line 3: fault needs 'trace, throw', got '1, 2, 3'"),
        ],
        ids=["event-field", "fault-fields"],
    )
    def test_malformed_field_lists(self, line, message):
        with pytest.raises(ParameterError) as err:
            parse_synth_spec(f"nt = 64\nnx = 16\n{line}")
        assert str(err.value) == message


_SPEC_LINES = (
    "nt = 24", "nx = 7", "ny = 4", "dt = 0.004", "dx = 25", "dy = 20", "f_peak = 25",
    "velocity = 2000", "snr_db = 10", "seed = 3",
    "event = plane, t0=6, sx=0.5, sy=-0.25, amp=1.5",
    "event = quadratic, t0=14, kappa=1e-4, amp=-2",
    "fault = 3, 2",
)
_SIZE_VALUES = ("0", "-3", "3", "5", "9", "", "x", "2.5", "nan")
_FIELD_VALUES = (
    "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e308", "-1e308", "1e300", "1e200",
    "1e154", "1e150", "1e-320", "-1e-320", "0", "-0", "-1", "1", "-5000", "3000", "",
    "x", "0x10", "1_0", "9" * 40, "-" + "9" * 400, "23", "24", "2.5",
)


def test_spec_text_raises_only_package_errors_without_warnings(hypothesis_home):
    """Edited and garbage spec lines parse and synthesize, or raise a
    PyrafuseError; numpy never warns on the way."""

    garbage = st.text(" =,#.-+0129eanxtyskpf", max_size=14)

    @settings(database=None, deadline=None, max_examples=60)
    @given(
        drop=st.sets(st.integers(2, len(_SPEC_LINES) - 1), max_size=3),
        edits=st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 3), st.sampled_from(_FIELD_VALUES)),
            min_size=1,
            max_size=3,
        ),
        extra=st.lists(st.tuples(st.integers(0, 15), garbage), max_size=1),
    )
    def check(drop, edits, extra):
        lines = [line for i, line in enumerate(_SPEC_LINES) if i not in drop]
        # half of the edits go to the event and fault lines
        shapes = [i for i, line in enumerate(lines) if line.startswith(("event", "fault"))]
        for at, field, text in edits:
            at = at % len(lines) if at % 2 or not shapes else shapes[at % len(shapes)]
            key, _, body = lines[at].partition(" = ")
            if key in ("nt", "nx", "ny"):  # sizes from a pool of small ones
                text = _SIZE_VALUES[len(text) % len(_SIZE_VALUES)]
            if key == "event":
                parts = body.split(", ")
                k = 1 + field % (len(parts) - 1)
                parts[k] = parts[k].partition("=")[0] + "=" + text
                body = ", ".join(parts)
            elif key == "fault":
                parts = body.split(", ")
                parts[field % 2] = text
                body = ", ".join(parts)
            else:
                body = text
            lines[at] = f"{key} = {body}"
        for at, text in extra:
            lines.insert(at % (len(lines) + 1), text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                spec = parse_synth_spec("\n".join(lines))
                # small grids only: a garbage line may set a large size
                if spec.nt * spec.nx * (spec.ny or 1) <= 4096:
                    make_synthetic(spec)
            except PyrafuseError:
                pass
        assert [str(w.message) for w in caught] == []

    check()


class TestDerivativeDemo:
    def test_differentiation_degrades_snr(self):
        report = derivative_noise_demo(trace_len=2048, snr_db=10.0, seed=0)
        assert report.snr_derivative_db < report.snr_trace_db

    def test_clean_run_reports_infinite_snr(self):
        report = derivative_noise_demo(trace_len=512, snr_db=None, seed=0)
        assert math.isinf(report.snr_trace_db)
        assert report.clean

    def test_reproducible(self):
        a = derivative_noise_demo(trace_len=512, snr_db=6.0, seed=4)
        b = derivative_noise_demo(trace_len=512, snr_db=6.0, seed=4)
        assert a == b

    def test_rejects_short_traces(self):
        with pytest.raises(SizeError):
            derivative_noise_demo(trace_len=32)

    def test_white_noise_difference_variance_halves(self):
        # central differences of white noise: var = sigma^2 / 2
        rng = np.random.default_rng(21)
        noise = rng.standard_normal(1_000_000)
        diff = np.gradient(noise)
        ratio = float(np.var(diff[1:-1]) / np.var(noise))
        assert ratio == pytest.approx(0.5, rel=0.05)
