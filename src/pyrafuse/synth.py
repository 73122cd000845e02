"""Deterministic synthetics with analytic ground truth.

An event places a Ricker wavelet along a surface in (time, lateral
position), evaluated continuously at every sample so sub-sample moveout is
exact and the ground-truth dips are the analytic derivatives of the
surface, never measured from the data:

* plane:      t(x, y) = t0 + sx * x + sy * y            (times in samples)
* quadratic:  t(x)    = t0 + kappa * ((x - cx) * dx)^2 / (v * dt)

The quadratic surface is a depth-domain parabola z = z0 + kappa/2 * X^2
mapped through z = v t / 2, so a curvature attribute using the same
velocity convention recovers kappa (most-positive) and 0 (most-negative).

Faults shift every event by an integer number of samples on all traces at
or beyond the fault position. Noise is white Gaussian, scaled from the
clean-signal power to the requested SNR, drawn from a seeded PCG64
generator; identical specs produce identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeError
from .grid import Grid2, SeismicSection, SeismicVolume, _check_int, _check_positive

NOISE_PRNG = "PCG64"  # numpy default_rng bit generator, recorded in metadata


def _ricker_amplitude(t_seconds: np.ndarray, f_peak: float) -> np.ndarray:
    a = (np.pi * f_peak * t_seconds) ** 2
    return (1.0 - 2.0 * a) * np.exp(-a)


def ricker(f_peak: float, dt: float, half_length: int) -> np.ndarray:
    """Symmetric Ricker wavelet sampled at dt, length 2*half_length + 1.

    w(t) = (1 - 2 pi^2 f^2 t^2) exp(-pi^2 f^2 t^2); peak 1.0 at t = 0,
    zero crossings at t = +/- 1 / (pi f sqrt(2)).

    Raises:
        ParameterError: f_peak not in (0, Nyquist), dt not a positive
            finite number, or half_length not an integer >= 1.
    """
    f_peak = float(f_peak)
    dt = _check_positive("dt", dt)
    if not 0.0 < f_peak < 0.5 / dt:  # NaN fails too
        raise ParameterError(
            f"f_peak must lie in (0, {0.5 / dt:g}) Hz for dt={dt:g}, got {f_peak!r}"
        )
    half_length = _check_int("half_length", half_length, 1)
    t = np.arange(-half_length, half_length + 1, dtype=np.float64) * dt
    return _ricker_amplitude(t, f_peak)


@dataclass(frozen=True)
class PlaneEvent:
    """Planar reflector: time (samples) = t0 + sx * x + sy * y."""

    t0: float
    sx: float = 0.0
    sy: float = 0.0
    amplitude: float = 1.0


@dataclass(frozen=True)
class QuadraticEvent:
    """Parabolic reflector of lateral curvature ``kappa`` (1/m), centered."""

    t0: float
    kappa: float
    amplitude: float = 1.0


@dataclass(frozen=True)
class Fault:
    """Vertical throw (integer samples) applied to traces at x >= trace."""

    trace: int
    throw: int

    def __post_init__(self):
        for name in ("trace", "throw"):
            object.__setattr__(self, name, _check_int(f"fault {name}", getattr(self, name)))


@dataclass(frozen=True)
class SynthSpec:
    """Everything needed to generate one synthetic, reproducibly.

    ``ny`` selects a volume; leave it None for a 2D section. ``snr_db``
    None means noise-free. ``velocity`` is the time-to-depth convention
    shared with the curvature/dip-angle attributes.
    """

    nt: int
    nx: int
    ny: int | None = None
    dt: float = 0.004
    dx: float = 25.0
    dy: float = 25.0
    f_peak: float = 25.0
    velocity: float = 2000.0
    events: tuple = ()
    faults: tuple[Fault, ...] = ()
    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "nt", _check_int("nt", self.nt))
        object.__setattr__(self, "nx", _check_int("nx", self.nx))
        if self.ny is not None:
            object.__setattr__(self, "ny", _check_int("ny", self.ny))
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0))
        if self.nt < 8 or self.nx < 3:
            raise SizeError(f"need nt >= 8 and nx >= 3, got nt={self.nt}, nx={self.nx}")
        if self.ny is not None and self.ny < 3:
            raise SizeError(f"ny must be >= 3 when present, got {self.ny}")
        for name in ("dt", "dx", "dy", "velocity"):
            object.__setattr__(self, name, _check_positive(name, getattr(self, name)))
        if not 0.0 < self.f_peak < 0.5 / self.dt:  # NaN fails too
            raise ParameterError(
                f"f_peak must lie in (0, {0.5 / self.dt:g}) Hz, got {self.f_peak!r}"
            )
        if not self.events:
            raise ParameterError("spec needs at least one event")
        for flt in self.faults:
            if not isinstance(flt, Fault):
                raise ParameterError(f"unsupported fault type {type(flt).__name__}")
            if not 0 <= flt.trace < self.nx:
                raise ParameterError(f"fault trace {flt.trace} outside [0, {self.nx - 1}]")
        if self.snr_db is not None and not np.isfinite(float(self.snr_db)):
            raise ParameterError(f"snr_db must be finite, got {self.snr_db!r}")
        # a sample lies at most |t| + shift samples from an event at time t
        shift = self.nt + sum(abs(flt.throw) for flt in self.faults)
        if not _wavelet_is_finite(shift, self):
            raise ParameterError(f"fault throws of {shift - self.nt} samples are out of range")
        total = 0.0  # bounds every sample, since the wavelet's peak is 1
        for i, ev in enumerate(self.events, start=1):
            _check_event(self, i, ev, shift)
            total += abs(float(ev.amplitude))
            if not math.isfinite(total):
                raise ParameterError(
                    f"event {i}: amplitude={float(ev.amplitude)!r} makes the summed "
                    "amplitudes out of range"
                )


def _check_event(spec: SynthSpec, i: int, ev, shift: int) -> None:
    """Reject event ``i`` if its fields or its wavelet are not finite.

    The event's time is extreme at the lattice corners, so it must be
    finite there, and the wavelet must be finite ``shift`` samples beyond.
    """
    if not isinstance(ev, (PlaneEvent, QuadraticEvent)):
        raise ParameterError(f"unsupported event type {type(ev).__name__}")
    plane = isinstance(ev, PlaneEvent)
    where = f"event {i} ({'plane' if plane else 'quadratic'})"
    if not 0.0 <= float(ev.t0) <= spec.nt - 1:
        raise ParameterError(
            f"{where}: t0={ev.t0!r} outside the time window [0, {spec.nt - 1}]"
        )
    for name in ("sx", "sy", "amplitude") if plane else ("kappa", "amplitude"):
        value = float(getattr(ev, name))
        if not math.isfinite(value):
            raise ParameterError(f"{where}: {name} must be finite, got {value!r}")
    x = np.array([0.0, spec.nx - 1.0])
    if spec.ny is None:
        y = None
    else:
        x, y = x[:, None], np.array([[0.0, spec.ny - 1.0]])
    with np.errstate(all="ignore"):
        t, *dips, _ = _event_surface(spec, ev, x, y)
    reach = float(np.abs(t).max())
    if all(np.isfinite(a).all() for a in dips) and _wavelet_is_finite(reach + shift, spec):
        return
    if plane and (spec.ny is None or abs(ev.sx) * (spec.nx - 1) >= abs(ev.sy) * (spec.ny - 1)):
        name = "sx"
    else:
        name = "sy" if plane else "kappa"
    raise ParameterError(
        f"{where}: {name}={float(getattr(ev, name))!r} puts the event out of range "
        f"({reach:.3g} samples at a lattice corner)"
    )


def _wavelet_is_finite(samples: float, spec: SynthSpec) -> bool:
    """Whether the wavelet is finite ``samples`` from its peak, and so nearer."""
    try:
        seconds = np.array([float(samples) * spec.dt])
    except OverflowError:
        return False
    with np.errstate(all="ignore"):
        return bool(np.isfinite(_ricker_amplitude(seconds, spec.f_peak)).all())


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Analytic truth of the shallowest event at each lateral position.

    For sections: ``dip_p`` spans (nt, nx). For volumes every field spans
    the lateral lattice (nx, ny); curvature maps are present because the
    truth is analytic, not measured.
    """

    dip_p: Grid2
    dip_q: Grid2 | None = None
    k_pos: Grid2 | None = None
    k_neg: Grid2 | None = None


def _event_surface(spec: SynthSpec, ev, x_traces: np.ndarray, y_traces: np.ndarray | None):
    """(time-in-samples surface, dip_p, dip_q, kp, kn, amplitude) of one event."""
    if isinstance(ev, PlaneEvent):
        t = ev.t0 + ev.sx * x_traces
        p = np.full_like(t, float(ev.sx))
        q = np.full_like(t, float(ev.sy))
        if y_traces is not None:
            t = t + ev.sy * y_traces
        kp = np.zeros_like(t)
        kn = np.zeros_like(t)
    else:
        lateral = (x_traces - (spec.nx - 1) / 2.0) * spec.dx
        t = ev.t0 + ev.kappa * lateral**2 / (spec.velocity * spec.dt)
        if y_traces is not None:
            t = np.broadcast_to(t, np.broadcast_shapes(t.shape, y_traces.shape)).copy()
        # dt/dx in samples/trace; the attribute's slope convention then
        # yields s_x = kappa * X, i.e. k_pos = kappa, k_neg = 0.
        p = 2.0 * ev.kappa * lateral * spec.dx / (spec.velocity * spec.dt)
        p = np.broadcast_to(p, t.shape).copy()
        q = np.zeros_like(t)
        kp = np.full_like(t, max(float(ev.kappa), 0.0))
        kn = np.full_like(t, min(float(ev.kappa), 0.0))
    return t, p, q, kp, kn, float(ev.amplitude)


def _fault_shift(spec: SynthSpec, x_traces: np.ndarray) -> np.ndarray:
    shift = np.zeros_like(x_traces, dtype=np.float64)
    for flt in spec.faults:
        shift += float(flt.throw) * (x_traces >= flt.trace)
    return shift


def _render(spec: SynthSpec, surfaces, fault_shift, shape) -> np.ndarray:
    samples = np.arange(spec.nt, dtype=np.float64).reshape((-1,) + (1,) * (len(shape)))
    data = np.zeros((spec.nt,) + shape)
    for t_surface, _p, _q, _kp, _kn, amplitude in surfaces:
        offset_samples = samples - (t_surface + fault_shift)
        data += amplitude * _ricker_amplitude(offset_samples * spec.dt, spec.f_peak)
    return data


def _noise_sigma(clean: np.ndarray, snr_db: float) -> float:
    with np.errstate(over="ignore"):
        power = float(np.mean(clean**2))
    if power == 0.0:
        raise ParameterError("cannot set an SNR for an all-zero signal")
    if not math.isfinite(power):
        raise ParameterError("cannot set an SNR: the event amplitudes are out of range")
    try:
        sigma = math.sqrt(power * 10.0 ** (-snr_db / 10.0))
    except OverflowError:
        sigma = math.inf
    if not math.isfinite(sigma):
        raise ParameterError(f"snr_db={snr_db!r} gives a noise level out of range")
    return sigma


def make_synthetic(spec: SynthSpec):
    """Generate (SeismicSection | SeismicVolume, GroundTruth) from a spec.

    The ground truth is evaluated from the event parameters (shallowest
    event wins at each lateral position); it is never measured from the
    rendered data. The data's meta records the seed, f_peak and any noise.
    """
    x = np.arange(spec.nx, dtype=np.float64)
    if spec.ny is None:
        x_traces, y_traces = x, None
        lateral_shape: tuple[int, ...] = (spec.nx,)
    else:
        x_traces = x[:, None]
        y_traces = np.arange(spec.ny, dtype=np.float64)[None, :]
        lateral_shape = (spec.nx, spec.ny)

    surfaces = [_event_surface(spec, ev, x_traces, y_traces) for ev in spec.events]
    fault_shift = _fault_shift(spec, x_traces)
    data = _render(spec, surfaces, np.broadcast_to(fault_shift, lateral_shape), lateral_shape)

    meta = {"seed": str(spec.seed), "f_peak": repr(float(spec.f_peak))}
    if spec.snr_db is not None:
        sigma = _noise_sigma(data, float(spec.snr_db))
        rng = np.random.default_rng(spec.seed)
        data = data + sigma * rng.standard_normal(data.shape)
        meta.update(snr_db=repr(float(spec.snr_db)), noise_prng=NOISE_PRNG)

    # Shallowest event at each lateral position owns the truth there.
    stacked_t = np.stack([np.broadcast_to(s[0], lateral_shape) for s in surfaces])
    owner = stacked_t.argmin(axis=0)
    def pick(idx):
        chosen = np.stack([np.broadcast_to(s[idx], lateral_shape) for s in surfaces])
        return np.take_along_axis(chosen, owner[None], axis=0)[0]

    dip_p = pick(1)
    dip_q = pick(2)
    k_pos = pick(3)
    k_neg = pick(4)

    if spec.ny is None:
        truth = GroundTruth(dip_p=Grid2(np.broadcast_to(dip_p, (spec.nt, spec.nx)).copy()))
        section = SeismicSection(Grid2(data), dt=spec.dt, dx=spec.dx, label="synthetic", meta=meta)
        return section, truth
    truth = GroundTruth(
        dip_p=Grid2(dip_p),
        dip_q=Grid2(dip_q),
        k_pos=Grid2(k_pos),
        k_neg=Grid2(k_neg),
    )
    volume = SeismicVolume(data, dt=spec.dt, dx=spec.dx, dy=spec.dy, meta=meta)
    return volume, truth


@dataclass(frozen=True)
class NoiseDemoReport:
    """SNR of a trace and of its central-difference derivative, in dB.

    A noise-free run reports both as +inf (the "clean" sentinel).
    """

    snr_trace_db: float
    snr_derivative_db: float

    @property
    def clean(self) -> bool:
        return math.isinf(self.snr_trace_db)


def derivative_noise_demo(
    trace_len: int = 2048,
    snr_db: float | None = 10.0,
    seed: int = 0,
    *,
    f_peak: float = 25.0,
    dt: float = 0.004,
) -> NoiseDemoReport:
    """Show how differentiation amplifies noise on a Ricker-reflectivity trace.

    Builds a sparse random reflectivity convolved with a Ricker wavelet,
    adds white noise at ``snr_db`` (None for clean), and compares SNR
    before and after a central-difference derivative. White noise loses
    half its variance under central differences but band-limited signal
    loses far more, so the derivative SNR is lower.

    Raises:
        ParameterError: trace_len not an integer, or seed not an integer
            >= 0.
        SizeError: trace_len < 64.
    """
    trace_len = _check_int("trace_len", trace_len)
    if trace_len < 64:
        raise SizeError(f"trace_len must be >= 64, got {trace_len}")
    rng = np.random.default_rng(_check_int("seed", seed, 0))
    reflectivity = rng.standard_normal(trace_len) * (rng.random(trace_len) < 0.04)
    wavelet = ricker(f_peak, dt, half_length=max(2, int(round(1.5 / (f_peak * dt)))))
    clean = np.convolve(reflectivity, wavelet, mode="same")
    if snr_db is None:
        return NoiseDemoReport(math.inf, math.inf)
    sigma = _noise_sigma(clean, float(snr_db))
    noise = sigma * rng.standard_normal(trace_len)
    d_clean = np.gradient(clean, edge_order=1)
    d_noise = np.gradient(noise, edge_order=1)
    snr_trace = 10.0 * math.log10(np.mean(clean**2) / np.mean(noise**2))
    snr_deriv = 10.0 * math.log10(np.mean(d_clean**2) / np.mean(d_noise**2))
    return NoiseDemoReport(snr_trace, snr_deriv)


# --- plain-text spec files -------------------------------------------------
#
# key=value lines, '#' starts a comment, blank lines ignored. Repeated
# `event=` / `fault=` lines accumulate; their values are comma-separated
# fields, the first naming the shape:
#
#     event = plane, t0=40, sx=0.5, sy=0, amp=1.0
#     event = quadratic, t0=60, kappa=1e-4, amp=0.8
#     fault = 48, 4            # trace index, throw in samples
#
_SCALAR_KEYS = {
    "nt": int, "nx": int, "ny": int,
    "dt": float, "dx": float, "dy": float,
    "f_peak": float, "velocity": float, "snr_db": float, "seed": int,
}


def _parse_fields(body: str, line_no: int) -> dict[str, str]:
    fields = {}
    for chunk in body.split(",")[1:]:
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ParameterError(f"line {line_no}: expected name=value, got {chunk!r}")
        name, _, value = chunk.partition("=")
        fields[name.strip()] = value.strip()
    return fields


def _parse_event(body: str, line_no: int):
    shape = body.split(",")[0].strip().lower()
    fields = _parse_fields(body, line_no)
    try:
        if shape == "plane":
            return PlaneEvent(
                t0=float(fields["t0"]),
                sx=float(fields.get("sx", 0.0)),
                sy=float(fields.get("sy", 0.0)),
                amplitude=float(fields.get("amp", 1.0)),
            )
        if shape == "quadratic":
            return QuadraticEvent(
                t0=float(fields["t0"]),
                kappa=float(fields["kappa"]),
                amplitude=float(fields.get("amp", 1.0)),
            )
    except KeyError as exc:
        raise ParameterError(f"line {line_no}: event is missing field {exc}") from None
    except ValueError as exc:
        raise ParameterError(f"line {line_no}: {exc}") from None
    raise ParameterError(f"line {line_no}: unknown event shape {shape!r}")


def _parse_fault(body: str, line_no: int) -> Fault:
    parts = [p.strip() for p in body.split(",")]
    if len(parts) != 2:
        raise ParameterError(f"line {line_no}: fault needs 'trace, throw', got {body!r}")
    try:
        return Fault(trace=int(parts[0]), throw=int(parts[1]))
    except ValueError as exc:
        raise ParameterError(f"line {line_no}: {exc}") from None


def parse_synth_spec(text: str) -> SynthSpec:
    """Parse the plain-text SynthSpec grammar (see module comment above).

    Raises:
        ParameterError: malformed line, unknown key, missing nt/nx, or any
            SynthSpec domain violation.
    """
    scalars: dict = {}
    events: list = []
    faults: list[Fault] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, body = line.partition("=")
        key = key.strip().lower()
        body = body.strip()
        if key == "event":
            events.append(_parse_event(body, line_no))
        elif key == "fault":
            faults.append(_parse_fault(body, line_no))
        elif key in _SCALAR_KEYS:
            try:
                scalars[key] = _SCALAR_KEYS[key](body)
            except ValueError as exc:
                raise ParameterError(f"line {line_no}: {exc}") from None
        else:
            raise ParameterError(f"line {line_no}: unknown key {key!r}")
    if "nt" not in scalars or "nx" not in scalars:
        raise ParameterError("spec must set nt and nx")
    return SynthSpec(events=tuple(events), faults=tuple(faults), **scalars)
