"""The benchmark's three workloads: inputs from the seed, one op, its checks.

Every workload is a closed loop driven by one caller in one process: the
next op starts when the previous one has returned. The program runs at its
defaults (its volume pool has ``pyrafuse.worker_count()`` threads).

* ``section-512``: phase dip over 4 scales with median fusion on a 512x512
  section (5 Hz Ricker, plane events with sx=0.3 every 40 samples, 10 dB).
  The noise is drawn again for every op, so no two ops share an input. This
  is the desk-scale use of the method; it never touches the volume path,
  the thread pool, files or interpreter start-up.
* ``volume-slice``: dip angle over 4 scales on one 256x64x64 volume of
  dipping planes at 10 dB, at a time index drawn per op. Nearly all of the
  op is the per-section dip fields: a full 2D pyramid on each of the nx + ny
  sections, i.e. many small calls of the kernels ``section-512`` makes
  once on a large array.
* ``cli-ingest``: two ``python -m pyrafuse.cli`` processes per op, a
  ``segy-import`` of an IBM-float survey (100x100 traces of 500 samples)
  and a ``pipeline`` on a 512x512 section file. Only this workload pays
  interpreter and numpy start-up, reads and writes files, decodes IBM floats
  and runs the CLI's float32-rounded stack builder.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import segyfix
import spans

SCALES = spans.SCALES
SNR_DB = 10.0
F_PEAK = 5.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
IBM_REL_TOL = 2.0**-20  # IBM round trip of float32 samples (acceptance check A10)
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    """An op's output failed a correctness check."""


def op_seed(seed: int, i: int) -> int:
    """Seed of op ``i``'s input; ops never share one."""
    return seed * 100_000 + i


def _noise_sigma(clean: np.ndarray, snr_db: float) -> float:
    # the same formula make_synthetic uses, so clean + noise reproduces
    # make_synthetic(spec with that seed) bit for bit
    power = float(np.mean(clean**2))
    return math.sqrt(power * 10.0 ** (-snr_db / 10.0))


def _interior_rmse(values: np.ndarray, truth: np.ndarray, rim: tuple[int, int]) -> float:
    window = (slice(rim[0], -rim[0]), slice(rim[1], -rim[1]))
    err = values[window] - truth[window]
    return float(np.sqrt(np.mean(err * err)))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def section_spec(pf, seed: int | None):
    return pf.SynthSpec(
        nt=512, nx=512, f_peak=F_PEAK,
        events=tuple(pf.PlaneEvent(t0=t, sx=0.3) for t in range(24, 488, 40)),
        snr_db=None if seed is None else SNR_DB, seed=0 if seed is None else seed,
    )


class Workload:
    name = ""
    quality_ops = 16  # truth_rmse is the mean over a run's first ops
    traced_health_ops = 3  # data-health counters average the first traced ops
    rmse_bound = 0.0  # per-op correctness bound on truth_rmse
    rim = (0, 0)  # interior margin (rows, cols) for truth_rmse
    truth_unit = "samples/trace"  # the attribute's unit, in which truth_rmse is
    memory_passes = 1  # peak_alloc_mb is the median over this many ops

    def __init__(self, pf, seed: int, workdir: str):
        self.pf = pf
        self.seed = seed
        self.workdir = workdir
        self.synth_ms = 0.0

    def import_numpy_ms(self) -> float | None:
        """numpy's import time in a fresh CLI process; None when no op starts one."""
        return None

    def _score(self, values: np.ndarray) -> float:
        """Check a fused map's shape and finiteness; return its truth_rmse."""
        if values.shape != self.truth.shape:
            raise CheckFailed(f"output shape {values.shape}, expected {self.truth.shape}")
        if not np.isfinite(values).all():
            raise CheckFailed("output holds non-finite values")
        rmse = _interior_rmse(values, self.truth, self.rim)
        if not rmse < self.rmse_bound:
            raise CheckFailed(f"truth_rmse {rmse:.4g} not under {self.rmse_bound}")
        return rmse

    def _synth(self, spec):
        start = time.perf_counter()
        made = self.pf.make_synthetic(spec)
        self.synth_ms += (time.perf_counter() - start) * 1e3
        return made


class InProcess(Workload):
    """A workload whose op is one ``multiscale_attribute`` call."""

    def op(self, x):
        return self.pf.multiscale_attribute(
            x[0], self.kind, scales=SCALES,
            fusion=self.pf.FusionSpec.median(), **x[1],
        )

    def traced(self, x, recorder):
        saved = spans.install(recorder)
        try:
            recorder.begin_op()
            try:
                return self.op(x)
            finally:
                recorder.end_op()
        finally:
            spans.uninstall(saved)

    def peak_alloc(self, x) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            self.op(x)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def check(self, x, out) -> tuple[str, float]:
        rmse = self._score(out.grid.data)
        return _digest(out.grid.data, out.quality.data), rmse


class Section512(InProcess):
    name = "section-512"
    rmse_bound = 0.30
    rim = (64, 32)  # coarsest scale's border: 8*2**3 rows, 4*2**3 columns

    def setup(self) -> None:
        pf = self.pf
        self.kind = pf.AttributeKind.PHASE_DIP
        clean, truth = self._synth(section_spec(pf, None))
        self.clean = clean.grid.data
        self.sigma = _noise_sigma(self.clean, SNR_DB)
        self.truth = truth.dip_p.data
        self.dt, self.dx = clean.dt, clean.dx

    def input(self, i: int):
        pf = self.pf
        noise = np.random.default_rng(op_seed(self.seed, i)).standard_normal(self.clean.shape)
        data = self.clean + self.sigma * noise
        return pf.SeismicSection(pf.Grid2(data), dt=self.dt, dx=self.dx, label="synthetic"), {}


class VolumeSlice(InProcess):
    name = "volume-slice"
    quality_ops = 12
    memory_passes = 3  # the pool's queue makes one op's peak vary run to run
    rmse_bound = 0.05
    truth_unit = "rad"
    rim = (8, 8)
    # Slices above t=32 cut above the first reflector on part of the
    # lattice, where there is no dip to recover.
    t_range = (32, 240)

    def setup(self) -> None:
        pf = self.pf
        self.kind = pf.AttributeKind.DIP_ANGLE
        spec = pf.SynthSpec(
            nt=256, nx=64, ny=64, f_peak=F_PEAK,
            events=tuple(pf.PlaneEvent(t0=t, sx=0.3, sy=0.2) for t in range(24, 232, 40)),
            snr_db=SNR_DB, seed=self.seed,
        )
        self.volume, truth = self._synth(spec)
        half_step = 2000.0 * spec.dt / 2.0  # the default velocity's time-to-depth step
        self.truth = np.arctan(
            np.hypot(truth.dip_p.data * (half_step / spec.dx), truth.dip_q.data * (half_step / spec.dy))
        )

    def input(self, i: int):
        # golden-ratio steps from a seeded start spread any run of ops evenly
        # over the time range, so truth_rmse over the first ops does not hang
        # on which slices a seed happens to pick
        start = np.random.default_rng(self.seed).random()
        lo, hi = self.t_range
        t = lo + int(((start + i * GOLDEN) % 1.0) * (hi - lo))
        return self.volume, {"time_index": t}


class CliIngest(Workload):
    """Two CLI processes per op: ``segy-import`` then ``pipeline``.

    Ops cycle through ``sections`` section files, each with its own noise,
    so truth_rmse averages several noise draws like ``section-512``.
    """

    name = "cli-ingest"
    sections = 8
    quality_ops = 8
    traced_health_ops = 1
    rmse_bound = 0.30
    rim = (64, 32)
    shape = (500, 100, 100)

    def __init__(self, pf, seed: int, workdir: str):
        super().__init__(pf, seed, workdir)
        src = os.path.dirname(os.path.dirname(pf.__file__))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p
        )
        self.path = {k: os.path.join(workdir, k) for k in ("survey.sgy", "imported.pfg", "fused.pfg")}

    def setup(self) -> None:
        pf = self.pf
        ns, n_il, n_xl = self.shape
        spec = pf.SynthSpec(
            nt=ns, nx=n_il, ny=n_xl, f_peak=F_PEAK,
            events=tuple(pf.PlaneEvent(t0=t, sx=0.3, sy=-0.2) for t in range(40, 480, 120)),
            snr_db=SNR_DB, seed=self.seed,
        )
        volume, _ = self._synth(spec)
        self.source = volume.data.astype(np.float32)
        rng = np.random.default_rng(op_seed(self.seed, 99_999))
        if segyfix.check_encoder(self.source, pf.encode_ibm32, 2000, rng):
            raise CheckFailed("vectorised IBM encoder disagrees with pyrafuse.encode_ibm32")
        segyfix.write_segy(self.path["survey.sgy"], self.source, dt_us=int(round(spec.dt * 1e6)))

        clean, truth = self._synth(section_spec(pf, None))
        sigma = _noise_sigma(clean.grid.data, SNR_DB)
        for k in range(self.sections):
            noise = np.random.default_rng(op_seed(self.seed, k)).standard_normal(clean.grid.shape)
            section = pf.SeismicSection(pf.Grid2(clean.grid.data + sigma * noise),
                                        dt=clean.dt, dx=clean.dx, label="synthetic")
            pf.write_grid(os.path.join(self.workdir, f"section{k}.pfg"), section)
        self.truth = truth.dip_p.data

    def input(self, i: int):
        """The op's two command lines; earlier outputs are removed first."""
        for key in ("imported.pfg", "fused.pfg"):
            if os.path.exists(self.path[key]):
                os.unlink(self.path[key])
        section = os.path.join(self.workdir, f"section{i % self.sections}.pfg")
        return (
            ["segy-import", self.path["survey.sgy"], "--out", self.path["imported.pfg"]],
            ["pipeline", section, "--out", self.path["fused.pfg"]],
        )

    def _cli(self, argv):
        return [sys.executable, "-m", "pyrafuse.cli", *argv]

    def _child(self, mode: str, argv):
        return [sys.executable, os.path.join(BENCH_DIR, "child.py"), mode, *argv]

    def op(self, x):
        return [
            subprocess.run(self._cli(argv), env=self.env, cwd=self.workdir,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            for argv in x
        ]

    def traced(self, x, recorder):
        """Run both commands in bootstrap children that record spans."""
        recorder.begin_op()
        runs = []
        try:
            for argv in x:
                spawned = time.perf_counter()
                proc = subprocess.run(self._child("trace", argv), env=self.env, cwd=self.workdir,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                runs.append((spawned, proc))
        finally:
            recorder.end_op()
        root = recorder.spans[-1].id
        for spawned, proc in runs:
            lines = proc.stdout.decode().splitlines()
            if lines:
                recorder.merge(json.loads(lines[-1]), root, spawned)
        return [proc for _, proc in runs]

    def peak_alloc(self, x) -> int:
        peaks = []
        for argv in x:
            proc = subprocess.run(self._child("mem", argv), env=self.env, cwd=self.workdir,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            if proc.returncode != 0:
                raise CheckFailed(f"memory pass exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
            peaks.append(json.loads(proc.stdout.decode().splitlines()[-1])["peak"])
        return max(peaks)

    def import_numpy_ms(self) -> float | None:
        """numpy's cumulative import time inside ``import pyrafuse.cli``."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pyrafuse.cli"],
                              env=self.env, cwd=self.workdir,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                return int(parts[1]) / 1e3
        return 0.0

    def check(self, x, out) -> tuple[str, float]:
        pf = self.pf
        for argv, proc in zip(x, out):
            if proc.returncode != 0:
                raise CheckFailed(f"{argv[0]} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
        imported = pf.read_grid(self.path["imported.pfg"])
        if not isinstance(imported, pf.SeismicVolume) or imported.data.shape != self.shape:
            raise CheckFailed(f"segy-import wrote {imported!r}, expected a {self.shape} volume")
        source = self.source.astype(np.float64)
        if not (np.abs(imported.data - source) <= IBM_REL_TOL * np.abs(source)).all():
            raise CheckFailed("imported samples differ from the source beyond 2**-20 relative")
        rmse = self._score(pf.read_grid(self.path["fused.pfg"]).grid.data)
        h = hashlib.sha256()
        for key in ("imported.pfg", "fused.pfg"):
            with open(self.path[key], "rb") as handle:
                h.update(handle.read())
        return h.hexdigest(), rmse


WORKLOADS = {w.name: w for w in (Section512, VolumeSlice, CliIngest)}
