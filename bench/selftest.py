"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that the traced numbers come from the same program as the untraced
ones: a traced op's output bytes equal the untraced op's, and after tracing
every wrapped binding is the original object again. Also checks that the
benchmark's inputs are what it claims (a section op's input is exactly
``make_synthetic`` with the op's seed; the vectorised IBM encoder agrees
with ``pyrafuse.encode_ibm32``; a written SEG-Y fixture imports back) and
that each traced op's blocking-path self times add up to its wall time.
Exits 1 if any check fails.
"""

from __future__ import annotations

import importlib
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import pyrafuse as pf  # noqa: E402
import segyfix  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def bindings() -> dict:
    found = {}
    for module_name, attr, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        found[(module_name, attr)] = module.__dict__.get(attr)
    found[("Grid2", "__post_init__")] = pf.Grid2.__dict__["__post_init__"]
    return found


def traced_matches(w, i: int) -> spans.Recorder:
    before = bindings()
    x = w.input(i)
    plain, _ = w.check(x, w.op(x))
    recorder = spans.Recorder()
    x = w.input(i)
    traced, _ = w.check(x, w.traced(x, recorder))
    check(traced == plain, f"{w.name} op {i}: traced output bytes equal untraced")
    after = bindings()
    check(all(after[k] is v for k, v in before.items()),
          f"{w.name} op {i}: every wrapped binding restored")
    totals = spans.op_totals(recorder.spans, recorder.values, recorder.cpu)
    check(abs(totals["trace.path_ms"] - totals["trace.op_ms"]) <= 1e-6 * totals["trace.op_ms"],
          f"{w.name} op {i}: blocking-path self times sum to the op's wall time "
          f"({totals['trace.path_ms']:.3f} vs {totals['trace.op_ms']:.3f} ms)")
    ids = {s.id for s in recorder.spans}
    check(all(s.parent is None or s.parent in ids for s in recorder.spans)
          and len({s.op for s in recorder.spans}) == 1,
          f"{w.name} op {i}: all spans share the op's id and hang under its spans")
    return recorder


def main() -> int:
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        section = workloads.Section512(pf, 3, workdir)
        section.setup()
        for i in (0, 7):
            want, _ = pf.make_synthetic(workloads.section_spec(pf, workloads.op_seed(3, i)))
            got = section.input(i)[0]
            check(np.array_equal(got.grid.data, want.grid.data),
                  f"section-512 op {i}: input is make_synthetic with seed {workloads.op_seed(3, i)}")
        traced_matches(section, 0)

        volume = workloads.VolumeSlice(pf, 3, workdir)
        volume.setup()
        recorder = traced_matches(volume, 0)
        names = {s.id: s.name for s in recorder.spans}
        pooled = [s for s in recorder.spans if s.worker]
        pooled_ids = {s.id for s in pooled}
        check(bool(pooled) and all(names[s.parent] == "attributes.slice_fields"
                                   or s.parent in pooled_ids for s in pooled),
              f"volume-slice: {len(pooled)} pool-thread spans hang under the slice-fields span")

        rng = np.random.default_rng(5)
        values = np.float32(rng.standard_normal(5000) * 10.0 ** rng.integers(-6, 7, 5000))
        check(segyfix.check_encoder(values, pf.encode_ibm32, 5000, rng) == 0,
              "vectorised IBM encoder equals pyrafuse.encode_ibm32")
        small = np.float32(rng.standard_normal((40, 3, 4)))
        path = str(Path(workdir) / "small.sgy")
        segyfix.write_segy(path, small, dt_us=2000)
        back = pf.read_segy(path)
        check(isinstance(back, pf.SeismicVolume) and back.data.shape == small.shape
              and back.dt == 0.002
              and bool((np.abs(back.data - small) <= 2.0**-20 * np.abs(small)).all()),
              "SEG-Y fixture imports back as the written volume")

        cli = workloads.CliIngest(pf, 3, workdir)
        cli.setup()
        traced_matches(cli, 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
