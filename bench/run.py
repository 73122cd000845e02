"""pyrafuse benchmark: seeded workloads, end-to-end metrics, per-layer spans.

    python3 bench/run.py --workload section-512 --seed 1 --seconds 25 --trace 0

``--workload`` is ``section-512``, ``volume-slice``, ``cli-ingest`` or
``all``. The program is imported from ``src/`` of the checkout the script
sits in and gets only inputs generated here from ``--seed``.

With ``--trace 0`` the run sets up the workload several times (reporting
the median as ``setup_s``), then runs ops in a closed loop for ``--seconds``,
checking each output, then measures one op's peak allocation in an untimed
``tracemalloc`` pass and repeats the first op to check that its bytes are
unchanged. With ``--trace 1`` it alternates each op untraced and traced
(timing wrappers installed from ``bench/spans.py`` for that op only), and
reports per-layer self times, call and byte counts, data-health counters
and the tracing overhead.

Earlier lines of the output are for people and name every metric with its
unit, the failure ratio, the output SHA-256 and an environment block; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Results and, when tracing, all spans are also written to
``bench/out/``.

``bench/selftest.py`` checks the harness itself; ``bench/baseline.json``
holds the first recorded numbers, the held-out seed and how they compare
with earlier measurements.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_TRACED_PAIRS = 3

def metric_units(group: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[group]}


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten ops beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def environment(pf, np, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pyrafuse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    worker_count = getattr(pf, "worker_count", None)
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "worker_count": worker_count() if worker_count else None,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "seed": seed,
    }


def set_up(pf, cls, seed: int, workdir: str):
    """Set up ``SETUP_REPEATS`` times (inputs, fixtures, one warm-up op)."""
    times, synth = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        w = cls(pf, seed, workdir)
        w.setup()
        w.op(w.input(0))
        times.append(time.perf_counter() - start)
        synth.append(w.synth_ms)
    return w, statistics.median(times), statistics.median(synth)


def timed_pass(w, seconds: float) -> dict:
    latencies, rmses, failures = [], [], []
    first_digest = None
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < w.quality_ops:
        x = w.input(i)
        try:
            start = time.perf_counter()
            out = w.op(x)
            elapsed = time.perf_counter() - start
            digest, rmse = w.check(x, out)
        except Exception as exc:  # every failure counts; the loop goes on
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        else:
            latencies.append(elapsed)
            if i < w.quality_ops:
                rmses.append(rmse)
            if i == 0:
                first_digest = digest
        i += 1
    return {"attempted": i, "latencies": latencies, "rmses": rmses,
            "failures": failures, "output_sha256": first_digest}


def repeat_first(w, digest) -> str | None:
    """Run op 0 again; returns a failure message or None."""
    try:
        x = w.input(0)
        again, _ = w.check(x, w.op(x))
    except Exception as exc:
        return f"repeat: {type(exc).__name__}: {exc}"
    if again != digest:
        return f"repeat: op 0 output changed ({again[:12]} vs {digest and digest[:12]})"
    return None


def run_untraced(w, seconds: float, setup_s: float) -> tuple[dict, dict]:
    res = timed_pass(w, seconds)
    res["attempted"] += w.memory_passes + 1  # the memory passes and the repeat
    try:
        peak = statistics.median(w.peak_alloc(w.input(0)) for _ in range(w.memory_passes))
    except Exception as exc:
        res["failures"].append(f"memory pass: {type(exc).__name__}: {exc}")
        peak = float("nan")
    message = repeat_first(w, res["output_sha256"])
    if message:
        res["failures"].append(message)
    lat = res["latencies"] or [float("nan")]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ops_per_s": len(res["latencies"]) / sum(lat),
        "peak_alloc_mb": peak / 1e6,
        "truth_rmse": statistics.fmean(res["rmses"]) if res["rmses"] else float("nan"),
    }
    detail = {"ops": len(res["latencies"]), "tail_percentile": tail_pct}
    return metrics, {**res, **detail}


def run_traced(w, seconds: float, synth_ms: float, spans_path: Path) -> tuple[dict, dict]:
    import spans

    recorder = spans.Recorder()
    base, per_op, failures, numpy_ms = [], [], [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < max(MIN_TRACED_PAIRS, w.traced_health_ops):
        attempted += 2
        try:
            x = w.input(i)
            start = time.perf_counter()
            out = w.op(x)
            elapsed = time.perf_counter() - start
            plain, _ = w.check(x, out)
            x = w.input(i)
            first = len(recorder.spans)
            out = w.traced(x, recorder)
            traced, _ = w.check(x, out)
        except Exception as exc:
            failures.append(f"pair {i}: {type(exc).__name__}: {exc}")
        else:
            if traced != plain:
                failures.append(f"pair {i}: traced output differs from untraced")
            base.append(elapsed)
            per_op.append(spans.op_totals(recorder.spans[first:], recorder.values, recorder.cpu))
            ms = w.import_numpy_ms()
            if ms is not None:
                numpy_ms.append(ms)
        i += 1
    metrics = spans.summarize(per_op, w.traced_health_ops)
    base_ms = statistics.median(base) * 1e3 if base else float("nan")
    metrics["trace.base_p50_ms"] = base_ms
    metrics["trace.op_p50_ms"] = metrics.pop("trace.op_ms", float("nan"))
    metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.op_p50_ms"] / base_ms - 1.0)
    metrics["cli.import_numpy_ms"] = statistics.median(numpy_ms) if numpy_ms else 0.0
    metrics["synth.make_ms"] = synth_ms
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(spans_path, "wt", encoding="utf-8") as handle:
        for s in recorder.spans:
            handle.write(json.dumps(s._asdict()) + "\n")
    detail = {"attempted": attempted, "failures": failures, "pairs": len(per_op),
              "unwrapped": sorted(recorder.missing),
              "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, detail


def run_workload(pf, np, name: str, seed: int, seconds: float, trace: int, out_dir: Path):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        w, setup_s, synth_ms = set_up(pf, cls, seed, workdir)
        tag = f"{name}-seed{seed}-trace{trace}"
        if trace:
            metrics, detail = run_traced(w, seconds, synth_ms, out_dir / f"spans-{tag}.jsonl.gz")
            units = metric_units("per_layer")
        else:
            metrics, detail = run_untraced(w, seconds, setup_s)
            units = metric_units("end_to_end")
            # the metric list names this unit "attr"
            detail["truth_rmse_unit"] = w.truth_unit
        missing = [m for m in units if m not in metrics]
        if missing:
            detail["failures"].append(f"metrics not produced: {missing}")
        metrics = {m: metrics.get(m, float("nan")) for m in units}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = detail["attempted"]
    failed = len(detail["failures"])
    detail.update({
        "workload": name, "trace": trace, "seconds": seconds,
        "fail_ratio": failed / attempted, "environment": environment(pf, np, seed),
    })
    detail.pop("latencies", None)
    detail.pop("rmses", None)
    finite = all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({"result": result, "detail": detail}, handle, indent=1)
    return result, detail


def report(result: dict, detail: dict) -> None:
    print(f"== {detail['workload']} seed={detail['environment']['seed']} trace={detail['trace']}: "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for key, m in result["metrics"].items():
        print(f"  {key:<36} {m['value'] if m['value'] is not None else float('nan'):>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<36} {detail['fail_ratio']:>14.6g} ratio")
    for failure in detail["failures"][:10]:
        print(f"  FAILED {failure}")
    print("detail " + json.dumps(detail))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["section-512", "volume-slice", "cli-ingest", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that running children are killed and the
    # per-run work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "pyrafuse" / "__init__.py").is_file():
        print(f"bench: no pyrafuse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("PYRAFUSE_THREADS", None)  # run the program at its defaults
    import numpy as np
    import pyrafuse as pf

    if Path(pf.__file__).resolve().parent != (SRC / "pyrafuse").resolve():
        print(f"bench: imported pyrafuse from {pf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = ["section-512", "volume-slice", "cli-ingest"] if args.workload == "all" else [args.workload]
    out_dir = BENCH_DIR / "out"
    results = []
    for name in names:
        result, detail = run_workload(pf, np, name, args.seed, args.seconds, args.trace, out_dir)
        report(result, detail)
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}/{k}": m for n, r in results for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
