"""Spans recorded from outside the program, and their per-layer totals.

Timing wrappers are set on the names each calling module imported (for
example ``pyrafuse.attributes.expand_to`` and ``pyrafuse.cli.expand_to``, which
are two bindings of one function) and on the ``Grid2`` constructor. The
program's files are never edited: :func:`install` swaps the bindings and
:func:`uninstall` puts every original object back.

Each span records its name, start, end and parent, and all spans of one op
share the op's id. Spans opened by a thread of the program's pool take the
innermost span open on the op's own thread as their parent. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# (module, attribute, span name). Every binding a workload calls through is
# listed, because a module calls its own imported name, not the original.
TARGETS = (
    ("pyrafuse.fusion", "attribute_stack", "attributes.stack"),
    ("pyrafuse.fusion", "fuse", "fusion.fuse"),
    ("pyrafuse.attributes", "dip_stack", "attributes.stack"),
    ("pyrafuse.attributes", "dip_slice_fields", "attributes.slice_fields"),
    ("pyrafuse.attributes", "phase_dip", "attributes.phase_dip"),
    ("pyrafuse.attributes", "dip_angle", "attributes.combine"),
    ("pyrafuse.attributes", "curvature", "attributes.combine"),
    ("pyrafuse.attributes", "build_pyramid", "pyramid.build"),
    ("pyrafuse.attributes", "expand_to", "pyramid.expand"),
    ("pyrafuse.attributes", "analytic_section", "analytic.quadrature"),
    ("pyrafuse.attributes", "phase_derivative", "analytic.phase_derivative"),
    ("pyrafuse.pyramid", "reduce_grid", "pyramid.reduce"),
    ("pyrafuse.segy", "decode_ibm32", "segy.decode"),
    ("pyrafuse.cli", "main", "cli.command"),
    ("pyrafuse.cli", "build_pyramid", "pyramid.build"),
    ("pyrafuse.cli", "expand_to", "pyramid.expand"),
    ("pyrafuse.cli", "phase_dip", "attributes.phase_dip"),
    ("pyrafuse.cli", "fuse", "fusion.fuse"),
    ("pyrafuse.cli", "read_grid", "gridio.read"),
    ("pyrafuse.cli", "write_grid", "gridio.write"),
    ("pyrafuse.cli", "read_segy", "segy.read"),
)
GRID_SPAN = "grid.construct"
ROOT_SPAN = "bench.op"
STARTUP_SPAN = "cli.startup"

# layers with wrapped functions, each reporting the exceptions escaping them
LAYERS = ("pyramid", "analytic", "attributes", "fusion", "grid", "gridio", "segy", "cli")
SCALES = 4

# metric -> span names whose self times it sums (per op)
SELF_METRICS = {
    "fusion.fuse_self_ms": ("fusion.fuse",),
    "pyramid.expand_self_ms": ("pyramid.expand",),
    "pyramid.reduce_self_ms": ("pyramid.reduce", "pyramid.build"),
    "analytic.quadrature_self_ms": ("analytic.quadrature",),
    "analytic.phase_derivative_self_ms": ("analytic.phase_derivative",),
    "attributes.phase_dip_self_ms": ("attributes.phase_dip",),
    "attributes.stack_self_ms": ("attributes.stack", "attributes.slice_fields"),
    "attributes.combine_self_ms": ("attributes.combine",),
    "grid.construct_self_ms": (GRID_SPAN,),
    "gridio.read_self_ms": ("gridio.read",),
    "gridio.write_self_ms": ("gridio.write",),
    "segy.read_self_ms": ("segy.read",),
    "segy.decode_self_ms": ("segy.decode",),
    "cli.command_self_ms": ("cli.command",),
}
# metric -> span name it counts (per op)
CALL_METRICS = {
    "pyramid.expand_calls": "pyramid.expand",
    "pyramid.reduce_calls": "pyramid.reduce",
    "analytic.quadrature_calls": "analytic.quadrature",
    "analytic.phase_derivative_calls": "analytic.phase_derivative",
    "grid.construct_calls": GRID_SPAN,
    "segy.decode_calls": "segy.decode",
}
# metric -> span name whose recorded byte counts it sums (per op)
BYTE_METRICS = {
    "grid.bytes_copied": GRID_SPAN,
    "gridio.bytes_read": "gridio.read",
    "gridio.bytes_written": "gridio.write",
}
HEALTH_METRICS = tuple(f"attributes.trusted_frac.s{i}" for i in range(SCALES)) + (
    "fusion.no_trust_cells",
)


class Span(NamedTuple):
    id: int
    parent: int | None
    op: int
    name: str
    start: float  # perf_counter seconds
    end: float
    worker: bool  # opened by a pool thread, not the op's own thread
    error: bool  # an exception escaped the call


def _path_size(args, result) -> int:
    return os.path.getsize(args[0])


def _keep_stack(args, result):
    # summarized in end_op, outside every timed interval
    return args[0]


def stack_health(stack) -> dict[str, float]:
    """Trusted share of each scale's cells, and cells no scale trusts."""
    valid = stack.validity()
    health = {f"attributes.trusted_frac.s{i}": float(v.mean()) for i, v in enumerate(valid)}
    health["fusion.no_trust_cells"] = float((~valid.any(axis=0)).sum())
    return health


# span name -> function of (args, result) giving a value kept on the span
_MEASURES = {
    GRID_SPAN: lambda args, result: args[0].data.nbytes,
    "gridio.read": _path_size,
    "gridio.write": _path_size,
    "fusion.fuse": _keep_stack,
}


class Recorder:
    """In-memory span sink for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.values: dict[int, object] = {}
        self.cpu: dict[int, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_thread = None
        self._op_stack: list[int] = []
        self._root = None
        self._op = 0
        self._pending: list[int] = []
        self.missing: set[str] = set()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, root: bool = True) -> None:
        """Start an op on the calling thread, optionally under a root span."""
        self._op += 1
        self._op_thread = threading.get_ident()
        self._op_stack = self._stack()
        self._op_stack.clear()
        self._root = None
        if root:
            self._root = (next(self._ids), time.perf_counter())
            self._op_stack.append(self._root[0])

    def end_op(self) -> None:
        for sid in self._pending:
            self.values[sid] = stack_health(self.values[sid])
        self._pending.clear()
        if self._root is not None:
            sid, start = self._root
            self.spans.append(Span(sid, None, self._op, ROOT_SPAN, start, time.perf_counter(), False, False))
            self._op_stack.clear()
        self._root = None

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        worker = threading.get_ident() != self._op_thread
        if stack:
            parent = stack[-1]
        elif worker and self._op_stack:
            parent = self._op_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        error = False
        # a pool thread's span also records the CPU time that thread ran,
        # which excludes waiting for the interpreter lock
        cpu = time.thread_time() if worker else 0.0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            error = True
            raise
        finally:
            end = time.perf_counter()
            if worker:
                self.cpu[sid] = time.thread_time() - cpu
            stack.pop()
            self.spans.append(Span(sid, parent, self._op, name, start, end, worker, error))
        measure = _MEASURES.get(name)
        if measure is not None:
            self.values[sid] = measure(args, result)
            if measure is _keep_stack:
                self._pending.append(sid)
        return result

    def merge(self, report: dict, root: int, spawned: float) -> None:
        """Adopt a child process's spans under ``root``.

        ``perf_counter`` reads the system-wide monotonic clock, so child
        timestamps share the parent's time line. The child's start-up, from
        spawn to ``import pyrafuse.cli`` done, becomes a ``cli.startup`` span.
        """
        child = [Span(*s) for s in report["spans"]]
        ids = {s.id: next(self._ids) for s in child}
        for s in child:
            self.spans.append(s._replace(id=ids[s.id], parent=ids.get(s.parent, root), op=self._op))
        for sid, value in report["values"].items():
            self.values[ids[int(sid)]] = value
        self.spans.append(Span(next(self._ids), root, self._op, STARTUP_SPAN, spawned,
                               report["ready"], False, False))


def _timed(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    return timed


def install(recorder: Recorder) -> list[tuple]:
    """Wrap every target binding; returns what :func:`uninstall` restores.

    A target the program no longer has is skipped and listed in
    ``recorder.missing``, so its layer reads zero instead of the run failing.
    """
    saved = []
    for module_name, attr, span in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            recorder.missing.add(f"{module_name}.{attr}")
            continue
        saved.append((module, attr, original))
        setattr(module, attr, _timed(recorder, span, original))
    grid_cls = importlib.import_module("pyrafuse.grid").Grid2
    original_post_init = grid_cls.__post_init__
    saved.append((grid_cls, "__post_init__", original_post_init))

    def post_init(grid):
        recorder.call(GRID_SPAN, original_post_init, (grid,), {})

    grid_cls.__post_init__ = post_init
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def op_totals(spans: list[Span], values, cpu) -> dict[str, float]:
    """Per-layer totals of one op's spans (times in ms)."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    path = 0.0
    busy = wall = 0.0
    for s in spans:
        kids = children.get(s.id, ())
        covered = _covered([(k.start, k.end) for k in kids], s.start, s.end)
        own = (s.end - s.start) - covered
        self_ms[s.name] += own * 1e3
        calls[s.name] += 1
        if not s.worker:
            # on the op's blocking path: the span's own time plus the time
            # it waited for pool threads
            same_thread = sum(k.end - k.start for k in kids if not k.worker)
            path += own + max(0.0, covered - same_thread)
        if s.name == "attributes.slice_fields":
            wall += s.end - s.start
            busy += sum(cpu.get(k.id, 0.0) for k in kids)
    out: dict[str, float] = {}
    for metric, names in SELF_METRICS.items():
        out[metric] = sum(self_ms[n] for n in names)
    for metric, name in CALL_METRICS.items():
        out[metric] = float(calls[name])
    for metric, name in BYTE_METRICS.items():
        out[metric] = float(sum(values.get(s.id, 0) for s in spans if s.name == name))
    out["attributes.slice_busy_ratio"] = busy / wall if wall > 0 else 0.0
    startups = calls[STARTUP_SPAN]
    out["cli.startup_ms"] = self_ms[STARTUP_SPAN] / startups if startups else 0.0
    out["trace.op_ms"] = sum((s.end - s.start) * 1e3 for s in spans if s.name == ROOT_SPAN)
    out["trace.unattributed_ms"] = self_ms[ROOT_SPAN]
    out["trace.path_ms"] = path * 1e3
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(
            sum(1 for s in spans if s.error and s.name.split(".", 1)[0] == layer)
        )
    for s in spans:
        if s.name == "fusion.fuse" and s.id in values:
            out.update(values[s.id])
    return out


def summarize(per_op: list[dict[str, float]], health_ops: int) -> dict[str, float]:
    """Medians over traced ops; errors summed; data health over the first ops."""
    if not per_op:
        return {}
    out = {}
    for key in per_op[0]:
        if key in HEALTH_METRICS:
            continue
        column = [op.get(key, 0.0) for op in per_op]
        out[key] = float(sum(column)) if key.endswith(".errors") else statistics.median(column)
    first = per_op[:health_ops]
    for key in HEALTH_METRICS:
        column = [op[key] for op in first if key in op]
        out[key] = statistics.fmean(column) if column else 0.0
    return out
