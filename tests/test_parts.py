"""Row parts: the dip finishing and fusion split their rows over the CPUs.

Every part count gives the bytes of one part, a worker's error reaches the
caller only after every part has joined, workers run under the caller's
numpy error state, and small work starts no thread.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    dip_stack_reference,
    fuse_median_naive,
    fuse_rank_naive,
    phase_dip_reference,
    same_bits,
)
from pyrafuse import (
    AttributeKind,
    FusionSpec,
    Grid2,
    ParameterError,
    PlaneEvent,
    QuadraticEvent,
    SeismicSection,
    SeismicVolume,
    SynthSpec,
    attribute_stack,
    default_weights,
    make_synthetic,
    multiscale_attribute,
    phase_dip,
)
from pyrafuse import attributes
from pyrafuse.cli import main
from test_cli import _synth

CPUS = [1, 2, 3, 7]
SHAPES = [(512, 512), (513, 257), (77, 45)]


@functools.lru_cache(maxsize=None)
def _section(rows: int, cols: int) -> SeismicSection:
    """Dipping and curved events at 6 dB: clamped, eps-rejected and
    trusted cells all occur."""
    events = (
        PlaneEvent(t0=rows * 0.2, sx=0.7),
        QuadraticEvent(t0=rows * 0.5, kappa=4.0 / cols**2),
        PlaneEvent(t0=rows * 0.8, sx=-1.5),
    )
    spec = SynthSpec(nt=rows, nx=cols, f_peak=20.0, snr_db=6.0, seed=rows + cols, events=events)
    return make_synthetic(spec)[0]


def _specs(scales: int) -> dict[str, FusionSpec]:
    return {
        "mean": FusionSpec.mean(),
        "wmean": FusionSpec.weighted(default_weights(scales)),
        "median": FusionSpec.median(),
        "rank": FusionSpec.rank_of(1),
    }


class _Threads:
    """Stands in for the ``threading`` module of :mod:`pyrafuse.attributes`
    and counts the threads started through it."""

    def __init__(self):
        self.made = []
        made = self.made

        class Thread(threading.Thread):
            def start(self):
                made.append(self)
                super().start()

        self.Thread = Thread

    @property
    def started(self) -> int:
        return len(self.made)


@pytest.fixture
def threads(monkeypatch):
    counter = _Threads()
    monkeypatch.setattr(attributes, "threading", counter)
    return counter


def _parts(cpus: int, rows: int, cells: int) -> int:
    return max(1, min(cpus, cells // attributes._MIN_PART_CELLS, rows))


def _results(section: SeismicSection) -> dict[str, np.ndarray]:
    """Every output the parts touch, for one section."""
    stack = attribute_stack(section, AttributeKind.PHASE_DIP, 4)
    out = {"values": stack.values, "valid": stack.valid}
    single = phase_dip(section)
    out["phase_dip"], out["phase_quality"] = single.grid.data, single.quality.data
    for name, spec in _specs(4).items():
        fused = multiscale_attribute(section, AttributeKind.PHASE_DIP, scales=4, fusion=spec)
        out[name], out[name + "_quality"] = fused.grid.data, fused.quality.data
    return out


def _one_part(monkeypatch, shape) -> dict[str, np.ndarray]:
    """:func:`_results` as a one-CPU affinity runs it: one part, no thread."""
    monkeypatch.setattr(attributes, "_cpus", lambda: 1)
    return _results(_section(*shape))


class TestSameBytes:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("min_cells", ["module", 1], ids=["module-minimum", "row-minimum"])
    def test_every_part_count_gives_the_one_part_bytes(self, monkeypatch, threads, shape, min_cells):
        if min_cells != "module":
            monkeypatch.setattr(attributes, "_MIN_PART_CELLS", min_cells)
        expected = _one_part(monkeypatch, shape)
        assert threads.started == 0
        rows, cols = shape
        for cpus in CPUS[1:]:
            monkeypatch.setattr(attributes, "_cpus", lambda cpus=cpus: cpus)
            before = threads.started
            got = _results(_section(*shape))
            for name, values in expected.items():
                assert same_bits(got[name], values), (cpus, name)
            # one dip finish each for the stack and phase_dip, and a dip
            # finish and a fusion for each of the four rules
            assert threads.started - before == 10 * (_parts(cpus, rows, rows * cols) - 1)
        if min_cells == 1:
            assert threads.started  # the split is not vacuous

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_one_part_equals_the_dip_oracles(self, monkeypatch, shape):
        section = _section(*shape)
        got = _one_part(monkeypatch, shape)
        for i, (values, quality) in enumerate(dip_stack_reference(section, 4)):
            assert same_bits(got["values"][i], values)
            assert np.array_equal(got["valid"][i], quality > 0.5)
        dip, quality = phase_dip_reference(section)
        assert same_bits(got["phase_dip"], dip)
        assert same_bits(got["phase_quality"], quality)

    def test_one_part_equals_the_fusion_oracles(self, monkeypatch):
        got = _one_part(monkeypatch, (77, 45))
        values, valid = got["values"], got["valid"]
        assert same_bits(got["median"], fuse_median_naive(values, valid))
        assert same_bits(got["rank"], fuse_rank_naive(values, 1))
        counts = valid.sum(axis=0)
        total = sum(np.where(valid[k], values[k], 0.0) for k in range(len(values)))
        mean = np.where(counts > 0, total / np.maximum(counts, 1), 0.0)
        assert np.array_equal(got["mean"], mean)
        assert np.allclose(got["wmean"], np.einsum("k,kij->ij", default_weights(4), values),
                           rtol=0.0, atol=1e-12)
        assert np.array_equal(got["median_quality"], valid.any(axis=0).astype(np.float64))

    def test_parts_on_more_threads_than_cpus_under_fast_switching(self, monkeypatch):
        # every part writes only its own rows: a lost or misplaced write
        # shows as a changed byte
        expected = _one_part(monkeypatch, (77, 45))
        monkeypatch.setattr(attributes, "_MIN_PART_CELLS", 1)
        monkeypatch.setattr(attributes, "_cpus", lambda: 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = _results(_section(77, 45))
                for name, values in expected.items():
                    assert same_bits(got[name], values), name
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", CPUS)
    def test_pipeline_bytes_do_not_depend_on_the_part_count(self, tmp_path, monkeypatch, cpus):
        src = _synth(tmp_path)
        monkeypatch.setattr(attributes, "_MIN_PART_CELLS", 1)
        outputs = []
        for count in (1, cpus):
            monkeypatch.setattr(attributes, "_cpus", lambda count=count: count)
            out = str(tmp_path / f"fused{count}.pfg")
            assert main(["pipeline", src, "--scales", "4", "--fuse", "median", "--out", out]) == 0
            outputs.append(Path(out).read_bytes())
        assert outputs[0] == outputs[1]


@pytest.fixture
def four_parts(monkeypatch):
    monkeypatch.setattr(attributes, "_cpus", lambda: 4)
    monkeypatch.setattr(attributes, "_MIN_PART_CELLS", 1)


class TestWorkers:
    def test_worker_error_reaches_the_caller_after_every_part_joined(self, four_parts, threads):
        finished = []

        def work(a: int, b: int) -> None:
            try:
                if a == 0:
                    raise ValueError("part 0")
                time.sleep(0.05 * (4 - a // 2))  # the later a part, the sooner it ends
                if a == 2:
                    raise KeyError("part 1")
            finally:
                finished.append(a)

        with pytest.raises(ValueError, match="part 0"):
            attributes._in_parts(0, 8, 8, work)
        # the first error in part order, raised once every part had ended
        assert sorted(finished) == [0, 2, 4, 6]
        assert len(threads.made) == 3
        assert not any(thread.is_alive() for thread in threads.made)

    def test_caller_part_error_waits_for_the_workers(self, four_parts):
        finished = []

        def work(a: int, b: int) -> None:
            if a == 6:
                raise ParameterError("caller's part")
            time.sleep(0.05)
            finished.append(a)

        with pytest.raises(ParameterError, match="caller's part"):
            attributes._in_parts(0, 8, 8, work)
        assert sorted(finished) == [0, 2, 4]

    def test_error_in_a_worker_of_the_dip_finish_reaches_dip_stack(self, monkeypatch, threads):
        monkeypatch.setattr(attributes, "_cpus", lambda: 2)
        real = attributes._dip_quotient
        caller = threading.get_ident()

        def fail_off_the_caller(*args):
            if threading.get_ident() != caller:
                raise ParameterError("worker failed")
            return real(*args)

        monkeypatch.setattr(attributes, "_dip_quotient", fail_off_the_caller)
        before = threading.active_count()
        with pytest.raises(ParameterError, match="worker failed"):
            attribute_stack(_section(512, 512), AttributeKind.PHASE_DIP, 2)
        assert threads.started == 1
        assert threading.active_count() == before

    def test_workers_run_under_the_callers_error_state(self, four_parts):
        seen = {}

        def work(a: int, b: int) -> None:
            seen[a] = (np.geterr(), threading.current_thread())

        with np.errstate(all="ignore", invalid="raise", divide="warn"):
            state = np.geterr()
            attributes._in_parts(0, 8, 8, work)
        assert [errors for errors, _ in seen.values()] == [state] * 4
        assert len({id(thread) for _, thread in seen.values()}) == 4

    def test_a_worker_raises_where_the_caller_asked_for_it(self, four_parts):
        def work(a: int, b: int) -> None:
            if a < 6:  # a worker's part only
                np.sqrt(np.full(b - a, -1.0))

        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError):
                attributes._in_parts(0, 8, 8, work)

    def test_a_worker_calls_the_callers_error_handler(self, four_parts):
        calls = []

        def work(a: int, b: int) -> None:
            if a == 0:
                np.sqrt(np.full(b - a, -1.0))

        with np.errstate(invalid="call", call=lambda kind, flag: calls.append(kind)):
            attributes._in_parts(0, 8, 8, work)
        assert calls == ["invalid value"]


@pytest.mark.parametrize("count, cpus", [(None, 1), (3, 3)], ids=["unknown", "three"])
def test_cpus_without_an_affinity_call_are_the_machine_count(monkeypatch, count, cpus):
    # a platform without os.sched_getaffinity; os.cpu_count may not know
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert attributes._cpus() == cpus


class TestNoThreadForSmallWork:
    def test_volume_time_slice_starts_no_thread(self, monkeypatch, threads):
        monkeypatch.setattr(attributes, "_cpus", lambda: 7)
        data = np.random.default_rng(11).standard_normal((40, 64, 64))
        volume = SeismicVolume(data, dt=0.004, dx=25.0, dy=25.0)
        for kind in (AttributeKind.DIP_ANGLE, AttributeKind.CURV_NEG):
            multiscale_attribute(volume, kind, scales=3, time_index=17)
        assert threads.started == 0

    def test_section_below_the_part_minimum_starts_no_thread(self, monkeypatch, threads):
        monkeypatch.setattr(attributes, "_cpus", lambda: 7)
        rows = attributes._MIN_PART_CELLS // 256
        data = np.random.default_rng(12).standard_normal((2 * rows, 256))
        small = SeismicSection(Grid2(data[: rows - 1]), dt=0.004, dx=25.0)
        multiscale_attribute(small, AttributeKind.PHASE_DIP, scales=4)
        one = SeismicSection(Grid2(data[:rows]), dt=0.004, dx=25.0)
        multiscale_attribute(one, AttributeKind.PHASE_DIP, scales=4)
        assert threads.started == 0
        two = SeismicSection(Grid2(data), dt=0.004, dx=25.0)
        multiscale_attribute(two, AttributeKind.PHASE_DIP, scales=4)
        assert threads.started == 2  # one worker for the dip finish, one for fusion
