from __future__ import annotations

import os
import re
import resource
import subprocess
import sys
from dataclasses import replace
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest

import pyrafuse
from oracles import same_bits
from pyrafuse import (
    AttributeKind,
    SeismicVolume,
    attribute_stack,
    describe_grid,
    encode_ibm32,
    multiscale_attribute,
    read_grid,
    write_grid,
)
from pyrafuse.attributes import EPS_FREQ_DEFAULT, P_MAX_DEFAULT, VELOCITY_DEFAULT
from pyrafuse.cli import _ATTR_FLAGS, main
from pyrafuse.pyramid import MAX_RADIUS

SPEC_TEXT = """\
nt = 96
nx = 48
dt = 0.004
dx = 25.0
f_peak = 2.5
seed = 7
event = plane, t0=20, sx=0.5
event = plane, t0=60, sx=0.5
"""

THIN_SPEC = """\
nt = 8
nx = 4
dt = 0.004
dx = 25.0
f_peak = 20
seed = 5
event = plane, t0=3, sx=0.25
"""

VOLUME_SPEC = """\
nt = 48
nx = 20
ny = 16
seed = 3
event = quadratic, t0=24, kappa=1e-4
"""


def _child_env() -> dict[str, str]:
    """The environment for a child process that imports this package.

    The child finds the package this process imported, also when only
    pytest's own path setting put it on sys.path.
    """
    env = dict(os.environ)
    package_root = str(Path(pyrafuse.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def _payload(path: str) -> bytes:
    blob = Path(path).read_bytes()
    return blob[blob.index(b"\n\n") + 2 :]


def _spec_file(tmp_path, text=SPEC_TEXT) -> str:
    path = tmp_path / "model.spec"
    path.write_text(text)
    return str(path)


def _synth(tmp_path, name="section.pfg", text=SPEC_TEXT, extra=()) -> str:
    out = str(tmp_path / name)
    assert main(["synth", _spec_file(tmp_path, text), "--out", out, *extra]) == 0
    return out


class TestSynthCommand:
    def test_writes_readable_grid_with_meta(self, tmp_path, capsys):
        out = _synth(tmp_path)
        section = read_grid(out)
        assert section.grid.shape == (96, 48)
        assert main(["info", out]) == 0
        lines = dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert lines["magic"] == "PFGRID1"
        assert lines["seed"] == "7"
        assert lines["f_peak"] == "2.5"
        assert int(lines["payload_bytes"]) == 96 * 48 * 4

    def test_noise_records_its_level_and_generator(self, tmp_path):
        pairs = dict(describe_grid(_synth(tmp_path, text=SPEC_TEXT + "snr_db = 10\n")))
        assert pairs["snr_db"] == "10.0"
        assert pairs["noise_prng"] == "PCG64"
        clean = dict(describe_grid(_synth(tmp_path, "clean.pfg")))
        assert "snr_db" not in clean and "noise_prng" not in clean

    def test_truth_prefix_writes_dip_truth(self, tmp_path):
        prefix = str(tmp_path / "truth")
        _synth(tmp_path, extra=("--truth-prefix", prefix))
        truth = read_grid(f"{prefix}_dip_p.pfg")
        assert truth.kind is AttributeKind.PHASE_DIP
        assert np.all(truth.grid.data == 0.5)

    def test_reruns_are_byte_identical(self, tmp_path):
        a = _synth(tmp_path, "a.pfg")
        b = _synth(tmp_path, "b.pfg")
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_volume_spec_round_trips(self, tmp_path):
        out = _synth(tmp_path, "vol.pfg", VOLUME_SPEC)
        volume = read_grid(out)
        assert volume.data.shape == (48, 20, 16)
        assert volume.meta == {"seed": "3", "f_peak": "25.0"}

    def test_stage_outputs_keep_the_provenance(self, tmp_path):
        src = _synth(tmp_path, text=SPEC_TEXT + "snr_db = 10\n")
        provenance = {"seed": "7", "f_peak": "2.5", "snr_db": "10.0", "noise_prng": "PCG64"}
        assert read_grid(src).meta == provenance
        out = str(tmp_path / "big.pfg")
        assert main(["expand", src, "--rows", "100", "--cols", "50", "--out", out]) == 0
        expanded = read_grid(out)
        assert (expanded.label, expanded.meta) == ("synthetic", provenance)
        prefix = str(tmp_path / "pyr")
        assert main(["pyramid", src, "--scales", "2", "--out-prefix", prefix]) == 0
        level = read_grid(f"{prefix}_level1.pfg")
        assert level.label == "synthetic"
        assert level.meta == {**provenance, "level": "1", "sigma": "1.0", "radius": "2"}


class TestPyramidCommand:
    def test_levels_have_halved_dims(self, tmp_path):
        src = _synth(tmp_path)
        prefix = str(tmp_path / "pyr")
        assert main(["pyramid", src, "--scales", "4", "--out-prefix", prefix]) == 0
        dims = []
        for i in range(4):
            level = read_grid(f"{prefix}_level{i}.pfg")
            dims.append(level.grid.shape)
            assert level.dt == pytest.approx(0.004 * 2**i)
        assert dims == [(96, 48), (48, 24), (24, 12), (12, 6)]

    @pytest.mark.parametrize("scales", [1, 3])
    def test_only_reduced_levels_record_the_kernel(self, tmp_path, scales):
        # level 0 is the input, never reduced: its header adds only `level`
        src = _synth(tmp_path)
        prefix = str(tmp_path / "pyr")
        assert main(["pyramid", src, "--scales", str(scales), "--sigma", "1.5",
                     "--out-prefix", prefix]) == 0
        meta = read_grid(src).meta
        assert read_grid(f"{prefix}_level0.pfg").meta == {**meta, "level": "0"}
        for i in range(1, scales):
            level = read_grid(f"{prefix}_level{i}.pfg")
            assert level.meta == {**meta, "level": str(i), "sigma": "1.5", "radius": "2"}

    def test_level_zero_payload_matches_source(self, tmp_path):
        src = _synth(tmp_path)
        prefix = str(tmp_path / "pyr")
        assert main(["pyramid", src, "--out-prefix", prefix]) == 0
        assert _payload(f"{prefix}_level0.pfg") == _payload(src)


class TestPipelineEquivalence:
    def test_pipeline_matches_manual_composition(self, tmp_path):
        src = _synth(tmp_path)
        rows, cols = 96, 48
        prefix = str(tmp_path / "lvl")
        assert main(["pyramid", src, "--scales", "4", "--out-prefix", prefix]) == 0

        expanded, masks = [], []
        for i in range(4):
            dip = str(tmp_path / f"dip{i}.pfg")
            trust = str(tmp_path / f"trust{i}.pfg")
            assert main(
                ["attr", f"{prefix}_level{i}.pfg", "--attr", "dip",
                 "--out", dip, "--quality-out", trust]
            ) == 0
            big = str(tmp_path / f"big{i}.pfg")
            big_trust = str(tmp_path / f"bigtrust{i}.pfg")
            for source, target in ((dip, big), (trust, big_trust)):
                assert main(
                    ["expand", source, "--rows", str(rows), "--cols", str(cols),
                     "--out", target]
                ) == 0
            expanded.append(big)
            masks.append(big_trust)

        manual = str(tmp_path / "manual.pfg")
        quality_flags = [flag for m in masks for flag in ("--quality", m)]
        assert main(
            ["fuse", *expanded, *quality_flags, "--fuse", "median", "--out", manual]
        ) == 0

        piped = str(tmp_path / "piped.pfg")
        assert main(
            ["pipeline", src, "--scales", "4", "--fuse", "median", "--out", piped]
        ) == 0
        assert _payload(manual) == _payload(piped)

    def test_single_scale_pipeline_equals_attr(self, tmp_path):
        src = _synth(tmp_path)
        one = str(tmp_path / "one.pfg")
        flat = str(tmp_path / "flat.pfg")
        assert main(["pipeline", src, "--scales", "1", "--out", one]) == 0
        assert main(["attr", src, "--attr", "dip", "--out", flat]) == 0
        assert _payload(one) == _payload(flat)

    def test_one_level_of_a_section_thinner_than_the_kernel(self, tmp_path):
        # 8x4 is narrower than the 5x5 kernel; one level reduces nothing, so
        # the stage route reproduces the one-scale pipeline there too
        src = _synth(tmp_path, text=THIN_SPEC)
        prefix = str(tmp_path / "pyr")
        assert main(["pyramid", src, "--scales", "1", "--out-prefix", prefix]) == 0
        level = f"{prefix}_level0.pfg"
        assert read_grid(level).grid.shape == (8, 4)
        assert _payload(level) == _payload(src)
        dip, one = str(tmp_path / "dip.pfg"), str(tmp_path / "one.pfg")
        assert main(["attr", level, "--out", dip]) == 0
        assert main(["pipeline", src, "--scales", "1", "--out", one]) == 0
        assert _payload(dip) == _payload(one)

    def test_pipeline_reruns_are_byte_identical(self, tmp_path):
        src = _synth(tmp_path)
        a, b = str(tmp_path / "fa.pfg"), str(tmp_path / "fb.pfg")
        for target in (a, b):
            assert main(["pipeline", src, "--out", target]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_fused_header_records_the_recipe(self, tmp_path):
        src = _synth(tmp_path)
        out = str(tmp_path / "fused.pfg")
        assert main(
            ["pipeline", src, "--fuse", "wmean", "--out", out]
        ) == 0
        fused = read_grid(out)
        assert fused.is_fused
        assert fused.meta["method"] == "wmean"
        assert fused.meta["scales"] == "4"
        assert "weights" in fused.meta
        assert fused.meta["sigma"] == "1.0"
        assert fused.meta["radius"] == "2"

    def test_one_scale_records_no_kernel(self, tmp_path):
        # one scale is never reduced, so no output of one records sigma/radius
        vol = _synth(tmp_path, "vol.pfg", VOLUME_SPEC)
        out = str(tmp_path / "out.pfg")
        for argv in (["attr", _synth(tmp_path), "--attr", "dip"],
                     ["attr", vol, "--attr", "dip-angle", "--time-index", "24"],
                     ["pipeline", _synth(tmp_path), "--scales", "1"],
                     ["pipeline", vol, "--attr", "kneg", "--time-index", "24", "--scales", "1"]):
            assert main([*argv, "--out", out]) == 0
            assert not {"sigma", "radius"} & set(read_grid(out).meta), argv


class TestVolumeAttr:
    def test_attr_flags_name_every_kind(self):
        assert sorted(_ATTR_FLAGS.values(), key=str) == sorted(AttributeKind, key=str)

    def test_curvature_needs_volume_and_time_index(self, tmp_path):
        vol = _synth(tmp_path, "vol.pfg", VOLUME_SPEC)
        out = str(tmp_path / "kpos.pfg")
        assert main(["attr", vol, "--attr", "kpos", "--time-index", "24",
                     "--out", out]) == 0
        m = read_grid(out)
        assert m.kind is AttributeKind.CURV_POS
        assert m.grid.shape == (20, 16)

        section = _synth(tmp_path)
        assert main(["attr", section, "--attr", "kpos", "--time-index", "24",
                     "--out", out]) == 2  # needs a volume
        assert main(["attr", vol, "--attr", "kpos", "--out", out]) == 1  # no index

    @pytest.mark.parametrize("command", ["attr", "pipeline"])
    def test_attr_and_pipeline_check_their_input_alike(self, tmp_path, command):
        vol = _synth(tmp_path, "vol.pfg", VOLUME_SPEC)
        section = _synth(tmp_path)
        dip_map = str(tmp_path / "dip.pfg")
        assert main(["attr", section, "--out", dip_map]) == 0
        out = str(tmp_path / "out.pfg")
        for grid, flags, code in [
            (dip_map, ["--attr", "dip"], 2),  # already an attribute map
            (dip_map, ["--attr", "kpos", "--time-index", "24"], 2),
            (vol, ["--attr", "dip"], 2),  # dip needs a section
            (section, ["--attr", "dip-angle", "--time-index", "24"], 2),  # needs a volume
            (vol, ["--attr", "kneg"], 1),  # no --time-index
        ]:
            assert main([command, grid, *flags, "--out", out]) == code, (grid, flags)
        assert not Path(out).exists()
        if command == "pipeline":  # the fusion flags are checked before the input
            assert main([command, dip_map, "--fuse", "rank", "--out", out]) == 1

    def test_dip_angle_on_a_thin_volume(self, tmp_path):
        # the fixed-x sections are 48x4: one scale needs only the 4x3 dip
        # minimum, not the kernel support
        vol = _synth(tmp_path, "thin.pfg", VOLUME_SPEC.replace("ny = 16", "ny = 4"))
        out = str(tmp_path / "angle.pfg")
        assert main(["attr", vol, "--attr", "dip-angle", "--time-index", "10",
                     "--out", out]) == 0
        m = read_grid(out)
        want = attribute_stack(read_grid(vol), AttributeKind.DIP_ANGLE, 1, time_index=10)
        assert m.kind is AttributeKind.DIP_ANGLE
        assert np.array_equal(m.grid.data, want.maps[0].grid.data.astype(np.float32))

    def test_volume_pipeline_fuses_curvature(self, tmp_path):
        vol = _synth(tmp_path, "vol.pfg", VOLUME_SPEC)
        out = str(tmp_path / "fkpos.pfg")
        assert main(["pipeline", vol, "--attr", "kpos", "--time-index", "24",
                     "--scales", "2", "--out", out]) == 0
        fused = read_grid(out)
        assert fused.is_fused and fused.kind is AttributeKind.CURV_POS

    @pytest.mark.parametrize("attr", ["dip-angle", "kpos", "kneg"])
    def test_volume_pipeline_is_the_library_result_rounded_once(self, tmp_path, attr):
        # `pyramid` takes sections only, so a volume attribute has no stage
        # route to match: its stages are not rounded, only the written map
        vol = _synth(tmp_path, "vol.pfg", VOLUME_SPEC)
        out = str(tmp_path / "fused.pfg")
        assert main(["pipeline", vol, "--attr", attr, "--time-index", "24",
                     "--scales", "2", "--out", out]) == 0
        fused = read_grid(out)
        want = multiscale_attribute(read_grid(vol), _ATTR_FLAGS[attr], scales=2, time_index=24)
        assert same_bits(fused.grid.data, want.grid.data.astype(np.float32).astype(np.float64))
        assert fused.meta == want.meta

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pipeline", "--scales", "2", "--attr", "kneg"], "attribute stage: curv_neg is not finite"),
            (["attr", "--attr", "kpos"], "curv_pos is not finite"),
        ],
        ids=["pipeline", "attr"],
    )
    def test_curvature_that_overflows_exits_one_without_a_warning(self, tmp_path, argv, message):
        # a child process, so that a warning reaches stderr as a user sees it
        vol = str(tmp_path / "v.pfg")
        data = np.random.default_rng(5).standard_normal((64, 24, 24))
        write_grid(vol, SeismicVolume(data, dt=0.004, dx=1e-300, dy=25.0))
        out = tmp_path / "o.pfg"
        proc = subprocess.run(
            [sys.executable, "-m", "pyrafuse.cli", argv[0], vol, *argv[1:],
             "--time-index", "30", "--out", str(out)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 1
        assert message in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()


class TestSegyImport:
    def test_ibm_segy_to_grid(self, tmp_path):
        ns, n = 12, 4
        rng = np.random.default_rng(1)
        traces = np.round(rng.standard_normal((ns, n)), 3)
        binary = bytearray(400)
        binary[16:18] = (4000).to_bytes(2, "big")
        binary[20:22] = ns.to_bytes(2, "big")
        binary[24:26] = (1).to_bytes(2, "big")
        blob = bytearray(b"C" * 3200) + binary
        for j in range(n):
            header = bytearray(240)
            header[188:192] = (1).to_bytes(4, "big")
            header[192:196] = (j + 1).to_bytes(4, "big")
            blob += header + encode_ibm32(traces[:, j]).astype(">u4").tobytes()
        segy_path = tmp_path / "line.sgy"
        segy_path.write_bytes(bytes(blob))

        out = str(tmp_path / "line.pfg")
        assert main(["segy-import", str(segy_path), "--dx", "12.5", "--out", out]) == 0
        section = read_grid(out)
        assert section.grid.shape == (ns, n)
        assert section.dx == 12.5
        assert (section.label, section.meta) == ("segy import", {"source": "segy"})
        assert np.allclose(section.grid.data, traces, rtol=5e-7, atol=1e-9)

    def test_unsupported_format_exit_code(self, tmp_path):
        blob = bytearray(b"C" * 3200) + bytearray(400)
        blob[3216:3218] = (4000).to_bytes(2, "big")
        blob[3220:3222] = (8).to_bytes(2, "big")
        blob[3224:3226] = (3).to_bytes(2, "big")
        blob += bytes(240 + 32)
        path = tmp_path / "bad.sgy"
        path.write_bytes(bytes(blob))
        assert main(["segy-import", str(path), "--out", str(tmp_path / "o.pfg")]) == 2

    def test_ibm_beyond_float32_exits_two(self, tmp_path, caplog):
        blob = bytearray(b"C" * 3200) + bytearray(400)
        blob[3216:3218] = (4000).to_bytes(2, "big")
        blob[3220:3222] = (4).to_bytes(2, "big")
        blob[3224:3226] = (1).to_bytes(2, "big")
        words = np.full(4, 0x41100000, dtype=">u4")  # 1.0
        words[2] = 0x7FFFFFFF  # about 7.2e75: a valid IBM float, not a float32
        blob += bytes(240) + words.tobytes()
        path = tmp_path / "big.sgy"
        path.write_bytes(bytes(blob))
        out = tmp_path / "o.pfg"
        assert main(["segy-import", str(path), "--out", str(out)]) == 2
        assert f"byte offset {3600 + 240 + 8}" in caplog.text
        assert not out.exists()


class TestExportPgm:
    def test_golden_header_and_size(self, tmp_path):
        src = _synth(tmp_path)
        out = str(tmp_path / "img.pgm")
        assert main(["export-pgm", src, "--out", out]) == 0
        blob = Path(out).read_bytes()
        assert blob.startswith(b"P5 48 96 255\n")
        assert len(blob) == len(b"P5 48 96 255\n") + 96 * 48

    def test_volume_slice_needs_time_index(self, tmp_path):
        vol = _synth(tmp_path, "vol.pfg", VOLUME_SPEC)
        out = str(tmp_path / "img.pgm")
        assert main(["export-pgm", vol, "--out", out]) == 1
        assert main(["export-pgm", vol, "--time-index", "24", "--out", out]) == 0
        assert Path(out).read_bytes().startswith(b"P5 16 20 255\n")

    def test_time_index_outside_the_volume_names_the_file(self, tmp_path, caplog):
        vol = _synth(tmp_path, "vol.pfg", VOLUME_SPEC)
        out = tmp_path / "img.pgm"
        assert main(["export-pgm", vol, "--time-index", "99", "--out", str(out)]) == 2
        assert f"{vol}: time index 99 outside [0, 47]" in caplog.text
        assert not out.exists()


class TestExitCodes:
    def test_usage_errors_exit_one(self, tmp_path, capsys):
        src = _synth(tmp_path)
        assert main(["no-such-command"]) == 1
        assert main(["pyramid", src]) == 1  # missing --out-prefix
        assert main(["pipeline", src, "--fuse", "rank",
                     "--out", str(tmp_path / "o.pfg")]) == 1  # rank needs --rank
        assert main(["pipeline", src, "--fuse", "wmean", "--weights", "1,2,bad",
                     "--out", str(tmp_path / "o.pfg")]) == 1
        for flag in ("--scales", "--sigma"):
            assert main(["pipeline", src, flag, "0", "--out", str(tmp_path / "o.pfg")]) == 1
            assert "expected a positive" in capsys.readouterr().err
        assert not (tmp_path / "o.pfg").exists()

    @pytest.mark.parametrize("flag", ["-v", "--verbose"])
    def test_there_is_no_verbose_flag(self, flag, capsys):
        # nothing logs below INFO, so a verbose flag would change no output
        assert main([flag, "info", "x.pfg"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_pipeline_names_the_fusion_stage(self, tmp_path, caplog):
        out = tmp_path / "o.pfg"
        assert main(["pipeline", _synth(tmp_path), "--scales", "3", "--fuse", "rank",
                     "--rank", "3", "--out", str(out)]) == 1
        assert "fusion stage: rank 3 outside [0, 2]" in caplog.text
        assert not out.exists()

    def test_pipeline_names_the_attribute_stage(self, tmp_path, caplog):
        tiny = _synth(tmp_path, "tiny.pfg", "nt = 8\nnx = 6\nevent = plane, t0=4\n")
        out = tmp_path / "o.pfg"
        assert main(["pipeline", tiny, "--scales", "4", "--out", str(out)]) == 2
        assert ("attribute stage: section 8x6 supports at most 1 dip scale(s), requested 4"
                in caplog.text)
        assert not out.exists()

    def test_synth_beyond_float32_names_the_output(self, tmp_path, caplog):
        out = tmp_path / "loud.pfg"
        spec = _spec_file(tmp_path, "nt = 16\nnx = 8\nevent = plane, t0=8, amp=1e39\n")
        assert main(["synth", spec, "--out", str(out)]) == 1
        assert f"{out}: values overflow float32; cannot serialize" in caplog.text
        assert list(tmp_path.iterdir()) == [Path(spec)]

    def test_synth_spec_that_is_not_utf8_exits_one(self, tmp_path, caplog):
        spec = tmp_path / "bad.spec"
        head = SPEC_TEXT.encode("ascii") + b"# caf"
        spec.write_bytes(head + b"\xe9\n")
        out = tmp_path / "s.pfg"
        assert main(["synth", str(spec), "--out", str(out)]) == 1
        assert f"{spec}: not UTF-8 text at byte offset {len(head)}" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            pytest.param("synth {spec} --out {out}", 1,
                         "line 3: unknown key 'foo'", id="synth"),
            pytest.param("pipeline {section} --scales 9 --out {out}", 2,
                         "attribute stage: section 64x32 supports at most 3 dip scale(s), "
                         "requested 9", id="pipeline"),
            pytest.param("pyramid {section} --scales 9 --out-prefix {out}", 2,
                         "grid 64x32 supports at most 3 scale(s) with kernel support 5, "
                         "requested 9", id="pyramid"),
            pytest.param("expand {section} --rows 3 --cols 3 --out {out}", 2,
                         "target 3x3 is smaller than input 64x32", id="expand"),
            pytest.param("attr {volume} --attr kpos --time-index 30 --out {out}", 1,
                         "curv_pos is not finite with dt=0.004, dx=1e-300, dy=25.0 and "
                         "velocity=2000.0", id="attr"),
        ],
    )
    def test_library_refusals_name_the_input(self, tmp_path, caplog, argv, code, message):
        rng = np.random.default_rng(11)
        inputs = {
            "spec": tmp_path / "bad.spec",
            "section": tmp_path / "s.pfg",
            "volume": tmp_path / "v.pfg",
        }
        inputs["spec"].write_text("nt = 64\nnx = 32\nfoo = 1\n", encoding="utf-8")
        write_grid(str(inputs["section"]), pyrafuse.SeismicSection(
            pyrafuse.Grid2(rng.standard_normal((64, 32))), dt=0.004, dx=25.0))
        write_grid(str(inputs["volume"]), SeismicVolume(
            rng.standard_normal((64, 24, 24)), dt=0.004, dx=1e-300, dy=25.0))
        words = [w.format(out=tmp_path / "out", **inputs) for w in argv.split()]
        before = set(tmp_path.iterdir())
        assert main(words) == code
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{words[1]}: {message}"]
        assert set(tmp_path.iterdir()) == before

    def test_weight_count_mismatch_exits_one(self, tmp_path):
        src = _synth(tmp_path)
        out = str(tmp_path / "o.pfg")
        assert main(["pipeline", src, "--scales", "3", "--fuse", "wmean",
                     "--weights", "1,2", "--out", out]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--fuse", "wmean", "--weights", "1,2"],
            ["--fuse", "rank", "--rank", "3"],
            ["--fuse", "wmean", "--weights", "1e308,1e308,1"],  # the sum overflows
        ],
        ids=["weights", "rank", "overflowing-weights"],
    )
    def test_bad_fusion_spec_exits_before_the_stack(self, tmp_path, monkeypatch, flags):
        src = _synth(tmp_path)

        def no_stack(*args, **kwargs):
            raise AssertionError("the dip stack was built before the fusion spec was checked")

        monkeypatch.setattr("pyrafuse.fusion._attribute_layers", no_stack)
        out = str(tmp_path / "o.pfg")
        assert main(["pipeline", src, "--scales", "3", *flags, "--out", out]) == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "flag, value", [("--dx", "nan"), ("--dy", "inf"), ("--sigma", "inf"), ("--pmax", "nan")]
    )
    def test_non_finite_float_flag_is_a_usage_error(self, tmp_path, capsys, flag, value):
        # the flag is refused by name before any input is read: the SEG-Y
        # file here is not even valid
        out = tmp_path / "o.pfg"
        if flag in ("--dx", "--dy"):
            source = tmp_path / "junk.sgy"
            source.write_bytes(b"\0" * 100)
            argv = ["segy-import", str(source)]
        else:
            argv = ["pipeline", _synth(tmp_path)]
        capsys.readouterr()
        assert main([*argv, flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a positive finite number, got {value!r}" in err
        assert not out.exists()

    def test_sigma_with_non_finite_samples_exits_one_without_a_warning(self, tmp_path):
        # a child process, so that a warning reaches stderr as a user sees it
        out = tmp_path / "o.pfg"
        proc = subprocess.run(
            [sys.executable, "-m", "pyrafuse.cli", "pipeline", _synth(tmp_path),
             "--sigma", "1e-200", "--out", str(out)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 1
        assert "sigma 1e-200 gives non-finite or zero Gaussian samples" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, target", [("pipeline", "--out"), ("pyramid", "--out-prefix")]
    )
    def test_radius_above_the_cap_exits_one(self, tmp_path, caplog, command, target):
        src = _synth(tmp_path)
        out = tmp_path / "o"
        assert main([command, src, "--radius", str(MAX_RADIUS + 1), target, str(out)]) == 1
        assert f"radius must be <= {MAX_RADIUS}, got {MAX_RADIUS + 1}" in caplog.text
        assert not list(tmp_path.glob("o*"))

    def test_data_errors_exit_two(self, tmp_path):
        missing = str(tmp_path / "nope.pfg")
        assert main(["info", missing]) == 2
        corrupt = tmp_path / "corrupt.pfg"
        corrupt.write_bytes(b"magic=WRONG\n\n")
        assert main(["info", str(corrupt)]) == 2

        src = _synth(tmp_path)
        out = str(tmp_path / "o.pfg")
        assert main(["expand", src, "--rows", "4", "--cols", "4", "--out", out]) == 2
        dip = str(tmp_path / "dip.pfg")
        assert main(["attr", src, "--attr", "dip", "--out", dip]) == 0
        assert main(["attr", dip, "--attr", "dip", "--out", out]) == 2

    @pytest.mark.parametrize(
        "bad", [b"dt=nan", b"dt=inf", b"dt=-1.0", b"dx=-1", b"dy=0", b"scale=-2"]
    )
    def test_header_domain_errors_exit_two(self, tmp_path, bad):
        path = tmp_path / "bad.pfg"
        header = b"magic=PFGRID1\nrows=8\ncols=8\nkind=dip\n" + bad + b"\n\n"
        path.write_bytes(header + bytes(8 * 8 * 4))
        out = str(tmp_path / "o.pfg")
        assert main(["expand", str(path), "--rows", "16", "--cols", "16",
                     "--out", out]) == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("event = plane, t0=30, sx=1e300", "event 3 (plane): sx=1e+300"),
            ("event = quadratic, t0=30, kappa=1e400", "event 3 (quadratic): kappa must be finite"),
            ("f_peak = nan", "f_peak must lie in"),
        ],
    )
    def test_synth_spec_field_out_of_range_exits_one_without_a_warning(
        self, tmp_path, line, message
    ):
        # a child process: the warnings used to reach stderr before an
        # error that named no field
        out = tmp_path / "o.pfg"
        proc = subprocess.run(
            [sys.executable, "-m", "pyrafuse.cli", "synth",
             _spec_file(tmp_path, SPEC_TEXT + line + "\n"), "--out", str(out)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 1
        assert message in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()

    def test_signalling_nan_exits_two_without_a_warning(self, tmp_path):
        # a child process, so that a warning reaches stderr as a user sees
        # it instead of being raised by the suite's warning filter
        path = tmp_path / "snan.pfg"
        payload = np.ones(8 * 8, dtype="<f4").view("<u4").copy()
        payload[5] = 0x7F800001
        path.write_bytes(b"magic=PFGRID1\nrows=8\ncols=8\n\n" + payload.tobytes())
        proc = subprocess.run(
            [sys.executable, "-m", "pyrafuse.cli", "pipeline", str(path),
             "--out", str(tmp_path / "o.pfg")],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 2
        assert "non-finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_bad_spec_exits_one(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("nt = 64\nnx = 16\nevent = blob, t0=5\n")
        assert main(["synth", str(bad), "--out", str(tmp_path / "o.pfg")]) == 1

    @pytest.mark.parametrize("command", ["pipeline", "fuse"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--fuse", "median", "--rank", "1"], "a rank applies to rank fusion only, not median"),
            (["--fuse", "rank", "--rank", "0", "--weights", "1,1"],
             "weights apply to weighted-mean fusion only, not rank"),
        ],
        ids=["rank", "weights"],
    )
    def test_fusion_flag_the_rule_does_not_use_exits_one(
        self, tmp_path, caplog, command, flags, message
    ):
        # the input does not exist: the flags are refused before it is read
        out = tmp_path / "o.pfg"
        assert main([command, str(tmp_path / "missing.pfg"), *flags, "--out", str(out)]) == 1
        assert f"fusion stage: {message}" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("role", ["map", "mask"])
    def test_fuse_names_the_file_of_another_shape(self, tmp_path, caplog, role):
        dip, big = str(tmp_path / "dip.pfg"), str(tmp_path / "big.pfg")
        assert main(["attr", _synth(tmp_path), "--out", dip]) == 0
        assert main(["expand", dip, "--rows", "128", "--cols", "64", "--out", big]) == 0
        files = [dip, big] if role == "map" else [dip, dip, "--quality", dip, "--quality", big]
        out = tmp_path / "fused.pfg"
        assert main(["fuse", *files, "--out", str(out)]) == 2
        assert f"{big}: 128x64 grid does not match the 96x48 of {dip}" in caplog.text
        assert not out.exists()

    def test_fuse_names_the_file_of_another_kind(self, tmp_path, caplog):
        dip, curv = str(tmp_path / "d.pfg"), str(tmp_path / "k.pfg")
        assert main(["attr", _synth(tmp_path), "--out", dip]) == 0
        write_grid(curv, replace(read_grid(dip), kind=AttributeKind.CURV_POS))
        out = tmp_path / "fused.pfg"
        assert main(["fuse", dip, curv, "--out", str(out)]) == 2
        assert f"{curv}: curv_pos map does not match the dip of {dip}" in caplog.text
        assert not out.exists()

    def test_expand_beyond_memory_exits_two(self, tmp_path):
        # a child process whose address space alone is capped, so that the
        # 74.5 GiB target fails to allocate at once on any machine
        dip = str(tmp_path / "dip.pfg")
        assert main(["attr", _synth(tmp_path), "--out", dip]) == 0
        out = tmp_path / "big.pfg"

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "pyrafuse.cli", "expand", dip,
             "--rows", "100000", "--cols", "100000", "--out", str(out)],
            capture_output=True,
            text=True,
            env=_child_env(),
            preexec_fn=cap_address_space,
        )
        assert proc.returncode == 2
        assert "expand: out of memory: Unable to allocate" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_quality_count_mismatch(self, tmp_path):
        src = _synth(tmp_path)
        dip = str(tmp_path / "dip.pfg")
        assert main(["attr", src, "--attr", "dip", "--out", dip]) == 0
        assert main(["fuse", dip, dip, "--quality", dip,
                     "--out", str(tmp_path / "o.pfg")]) == 1


# Each command that reads a grid file, with ``{grid}`` where the file goes,
# a tag that tells two uses of one command apart, and the containers that
# do not suit it; export-pgm takes any grid.
_READERS = [
    ("pyramid {grid} --out-prefix {out}", "", ("volume", "map")),
    ("attr {grid} --out {out}", "", ("map",)),
    ("pipeline {grid} --out {out}", "", ("map",)),
    ("expand {grid} --rows 40 --cols 40 --out {out}", "", ("volume",)),
    ("fuse {map} {grid} --out {out}", "", ("volume", "section")),
    ("fuse {map} {map} --quality {map} --quality {grid} --out {out}", "-quality", ("volume",)),
]


class TestContainerRefusals:
    """Each command that reads a grid refuses a container it cannot use
    with exit 2, and writes nothing."""

    def _inputs(self, tmp_path):
        vol = _synth(tmp_path, "vol.pfg", VOLUME_SPEC)
        section = _synth(tmp_path)
        dip_map = str(tmp_path / "dip.pfg")
        assert main(["attr", section, "--out", dip_map]) == 0
        return vol, section, dip_map

    def test_pyramid_needs_a_section(self, tmp_path):
        vol, _, dip_map = self._inputs(tmp_path)
        prefix = str(tmp_path / "lvl")
        assert main(["pyramid", vol, "--out-prefix", prefix]) == 2
        assert main(["pyramid", dip_map, "--out-prefix", prefix]) == 2
        assert not list(tmp_path.glob("lvl*"))

    @pytest.mark.parametrize("command", ["attr", "pipeline"])
    def test_attribute_refusal_names_the_input(self, tmp_path, caplog, command):
        _, _, dip_map = self._inputs(tmp_path)
        out = tmp_path / "o.pfg"
        assert main([command, dip_map, "--out", str(out)]) == 2
        assert f"{dip_map}: unsupported input type AttributeMap" in caplog.text
        assert not out.exists()

    def test_expand_refuses_a_volume(self, tmp_path):
        vol, _, _ = self._inputs(tmp_path)
        out = tmp_path / "big.pfg"
        assert main(["expand", vol, "--rows", "40", "--cols", "40", "--out", str(out)]) == 2
        assert not out.exists()

    def test_fuse_refuses_a_volume_map_or_mask(self, tmp_path):
        vol, _, dip_map = self._inputs(tmp_path)
        out = tmp_path / "fused.pfg"
        assert main(["fuse", dip_map, vol, "--out", str(out)]) == 2
        assert main(["fuse", dip_map, dip_map, "--quality", dip_map, "--quality", vol,
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_fuse_refuses_raw_sections(self, tmp_path, caplog):
        # raw data is not an attribute, so no fused raw map can be made
        _, section, _ = self._inputs(tmp_path)
        other = _synth(tmp_path, "other.pfg", SPEC_TEXT.replace("t0=20", "t0=30"))
        out = tmp_path / "fused.pfg"
        assert main(["fuse", section, other, "--fuse", "mean", "--out", str(out)]) == 2
        assert f"{section}: unsupported input type SeismicSection" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize(
        "template, wrong",
        [
            pytest.param(template, wrong, id=f"{template.split()[0]}{tag}-{wrong}")
            for template, tag, refused in _READERS
            for wrong in refused
        ],
    )
    def test_wrong_container_is_refused(self, tmp_path, caplog, template, wrong):
        vol, section, dip_map = self._inputs(tmp_path)
        grid = {"volume": vol, "section": section, "map": dip_map}[wrong]
        argv = [
            word.format(grid=grid, map=dip_map, out=tmp_path / "out")
            for word in template.split()
        ]
        before = set(tmp_path.iterdir())
        assert main(argv) == 2
        assert f"{grid}: unsupported input type" in caplog.text
        assert set(tmp_path.iterdir()) == before


class TestHelp:
    @staticmethod
    def _help(capsys, *argv) -> str:
        """The help text of ``argv``, on one line; argparse fills a help
        string's ``%(default)s`` only when it renders the help."""
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--help"])
        assert exit_.value.code == 0
        return " ".join(capsys.readouterr().out.split())

    def test_every_command_renders_its_help_with_the_library_defaults(self, capsys):
        commands = re.search(r"\{([\w,-]+)\}", self._help(capsys)).group(1).split(",")
        texts = {command: self._help(capsys, command) for command in commands}
        assert {"attr", "pipeline", "fuse"} <= set(texts)
        for command in ("attr", "pipeline"):
            for value in (P_MAX_DEFAULT, EPS_FREQ_DEFAULT, VELOCITY_DEFAULT):
                assert f"(default {value})" in texts[command]
        for command in ("fuse", "pipeline"):
            assert "(default median)" in texts[command]


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        src = _synth(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "pyrafuse.cli", "info", src],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert "magic=PFGRID1" in proc.stdout

    def test_entry_point_is_declared(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        text = pyproject.read_text(encoding="utf-8")
        if sys.version_info >= (3, 11):
            import tomllib

            scripts = tomllib.loads(text)["project"]["scripts"]
        else:  # no tomllib: read the [project.scripts] table line by line
            scripts, table = {}, None
            for line in text.splitlines():
                line = line.split("#", 1)[0].strip()
                if line.startswith("["):
                    table = line
                elif table == "[project.scripts]" and "=" in line:
                    key, _, value = line.partition("=")
                    scripts[key.strip()] = value.strip().strip('"')
        assert scripts.get("pyrafuse") == "pyrafuse.cli:run"

        # an installed distribution must advertise the same script
        try:
            dist = metadata.distribution("pyrafuse")
        except metadata.PackageNotFoundError:
            return
        installed = {
            ep.name: ep.value
            for ep in dist.entry_points
            if ep.group == "console_scripts"
        }
        assert installed.get("pyrafuse") == "pyrafuse.cli:run"

    def test_version_is_declared_once(self):
        # pyproject.toml's [project] version is the one __version__ states
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        text = pyproject.read_text(encoding="utf-8")
        if sys.version_info >= (3, 11):
            import tomllib

            version = tomllib.loads(text)["project"]["version"]
        else:  # no tomllib: read the version line of the [project] table
            version, table = None, None
            for line in text.splitlines():
                line = line.split("#", 1)[0].strip()
                if line.startswith("["):
                    table = line
                elif table == "[project]" and line.partition("=")[0].strip() == "version":
                    version = line.partition("=")[2].strip().strip('"')
        assert version == pyrafuse.__version__
