from __future__ import annotations

import os
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest

import pyrafuse
from oracles import same_bits
from pyrafuse import (
    AttributeKind,
    attribute_stack,
    describe_grid,
    encode_ibm32,
    multiscale_attribute,
    read_grid,
)
from pyrafuse.cli import _ATTR_FLAGS, main

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
        assert read_grid(out).data.shape == (48, 20, 16)


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
            ["pipeline", src, "--fuse", "wmean", "--weight-bias", "2", "--out", out]
        ) == 0
        fused = read_grid(out)
        assert fused.is_fused
        assert fused.meta["method"] == "wmean"
        assert fused.meta["scales"] == "4"
        assert "weights" in fused.meta
        assert fused.meta["sigma"] == "1.0"
        assert fused.meta["radius"] == "2"


class TestVolumeAttr:
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


class TestExitCodes:
    def test_usage_errors_exit_one(self, tmp_path, capsys):
        src = _synth(tmp_path)
        assert main(["no-such-command"]) == 1
        assert main(["pyramid", src]) == 1  # missing --out-prefix
        assert main(["pipeline", src, "--fuse", "rank",
                     "--out", str(tmp_path / "o.pfg")]) == 1  # rank needs --rank
        assert main(["pipeline", src, "--fuse", "wmean", "--weights", "1,2,bad",
                     "--out", str(tmp_path / "o.pfg")]) == 1
        capsys.readouterr()

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
            ["--fuse", "wmean", "--weight-bias", "1e-300"],  # so do default weights
        ],
        ids=["weights", "rank", "overflowing-weights", "overflowing-bias"],
    )
    def test_bad_fusion_spec_exits_before_the_stack(self, tmp_path, monkeypatch, flags):
        src = _synth(tmp_path)

        def no_stack(*args, **kwargs):
            raise AssertionError("the dip stack was built before the fusion spec was checked")

        monkeypatch.setattr("pyrafuse.cli._attribute_layers", no_stack)
        out = str(tmp_path / "o.pfg")
        assert main(["pipeline", src, "--scales", "3", *flags, "--out", out]) == 1
        assert not os.path.exists(out)

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

    def test_quality_count_mismatch(self, tmp_path):
        src = _synth(tmp_path)
        dip = str(tmp_path / "dip.pfg")
        assert main(["attr", src, "--attr", "dip", "--out", dip]) == 0
        assert main(["fuse", dip, dip, "--quality", dip,
                     "--out", str(tmp_path / "o.pfg")]) == 1


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

    def test_fuse_of_raw_sections_is_a_raw_map(self, tmp_path):
        _, section, _ = self._inputs(tmp_path)
        other = _synth(tmp_path, "other.pfg", SPEC_TEXT.replace("t0=20", "t0=30"))
        out = str(tmp_path / "fused.pfg")
        assert main(["fuse", section, other, "--fuse", "mean", "--out", out]) == 0
        pairs = dict(describe_grid(out))
        assert (pairs["kind"], pairs["scale"], pairs["method"]) == ("raw", "fused", "mean")
        a, b = read_grid(section).grid.data, read_grid(other).grid.data
        assert not np.array_equal(a, b)
        want = ((a + b) / 2).astype(np.float32).astype(np.float64)
        assert same_bits(read_grid(out).grid.data, want)


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
