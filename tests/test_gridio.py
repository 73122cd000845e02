from __future__ import annotations

import glob
import os
from pathlib import Path

import numpy as np
import pytest

from pyrafuse import (
    AttributeKind,
    AttributeMap,
    FormatError,
    Grid2,
    ParameterError,
    SeismicSection,
    SeismicVolume,
    describe_grid,
    export_pgm,
    parse_header,
    read_grid,
    write_grid,
)

MAGIC_LINE = b"magic=PFGRID1\n"


def _section(rows=16, cols=9, label=""):
    rng = np.random.default_rng(7)
    data = np.asarray(
        rng.standard_normal((rows, cols)).astype(np.float32), dtype=np.float64
    )
    return SeismicSection(Grid2(data), dt=0.002, dx=12.5, label=label)


class TestRoundTrips:
    def test_section(self, tmp_path):
        original = _section(label="line 40")
        path = str(tmp_path / "s.pfg")
        write_grid(path, original)
        back = read_grid(path)
        assert isinstance(back, SeismicSection)
        assert np.array_equal(back.grid.data, original.grid.data)
        assert back.dt == 0.002 and back.dx == 12.5
        assert back.label == "line 40"

    def test_volume(self, tmp_path):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((12, 6, 5)).astype(np.float32).astype(np.float64)
        original = SeismicVolume(data, dt=0.004, dx=25.0, dy=12.5)
        path = str(tmp_path / "v.pfg")
        write_grid(path, original)
        back = read_grid(path)
        assert isinstance(back, SeismicVolume)
        assert np.array_equal(back.data, original.data)
        assert (back.dt, back.dx, back.dy) == (0.004, 25.0, 12.5)

    def test_attribute_map_with_scale_and_meta(self, tmp_path):
        grid = Grid2(np.linspace(-0.5, 0.5, 20).reshape(4, 5))
        original = AttributeMap(
            grid,
            AttributeKind.PHASE_DIP,
            scale=2,
            dt=0.004,
            dx=25.0,
            meta={"p_max": "4.0", "eps_freq": "1e-06"},
        )
        path = str(tmp_path / "m.pfg")
        write_grid(path, original)
        back = read_grid(path)
        assert isinstance(back, AttributeMap)
        assert back.kind is AttributeKind.PHASE_DIP
        assert back.scale == 2 and not back.is_fused
        assert back.meta["p_max"] == "4.0"
        assert back.meta["eps_freq"] == "1e-06"
        assert np.array_equal(
            back.grid.data, np.asarray(grid.data, dtype=np.float32).astype(np.float64)
        )

    def test_fused_map_scale_tag(self, tmp_path):
        original = AttributeMap(
            Grid2(np.zeros((3, 3))), AttributeKind.PHASE_DIP, scale=None
        )
        path = str(tmp_path / "f.pfg")
        write_grid(path, original)
        raw = Path(path).read_bytes()
        assert b"scale=fused\n" in raw
        back = read_grid(path)
        assert back.scale is None and back.is_fused

    def test_bare_grid_becomes_raw_section(self, tmp_path):
        path = str(tmp_path / "g.pfg")
        write_grid(path, Grid2(np.ones((4, 4))))
        back = read_grid(path)
        assert isinstance(back, SeismicSection)

    def test_negative_zero_survives(self, tmp_path):
        grid = Grid2(np.array([[-0.0, 0.0], [1.0, -1.0]]))
        path = str(tmp_path / "z.pfg")
        write_grid(path, grid)
        back = read_grid(path)
        assert np.signbit(back.grid.data[0, 0])
        assert not np.signbit(back.grid.data[0, 1])

    def test_payload_is_quantized_to_float32(self, tmp_path):
        value = float(np.pi)
        path = str(tmp_path / "q.pfg")
        write_grid(path, Grid2(np.full((2, 2), value)))
        back = read_grid(path)
        assert back.grid.data[0, 0] == float(np.float32(value))
        assert back.grid.data[0, 0] != value

    def test_payload_bytes_are_little_endian_fortran(self, tmp_path):
        grid = Grid2(np.array([[1.0, 3.0], [2.0, 4.0]]))
        path = str(tmp_path / "le.pfg")
        write_grid(path, grid)
        blob = Path(path).read_bytes()
        _, offset = parse_header(blob, path=path)
        # column-major: 1, 2, 3, 4; 1.0f little-endian is 00 00 80 3f
        assert blob[offset : offset + 4] == b"\x00\x00\x80\x3f"
        assert np.array_equal(
            np.frombuffer(blob, dtype="<f4", offset=offset),
            np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32),
        )


class TestWriteValidation:
    def test_overflow_rejected_and_original_kept(self, tmp_path):
        path = str(tmp_path / "keep.pfg")
        write_grid(path, Grid2(np.full((2, 2), 7.0)))
        before = Path(path).read_bytes()
        with pytest.raises(ParameterError):
            write_grid(path, Grid2(np.full((2, 2), 1e39)))
        assert Path(path).read_bytes() == before
        assert glob.glob(str(tmp_path / ".pfg-*")) == []

    def test_extra_meta_round_trip(self, tmp_path):
        path = str(tmp_path / "x.pfg")
        write_grid(path, _section(), extra_meta={"source": "demo"})
        back = read_grid(path)
        pairs = dict(describe_grid(path))
        assert pairs["source"] == "demo"
        assert isinstance(back, SeismicSection)

    def test_extra_meta_cannot_shadow_structure(self, tmp_path):
        path = str(tmp_path / "x.pfg")
        with pytest.raises(ParameterError):
            write_grid(path, _section(), extra_meta={"rows": "9"})
        with pytest.raises(ParameterError):
            write_grid(path, _section(), extra_meta={"a=b": "c"})
        with pytest.raises(ParameterError):
            write_grid(path, _section(), extra_meta={"note": "two\nlines"})
        assert not os.path.exists(path)

    def test_unserializable_object(self, tmp_path):
        with pytest.raises(ParameterError):
            write_grid(str(tmp_path / "no.pfg"), {"not": "a grid"})


class TestHeaderParsing:
    def test_describe_reports_offsets(self, tmp_path):
        path = str(tmp_path / "d.pfg")
        write_grid(path, _section(rows=10, cols=3))
        pairs = dict(describe_grid(path))
        blob = Path(path).read_bytes()
        header_len = blob.index(b"\n\n") + 2
        assert pairs["magic"] == "PFGRID1"
        assert pairs["rows"] == "10" and pairs["cols"] == "3"
        assert int(pairs["data_offset"]) == header_len
        assert int(pairs["payload_bytes"]) == 10 * 3 * 4

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.pfg")
        with open(path, "wb") as f:
            f.write(b"magic=NOPE\n\n")
        with pytest.raises(FormatError) as err:
            read_grid(path)
        assert "bad magic" in str(err.value)

    def test_missing_blank_terminator(self):
        with pytest.raises(FormatError) as err:
            parse_header(MAGIC_LINE + b"rows=4\n")
        assert "never terminated" in str(err.value)

    def test_malformed_line_carries_offset(self):
        blob = MAGIC_LINE + b"garbage\n\n"
        with pytest.raises(FormatError) as err:
            parse_header(blob)
        assert err.value.offset == len(MAGIC_LINE)

    def test_non_ascii_line(self):
        with pytest.raises(FormatError) as err:
            parse_header(MAGIC_LINE + b"label=caf\xe9\n\n")
        assert "non-ASCII" in str(err.value)

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "t.pfg")
        write_grid(path, _section(rows=8, cols=4))
        blob = Path(path).read_bytes()
        with open(path, "wb") as f:
            f.write(blob[:-4])
        with pytest.raises(FormatError) as err:
            read_grid(path)
        assert "124 bytes" in str(err.value)
        assert "128" in str(err.value)

    def test_dimension_errors(self, tmp_path):
        def roundtrip(header_lines):
            path = str(tmp_path / "h.pfg")
            with open(path, "wb") as f:
                f.write(MAGIC_LINE + header_lines + b"\n" + b"\x00" * 16)
            return path

        with pytest.raises(FormatError) as err:
            read_grid(roundtrip(b"cols=4\n"))
        assert "missing rows" in str(err.value)
        with pytest.raises(FormatError) as err:
            read_grid(roundtrip(b"rows=0\ncols=4\n"))
        assert ">= 1" in str(err.value)
        with pytest.raises(FormatError) as err:
            read_grid(roundtrip(b"rows=x\ncols=4\n"))
        assert "not an integer" in str(err.value)

    def test_unknown_kind_units_scale(self, tmp_path):
        def build(kind=b"dip", units=b"samples_per_trace", scale=b"1"):
            path = str(tmp_path / "k.pfg")
            header = (
                MAGIC_LINE
                + b"rows=2\ncols=2\nkind=" + kind
                + b"\nunits=" + units
                + b"\nscale=" + scale
                + b"\n\n"
            )
            with open(path, "wb") as f:
                f.write(header + b"\x00" * 16)
            return path

        assert isinstance(read_grid(build()), AttributeMap)
        with pytest.raises(FormatError) as err:
            read_grid(build(kind=b"sparkle"))
        assert "unknown kind" in str(err.value)
        with pytest.raises(FormatError) as err:
            read_grid(build(units=b"furlongs"))
        assert "unknown units" in str(err.value)
        with pytest.raises(FormatError) as err:
            read_grid(build(units=b"radians"))
        assert "do not match" in str(err.value)
        with pytest.raises(FormatError) as err:
            read_grid(build(scale=b"soon"))
        assert "bad scale" in str(err.value)

    @pytest.mark.parametrize(
        "bad", [b"dt=nan", b"dt=inf", b"dt=-1.0", b"dx=-1", b"dy=0", b"scale=-2"]
    )
    def test_header_domain_errors_are_format_errors(self, tmp_path, bad):
        path = str(tmp_path / "dom.pfg")
        header = MAGIC_LINE + b"rows=2\ncols=2\nkind=dip\n" + bad + b"\n\n"
        with open(path, "wb") as f:
            f.write(header + b"\x00" * 16)
        with pytest.raises(FormatError) as err:
            read_grid(path)
        assert path in str(err.value)
        assert err.value.offset == len(header)

    def test_attribute_volume_rejected(self, tmp_path):
        path = str(tmp_path / "av.pfg")
        header = MAGIC_LINE + b"rows=2\ncols=2\nplanes=2\nkind=dip\n\n"
        with open(path, "wb") as f:
            f.write(header + b"\x00" * 32)
        with pytest.raises(FormatError) as err:
            read_grid(path)
        assert "must be 2D" in str(err.value)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = str(tmp_path / "nan.pfg")
        payload = np.array([np.nan, 0, 0, 0], dtype="<f4").tobytes()
        with open(path, "wb") as f:
            f.write(MAGIC_LINE + b"rows=2\ncols=2\n\n" + payload)
        with pytest.raises(FormatError) as err:
            read_grid(path)
        assert "non-finite" in str(err.value)

    def test_absurd_cell_count_rejected_before_allocation(self, tmp_path):
        path = str(tmp_path / "big.pfg")
        with open(path, "wb") as f:
            f.write(MAGIC_LINE + b"rows=100000000\ncols=100000000\n\n")
        with pytest.raises(FormatError) as err:
            read_grid(path)
        assert "cells" in str(err.value)


class TestExportPgm:
    def test_frozen_bytes(self, tmp_path):
        grid = Grid2(np.array([[0.0, 1.0]]))
        path = str(tmp_path / "p.pgm")
        export_pgm(grid, path, clip_lo=0.0, clip_hi=100.0)
        assert Path(path).read_bytes() == b"P5 2 1 255\n\x00\xff"

    def test_constant_map_renders_mid_gray(self, tmp_path):
        path = str(tmp_path / "c.pgm")
        export_pgm(Grid2(np.full((3, 2), 5.0)), path)
        blob = Path(path).read_bytes()
        assert blob == b"P5 2 3 255\n" + b"\x80" * 6

    def test_percentile_clipping_saturates_tails(self, tmp_path):
        data = np.linspace(0.0, 1.0, 100).reshape(10, 10)
        path = str(tmp_path / "t.pgm")
        export_pgm(Grid2(data), path, clip_lo=10.0, clip_hi=90.0)
        pixels = np.frombuffer(Path(path).read_bytes()[11:], dtype=np.uint8)
        assert pixels.min() == 0 and pixels.max() == 255
        assert (pixels == 0).sum() >= 10 and (pixels == 255).sum() >= 10

    def test_accepts_attribute_map(self, tmp_path):
        fused = AttributeMap(
            Grid2(np.linspace(0, 1, 12).reshape(3, 4)), AttributeKind.PHASE_DIP
        )
        path = str(tmp_path / "m.pgm")
        export_pgm(fused, path)
        assert Path(path).read_bytes().startswith(b"P5 4 3 255\n")

    def test_percentile_validation(self, tmp_path):
        path = str(tmp_path / "no.pgm")
        with pytest.raises(ParameterError):
            export_pgm(Grid2(np.zeros((2, 2))), path, clip_lo=50.0, clip_hi=50.0)
        with pytest.raises(ParameterError):
            export_pgm(Grid2(np.zeros((2, 2))), path, clip_lo=-1.0, clip_hi=98.0)
        with pytest.raises(ParameterError):
            export_pgm(Grid2(np.zeros((2, 2))), path, clip_lo=2.0, clip_hi=101.0)
        assert not os.path.exists(path)
