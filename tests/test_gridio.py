from __future__ import annotations

import glob
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pyrafuse import (
    AttributeKind,
    AttributeMap,
    FormatError,
    Grid2,
    ParameterError,
    PyrafuseError,
    SeismicSection,
    SeismicVolume,
    describe_grid,
    export_pgm,
    gridio,
    parse_header,
    read_grid,
    write_grid,
)

MAGIC_LINE = b"magic=PFGRID1\n"
# float32 words that are not finite: quiet NaN, signalling NaNs of either
# sign and the largest signalling payload, and both infinities
NON_FINITE_WORDS = [0x7FC00000, 0x7F800001, 0xFF800001, 0x7FBFFFFF, 0x7F800000, 0xFF800000]


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


_PIN_GRID = np.arange(6.0).reshape(3, 2)
_RAW_KEYS = ("kind=raw", "units=dimensionless", "scale=0")

# Each container, and the header lines write_grid gives it without and with
# the extra pairs {"source": "segy", "level": "2"}: structural keys in a
# fixed order, then every metadata pair sorted by key.
HEADER_PINS = {
    "labelled-section": (
        lambda: SeismicSection(Grid2(_PIN_GRID), dt=0.002, dx=12.5, label="inline 12"),
        ("rows=3", "cols=2", "dt=0.002", "dx=12.5", *_RAW_KEYS, "label=inline 12"),
        ("rows=3", "cols=2", "dt=0.002", "dx=12.5", *_RAW_KEYS,
         "label=inline 12", "level=2", "source=segy"),
    ),
    "section": (
        lambda: SeismicSection(Grid2(_PIN_GRID), dt=0.002, dx=12.5),
        ("rows=3", "cols=2", "dt=0.002", "dx=12.5", *_RAW_KEYS),
        ("rows=3", "cols=2", "dt=0.002", "dx=12.5", *_RAW_KEYS, "level=2", "source=segy"),
    ),
    "volume": (
        lambda: SeismicVolume(np.arange(24.0).reshape(3, 2, 4), dt=0.004, dx=25.0, dy=12.5),
        ("rows=3", "cols=2", "planes=4", "dt=0.004", "dx=25.0", "dy=12.5", *_RAW_KEYS),
        ("rows=3", "cols=2", "planes=4", "dt=0.004", "dx=25.0", "dy=12.5", *_RAW_KEYS,
         "level=2", "source=segy"),
    ),
    "map-with-dy": (
        lambda: AttributeMap(
            Grid2(_PIN_GRID), AttributeKind.CURV_POS, scale=2, dt=0.004, dx=25.0,
            dy=30.0, meta={"velocity": "2000.0", "convention": "time-dip"},
        ),
        ("rows=3", "cols=2", "dt=0.004", "dx=25.0", "dy=30.0", "kind=curv_pos",
         "units=per_meter", "scale=2", "convention=time-dip", "velocity=2000.0"),
        ("rows=3", "cols=2", "dt=0.004", "dx=25.0", "dy=30.0", "kind=curv_pos",
         "units=per_meter", "scale=2", "convention=time-dip", "level=2",
         "source=segy", "velocity=2000.0"),
    ),
    "fused-map": (
        lambda: AttributeMap(
            Grid2(_PIN_GRID), AttributeKind.PHASE_DIP, scale=None, dt=0.004, dx=25.0,
            meta={"scales": "4", "method": "median"},
        ),
        ("rows=3", "cols=2", "dt=0.004", "dx=25.0", "kind=dip",
         "units=samples_per_trace", "scale=fused", "method=median", "scales=4"),
        ("rows=3", "cols=2", "dt=0.004", "dx=25.0", "kind=dip",
         "units=samples_per_trace", "scale=fused", "level=2", "method=median",
         "scales=4", "source=segy"),
    ),
    "bare-grid": (
        lambda: Grid2(_PIN_GRID),
        ("rows=3", "cols=2", "dt=1.0", "dx=1.0", *_RAW_KEYS),
        ("rows=3", "cols=2", "dt=1.0", "dx=1.0", *_RAW_KEYS, "level=2", "source=segy"),
    ),
}


@pytest.mark.parametrize("extra", [False, True], ids=["own-meta", "extra-meta"])
@pytest.mark.parametrize("name", sorted(HEADER_PINS))
def test_header_bytes_are_pinned(tmp_path, name, extra):
    make, plain, with_extra = HEADER_PINS[name]
    obj = make()
    path = str(tmp_path / "pin.pfg")
    write_grid(path, obj, extra_meta={"source": "segy", "level": "2"} if extra else None)
    lines = ("magic=PFGRID1", *(with_extra if extra else plain))
    header = "".join(f"{line}\n" for line in lines).encode("ascii") + b"\n"
    blob = Path(path).read_bytes()
    assert blob[: len(header)] == header
    data = obj.data if isinstance(obj, (Grid2, SeismicVolume)) else obj.grid.data
    assert blob[len(header) :] == np.asarray(data, dtype="<f4").tobytes(order="F")


def test_write_then_read_is_float32_rounding(tmp_path, hypothesis_home):
    """A written and read grid holds the float32 rounding of its values, bit
    for bit (signed zeros and subnormals included), and its intervals and
    metadata."""
    path = str(tmp_path / "r.pfg")
    # float64 values that round to a finite float32, float32's extremes and
    # subnormals, and a float32 tie (1 + 2**-24)
    values = st.floats(-3.4e38, 3.4e38, allow_subnormal=True) | st.sampled_from(
        [0.0, -0.0, 1e-45, -1.4e-45, 3.4028234663852886e38, 1.1754942e-38, 1 + 2.0**-24]
    )

    # rows past one and two 32-row blocks of the payload cast
    shapes = st.tuples(st.integers(1, 70), st.integers(1, 5)) | st.tuples(
        st.integers(1, 70), st.integers(1, 4), st.integers(1, 3)
    )

    @settings(database=None, deadline=None, max_examples=20)
    @given(
        data=hnp.arrays(np.float64, shapes, elements=values, fill=values),
        as_map=st.booleans(),
    )
    def check(data, as_map):
        if data.ndim == 3:
            obj = SeismicVolume(data, dt=0.004, dx=25.0, dy=12.5)
        elif as_map:
            obj = AttributeMap(
                Grid2(data), AttributeKind.DIP_ANGLE, scale=2, dt=0.002, dx=12.5, dy=30.0,
                meta={"velocity": "2000.0", "note": "round trip"},
            )
        else:
            obj = SeismicSection(Grid2(data), dt=0.002, dx=12.5, label="line 7")
        write_grid(path, obj)
        back = read_grid(path)
        if data.ndim == 3:
            assert (back.dt, back.dx, back.dy) == (0.004, 25.0, 12.5)
            got = back.data
        elif as_map:
            assert (back.kind, back.scale, back.dy) == (AttributeKind.DIP_ANGLE, 2, 30.0)
            assert back.meta == obj.meta
            got = back.grid.data
        else:
            assert back.label == "line 7"
            got = back.grid.data
        assert got.tobytes() == data.astype(np.float32).astype(np.float64).tobytes()

    check()


class TestFloat32Payload:
    """The blocked transposing cast gives the bytes of one Fortran cast."""

    @pytest.mark.parametrize("shape", [(1, 1), (31, 5), (32, 7), (33, 4), (100, 3), (65, 4, 3), (7, 9, 2)])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bytes_equal_one_fortran_cast(self, shape, layout):
        rng = np.random.default_rng(len(shape) * 100 + shape[0])
        full = rng.standard_normal(tuple(2 * n for n in shape)) * 10.0 ** rng.integers(-50, 50)
        full.flat[::7] = -0.0
        full.flat[::11] = 1e39  # beyond float32: inf in both
        data = full[tuple(slice(None, n) for n in shape)]
        if layout == "C":
            data = np.ascontiguousarray(data)
        elif layout == "F":
            data = np.asfortranarray(data)
        else:
            data = full[tuple(slice(None, None, 2) for _ in shape)][..., ::-1]
        with np.errstate(over="ignore"):
            expected = np.asarray(data, dtype="<f4", order="F").T
        got = gridio._float32_payload(data)
        assert got.flags.c_contiguous and got.dtype == np.dtype("<f4")
        assert got.tobytes() == expected.tobytes()


class TestWriteValidation:
    def test_overflow_rejected_and_original_kept(self, tmp_path):
        path = str(tmp_path / "keep.pfg")
        write_grid(path, Grid2(np.full((2, 2), 7.0)))
        before = Path(path).read_bytes()
        with pytest.raises(ParameterError):
            write_grid(path, Grid2(np.full((2, 2), 1e39)))
        assert Path(path).read_bytes() == before
        assert glob.glob(str(tmp_path / ".pfg-*")) == []

    def test_failed_rename_keeps_the_original_and_no_temp_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "keep.pfg")
        write_grid(path, Grid2(np.full((2, 2), 7.0)))
        before = Path(path).read_bytes()

        def no_rename(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(gridio.os, "replace", no_rename)
        with pytest.raises(OSError, match="rename refused"):
            write_grid(path, Grid2(np.full((3, 3), 1.0)))
        monkeypatch.undo()
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

    def test_meta_cannot_shadow_a_key_the_object_omits(self, tmp_path):
        # a section has no dy and a map no planes, yet the reader would take
        # either from the header: the file could not be read back
        path = str(tmp_path / "x.pfg")
        with pytest.raises(ParameterError, match="'dy' shadows a structural key"):
            write_grid(path, _section(), extra_meta={"dy": "-1"})
        planes = AttributeMap(
            Grid2(np.zeros((3, 2))), AttributeKind.PHASE_DIP, meta={"planes": "4"}
        )
        with pytest.raises(ParameterError, match="'planes' shadows a structural key"):
            write_grid(path, planes)
        assert not os.path.exists(path)

    @pytest.mark.parametrize(
        "meta, extra, match",
        [
            # the reader strips and lowercases keys: " dt" would overwrite dt
            ({" dt": "3"}, None, "' dt' is not stripped and lowercase"),
            # ROWS would read as rows=2 and the payload would not fit it
            ({"ROWS": "2"}, None, "'ROWS' is not stripped and lowercase"),
            # Kind would read as kind=raw, a section instead of a map
            ({"Kind": "raw"}, None, "'Kind' is not stripped and lowercase"),
            ({}, {"Note ": "x"}, "'Note ' is not stripped and lowercase"),
            ({"label": "café"}, None, "not representable: 'label'"),
            ({}, {"café": "x"}, "not representable"),
        ],
        ids=["padded-dt", "upper-rows", "capital-kind", "extra-padded", "non-ascii-value",
             "non-ascii-key"],
    )
    def test_meta_that_would_not_read_back_unchanged_is_refused(self, tmp_path, meta, extra, match):
        path = str(tmp_path / "x.pfg")
        m = AttributeMap(Grid2(np.zeros((4, 5))), AttributeKind.PHASE_DIP, dt=1.0, meta=meta)
        with pytest.raises(ParameterError, match=match):
            write_grid(path, m, extra_meta=extra)
        assert not os.path.exists(path)
        assert glob.glob(str(tmp_path / ".pfg-*")) == []

    def test_non_ascii_section_label_is_a_parameter_error(self, tmp_path):
        path = str(tmp_path / "x.pfg")
        with pytest.raises(ParameterError, match="not representable: 'label'"):
            write_grid(path, _section(label="café"))
        assert not os.path.exists(path)

    def test_meta_values_round_trip_verbatim(self, tmp_path):
        # values are not stripped or lowercased, and may hold '='
        path = str(tmp_path / "x.pfg")
        meta = {"note": "  Mixed Case = kept ", "label": "inline 12"}
        write_grid(path, AttributeMap(Grid2(np.zeros((4, 5))), AttributeKind.PHASE_DIP, meta=meta))
        assert read_grid(path).meta == meta

    def test_unserializable_object(self, tmp_path):
        with pytest.raises(ParameterError):
            write_grid(str(tmp_path / "no.pfg"), {"not": "a grid"})

    def test_volume_write_holds_one_float32_copy(self, tmp_path):
        # the Fortran-order float32 samples are written from their own
        # buffer, without a bytes copy or a header-plus-payload join
        volume = SeismicVolume(
            np.random.default_rng(3).standard_normal((200, 30, 20)), dt=0.004, dx=25.0, dy=25.0
        )
        path = str(tmp_path / "v.pfg")
        tracemalloc.start()
        try:
            write_grid(path, volume)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * volume.data.size * 4
        back = read_grid(path)
        assert np.array_equal(back.data, volume.data.astype(np.float32))


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

    @pytest.mark.parametrize("word", NON_FINITE_WORDS)
    def test_non_finite_word_is_an_error_at_its_offset(self, tmp_path, word):
        # a signalling NaN must not reach a float64 cast, which warns
        path = tmp_path / "snan.pfg"
        header = MAGIC_LINE + b"rows=2\ncols=3\n\n"
        words = np.array([1.0, -2.0, 0.5, 3.0, 0.0, 7.0], dtype="<f4").view("<u4").copy()
        words[4] = word
        path.write_bytes(header + words.tobytes())
        with pytest.raises(FormatError, match="non-finite") as err:
            read_grid(str(path))
        assert err.value.offset == len(header) + 16

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


_FUZZ_HEADER_VALUES = [
    "0", "-1", "1", "2", "3", "12", "99999999999", "x", "", " 2", "nan", "inf", "-0.5",
    "1e-320", "fused", "-2", "dip", "raw", "radians", "samples_per_trace", "PFGRID1",
]


def test_mutated_grid_files_raise_only_package_errors(tmp_path, hypothesis_home):
    """Truncated or edited grid files read, or raise a PyrafuseError.

    Edits favour header values and non-finite float32 payload words; what
    reads holds the file's payload.
    """
    bases = {}
    rng = np.random.default_rng(17)
    for name, obj in {
        "section": _section(rows=6, cols=5, label="fuzz"),
        "volume": SeismicVolume(rng.standard_normal((4, 3, 2)), dt=0.004, dx=25.0, dy=12.5),
        "map": AttributeMap(
            Grid2(rng.standard_normal((5, 4))), AttributeKind.PHASE_DIP, scale=1,
            dt=0.004, dx=25.0, meta={"note": "fuzz"},
        ),
    }.items():
        path = tmp_path / f"{name}.pfg"
        write_grid(str(path), obj)
        bases[name] = path.read_bytes()
    path = tmp_path / "fuzz.pfg"
    word = st.one_of(st.sampled_from(NON_FINITE_WORDS), st.integers(0, (1 << 32) - 1))
    value = st.one_of(
        st.sampled_from(_FUZZ_HEADER_VALUES), st.text("0123456789.-+einfx", max_size=5)
    )

    @settings(database=None, deadline=None, max_examples=40)
    @given(
        base=st.sampled_from(sorted(bases)),
        values=st.lists(st.tuples(st.integers(0, 15), value), max_size=2),
        words=st.lists(st.tuples(st.integers(0, 63), word), max_size=3),
        flips=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=2),
        cut=st.one_of(st.none(), st.integers(0, 400)),
    )
    def check(base, values, words, flips, cut):
        head, _, payload = bases[base].partition(b"\n\n")
        lines = head.split(b"\n")
        for line, text in values:
            key = lines[line % len(lines)].partition(b"=")[0]
            lines[line % len(lines)] = key + b"=" + text.encode("ascii")
        payload = bytearray(payload)
        for at, w in words:
            j = 4 * (at % (len(payload) // 4))
            payload[j : j + 4] = w.to_bytes(4, "little")
        blob = bytearray(b"\n".join(lines) + b"\n\n" + payload)
        for at, byte in flips:
            blob[at % len(blob)] = byte
        blob = bytes(blob[:cut])
        path.write_bytes(blob)
        try:
            result = read_grid(str(path))
        except PyrafuseError:
            return
        data = result.data if isinstance(result, SeismicVolume) else result.grid.data
        _, offset = parse_header(blob)
        stored = np.frombuffer(blob, dtype="<f4", offset=offset)
        assert np.array_equal(data.ravel(order="F"), stored)

    check()
