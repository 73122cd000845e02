from __future__ import annotations

import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decode_ibm32_reference, encode_ibm32_reference, read_segy_reference
from pyrafuse import (
    FormatError,
    ParameterError,
    PyrafuseError,
    SegyImportOptions,
    SeismicSection,
    SeismicVolume,
    UnsupportedFormatError,
    decode_ibm32,
    encode_ibm32,
    read_segy,
    segy,
)


def _build_segy(
    traces: np.ndarray,
    inlines,
    crosslines,
    dt_us: int = 4000,
    fmt: int = 1,
    big: bool = True,
    trailing: bytes = b"",
    header_fmt: int | None = None,
    raw: bool = False,
) -> bytes:
    """Assemble a minimal SEG-Y byte stream around the given trace matrix.

    With ``raw``, ``traces`` holds the samples as stored (uint32 IBM words
    or float32 values), written in the file's byte order.
    """
    ns, n = traces.shape
    u2 = ">u2" if big else "<u2"
    i4 = ">i4" if big else "<i4"
    binary = bytearray(400)
    binary[16:18] = np.array([dt_us], dtype=u2).tobytes()
    binary[20:22] = np.array([ns], dtype=u2).tobytes()
    binary[24:26] = np.array([header_fmt if header_fmt is not None else fmt], dtype=u2).tobytes()
    blob = bytearray(b"C" * 3200) + binary
    for j in range(n):
        header = bytearray(240)
        header[188:192] = np.array([inlines[j]], dtype=i4).tobytes()
        header[192:196] = np.array([crosslines[j]], dtype=i4).tobytes()
        blob += header
        if raw:
            stored = traces.dtype.newbyteorder(">" if big else "<")
            blob += traces[:, j].astype(stored).tobytes()
        elif fmt == 5:
            blob += np.asarray(traces[:, j], dtype=">f4" if big else "<f4").tobytes()
        else:
            words = encode_ibm32(traces[:, j])
            blob += words.astype(">u4" if big else "<u4").tobytes()
    blob += trailing
    return bytes(blob)


def _write(tmp_path, blob: bytes) -> str:
    path = str(tmp_path / "demo.sgy")
    with open(path, "wb") as handle:
        handle.write(blob)
    return path


class TestIbmCodec:
    def test_decode_known_words(self):
        words = np.array([0x42640000, 0x00000000, 0xC1100000, 0x41100000], dtype=np.uint32)
        assert decode_ibm32(words).tolist() == [100.0, 0.0, -1.0, 1.0]

    def test_encode_known_words(self):
        got = encode_ibm32(np.array([100.0, 0.0, -1.0, 1.0]))
        assert [hex(int(v)) for v in got] == ["0x42640000", "0x0", "0xc1100000", "0x41100000"]

    def test_round_trip_precision(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(-1.0, 1.0, 100) * 10.0 ** rng.integers(-3, 4, 100)
        back = decode_ibm32(encode_ibm32(values))
        rel = np.abs(back - values) / np.abs(values)
        assert rel.max() <= 5e-7

    def test_exact_cases_round_trip_bitwise(self):
        values = np.array([100.0, -0.5, 0.0625, 256.0, 1.0])
        assert np.array_equal(decode_ibm32(encode_ibm32(values)), values)

    def test_normalised_words_round_trip(self, hypothesis_home):
        # every word whose fraction's leading hex digit is set, and zero,
        # is what the encoder gives back for its decoded value
        word = st.builds(
            lambda sign, exponent, fraction: sign << 31 | exponent << 24 | fraction,
            st.integers(0, 1), st.integers(0, 127), st.integers(0x100000, 0xFFFFFF),
        )

        @settings(database=None, deadline=None, max_examples=25)
        @given(st.lists(word | st.just(0), min_size=1, max_size=64))
        def check(words):
            w = np.array(words, dtype=np.uint32)
            assert encode_ibm32(decode_ibm32(w)).tolist() == w.tolist()

        check()

    def test_encode_range_errors(self):
        with pytest.raises(ParameterError):
            encode_ibm32(np.array([1e80]))
        with pytest.raises(ParameterError):
            encode_ibm32(np.array([np.inf]))
        with pytest.raises(ParameterError):
            encode_ibm32(np.array([np.nan]))


class TestEncodeMatchesReference:
    """The vectorised encoder against the per-value loop it replaced."""

    @staticmethod
    def _same_words(values):
        got = encode_ibm32(values)
        want = encode_ibm32_reference(values)
        return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)

    def test_every_hex_exponent(self):
        # fractions at both ends of [1/16, 1) and inside, at every exponent
        fractions = np.array([1.0 / 16.0, 1.0 / 16.0 + 2.0**-40, 0.1, 0.5, 0.75, 1.0 - 2.0**-24])
        e = np.arange(-64, 64, dtype=np.float64)
        mags = fractions[None, :] * 16.0 ** e[:, None]
        values = np.concatenate([mags.ravel(), -mags.ravel()])
        assert self._same_words(values)
        words = encode_ibm32(values)
        assert sorted(set((words >> 24 & 0x7F).tolist())) == list(range(128))

    def test_fractions_that_carry_to_the_next_exponent(self):
        # 2**24 - 0.5 rounds half to even, up to 2**24; 2**24 - 0.25 rounds up;
        # 2**24 - 0.75 stays below
        e = np.arange(-64, 63, dtype=np.float64)
        steps = np.array([0.25, 0.5, 0.75, 1.5])
        mags = ((2.0**24 - steps[None, :]) / 2.0**24) * 16.0 ** e[:, None]
        values = np.concatenate([mags.ravel(), -mags.ravel()])
        assert self._same_words(values)
        carried = encode_ibm32(((2.0**24 - 0.5) / 2.0**24) * 16.0 ** e)
        assert np.array_equal(carried & 0xFFFFFF, np.full(e.shape, 1 << 20))

    def test_signed_zeros_and_shapes(self):
        assert self._same_words(np.array([-0.0, 0.0, 1.0, -0.0]))
        assert encode_ibm32(np.array([-0.0, 0.0])).tolist() == [0, 0]
        assert self._same_words(np.float64(-2.5))
        assert self._same_words(np.arange(-12.0, 12.0).reshape(2, 3, 4) * 0.37)

    def test_range_ends(self):
        smallest = 16.0**-65  # fraction 1/16 at exponent -64
        largest = (1.0 - 2.0**-24) * 16.0**63
        # just below the smallest, a fraction that rounds up carries into range
        below = smallest * (1.0 - 2.0**-30)
        assert self._same_words(np.array([smallest, -smallest, largest, -largest, below]))
        assert encode_ibm32(np.array([smallest, largest, below])).tolist() == [
            0x00100000, 0x7FFFFFFF, 0x00100000]
        for outside in (smallest * (1.0 - 2.0**-20), (1.0 - 2.0**-26) * 16.0**63, 1e-300, 5e-324,
                        1e80, np.finfo(np.float64).max):
            with pytest.raises(ParameterError, match="outside the IBM float range"):
                encode_ibm32(np.array([outside]))

    def test_random_float32_values(self):
        rng = np.random.default_rng(35)
        values = np.float32(rng.standard_normal(5000) * 10.0 ** rng.integers(-30, 30, 5000))
        assert self._same_words(values.astype(np.float64))

    @pytest.mark.parametrize(
        "values",
        [[np.inf], [np.nan], [-np.inf], [1e80], [-1e-80], [1.0, 1e80, np.nan], [2.0, np.nan, 1e80]],
    )
    def test_errors_name_the_first_bad_value(self, values):
        with pytest.raises(ParameterError) as want:
            encode_ibm32_reference(np.array(values))
        with pytest.raises(ParameterError) as got:
            encode_ibm32(np.array(values))
        assert str(got.value) == str(want.value)


class TestReadSection:
    def test_single_inline_falls_back_to_section(self, tmp_path):
        rng = np.random.default_rng(0)
        traces = np.round(rng.standard_normal((16, 5)), 3)
        path = _write(tmp_path, _build_segy(traces, [10] * 5, range(1, 6)))
        section = read_segy(path)
        assert isinstance(section, SeismicSection)
        assert section.grid.shape == (16, 5)
        assert section.dt == pytest.approx(0.004)
        assert np.allclose(section.grid.data, traces, rtol=5e-7, atol=1e-9)

    def test_sample_interval_is_microseconds(self, tmp_path):
        traces = np.ones((8, 3))
        path = _write(tmp_path, _build_segy(traces, [1] * 3, [1, 2, 3], dt_us=2000))
        assert read_segy(path).dt == pytest.approx(0.002)

    def test_max_traces_caps_the_read(self, tmp_path):
        traces = np.arange(40, dtype=np.float64).reshape(8, 5) + 1.0
        path = _write(tmp_path, _build_segy(traces, [1] * 5, range(5)))
        section = read_segy(path, SegyImportOptions(max_traces=3))
        assert section.grid.shape == (8, 3)
        assert np.allclose(section.grid.data, traces[:, :3], rtol=5e-7)

    def test_custom_spacing_propagates(self, tmp_path):
        traces = np.ones((8, 3))
        path = _write(tmp_path, _build_segy(traces, [1] * 3, [1, 2, 3]))
        section = read_segy(path, SegyImportOptions(dx=12.5))
        assert section.dx == 12.5
        assert (section.label, section.meta) == ("segy import", {"source": "segy"})

    def test_ieee_format(self, tmp_path):
        traces = np.linspace(-1, 1, 24).reshape(8, 3)
        path = _write(tmp_path, _build_segy(traces, [1] * 3, [1, 2, 3], fmt=5))
        section = read_segy(path)
        assert np.array_equal(
            section.grid.data, traces.astype(np.float32).astype(np.float64)
        )

    def test_little_endian_reader(self, tmp_path):
        traces = np.linspace(-2, 2, 16).reshape(8, 2)
        path = _write(tmp_path, _build_segy(traces, [1, 1], [1, 2], fmt=5, big=False))
        section = read_segy(path, SegyImportOptions(big_endian=False))
        assert np.array_equal(
            section.grid.data, traces.astype(np.float32).astype(np.float64)
        )

    def test_format_override_beats_header(self, tmp_path):
        traces = np.linspace(-1, 1, 16).reshape(8, 2)
        # header claims IBM, samples are IEEE: override must win
        path = _write(
            tmp_path, _build_segy(traces, [1, 1], [1, 2], fmt=5, header_fmt=1)
        )
        section = read_segy(path, SegyImportOptions(format_code=5))
        assert np.array_equal(
            section.grid.data, traces.astype(np.float32).astype(np.float64)
        )


class TestReadVolume:
    def test_regular_grid_becomes_volume(self, tmp_path):
        ns, nil, nxl = 8, 2, 3
        traces = np.zeros((ns, nil * nxl))
        inlines, crosslines = [], []
        j = 0
        for il in (100, 101):
            for xl in (7, 8, 9):
                traces[:, j] = il * 10 + xl
                inlines.append(il)
                crosslines.append(xl)
                j += 1
        path = _write(tmp_path, _build_segy(traces, inlines, crosslines))
        volume = read_segy(path, SegyImportOptions(dx=25.0, dy=12.5))
        assert isinstance(volume, SeismicVolume)
        assert volume.data.shape == (ns, nil, nxl)
        assert volume.dy == 12.5
        assert volume.meta == {"source": "segy"}
        assert np.all(volume.data[:, 0, 0] == 1007.0)
        assert np.all(volume.data[:, 1, 2] == 1019.0)

    def test_duplicate_pair_falls_back_to_section(self, tmp_path):
        traces = np.ones((8, 4))
        # 2x2 lattice claimed, but (1,1) appears twice and (2,2) never
        path = _write(tmp_path, _build_segy(traces, [1, 1, 2, 2], [1, 2, 1, 1]))
        assert isinstance(read_segy(path), SeismicSection)


class TestReadErrors:
    def test_short_file(self, tmp_path):
        path = _write(tmp_path, b"x" * 100)
        with pytest.raises(FormatError) as err:
            read_segy(path)
        assert "3600" in str(err.value)

    def test_zero_interval_and_zero_samples(self, tmp_path):
        traces = np.ones((8, 2))
        path = _write(tmp_path, _build_segy(traces, [1, 1], [1, 2], dt_us=0))
        with pytest.raises(FormatError) as err:
            read_segy(path)
        assert "interval" in str(err.value)

        blob = bytearray(_build_segy(traces, [1, 1], [1, 2]))
        blob[3220:3222] = b"\x00\x00"
        with pytest.raises(FormatError) as err:
            read_segy(_write(tmp_path, bytes(blob)))
        assert "samples per trace" in str(err.value)

    def test_no_complete_traces(self, tmp_path):
        path = _write(tmp_path, _build_segy(np.ones((8, 1)), [1], [1])[: 3600 + 100])
        with pytest.raises(FormatError) as err:
            read_segy(path)
        assert "no complete trace" in str(err.value)

    def test_trailing_partial_record(self, tmp_path):
        blob = _build_segy(np.ones((8, 2)), [1, 1], [1, 2], trailing=b"\x00" * 10)
        with pytest.raises(FormatError) as err:
            read_segy(_write(tmp_path, blob))
        assert "whole number" in str(err.value)

    def test_unsupported_format_code(self, tmp_path):
        traces = np.ones((8, 2))
        path = _write(tmp_path, _build_segy(traces, [1, 1], [1, 2], header_fmt=3))
        with pytest.raises(UnsupportedFormatError) as err:
            read_segy(path)
        assert "format 3" in str(err.value)
        assert err.value.offset == 3224
        with pytest.raises(UnsupportedFormatError):
            SegyImportOptions(format_code=3)

    def test_non_finite_samples(self, tmp_path):
        traces = np.ones((8, 2))
        traces[3, 1] = np.inf
        traces[5, 1] = np.nan
        path = _write(tmp_path, _build_segy(traces, [1, 1], [1, 2], fmt=5))
        with pytest.raises(FormatError) as err:
            read_segy(path)
        assert "non-finite" in str(err.value)
        # trace 1, sample 3: the first bad sample in file order
        assert err.value.offset == 3600 + 1 * (240 + 4 * 8) + 240 + 4 * 3

    @pytest.mark.parametrize("block_words", [None, 1])
    def test_ibm_beyond_float32_is_a_format_error(self, tmp_path, monkeypatch, block_words):
        if block_words is not None:
            monkeypatch.setattr(segy, "_BLOCK_WORDS", block_words)
        words = np.full((8, 3), 0x41100000, dtype=np.uint32)  # 1.0
        words[6, 1] = 0x7FFFFFFF  # about 7.2e75
        words[2, 2] = 0x7FFFFFFF
        path = _write(tmp_path, _build_segy(words, [1] * 3, [1, 2, 3], raw=True))
        with pytest.raises(FormatError) as err:
            read_segy(path)
        assert "float32" in str(err.value)
        assert err.value.offset == 3600 + 1 * (240 + 4 * 8) + 240 + 4 * 6
        assert path in str(err.value)

    def test_float32_boundary_of_ibm_values(self, tmp_path):
        # 0x60FFFFFF is exactly the largest float32; 0x61100000 is 2**128
        words = np.full((4, 2), 0x60FFFFFF, dtype=np.uint32)
        words[1, 0] = 0xE0FFFFFF
        path = _write(tmp_path, _build_segy(words, [1, 1], [1, 2], raw=True))
        values = read_segy(path).grid.data
        assert values.max() == np.finfo(np.float32).max == -values.min()
        words[3, 1] = 0x61100000
        path = _write(tmp_path, _build_segy(words, [1, 1], [1, 2], raw=True))
        with pytest.raises(FormatError) as err:
            read_segy(path)
        assert err.value.offset == 3600 + (240 + 4 * 4) + 240 + 4 * 3

    def test_bad_max_traces(self):
        with pytest.raises(ParameterError):
            SegyImportOptions(max_traces=0)

    @pytest.mark.parametrize(
        "spacing", [{"dx": -1.0}, {"dx": 0.0}, {"dy": float("nan")}, {"dy": float("inf")}]
    )
    def test_bad_lateral_spacing_is_refused_before_any_read(self, spacing):
        name = next(iter(spacing))
        with pytest.raises(ParameterError, match=f"{name} must be a positive finite number"):
            SegyImportOptions(**spacing)


def _peak(read, *args):
    """The result of ``read(*args)`` and the peak bytes traced during it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = read(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def _larger_fstat(monkeypatch, extra: int) -> None:
    """Make ``os.fstat`` report files ``extra`` bytes larger than they are."""
    real = os.fstat

    def fstat(fd):
        return SimpleNamespace(st_size=real(fd).st_size + extra)

    monkeypatch.setattr(os, "fstat", fstat)


class TestStreamedRead:
    """The reader holds the float64 result plus about one block."""

    NS, N_IL, N_XL = 250, 64, 64

    @pytest.mark.parametrize("volume", [True, False], ids=["volume", "section"])
    @pytest.mark.parametrize("fmt", [1, 5], ids=["ibm", "ieee"])
    def test_peak_is_the_result_plus_a_few_blocks(self, tmp_path, fmt, volume):
        n = self.N_IL * self.N_XL
        traces = np.random.default_rng(5).standard_normal((self.NS, n))
        inlines = np.repeat(np.arange(self.N_IL), self.N_XL) if volume else np.ones(n, int)
        crosslines = np.tile(np.arange(self.N_XL), self.N_IL) if volume else np.arange(n)
        path = _write(tmp_path, _build_segy(traces, inlines, crosslines, fmt=fmt))
        result, peak = _peak(read_segy, path)
        assert isinstance(result, SeismicVolume if volume else SeismicSection)
        block = 4 * segy._BLOCK_WORDS
        assert os.path.getsize(path) > 8 * block  # several blocks
        # the IBM decode's temporaries are about seven blocks
        assert peak < self.NS * n * 8 + 12 * block

    @pytest.mark.parametrize("fmt, word", [(1, 0x7FFFFFFF), (5, 0x7FC00000)], ids=["ibm", "ieee"])
    def test_bad_sample_in_the_last_block_is_an_error_at_its_offset(
        self, tmp_path, monkeypatch, fmt, word
    ):
        monkeypatch.setattr(segy, "_BLOCK_WORDS", 2 * 8)  # two records per block
        words = np.full((8, 7), 0x41100000 if fmt == 1 else 0x3F800000, dtype=np.uint32)
        words[5, 6] = word
        blob = _build_segy(words, [1] * 7, range(7), fmt=fmt, raw=True)
        with pytest.raises(FormatError) as err:
            read_segy(_write(tmp_path, blob))
        assert err.value.offset == 3600 + 6 * (240 + 4 * 8) + 240 + 4 * 5

    @pytest.mark.parametrize("extra_records", [1, 3])
    def test_a_file_that_shrank_after_the_size_check_gives_no_container(
        self, tmp_path, monkeypatch, extra_records
    ):
        monkeypatch.setattr(segy, "_BLOCK_WORDS", 2 * 8)
        blob = _build_segy(np.ones((8, 6)), [1, 1, 1, 2, 2, 2], [1, 2, 3] * 2)
        path = _write(tmp_path, blob)
        _larger_fstat(monkeypatch, extra_records * (240 + 4 * 8))
        with pytest.raises(FormatError, match="ends at byte") as err:
            read_segy(path)
        assert err.value.offset == len(blob)

    def test_max_traces_caps_what_is_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(segy, "_BLOCK_WORDS", 8)  # one record per block
        traces = np.ones((8, 5))
        traces[2, 4] = np.nan  # beyond the cap, so never decoded
        path = _write(tmp_path, _build_segy(traces, [1] * 5, range(5), fmt=5))
        section = read_segy(path, SegyImportOptions(max_traces=4))
        assert section.grid.shape == (8, 4)
        with pytest.raises(FormatError):
            read_segy(path)

    @pytest.mark.parametrize("inlines", [[1, 1, 2, 2], [1] * 4], ids=["volume", "section"])
    def test_result_is_read_only_and_owns_its_buffer(self, tmp_path, inlines):
        path = _write(tmp_path, _build_segy(np.ones((8, 4)), inlines, [1, 2, 1, 2]))
        result = read_segy(path)
        data = result.data if isinstance(result, SeismicVolume) else result.grid.data
        assert not data.flags.writeable and data.flags.c_contiguous
        assert data.base is None  # no writable array behind it
        with pytest.raises(ValueError):
            data[0, 0] = 1.0


def _same_import(actual, expected) -> None:
    """Same container, sampling and payload bits (so -0.0 counts)."""
    assert type(actual) is type(expected)
    if isinstance(expected, SeismicVolume):
        got, want = actual.data, expected.data
        assert (actual.dt, actual.dx, actual.dy) == (expected.dt, expected.dx, expected.dy)
    else:
        got, want = actual.grid.data, expected.grid.data
        assert (actual.dt, actual.dx, actual.label) == (expected.dt, expected.dx, expected.label)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _ibm_words(ns: int, n: int, rng) -> np.ndarray:
    """IBM words over every top byte: zero, tiny, random and full fractions.

    A word whose value float32 cannot hold keeps its top byte with a zero
    fraction, so it decodes to +-0.0 and the file stays valid.
    """
    top = rng.permutation(np.arange(ns * n) % 256).astype(np.uint32)
    fraction = rng.integers(0, 1 << 24, ns * n).astype(np.uint32)
    fraction[::5] = 0
    fraction[1::7] = 0xFFFFFF
    fraction[2::11] = rng.integers(1, 16, fraction[2::11].size)
    words = top << np.uint32(24) | fraction
    with np.errstate(over="ignore"):
        beyond = ~np.isfinite(decode_ibm32_reference(words).astype(np.float32))
    words[beyond] &= np.uint32(0xFF000000)
    return words.reshape(ns, n)


def _ieee_values(ns: int, n: int, rng) -> np.ndarray:
    """Finite float32 over random bit patterns, with signed zeros and subnormals."""
    bits = rng.integers(0, 1 << 32, ns * n, dtype=np.uint64).astype(np.uint32)
    bits[(bits >> np.uint32(23)) & np.uint32(0xFF) == 0xFF] &= np.uint32(0x807FFFFF)
    bits[:4] = [0x80000000, 0x00000000, 0x00000001, 0x7F7FFFFF]
    return bits.view(np.float32).reshape(ns, n)


_N_IL, _N_XL = 3, 4
_INLINE_MAJOR = (np.repeat([7, 8, 9], _N_XL), np.tile([20, 22, 24, 26], _N_IL))
_CROSSLINE_MAJOR = (np.tile([7, 8, 9], _N_XL), np.repeat([20, 22, 24, 26], _N_IL))
_SHUFFLE = np.random.default_rng(4).permutation(_N_IL * _N_XL)
# name: ((inlines, crosslines), max_traces, volume lattice or None for a section)
_LAYOUTS = {
    "inline-major": (_INLINE_MAJOR, None, (3, 4)),
    "crossline-major": (_CROSSLINE_MAJOR, None, (3, 4)),
    "shuffled": (tuple(a[_SHUFFLE] for a in _INLINE_MAJOR), None, (3, 4)),
    "duplicate-pair": ((_INLINE_MAJOR[0], np.r_[_INLINE_MAJOR[1][:-1], 20]), None, None),
    "single-inline": ((np.full(12, 7), np.arange(12)), None, None),
    "max-traces-volume": (_INLINE_MAJOR, 8, (2, 4)),
    "max-traces-section": (_INLINE_MAJOR, 5, None),
}


class TestMatchesReference:
    """Bit for bit against the per-trace reader in ``tests/oracles.py``."""

    NS = 64

    @pytest.mark.parametrize("block_words", [None, 1, 150])
    @pytest.mark.parametrize("big", [True, False], ids=["big", "little"])
    @pytest.mark.parametrize("fmt", [1, 5], ids=["ibm", "ieee"])
    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_layouts(self, tmp_path, monkeypatch, layout, fmt, big, block_words):
        if block_words is not None:  # 1: one trace per block; 150: two
            monkeypatch.setattr(segy, "_BLOCK_WORDS", block_words)
        (inlines, crosslines), cap, lattice = _LAYOUTS[layout]
        rng = np.random.default_rng(fmt * 10 + big)
        samples = _ibm_words(self.NS, 12, rng) if fmt == 1 else _ieee_values(self.NS, 12, rng)
        blob = _build_segy(samples, inlines, crosslines, fmt=fmt, big=big, raw=True)
        path = _write(tmp_path, blob)
        options = SegyImportOptions(big_endian=big, max_traces=cap, dx=12.5, dy=30.0)
        expected = read_segy_reference(path, options)
        _same_import(read_segy(path, options), expected)
        if lattice is None:
            assert isinstance(expected, SeismicSection)
        else:
            assert expected.data.shape == (self.NS, *lattice)

    @pytest.mark.parametrize("stored, override", [(1, 5), (5, 1)])
    def test_format_override(self, tmp_path, stored, override):
        rng = np.random.default_rng(9)
        samples = _ibm_words(self.NS, 12, rng) if override == 1 else _ieee_values(self.NS, 12, rng)
        blob = _build_segy(samples, *_INLINE_MAJOR, fmt=override, header_fmt=stored, raw=True)
        path = _write(tmp_path, blob)
        options = SegyImportOptions(format_code=override)
        _same_import(read_segy(path, options), read_segy_reference(path, options))

    def test_decodes_once_per_block(self, tmp_path, monkeypatch):
        calls = []

        def counting(words):
            calls.append(np.shape(words))
            return decode_ibm32(words)

        monkeypatch.setattr(segy, "decode_ibm32", counting)
        monkeypatch.setattr(segy, "_BLOCK_WORDS", 5 * self.NS)
        samples = _ibm_words(self.NS, 12, np.random.default_rng(2))
        read_segy(_write(tmp_path, _build_segy(samples, *_INLINE_MAJOR, raw=True)))
        assert calls == [(5, self.NS), (5, self.NS), (2, self.NS)]


class TestDecodeMatchesReference:
    def test_every_top_byte(self):
        fractions = np.array([0, 1, 0xF, 0x100000, 0x7FFFFF, 0x800000, 0xFFFFFF], dtype=np.uint32)
        words = (np.arange(256, dtype=np.uint32)[:, None] << np.uint32(24)) | fractions
        assert decode_ibm32(words).tobytes() == decode_ibm32_reference(words).tobytes()

    def test_random_words(self):
        rng = np.random.default_rng(11)
        words = rng.integers(0, 1 << 32, 1 << 18, dtype=np.uint64).astype(np.uint32)
        assert decode_ibm32(words).tobytes() == decode_ibm32_reference(words).tobytes()

    def test_negative_zero_fraction_gives_negative_zero(self):
        words = np.array([0x80000000, 0xC1000000, 0x00000000, 0x41000000], dtype=np.uint32)
        assert np.signbit(decode_ibm32(words)).tolist() == [True, True, False, False]


_FUZZ_NS = 6
# per (layout, stored format, big-endian): a valid file to truncate and edit
_FUZZ_BASES = {
    (layout, fmt, big): _build_segy(
        _ibm_words(_FUZZ_NS, 12, np.random.default_rng(3))
        if fmt == 1
        else _ieee_values(_FUZZ_NS, 12, np.random.default_rng(3)),
        *_LAYOUTS[layout][0], fmt=fmt, big=big, raw=True,
    )
    for layout in ("inline-major", "shuffled", "duplicate-pair")
    for fmt in (1, 5)
    for big in (True, False)
}
_FUZZ_BYTES = len(next(iter(_FUZZ_BASES.values())))
# the binary-header words read, and each record's inline, crossline and first sample
_FUZZ_HOT = list(range(3216, 3226)) + [
    3600 + j * (240 + 4 * _FUZZ_NS) + k
    for j in range(12)
    for k in (188, 191, 192, 195, 240, 243)
]


def test_mutated_files_raise_only_package_errors(tmp_path, hypothesis_home):
    """Truncated or byte-edited files import or raise a PyrafuseError.

    Whatever imports is bit-identical to the per-trace reference.
    """
    path = tmp_path / "fuzz.sgy"
    position = st.one_of(st.sampled_from(_FUZZ_HOT), st.integers(0, _FUZZ_BYTES - 1))

    @settings(database=None, deadline=None, max_examples=60)
    @given(
        base=st.sampled_from(sorted(_FUZZ_BASES)),
        cut=st.one_of(st.none(), st.integers(3590, _FUZZ_BYTES)),
        at=st.lists(position, max_size=6),
        values=st.binary(min_size=6, max_size=6),
        fmt=st.sampled_from([None, 1, 5]),
        cap=st.one_of(st.none(), st.integers(1, 14)),
    )
    def check(base, cut, at, values, fmt, cap):
        blob = bytearray(_FUZZ_BASES[base])
        for i, value in zip(at, values):
            blob[i] = value
        path.write_bytes(bytes(blob[:cut]))
        options = SegyImportOptions(format_code=fmt, big_endian=base[2], max_traces=cap)
        try:
            result = read_segy(str(path), options)
        except PyrafuseError:
            return
        _same_import(result, read_segy_reference(str(path), options))

    check()
