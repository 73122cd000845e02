from __future__ import annotations

import numpy as np
import pytest

from pyrafuse import (
    AttributeKind,
    AttributeMap,
    BoundsError,
    Grid2,
    ParameterError,
    SeismicSection,
    SeismicVolume,
    ShapeError,
    Units,
)
from pyrafuse.grid import KIND_UNITS, _Adopted


class TestGrid2:
    def test_copies_and_freezes_input(self):
        values = np.zeros((3, 4))
        grid = Grid2(values)
        values[0, 0] = 9.0
        assert grid.data[0, 0] == 0.0
        with pytest.raises(ValueError):
            grid.data[0, 0] = 1.0

    def test_shape_properties(self):
        grid = Grid2(np.zeros((5, 7)))
        assert (grid.rows, grid.cols) == (5, 7)
        assert grid.shape == (5, 7)

    def test_rejects_non_finite_and_wrong_rank(self):
        with pytest.raises(ParameterError):
            Grid2(np.array([[1.0, np.nan]]))
        with pytest.raises(ParameterError):
            Grid2(np.array([[np.inf, 1.0]]))
        with pytest.raises(ShapeError):
            Grid2(np.zeros(4))
        with pytest.raises(ShapeError):
            Grid2(np.zeros((2, 2, 2)))

    def test_rejects_an_empty_dimension(self):
        with pytest.raises(ShapeError, match="^grid dimensions must all be >= 1$"):
            Grid2(np.zeros((0, 3)))

    def test_accepts_lists_and_casts_to_float(self):
        grid = Grid2([[1, 2], [3, 4]])
        assert grid.data.dtype == np.float64
        assert grid.data[1, 1] == 4.0

    def test_repr_names_the_shape(self):
        assert repr(Grid2(np.zeros((5, 7)))) == "Grid2(rows=5, cols=7)"


class TestAdopted:
    def test_a_reader_array_is_kept_and_frozen_without_a_copy(self):
        owned = np.arange(6, dtype=np.float64).reshape(2, 3)
        grid = Grid2(_Adopted(owned))
        assert grid.data is owned
        assert not owned.flags.writeable
        volume = SeismicVolume(_Adopted(np.ones((2, 2, 2))), dt=0.004, dx=25.0, dy=12.5)
        assert not volume.data.flags.writeable

    def test_shape_and_interval_checks_still_run(self):
        with pytest.raises(ShapeError):
            Grid2(_Adopted(np.ones((2, 2, 2))))
        with pytest.raises(ParameterError):
            SeismicVolume(_Adopted(np.ones((2, 2, 2))), dt=0.0, dx=25.0, dy=12.5)


class TestSeismicSection:
    def test_basic_properties(self):
        section = SeismicSection(Grid2(np.zeros((100, 40))), dt=0.004, dx=25.0)
        assert section.n_samples == 100
        assert section.n_traces == 40

    def test_rejects_non_positive_intervals(self):
        grid = Grid2(np.zeros((8, 8)))
        with pytest.raises(ParameterError):
            SeismicSection(grid, dt=0.0, dx=25.0)
        with pytest.raises(ParameterError):
            SeismicSection(grid, dt=0.004, dx=-1.0)

    def test_meta_is_copied(self):
        meta = {"source": "segy"}
        section = SeismicSection(Grid2(np.zeros((2, 2))), dt=0.004, dx=25.0, meta=meta)
        meta["source"] = "changed"
        assert section.meta == {"source": "segy"}

    def test_a_label_key_in_meta_is_refused(self):
        with pytest.raises(ParameterError, match="label"):
            SeismicSection(Grid2(np.zeros((2, 2))), dt=0.004, dx=25.0, meta={"label": "x"})

    def test_repr_names_shape_sampling_and_label(self):
        section = SeismicSection(Grid2(np.zeros((100, 40))), dt=0.004, dx=25.0, label="inline 12")
        assert repr(section) == "SeismicSection(100x40, dt=0.004, dx=25.0, label='inline 12')"


class TestSeismicVolume:
    def _volume(self):
        data = np.arange(4 * 3 * 2, dtype=np.float64).reshape(4, 3, 2)
        return SeismicVolume(data, dt=0.004, dx=25.0, dy=12.5), data

    def test_copies_and_freezes_input(self):
        volume, data = self._volume()
        data[0, 0, 0] = 99.0
        assert volume.data[0, 0, 0] == 0.0
        assert not np.shares_memory(volume.data, data)
        with pytest.raises(ValueError):
            volume.data[0, 0, 0] = 1.0

    def test_rejects_non_finite_values(self):
        data = np.zeros((2, 2, 2))
        data[1, 0, 1] = np.nan
        with pytest.raises(ParameterError, match="finite"):
            SeismicVolume(data, dt=1.0, dx=1.0, dy=1.0)

    def test_time_slice_layout(self):
        vol, data = self._volume()
        s = vol.time_slice(2)
        assert s.shape == (3, 2)  # rows = x, cols = y
        assert np.array_equal(s.data, data[2])

    def test_inline_section_fixes_x(self):
        vol, data = self._volume()
        s = vol.inline_section(1)
        assert s.grid.shape == (4, 2)
        assert np.array_equal(s.grid.data, data[:, 1, :])
        assert s.dx == 12.5  # traces step along y
        assert "1" in s.label

    def test_crossline_section_fixes_y(self):
        vol, data = self._volume()
        s = vol.crossline_section(0)
        assert s.grid.shape == (4, 3)
        assert np.array_equal(s.grid.data, data[:, :, 0])
        assert s.dx == 25.0

    def test_sections_carry_the_meta(self):
        _, data = self._volume()
        vol = SeismicVolume(data, dt=0.004, dx=25.0, dy=12.5, meta={"source": "segy"})
        inline, crossline = vol.inline_section(1), vol.crossline_section(0)
        assert inline.meta == crossline.meta == {"source": "segy"}
        assert (inline.label, crossline.label) == ("inline 1", "crossline 0")

    def test_sections_name_themselves_over_a_label_key(self):
        # a volume's meta may hold any key; its sections keep their own label
        _, data = self._volume()
        vol = SeismicVolume(data, dt=0.004, dx=25.0, dy=12.5, meta={"label": "gsb", "a": "1"})
        section = vol.inline_section(2)
        assert (section.label, section.meta) == ("inline 2", {"a": "1"})
        assert vol.meta == {"label": "gsb", "a": "1"}

    def test_repr_names_shape_and_sampling(self):
        vol, _ = self._volume()
        assert repr(vol) == "SeismicVolume(4x3x2, dt=0.004, dx=25.0, dy=12.5)"

    def test_out_of_range_indices(self):
        vol, _ = self._volume()
        for bad in (-1, 99):
            with pytest.raises(BoundsError):
                vol.time_slice(bad)
            with pytest.raises(BoundsError):
                vol.inline_section(bad)
            with pytest.raises(BoundsError):
                vol.crossline_section(bad)


class TestAttributeMap:
    def test_units_follow_kind(self):
        grid = Grid2(np.zeros((4, 4)))
        assert AttributeMap(grid, AttributeKind.PHASE_DIP).units is Units.SAMPLES_PER_TRACE
        assert AttributeMap(grid, AttributeKind.DIP_ANGLE).units is Units.RADIANS
        assert AttributeMap(grid, AttributeKind.CURV_POS).units is Units.PER_METER
        assert AttributeMap(grid, AttributeKind.CURV_NEG).units is Units.PER_METER

    def test_every_kind_is_computed_and_has_units(self):
        # raw data is a section or a volume, never a map
        assert set(KIND_UNITS) == set(AttributeKind)
        assert {k.name for k in AttributeKind} == {
            "PHASE_DIP", "DIP_ANGLE", "CURV_POS", "CURV_NEG"
        }
        with pytest.raises(ValueError):
            AttributeKind("raw")

    def test_fused_flag(self):
        grid = Grid2(np.zeros((4, 4)))
        assert AttributeMap(grid, AttributeKind.PHASE_DIP, scale=None).is_fused
        assert not AttributeMap(grid, AttributeKind.PHASE_DIP, scale=2).is_fused

    def test_scale_validation(self):
        grid = Grid2(np.zeros((4, 4)))
        with pytest.raises(ParameterError):
            AttributeMap(grid, AttributeKind.PHASE_DIP, scale=-1)

    def test_kind_must_be_an_attribute_kind(self):
        with pytest.raises(ParameterError, match="^kind must be an AttributeKind, got 'dip'$"):
            AttributeMap(Grid2(np.zeros((4, 4))), "dip")

    def test_quality_shape_must_match(self):
        grid = Grid2(np.zeros((4, 4)))
        with pytest.raises(ShapeError):
            AttributeMap(grid, AttributeKind.PHASE_DIP, quality=Grid2(np.zeros((3, 4))))

    def test_meta_is_copied(self):
        meta = {"a": "1"}
        m = AttributeMap(Grid2(np.zeros((4, 4))), AttributeKind.PHASE_DIP, meta=meta)
        meta["a"] = "2"
        assert m.meta["a"] == "1"

    @pytest.mark.parametrize("meta", [None, 3, "ab"], ids=["none", "number", "string"])
    def test_meta_must_be_a_mapping(self, meta):
        with pytest.raises(ParameterError) as err:
            AttributeMap(Grid2(np.zeros((4, 4))), AttributeKind.PHASE_DIP, meta=meta)
        assert str(err.value) == f"meta must be a mapping, got {meta!r}"

    def test_repr_names_kind_scale_and_shape(self):
        grid = Grid2(np.zeros((4, 3)))
        assert repr(AttributeMap(grid, AttributeKind.CURV_NEG, scale=2)) == "AttributeMap(curv_neg, scale=2, 4x3)"
        assert repr(AttributeMap(grid, AttributeKind.PHASE_DIP, scale=None)) == "AttributeMap(dip, scale=fused, 4x3)"

    def test_interval_validation(self):
        grid = Grid2(np.zeros((4, 4)))
        with pytest.raises(ParameterError):
            AttributeMap(grid, AttributeKind.PHASE_DIP, dt=-0.004)
        with pytest.raises(ParameterError):
            AttributeMap(grid, AttributeKind.PHASE_DIP, dy=0.0)
