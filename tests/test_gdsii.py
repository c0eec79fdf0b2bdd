"""Unit tests for the GDSII writer/reader."""

import struct

import pytest

import gdsii_reference
from repro.errors import LayoutError
from repro.layout.gdsii import (
    _from_real8,
    _to_real8,
    _write_structure,
    read_gds,
    write_gds,
)
from repro.layout.geometry import Orientation, Rect, Transform
from repro.layout.layout import LayoutCell


def _hierarchy():
    leaf = LayoutCell("leaf", boundary=Rect(0, 0, 1000, 500))
    leaf.add_shape("M1", Rect(0, 0, 1000, 100))
    leaf.add_shape("M2", Rect(200, 0, 300, 500))
    top = LayoutCell("top", boundary=Rect(0, 0, 5000, 5000))
    top.add_shape("M3", Rect(0, 0, 5000, 200))
    top.add_instance("L0", leaf, Transform(100, 100))
    top.add_instance("L1", leaf, Transform(2000, 100, Orientation.MY))
    top.add_instance("L2", leaf, Transform(3000, 3000, Orientation.R90))
    return top


class TestReal8:
    @pytest.mark.parametrize("value", [0.0, 1.0, -1.0, 1e-9, 1e-3, 90.0, 270.0, 2.5e-7])
    def test_roundtrip(self, value):
        assert _from_real8(_to_real8(value)) == pytest.approx(value, rel=1e-12)


class TestGdsWriter:
    def test_file_begins_with_header_record(self, tmp_path, technology):
        path = tmp_path / "out.gds"
        write_gds(_hierarchy(), path, technology)
        data = path.read_bytes()
        length, record_type, data_type = struct.unpack_from(">HBB", data, 0)
        assert record_type == 0x00  # HEADER
        assert data_type == 0x02

    def test_write_returns_byte_count(self, tmp_path, technology):
        path = tmp_path / "out.gds"
        count = write_gds(_hierarchy(), path, technology)
        assert count == path.stat().st_size

    def test_unknown_layer_raises(self, tmp_path, technology):
        cell = LayoutCell("bad")
        cell.add_shape("NOT_A_LAYER", Rect(0, 0, 10, 10))
        with pytest.raises(LayoutError):
            write_gds(cell, tmp_path / "bad.gds", technology)

    def test_deterministic_output(self, tmp_path, technology):
        path_a = tmp_path / "a.gds"
        path_b = tmp_path / "b.gds"
        write_gds(_hierarchy(), path_a, technology)
        write_gds(_hierarchy(), path_b, technology)
        assert path_a.read_bytes() == path_b.read_bytes()


class TestGdsRoundtrip:
    def test_structures_and_references_preserved(self, tmp_path, technology):
        path = tmp_path / "rt.gds"
        write_gds(_hierarchy(), path, technology)
        cells = read_gds(path, technology)
        assert set(cells) == {"top", "leaf"}
        top = cells["top"]
        assert top.instance_count() == 3
        assert len(top.shapes) == 1

    def test_geometry_preserved(self, tmp_path, technology):
        path = tmp_path / "rt.gds"
        write_gds(_hierarchy(), path, technology)
        leaf = read_gds(path, technology)["leaf"]
        rects = sorted((s.layer, s.rect) for s in leaf.shapes)
        assert ("M1", Rect(0, 0, 1000, 100)) in rects
        assert ("M2", Rect(200, 0, 300, 500)) in rects

    def test_orientations_preserved(self, tmp_path, technology):
        path = tmp_path / "rt.gds"
        write_gds(_hierarchy(), path, technology)
        top = read_gds(path, technology)["top"]
        orientations = {inst.transform.orientation for inst in top.instances}
        assert Orientation.MY in orientations
        assert Orientation.R90 in orientations

    def test_positions_preserved(self, tmp_path, technology):
        path = tmp_path / "rt.gds"
        write_gds(_hierarchy(), path, technology)
        top = read_gds(path, technology)["top"]
        offsets = {(inst.transform.dx, inst.transform.dy) for inst in top.instances}
        assert (100, 100) in offsets
        assert (3000, 3000) in offsets

    def test_library_cell_roundtrip(self, tmp_path, technology, cell_library):
        path = tmp_path / "sram.gds"
        original = cell_library.layout("sram8t")
        write_gds(original, path, technology)
        rebuilt = read_gds(path, technology)["sram8t"]
        assert len(rebuilt.shapes) == len(original.shapes)


# ---------------------------------------------------------------------------
# The packed writer against the record-by-record oracle
# ---------------------------------------------------------------------------


def _reference_cases():
    """Top cells covering every orientation, several layers, children
    placed many times, odd-length names and an empty cell."""
    leaf = LayoutCell("leaf", boundary=Rect(0, 0, 1000, 500))
    leaf.add_shape("M1", Rect(0, 0, 1000, 100))
    leaf.add_shape("M2", Rect(200, 0, 300, 500))
    leaf.add_pin("A", "M3", Rect(-50, -50, 50, 50))
    odd = LayoutCell("odd")  # three characters: SNAME/STRNAME padding
    odd.add_shape("M4", Rect(-700, 10, -300, 900))
    odd.add_shape("M1", Rect(0, 0, 0, 40))  # degenerate marker
    empty = LayoutCell("empty")
    top = LayoutCell("mixed_top")
    for layer in ("M1", "M2", "M3", "M4", "M5", "PRBOUND"):
        top.add_shape(layer, Rect(0, 0, 40_000, 200))
    for index, orientation in enumerate(Orientation):
        top.add_instance(f"L{index}", leaf,
                         Transform(1000 * index, -500 * index, orientation))
        top.add_instance(f"O{index}", odd,
                         Transform(-2**20 + index, 2**20, orientation))
    for index in range(50):
        top.add_instance(f"R{index}", leaf, Transform(1000 * index, 7000))
        top.add_instance(f"E{index}", empty, Transform(0, index))
    return {"mixed": top, "empty": empty, "leaf": leaf, "odd": odd}


class TestPackedWriterMatchesReference:
    @pytest.mark.parametrize("case", ["mixed", "empty", "leaf", "odd"])
    def test_structure_bytes(self, case, technology):
        cell = _reference_cases()[case]
        parts = []
        _write_structure(cell, technology, parts)
        assert b"".join(parts) == gdsii_reference.write_structure(cell, technology)

    @pytest.mark.parametrize("case", ["mixed", "empty", "leaf", "odd"])
    def test_library_bytes(self, case, tmp_path, technology):
        cell = _reference_cases()[case]
        path = tmp_path / "packed.gds"
        count = write_gds(cell, path, technology, library_name="LIB1")
        expected = gdsii_reference.write_gds(cell, technology, library_name="LIB1")
        assert path.read_bytes() == expected
        assert count == len(expected)

    def test_library_cell_hierarchy_bytes(self, tmp_path, technology, cell_library):
        top = LayoutCell("cells")
        for index, name in enumerate(("sram8t", "local_compute", "comparator")):
            top.add_instance(f"I{index}", cell_library.layout(name),
                             Transform(0, 10_000 * index, Orientation.MX))
        path = tmp_path / "cells.gds"
        write_gds(top, path, technology)
        assert path.read_bytes() == gdsii_reference.write_gds(top, technology)

    def test_unknown_layer_message_matches(self, tmp_path, technology):
        cell = LayoutCell("bad")
        cell.add_shape("M1", Rect(0, 0, 10, 10))
        cell.add_shape("NOT_A_LAYER", Rect(0, 0, 10, 10))
        with pytest.raises(LayoutError) as packed:
            write_gds(cell, tmp_path / "bad.gds", technology)
        with pytest.raises(LayoutError) as reference:
            gdsii_reference.write_structure(cell, technology)
        assert str(packed.value) == str(reference.value)
        assert not (tmp_path / "bad.gds").exists()
