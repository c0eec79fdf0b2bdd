"""Tests of the staged physical pipeline: content-addressed macro reuse,
layout serialization, artifact persistence, the macro-instance consumer
APIs of the placer/router, and flow-level reuse against the cold
reference (a fresh pipeline per design)."""

import json

import pytest

from repro.arch.spec import ACIMDesignSpec
from repro.dse.nsga2 import NSGA2Config
from repro.api import FlowRequest
from repro.errors import (
    LayoutError,
    PlacementError,
    ReproError,
    RequestError,
    RoutingError,
)
from repro.flow.controller import FlowInputs, _FlowCore
from repro.flow.layout_gen import LayoutGenerator
from repro.layout.gdsii import write_gds
from repro.layout.geometry import Rect, Transform
from repro.layout.layout import LayoutCell
from repro.netlist.spice import write_spice
from repro.physical import (
    MACRO_STAGE,
    MacroLibrary,
    PhysicalPipeline,
    artifact_digest,
    layout_from_dict,
    layout_to_dict,
)
from repro.placement.hierarchical import HierarchicalPlacer, MacroPlacement
from repro.routing.hier_router import HierarchicalRouter, LogicalNet
from repro.store.result_store import ResultStore

#: Small feasible specs; A and B share the column (H, L, B), C only L.
SPEC_A = ACIMDesignSpec(16, 4, 4, 2)
SPEC_B = ACIMDesignSpec(16, 8, 4, 2)
SPEC_C = ACIMDesignSpec(32, 4, 4, 2)


def _gds_bytes(cell, technology, tmp_path, tag):
    path = tmp_path / f"{tag}.gds"
    write_gds(cell, path, technology)
    return path.read_bytes()


def _cold_report(cell_library, spec, route_columns=True):
    """The cold reference: ``spec`` solved on a fresh pipeline, which has
    nothing cached and no template to derive from."""
    return PhysicalPipeline(cell_library).run(
        spec, route_columns=route_columns
    ).report


# ---------------------------------------------------------------------------
# Layout serialization (the persistence substrate of the macro cache)
# ---------------------------------------------------------------------------


class TestLayoutSerialization:
    def test_round_trip_is_byte_identical(self, cell_library, technology, tmp_path):
        pipeline = PhysicalPipeline(cell_library)
        layout = pipeline.run(SPEC_A, route_columns=True).report.layout
        document = json.loads(json.dumps(layout_to_dict(layout)))
        rebuilt = layout_from_dict(document)
        original = _gds_bytes(layout, technology, tmp_path, "orig")
        restored = _gds_bytes(rebuilt, technology, tmp_path, "rebuilt")
        assert original == restored

    def test_round_trip_preserves_structure(self, cell_library):
        pipeline = PhysicalPipeline(cell_library)
        layout = pipeline.run(SPEC_A, route_columns=True).report.layout
        rebuilt = layout_from_dict(layout_to_dict(layout))
        assert rebuilt.name == layout.name
        assert rebuilt.boundary == layout.boundary
        assert [s for s in rebuilt.shapes] == [s for s in layout.shapes]
        assert [p.name for p in rebuilt.pins] == [p.name for p in layout.pins]
        assert [i.name for i in rebuilt.instances] == \
            [i.name for i in layout.instances]
        assert rebuilt.flat_shape_count() == layout.flat_shape_count()

    def test_shared_subcells_stay_shared(self, cell_library):
        pipeline = PhysicalPipeline(cell_library)
        layout = pipeline.run(SPEC_A, route_columns=False).report.layout
        rebuilt = layout_from_dict(layout_to_dict(layout))
        columns = [i.cell for i in rebuilt.instances
                   if i.name.startswith("COL")]
        assert len(columns) == SPEC_A.width
        assert all(cell is columns[0] for cell in columns)

    def test_unsupported_format_rejected(self):
        with pytest.raises(LayoutError):
            layout_from_dict({"format": 999, "top": "x", "cells": []})

    def test_name_collision_rejected(self):
        parent = LayoutCell("parent")
        parent.add_instance("A", LayoutCell("twin", boundary=Rect(0, 0, 1, 1)))
        parent.add_instance("B", LayoutCell("twin", boundary=Rect(0, 0, 2, 2)))
        with pytest.raises(LayoutError):
            layout_to_dict(parent)


# ---------------------------------------------------------------------------
# Pipeline reuse semantics
# ---------------------------------------------------------------------------


class TestPipelineReuse:
    def test_reuse_off_matches_reuse_on_byte_identically(
        self, cell_library, technology, tmp_path
    ):
        # The reference solves SPEC_A cold; the shared pipeline solved
        # SPEC_B first, so SPEC_A reuses its local array and column.
        report_off = _cold_report(cell_library, SPEC_A)
        shared = PhysicalPipeline(cell_library)
        shared.run(SPEC_B, route_columns=True)
        result_on = shared.run(SPEC_A, route_columns=True)
        assert result_on.stats.macros_reused == 2
        report_on = result_on.report
        assert _gds_bytes(report_off.layout, technology, tmp_path, "off") == \
            _gds_bytes(report_on.layout, technology, tmp_path, "on")
        assert report_off.as_dict()["area_um2"] == report_on.as_dict()["area_um2"]
        assert report_off.routed_nets == report_on.routed_nets

    def test_designs_sharing_structure_share_macros(self, cell_library):
        pipeline = PhysicalPipeline(cell_library)
        first = pipeline.run(SPEC_A, route_columns=True)
        assert first.stats.macros_built == 3  # local array, column, top
        assert first.stats.macros_reused == 0
        # Same column (H, L, B): only the top assembly is new.
        second = pipeline.run(SPEC_B, route_columns=True)
        assert second.stats.macros_built == 1
        assert second.stats.macros_reused == 2
        assert second.stats.stage("routing").runs == 0
        # Same L only: the local array is served and the neighbouring
        # column is derived from the solved template, not re-solved cold.
        third = pipeline.run(SPEC_C, route_columns=True)
        assert third.stats.macros_built == 1
        assert third.stats.macros_derived == 1
        assert third.stats.macros_reused == 1

    def test_repeated_run_is_a_full_cache_hit(self, cell_library):
        pipeline = PhysicalPipeline(cell_library)
        pipeline.run(SPEC_A, route_columns=True)
        again = pipeline.run(SPEC_A, route_columns=True)
        assert again.stats.macros_built == 0
        assert again.stats.macros_reused == 1
        assert again.stats.stage("layout").cache_hits == 1
        assert again.stats.stage("placement").runs == 0
        assert again.stats.stage("routing").runs == 0

    def test_store_warm_starts_a_fresh_pipeline(
        self, cell_library, technology, tmp_path
    ):
        with ResultStore(tmp_path / "store.sqlite") as store:
            cold = PhysicalPipeline(cell_library, store=store)
            report_cold = cold.run(SPEC_A, route_columns=True).report
            assert store.artifact_count(MACRO_STAGE) == 3
            # A fresh pipeline on the same store simulates a new process.
            warm = PhysicalPipeline(cell_library, store=store)
            result = warm.run(SPEC_A, route_columns=True)
            assert result.stats.macros_built == 0
            assert result.stats.macros_reused == 1
            assert result.stats.stage("layout").store_hits == 1
            assert _gds_bytes(report_cold.layout, technology, tmp_path, "c") \
                == _gds_bytes(result.report.layout, technology, tmp_path, "w")
            # The replayed report carries the original routing figures.
            assert result.report.routed_nets == report_cold.routed_nets
            assert result.report.total_wirelength_um == \
                report_cold.total_wirelength_um

    def test_netlist_stage_rebuilds_an_equal_netlist(self, cell_library):
        pipeline = PhysicalPipeline(cell_library)
        first = pipeline.run(SPEC_A, generate_netlist=True, generate_layout=False)
        second = pipeline.run(SPEC_A, generate_netlist=True, generate_layout=False)
        # The netlist stage is not memoized: every run builds its own
        # netlist, and the rebuild writes the same SPICE text.
        assert second.netlist is not first.netlist
        assert write_spice(second.netlist) == write_spice(first.netlist)
        assert first.stats.stage("netlist").cache_hits == 0
        assert second.stats.stage("netlist").cache_hits == 0
        assert second.stats.stage("netlist").runs == 1

    def test_route_flag_is_part_of_the_macro_key(self, cell_library):
        pipeline = PhysicalPipeline(cell_library)
        routed = pipeline.run(SPEC_A, route_columns=True)
        floorplan = pipeline.run(SPEC_A, route_columns=False)
        assert routed.report.routed_nets > 0
        assert floorplan.report.routed_nets == 0
        assert floorplan.stats.macros_built == 3  # no cross-contamination

    def test_layout_generator_is_a_thin_driver(self, cell_library):
        generator = LayoutGenerator(cell_library)
        assert len(generator.pipeline.macro_library) == 0  # private, fresh
        report = generator.generate(SPEC_A, route_column=True)
        direct = _cold_report(cell_library, SPEC_A)
        left, right = report.as_dict(), direct.as_dict()
        left.pop("runtime_s"), right.pop("runtime_s")
        assert left == right


# ---------------------------------------------------------------------------
# Artifact persistence
# ---------------------------------------------------------------------------


class TestArtifactStore:
    def test_put_get_round_trip(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            digest = artifact_digest("macro", ["column", {"H": 16}])
            assert store.get_artifact(digest) is None
            assert store.put_artifact(
                digest, "macro", ["column", {"H": 16}], {"x": 1}) == 1
            assert store.get_artifact(digest) == {"x": 1}

    def test_artifacts_are_immutable(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            digest = artifact_digest("macro", ["k"])
            store.put_artifact(digest, "macro", ["k"], {"first": True})
            assert store.put_artifact(
                digest, "macro", ["k"], {"second": True}) == 0
            assert store.get_artifact(digest) == {"first": True}

    def test_listing_and_counts(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put_artifact(
                artifact_digest("macro", [1]), "macro", [1], {})
            store.put_artifact(
                artifact_digest("layout", [2]), "layout", [2], {})
            assert store.artifact_count() == 2
            assert store.artifact_count("macro") == 1
            rows = store.list_artifacts(stage="macro")
            assert len(rows) == 1
            assert rows[0]["stage"] == "macro"
            assert rows[0]["key"] == [1]
            assert store.stats()["artifacts"] == 2

    def test_same_key_same_digest(self, cell_library):
        library = MacroLibrary(cell_library)
        a = library.macro_digest("column", {"H": 16, "L": 4})
        b = library.macro_digest("column", {"H": 16, "L": 4})
        c = library.macro_digest("column", {"H": 32, "L": 4})
        assert a == b
        assert a != c
        assert a != library.macro_digest("local_array", {"H": 16, "L": 4})


# ---------------------------------------------------------------------------
# Placer: macro-instance consumption edge cases
# ---------------------------------------------------------------------------


def _solved_macro(name="macro", width=2000, height=1000):
    cell = LayoutCell(name, boundary=Rect(0, 0, width, height))
    cell.add_shape("M1", Rect(100, 100, width - 100, height - 100), net="X")
    cell.add_pin("P", "M2", Rect(900, 800, 1100, 1000))
    return cell


class TestMacroInstancePlacement:
    def test_single_instance_hierarchy(self):
        parent = LayoutCell("parent")
        boxes = HierarchicalPlacer().place_macro_instances(parent, [
            MacroPlacement("ONLY", _solved_macro(), Transform(0, 0)),
        ])
        assert boxes == {"ONLY": Rect(0, 0, 2000, 1000)}
        assert parent.instance_count() == 1

    def test_abutted_macros_are_legal(self):
        parent = LayoutCell("parent")
        macro = _solved_macro()
        HierarchicalPlacer().place_macro_instances(parent, [
            MacroPlacement("A", macro, Transform(0, 0)),
            MacroPlacement("B", macro, Transform(2000, 0)),  # shared edge
        ])
        assert parent.instance_count() == 2

    def test_overlapping_macros_raise_typed_error(self):
        parent = LayoutCell("parent")
        macro = _solved_macro()
        with pytest.raises(PlacementError) as excinfo:
            HierarchicalPlacer().place_macro_instances(parent, [
                MacroPlacement("A", macro, Transform(0, 0)),
                MacroPlacement("B", macro, Transform(1000, 0)),
            ])
        assert isinstance(excinfo.value, ReproError)
        assert "overlap" in str(excinfo.value)
        # The parent must not be half-modified.
        assert parent.instance_count() == 0

    def test_empty_macro_raises_typed_error(self):
        parent = LayoutCell("parent")
        with pytest.raises(PlacementError):
            HierarchicalPlacer().place_macro_instances(parent, [
                MacroPlacement("E", LayoutCell("empty"), Transform(0, 0)),
            ])
        assert parent.instance_count() == 0

    def test_overlap_check_can_be_disabled(self):
        parent = LayoutCell("parent")
        macro = _solved_macro()
        HierarchicalPlacer().place_macro_instances(parent, [
            MacroPlacement("A", macro, Transform(0, 0)),
            MacroPlacement("B", macro, Transform(1000, 0)),
        ], check_overlaps=False)
        assert parent.instance_count() == 2


# ---------------------------------------------------------------------------
# Router: macro-instance consumption edge cases
# ---------------------------------------------------------------------------


class TestHierRouterEdgeCases:
    def test_zero_net_macro_routes_cleanly(self, technology):
        parent = LayoutCell("parent")
        parent.add_instance("M0", _solved_macro(), Transform(0, 0))
        parent.boundary = Rect(0, 0, 4000, 2000)
        report = HierarchicalRouter(technology, pitch=200).route_cell(parent, [])
        assert report.result.complete
        assert not report.result.routes
        assert not report.result.failed

    def test_single_instance_hierarchy_routes(self, technology):
        macro = _solved_macro()
        macro.add_pin("Q", "M2", Rect(100, 800, 300, 1000))
        parent = LayoutCell("parent")
        parent.add_instance("M0", macro, Transform(0, 0))
        parent.boundary = Rect(0, 0, 4000, 2000)
        report = HierarchicalRouter(technology, pitch=200).route_cell(parent, [
            LogicalNet("n", terminals=(("M0", "P"), ("M0", "Q"))),
        ])
        assert report.result.complete
        assert any(shape.net == "n" for shape in parent.shapes)

    def test_single_terminal_net_raises(self, technology):
        parent = LayoutCell("parent")
        parent.add_instance("M0", _solved_macro(), Transform(0, 0))
        with pytest.raises(RoutingError):
            HierarchicalRouter(technology, pitch=200).route_cell(parent, [
                LogicalNet("n", terminals=(("M0", "P"),)),
            ])

    def test_unknown_instance_raises_typed_error(self, technology):
        parent = LayoutCell("parent")
        parent.add_instance("M0", _solved_macro(), Transform(0, 0))
        with pytest.raises(ReproError):
            HierarchicalRouter(technology, pitch=200).route_cell(parent, [
                LogicalNet("n", terminals=(("GHOST", "P"), ("M0", "P"))),
            ])


# ---------------------------------------------------------------------------
# Flow-level reuse
# ---------------------------------------------------------------------------


FAST_NSGA2 = NSGA2Config(population_size=16, generations=6, seed=3)


class TestFlowReuse:
    def test_reuse_modes_produce_identical_layouts(
        self, cell_library, technology, tmp_path
    ):
        # The flow's shared pipeline against the cold reference: every
        # distilled design solved on its own fresh pipeline.
        auto = _FlowCore(FlowInputs(
            array_size=256, nsga2=FAST_NSGA2, max_layouts=2,
            library=cell_library)).run(route_columns=True)
        assert len(auto.layouts) == 2
        for key, report in auto.layouts.items():
            cold = _cold_report(cell_library, ACIMDesignSpec(*key))
            tag = "-".join(map(str, key))
            assert _gds_bytes(report.layout, technology, tmp_path, tag) == \
                _gds_bytes(cold.layout, technology, tmp_path, f"cold-{tag}")
            assert report.area_um2 == cold.area_um2
            assert report.routed_nets == cold.routed_nets
        assert auto.physical_stats["macros_built"] >= 1

    def test_flow_shares_pipeline_across_runs(self):
        pipeline = None
        first = _FlowCore(FlowInputs(
            array_size=256, nsga2=FAST_NSGA2, max_layouts=1))
        pipeline = first.pipeline
        first.run(route_columns=False)
        second = _FlowCore(FlowInputs(
            array_size=256, nsga2=FAST_NSGA2, max_layouts=1,
            pipeline=pipeline))
        result = second.run(route_columns=False)
        assert result.physical_stats["macros_reused"] >= 1

    def test_unknown_reuse_mode_rejected(self):
        # The reuse switch was removed in 1.7.0: every mode is rejected.
        with pytest.raises(TypeError):
            FlowInputs(array_size=256, reuse="off")
        with pytest.raises(RequestError) as excinfo:
            FlowRequest.from_dict({"array_size": 256, "reuse": "off"})
        assert excinfo.value.field == "reuse"
