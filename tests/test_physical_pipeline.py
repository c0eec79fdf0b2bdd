"""Tests of the staged physical pipeline: content-addressed macro reuse,
layout serialization, artifact persistence, the macro-instance consumer
APIs of the placer/router, and flow-level reuse against the cold
reference (a fresh pipeline per design)."""

import json

import pytest

from repro.arch.spec import ACIMDesignSpec
from repro.dse.nsga2 import NSGA2Config
from repro.engine import EvaluationEngine
from repro.api import FlowRequest, LayoutRequest, Session
from repro.errors import (
    LayoutError,
    PlacementError,
    ReproError,
    RequestError,
    RoutingError,
)
from repro.flow.controller import FlowInputs, _FlowCore
from repro.layout.gdsii import write_gds
from repro.layout.geometry import Point, Rect, Transform
from repro.layout.layout import LayoutCell
from repro.netlist.spice import write_spice
from repro.obs import MetricsRegistry
from repro.physical import (
    MACRO_STAGE,
    MacroLibrary,
    PhysicalPipeline,
    PipelineStats,
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

    def test_no_output_dir_writes_no_file(
        self, cell_library, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        result = PhysicalPipeline(cell_library).run(SPEC_A, output_dir=None)
        assert result.report.gds_path is None
        assert result.report.def_path is None
        assert result.stats.stage("export").runs == 0
        assert list(tmp_path.iterdir()) == []

    def test_output_dir_exports_gds_and_def(self, cell_library, tmp_path):
        out = tmp_path / "nested" / "out"
        result = PhysicalPipeline(cell_library).run(SPEC_A, output_dir=str(out))
        assert result.stats.stage("export").runs == 1
        assert sorted(path.name for path in out.iterdir()) == sorted([
            f"{result.report.layout.name}.gds",
            f"{result.report.layout.name}.def",
        ])
        assert result.report.gds_path == str(out / f"{result.report.layout.name}.gds")


# ---------------------------------------------------------------------------
# One counter per fact: stats views, envelope keys and registry agree
# ---------------------------------------------------------------------------


#: physical.macro.<rung> counters behind each PipelineStats macro field.
MACRO_RUNGS = {
    "macros_built": ("built",),
    "macros_reused": ("hit.memory", "hit.store"),
    "macros_derived": ("derive.memory", "derive.store"),
}


class TestOneCounterPerFact:
    def _check(self, result):
        """PipelineResult.stats (the layout payload), the flat engine_stats
        keys and the request's registry delta must tell one story."""
        physical = result.payload["physical_stats"]
        delta = result.metrics
        for field, rungs in MACRO_RUNGS.items():
            counted = sum(
                delta.get(f"physical.macro.{rung}", 0) for rung in rungs
            )
            assert physical[field] == result.engine_stats[field] == counted
        for name, stage in physical["stages"].items():
            assert stage["runs"] == delta.get(f"physical.stage.{name}.runs", 0)
            assert stage["cache_hits"] == delta.get(
                f"physical.stage.{name}.cache_hits", 0
            ) == result.engine_stats[f"stage_{name}_cache_hits"]
            assert stage["store_hits"] == delta.get(
                f"physical.stage.{name}.store_hits", 0
            )
            assert stage["seconds"] == result.engine_stats[
                f"stage_{name}_seconds"
            ]
        assert PipelineStats.from_metrics(delta).as_dict() == physical
        return {
            rung: delta.get(f"physical.macro.{rung}", 0)
            for rungs in MACRO_RUNGS.values() for rung in rungs
        }

    @staticmethod
    def _layout(session, spec):
        height, width, local, bits = spec.as_tuple()
        return session.layout(LayoutRequest(
            height=height, width=width, local_array_size=local,
            adc_bits=bits, route_columns=True,
        ))

    def test_cold_warm_derive_and_warm_store_agree(self, tmp_path):
        engine = EvaluationEngine(metrics=MetricsRegistry())
        with ResultStore(tmp_path / "store.sqlite") as store:
            session = Session(engine=engine, store=store)
            cold = self._check(self._layout(session, SPEC_A))
            assert cold["built"] == 3 and sum(cold.values()) == 3
            warm = self._check(self._layout(session, SPEC_A))
            assert warm["hit.memory"] == 1 and sum(warm.values()) == 1
            # H doubled: the column derives from the in-memory template,
            # the local array is reused, the top macro is solved.
            derive = self._check(self._layout(session, SPEC_C))
            assert derive == {
                "built": 1, "hit.memory": 1, "hit.store": 0,
                "derive.memory": 1, "derive.store": 0,
            }
            # A second session on the same registry and warm store: a
            # fresh pipeline, so the neighbour derives from the store.
            fresh = Session(engine=engine, store=store)
            warm_store = self._check(
                self._layout(fresh, ACIMDesignSpec(16, 4, 4, 1))
            )
            assert warm_store["hit.store"] >= 1
            assert warm_store["derive.store"] >= 1
            assert warm_store["hit.memory"] == warm_store["derive.memory"] == 0
            # The cumulative view of the shared registry is the sum of
            # the four requests.
            total = PipelineStats.from_metrics(engine.metrics.snapshot())
            assert total.macros_built == 3 + 1 + warm_store["built"]


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


def _array_plan(names, macro, origin, step):
    """The :meth:`place_macro_array` plan as explicit macro placements."""
    return [
        MacroPlacement(
            name, macro,
            Transform(origin[0] + i * step[0], origin[1] + i * step[1]),
        )
        for i, name in enumerate(names)
    ]


def _instance_plan(cell):
    return [(inst.name, inst.cell.name, inst.transform) for inst in cell.instances]


class TestMacroArrayPlacement:
    """``place_macro_array`` is ``place_macro_instances`` of a regular
    line of one macro: the same instances, union box and guard."""

    @pytest.mark.parametrize("origin, step", [
        ((0, 0), (2000, 0)),       # abutted row
        ((300, -40), (2500, 0)),   # spaced row
        ((0, 0), (0, 1000)),       # abutted column
        ((5000, 0), (-2000, 0)),   # row growing to the left
        ((0, 0), (2000, 1000)),    # diagonal staircase
    ])
    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_matches_explicit_placements(self, origin, step, count):
        macro = _solved_macro()
        names = [f"COL{i}" for i in range(count)]
        array_parent = LayoutCell("array")
        union = HierarchicalPlacer().place_macro_array(
            array_parent, macro, names, origin=origin, step=step,
        )
        plan_parent = LayoutCell("plan")
        boxes = HierarchicalPlacer().place_macro_instances(
            plan_parent, _array_plan(names, macro, origin, step),
        )
        assert union == Rect.bounding(boxes.values())
        assert _instance_plan(array_parent) == _instance_plan(plan_parent)

    @pytest.mark.parametrize("step", [(1999, 0), (0, 0), (-1000, 0), (0, 999)])
    def test_pitch_below_macro_size_raises(self, step):
        macro = _solved_macro()
        names = ["COL0", "COL1", "COL2"]
        parent = LayoutCell("parent")
        with pytest.raises(PlacementError) as array_error:
            HierarchicalPlacer().place_macro_array(
                parent, macro, names, origin=(100, 0), step=step,
            )
        assert parent.instance_count() == 0
        with pytest.raises(PlacementError) as plan_error:
            HierarchicalPlacer().place_macro_instances(
                LayoutCell("plan"), _array_plan(names, macro, (100, 0), step),
            )
        assert str(array_error.value) == str(plan_error.value)
        assert "overlap" in str(array_error.value)

    def test_empty_macro_raises_typed_error(self):
        parent = LayoutCell("parent")
        with pytest.raises(PlacementError, match="'E0'.*empty cell 'empty'"):
            HierarchicalPlacer().place_macro_array(
                parent, LayoutCell("empty"), ["E0", "E1"],
                origin=(0, 0), step=(10, 0),
            )
        assert parent.instance_count() == 0

    def test_no_names_places_nothing(self):
        parent = LayoutCell("parent")
        assert HierarchicalPlacer().place_macro_array(
            parent, _solved_macro(), [], origin=(0, 0), step=(0, 0),
        ) is None
        assert parent.instance_count() == 0


#: W = 1, H = L (one local array per column; past the spec's Equation-12
#: check, which the builders do not run) and the four designs the
#: distilled benchmark flow lays out.
ASSEMBLY_SPECS = [
    ACIMDesignSpec(16, 1, 4, 2),
    ACIMDesignSpec(8, 4, 8, 2),
    ACIMDesignSpec(16, 1024, 2, 3),
    ACIMDesignSpec(32, 512, 2, 4),
    ACIMDesignSpec(64, 256, 2, 4),
    ACIMDesignSpec(64, 256, 2, 5),
]


def _placed_box(transform, box):
    """A placed box corner by corner (the general ``apply_rect`` path)."""
    corner_lo = transform.apply_point(Point(box.x_lo, box.y_lo))
    corner_hi = transform.apply_point(Point(box.x_hi, box.y_hi))
    return Rect(corner_lo.x, corner_lo.y, corner_hi.x, corner_hi.y)


class TestMacroAssemblyArithmetic:
    """``_build_macro`` computes its boxes by offset arithmetic; they must
    equal the per-instance transform-and-bound they replaced."""

    @pytest.fixture(scope="class")
    def assembled(self, cell_library):
        pipeline = PhysicalPipeline(cell_library)
        macros = {}
        for spec in ASSEMBLY_SPECS:
            local, _ = pipeline._build_local_array(spec, route=False)
            column, _ = pipeline._build_column(spec, local, route=False)
            macros[spec] = (column, pipeline._build_macro(spec, column))
        return cell_library, macros

    @pytest.mark.parametrize("spec", ASSEMBLY_SPECS, ids=str)
    def test_instance_transforms(self, assembled, spec):
        library, macros = assembled
        column, macro = macros[spec]
        input_buffer = library.layout("input_buffer")
        output_buffer = library.layout("output_buffer")
        pitch = column.bounding_box().width
        bottom = output_buffer.height
        expected = (
            [(f"IBUF{row}", Transform(0, bottom + row * input_buffer.height))
             for row in range(spec.height)]
            + [(f"COL{col}", Transform(input_buffer.width + col * pitch, bottom))
               for col in range(spec.width)]
            + [(f"OBUF{col}", Transform(input_buffer.width + col * pitch, 0))
               for col in range(spec.width)]
        )
        assert [(inst.name, inst.transform) for inst in macro.instances] == expected

    @pytest.mark.parametrize("spec", ASSEMBLY_SPECS, ids=str)
    def test_boundary_is_the_bound_of_placed_boxes(self, assembled, spec):
        _library, macros = assembled
        _column, macro = macros[spec]
        bbox = Rect.bounding(
            _placed_box(inst.transform, inst.cell.boundary or inst.cell.bounding_box())
            for inst in macro.instances
        )
        prbound = [shape.rect for shape in macro.shapes if shape.layer == "PRBOUND"]
        assert prbound == [bbox]
        assert macro.boundary == Rect.bounding(shape.rect for shape in macro.shapes)


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
