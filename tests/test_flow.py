"""Unit tests for the end-to-end flow (netlist gen, layout gen, controller, baselines)."""

import pytest

from repro.errors import FlowError
from repro.arch.spec import ACIMDesignSpec
from repro.dse.distill import DistillationCriteria
from repro.dse.nsga2 import NSGA2Config
from repro.dse.pareto import pareto_front
from repro.flow import (
    AutoDCIMBaselineFlow,
    FlowInputs,
    LayoutGenerator,
    TemplateNetlistGenerator,
    TraditionalManualFlow,
    design_table,
    flow_comparison_table,
    format_table,
    pareto_summary,
    solution_report,
)
from repro.flow.controller import _FlowCore
from repro.flow.report import csv_lines
from repro.netlist.traversal import count_leaf_instances, hierarchy_depth


FAST_NSGA2 = NSGA2Config(population_size=24, generations=10, seed=3)


class TestNetlistGenerator:
    def test_macro_netlist_validates(self, cell_library, small_spec):
        generator = TemplateNetlistGenerator(cell_library)
        macro = generator.generate(small_spec)
        macro.validate()

    def test_leaf_counts_match_architecture(self, cell_library, small_spec):
        generator = TemplateNetlistGenerator(cell_library)
        macro = generator.generate(small_spec)
        counts = count_leaf_instances(macro)
        expected = generator.expected_instance_counts(small_spec)
        for key in ("sram8t", "local_compute", "comparator", "sar_dff",
                    "input_buffer", "output_buffer"):
            assert counts[key] == expected[key], key

    def test_hierarchy_depth_is_four(self, cell_library, small_spec):
        # macro -> column -> local array / SAR controller -> leaf cells.
        macro = TemplateNetlistGenerator(cell_library).generate(small_spec)
        assert hierarchy_depth(macro) == 4

    def test_macro_pins_scale_with_dimensions(self, cell_library, small_spec):
        macro = TemplateNetlistGenerator(cell_library).generate(small_spec)
        pins = {pin.name for pin in macro.pins}
        assert f"XIN{small_spec.height - 1}" in pins
        assert f"DOUT{small_spec.width - 1}" in pins

    def test_spice_export_of_macro(self, cell_library, small_spec):
        from repro.netlist.spice import write_spice

        macro = TemplateNetlistGenerator(cell_library).generate(small_spec)
        text = write_spice(macro)
        assert ".SUBCKT sram8t" in text
        assert macro.name in text

    def test_different_specs_give_different_column_circuits(self, cell_library):
        generator = TemplateNetlistGenerator(cell_library)
        a = generator.generate(ACIMDesignSpec(16, 4, 4, 2))
        b = generator.generate(ACIMDesignSpec(32, 2, 4, 3))
        assert a.name != b.name
        counts_a = count_leaf_instances(a)
        counts_b = count_leaf_instances(b)
        assert counts_a["sar_dff"] != counts_b["sar_dff"]

    def test_infeasible_spec_rejected(self, cell_library):
        generator = TemplateNetlistGenerator(cell_library)
        with pytest.raises(Exception):
            generator.generate(ACIMDesignSpec(8, 8, 8, 4))


class TestLayoutGenerator:
    def test_small_macro_layout(self, cell_library, small_spec):
        generator = LayoutGenerator(cell_library)
        report = generator.generate(small_spec, route_column=True)
        assert report.width_um > 0 and report.height_um > 0
        assert report.failed_nets == 0
        assert report.routed_nets >= 3
        assert report.layout.instance_count() >= small_spec.width

    def test_layout_area_tracks_area_model(self, cell_library, small_spec, estimator):
        report = LayoutGenerator(cell_library).generate(small_spec, route_column=False)
        modelled = estimator.area_model.area_per_bit_f2(small_spec)
        # The layout adds peripheral buffers, so it is a bit bigger but in
        # the same range as the Equation-10 model.
        assert report.area_f2_per_bit == pytest.approx(modelled, rel=0.35)
        assert report.area_f2_per_bit >= modelled

    def test_gds_and_def_export(self, cell_library, small_spec, tmp_path, technology):
        from repro.layout.gdsii import read_gds

        report = LayoutGenerator(cell_library).generate(
            small_spec, route_column=False, export=True, output_dir=str(tmp_path))
        assert report.gds_path and report.def_path
        cells = read_gds(report.gds_path, technology)
        assert report.layout.name in cells

    def test_larger_l_gives_smaller_layout(self, cell_library):
        generator = LayoutGenerator(cell_library)
        small_l = generator.generate(ACIMDesignSpec(32, 4, 2, 2), route_column=False)
        large_l = generator.generate(ACIMDesignSpec(32, 4, 8, 2), route_column=False)
        assert large_l.area_um2 < small_l.area_um2

    def test_report_dictionary(self, cell_library, small_spec):
        report = LayoutGenerator(cell_library).generate(small_spec, route_column=False)
        record = report.as_dict()
        assert record["H"] == small_spec.height
        assert record["failed_nets"] == 0


class TestBaselines:
    def test_comparison_table_matches_paper_table2(self):
        table = {entry.name: entry for entry in flow_comparison_table()}
        assert table["Traditional Flow"].layout_design == "Manual"
        assert table["AutoDCIM-style"].design_type == "Digital"
        assert table["AutoDCIM-style"].parameter_determination == "User-defined"
        assert table["EasyACIM"].design_type == "Analog"
        assert table["EasyACIM"].design_space == "Pareto frontier"
        assert table["EasyACIM"].parameter_determination == "Automatic"

    def test_traditional_flow_single_feasible_point(self):
        flow = TraditionalManualFlow()
        points = flow.design_points(16384)
        assert len(points) == 1
        assert points[0].is_feasible(16384)

    def test_autodcim_baseline_evaluates_user_specs(self):
        baseline = AutoDCIMBaselineFlow()
        designs = baseline.run(16384)
        assert designs
        assert all(d.spec.is_feasible(16384) for d in designs)

    def test_autodcim_baseline_rejects_infeasible_user_spec(self):
        baseline = AutoDCIMBaselineFlow()
        with pytest.raises(FlowError):
            baseline.run(16384, user_specs=[ACIMDesignSpec(64, 64, 8, 3)])

    def test_autodcim_pareto_efficiency_below_explorer(self):
        baseline = AutoDCIMBaselineFlow()
        user_specs = [
            ACIMDesignSpec(128, 32, 4, 3),
            ACIMDesignSpec(128, 32, 4, 2),
            ACIMDesignSpec(64, 64, 4, 3),
            ACIMDesignSpec(64, 64, 8, 3),
            ACIMDesignSpec(32, 128, 8, 2),
        ]
        designs = baseline.run(4096, user_specs=user_specs)
        efficiency = baseline.pareto_efficiency(designs)
        assert 0.0 < efficiency <= 1.0


class TestReportHelpers:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows)
        assert "a" in text.splitlines()[0]
        assert len(text.splitlines()) == 4

    def test_format_empty_table(self):
        assert format_table([]) == "(empty table)"

    def test_design_table_and_summary(self):
        from repro.dse.exhaustive import exhaustive_pareto_front

        designs = exhaustive_pareto_front(1024)
        rows = design_table(designs)
        assert len(rows) == len(designs)
        summary = pareto_summary(designs)
        assert summary["solutions"] == len(designs)
        assert summary["snr_db_min"] <= summary["snr_db_max"]

    def test_solution_report_mentions_metrics(self):
        from repro.dse.exhaustive import exhaustive_pareto_front

        design = exhaustive_pareto_front(1024)[0]
        text = solution_report(design)
        assert "SNR" in text and "TOPS" in text

    def test_csv_lines(self):
        rows = [{"a": 1.0, "b": 2.0}]
        lines = csv_lines(rows)
        assert lines[0] == "a,b"
        assert len(lines) == 2


class TestFlowCore:
    def test_flow_runs_end_to_end_without_layouts(self):
        flow = _FlowCore(FlowInputs(array_size=1024, nsga2=FAST_NSGA2))
        result = flow.run(generate_layouts=False)
        assert result.exploration.pareto_set
        assert result.distilled
        assert result.netlists
        assert result.runtime_seconds > 0
        assert "Pareto-frontier solutions" in result.summary()

    def test_flow_with_layouts_for_small_array(self):
        flow = _FlowCore(FlowInputs(array_size=256, nsga2=FAST_NSGA2, max_layouts=1))
        result = flow.run(generate_layouts=True, route_columns=False)
        assert len(result.layouts) == 1
        report = next(iter(result.layouts.values()))
        assert report.area_um2 > 0

    def test_distillation_criteria_applied(self):
        criteria = DistillationCriteria(min_snr_db=15.0, name="strict")
        flow = _FlowCore(FlowInputs(array_size=1024, nsga2=FAST_NSGA2,
                                       criteria=criteria))
        exploration = flow.explore()
        distilled = flow.distill(exploration)
        assert all(d.metrics.snr_db >= 15.0 for d in distilled) or \
            len(distilled) == len(exploration.pareto_set)

    def test_flow_rejects_tiny_arrays(self):
        with pytest.raises(FlowError):
            _FlowCore(FlowInputs(array_size=8))

    def test_flow_netlists_match_selected_specs(self):
        flow = _FlowCore(FlowInputs(array_size=1024, nsga2=FAST_NSGA2,
                                       max_layouts=2))
        result = flow.run(generate_layouts=False)
        for key, netlist in result.netlists.items():
            assert netlist.name.startswith("easyacim_1024b")
            assert key in {d.spec.as_tuple() for d in result.distilled}

    def test_flow_surfaces_engine_stats(self):
        flow = _FlowCore(FlowInputs(array_size=1024, nsga2=FAST_NSGA2))
        result = flow.run(generate_layouts=False)
        assert not {"backend", "workers"} & set(result.engine_stats)
        assert result.engine_stats["tasks"] > 0
        assert "engine" in result.summary()
