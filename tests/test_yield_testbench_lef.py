"""Unit tests for yield analysis, SPICE testbench generation and LEF export."""

import pytest

from repro.errors import FlowError, LayoutError, SimulationError
from repro.arch.spec import ACIMDesignSpec
from repro.flow.testbench import TestbenchConfig, TestbenchGenerator
from repro.layout.lef_export import write_macro_lef, write_tech_lef
from repro.netlist.spice import parse_spice
from repro.physical.pipeline import PhysicalPipeline
from repro.sim.yield_analysis import (
    MismatchYieldAnalyzer,
    yield_across_unit_capacitance,
)


class TestYieldAnalysis:
    SPEC = ACIMDesignSpec(64, 8, 4, 3)

    def test_distribution_statistics_consistent(self):
        result = MismatchYieldAnalyzer(self.SPEC, seed=5).run(
            snr_spec_db=0.0, instances=8, trials_per_instance=80)
        assert result.instances == 8
        assert len(result.per_instance_snr_db) == 8
        assert result.snr_min_db <= result.snr_mean_db <= result.snr_max_db
        assert result.snr_std_db >= 0

    def test_trivial_spec_gives_full_yield(self):
        result = MismatchYieldAnalyzer(self.SPEC, seed=5).run(
            snr_spec_db=-20.0, instances=6, trials_per_instance=60)
        assert result.yield_fraction == pytest.approx(1.0)
        assert result.meets_target(0.99)

    def test_impossible_spec_gives_zero_yield(self):
        result = MismatchYieldAnalyzer(self.SPEC, seed=5).run(
            snr_spec_db=60.0, instances=6, trials_per_instance=60)
        assert result.yield_fraction == pytest.approx(0.0)
        assert not result.meets_target()

    def test_reproducible_for_fixed_seed(self):
        a = MismatchYieldAnalyzer(self.SPEC, seed=11).run(
            snr_spec_db=5.0, instances=5, trials_per_instance=50)
        b = MismatchYieldAnalyzer(self.SPEC, seed=11).run(
            snr_spec_db=5.0, instances=5, trials_per_instance=50)
        assert a.per_instance_snr_db == b.per_instance_snr_db

    def test_capacitance_sweep_never_hurts_mean_snr(self):
        results = yield_across_unit_capacitance(
            self.SPEC, snr_spec_db=5.0,
            capacitances=[0.25e-15, 4e-15],
            instances=6, trials_per_instance=60)
        assert len(results) == 2
        assert results[1].snr_mean_db >= results[0].snr_mean_db - 1.0

    def test_invalid_arguments(self):
        analyzer = MismatchYieldAnalyzer(self.SPEC)
        with pytest.raises(SimulationError):
            analyzer.run(snr_spec_db=0.0, instances=1)
        with pytest.raises(SimulationError):
            analyzer.run(snr_spec_db=0.0, instances=4, trials_per_instance=5)
        with pytest.raises(SimulationError):
            yield_across_unit_capacitance(self.SPEC, 0.0, capacitances=[-1e-15])


class TestTestbenchGenerator:
    @pytest.fixture(scope="class")
    def macro(self, cell_library):
        return PhysicalPipeline(cell_library).run(
            ACIMDesignSpec(16, 4, 4, 2), generate_netlist=True,
            generate_layout=False).netlist

    def test_testbench_contains_required_sections(self, macro):
        spec = ACIMDesignSpec(16, 4, 4, 2)
        text = TestbenchGenerator().generate(spec, macro)
        assert ".TRAN" in text
        assert "VVDD VDD 0" in text
        assert "XDUT" in text
        assert ".MEAS TRAN rbl_settled" in text
        assert text.rstrip().endswith(".END")

    def test_structural_part_reparses(self, macro):
        spec = ACIMDesignSpec(16, 4, 4, 2)
        text = TestbenchGenerator().generate(spec, macro)
        circuits = parse_spice(text)
        assert macro.name in circuits
        assert "sram8t" in circuits

    def test_activation_pattern_applied(self, macro):
        spec = ACIMDesignSpec(16, 4, 4, 2)
        config = TestbenchConfig(activation_pattern=(1, 0))
        text = TestbenchGenerator(config=config).generate(spec, macro)
        assert "VXIN0 XIN0 0 0.9" in text
        assert "VXIN1 XIN1 0 0" in text

    def test_comparison_measurements_per_bit(self, macro):
        spec = ACIMDesignSpec(16, 4, 4, 2)
        text = TestbenchGenerator().generate(spec, macro)
        assert "comp_bit0" in text and "comp_bit1" in text
        assert "comp_bit2" not in text

    def test_write_to_file(self, macro, tmp_path):
        spec = ACIMDesignSpec(16, 4, 4, 2)
        path = TestbenchGenerator().write(spec, macro, tmp_path / "tb.sp")
        assert path.exists()
        assert path.read_text().startswith("* EasyACIM testbench")

    def test_invalid_config(self):
        with pytest.raises(FlowError):
            TestbenchConfig(cycles=0)
        with pytest.raises(FlowError):
            TestbenchConfig(activation_pattern=(2, 0))


class TestLefExport:
    def test_tech_lef_lists_routing_layers_and_vias(self, technology, tmp_path):
        text = write_tech_lef(technology, tmp_path / "tech.lef")
        for layer in technology.routing_layers:
            assert f"LAYER {layer.name}" in text
        assert "VIA VIA12 DEFAULT" in text
        assert text.rstrip().endswith("END LIBRARY")

    def test_macro_lef_has_size_pins_and_obs(self, technology, cell_library, tmp_path):
        layout = cell_library.layout("sram8t")
        text = write_macro_lef(layout, technology, tmp_path / "sram.lef")
        assert "MACRO sram8t" in text
        assert "SIZE 2.0000 BY" in text
        assert "PIN RWL" in text and "PIN VDD" in text
        assert "OBS" in text

    def test_supply_pins_marked_power_and_ground(self, technology, cell_library, tmp_path):
        layout = cell_library.layout("comparator")
        text = write_macro_lef(layout, technology, tmp_path / "comp.lef")
        assert "USE POWER ;" in text
        assert "USE GROUND ;" in text

    def test_generated_macro_lef(self, technology, cell_library, tmp_path):
        report = PhysicalPipeline(cell_library).run(
            ACIMDesignSpec(16, 4, 4, 2), route_columns=False).report
        text = write_macro_lef(report.layout, technology, tmp_path / "macro.lef")
        assert f"MACRO {report.layout.name}" in text

    def test_empty_cell_rejected(self, technology, tmp_path):
        from repro.layout.layout import LayoutCell

        with pytest.raises(LayoutError):
            write_macro_lef(LayoutCell("empty"), technology, tmp_path / "x.lef")
