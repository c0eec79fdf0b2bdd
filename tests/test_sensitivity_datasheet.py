"""Unit tests for sensitivity analysis and datasheet generation."""

import pytest

from repro.errors import OptimizationError
from repro.arch.spec import ACIMDesignSpec
from repro.dse.sensitivity import (
    PERTURBABLE_PARAMETERS,
    SensitivityAnalyzer,
    perturb_parameters,
)
from repro.flow.datasheet import DatasheetWriter
from repro.model.estimator import ModelParameters
from repro.physical.pipeline import PhysicalPipeline


class TestPerturbation:
    def test_perturbs_only_requested_field(self):
        base = ModelParameters()
        perturbed = perturb_parameters(base, "k1", 0.5)
        assert perturbed.energy.k1 == pytest.approx(base.energy.k1 * 1.5)
        assert perturbed.energy.k2 == base.energy.k2
        assert perturbed.area == base.area

    def test_every_registered_parameter_is_perturbable(self):
        base = ModelParameters()
        for name in PERTURBABLE_PARAMETERS:
            perturbed = perturb_parameters(base, name, 0.1)
            bundle_name, field_name = PERTURBABLE_PARAMETERS[name]
            original = getattr(getattr(base, bundle_name), field_name)
            changed = getattr(getattr(perturbed, bundle_name), field_name)
            assert changed == pytest.approx(original * 1.1)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(OptimizationError):
            perturb_parameters(ModelParameters(), "not_a_constant", 0.1)


class TestDesignPointSensitivity:
    SPEC = ACIMDesignSpec(128, 128, 8, 3)

    def test_directions_of_change(self):
        analyzer = SensitivityAnalyzer()
        results = {r.parameter: r for r in analyzer.design_point_sensitivity(
            self.SPEC, parameters=("k2", "a_sram", "conversion_time_per_bit"))}
        # More CDAC energy -> lower efficiency; throughput and area untouched.
        assert results["k2"].tops_per_watt_change < 0
        assert results["k2"].tops_change == pytest.approx(0.0, abs=1e-9)
        # Bigger SRAM cell -> bigger area only.
        assert results["a_sram"].area_change > 0
        assert results["a_sram"].tops_change == pytest.approx(0.0, abs=1e-9)
        # Slower conversion -> lower throughput.
        assert results["conversion_time_per_bit"].tops_change < 0

    def test_magnitudes_bounded_by_perturbation(self):
        analyzer = SensitivityAnalyzer()
        for result in analyzer.design_point_sensitivity(self.SPEC,
                                                        relative_change=0.2):
            assert abs(result.area_change) <= 0.2 + 1e-9
            assert abs(result.tops_change) <= 0.2 + 1e-9

    def test_snr_insensitive_to_energy_constants(self):
        analyzer = SensitivityAnalyzer()
        results = {r.parameter: r for r in analyzer.design_point_sensitivity(
            self.SPEC, parameters=("k1", "k2"))}
        assert results["k1"].snr_change_db == pytest.approx(0.0, abs=1e-9)


class TestFrontierSensitivity:
    def test_frontier_is_stable_under_moderate_perturbations(self):
        analyzer = SensitivityAnalyzer()
        results = analyzer.frontier_sensitivity(
            1024, parameters=("k1", "k2", "a_local_compute"), relative_change=0.2)
        assert len(results) == 3
        for result in results:
            # The 4-objective frontier membership barely moves: the
            # conclusions do not hinge on the calibrated constants.
            assert result.jaccard_similarity >= 0.9
            assert abs(result.area_range_shift) <= 0.25
            assert abs(result.efficiency_range_shift) <= 0.25

    def test_energy_constant_shifts_efficiency_range(self):
        analyzer = SensitivityAnalyzer()
        (result,) = analyzer.frontier_sensitivity(
            1024, parameters=("e_compute",), relative_change=0.5)
        assert result.efficiency_range_shift < -0.1


class TestDatasheet:
    SPEC = ACIMDesignSpec(64, 16, 4, 3)

    def test_contains_all_sections(self):
        text = DatasheetWriter().render(self.SPEC)
        for heading in ("# EasyACIM macro", "## Design parameters",
                        "## Estimated performance", "## Cycle timing",
                        "## Operating sequence"):
            assert heading in text

    def test_parameter_values_rendered(self):
        text = DatasheetWriter().render(self.SPEC)
        assert "| Array height H | 64 |" in text
        assert "| ADC precision B_ADC | 3 bit |" in text
        assert "1:1:2:4" in text

    def test_physical_and_interface_sections(self, cell_library):
        product = PhysicalPipeline(cell_library).run(
            self.SPEC, generate_netlist=True, route_columns=False)
        report, netlist = product.report, product.netlist
        text = DatasheetWriter().render(
            self.SPEC, layout_report=report, netlist=netlist)
        assert "## Physical summary" in text
        assert "## Interface" in text
        assert "Supplies" in text

    def test_write_to_file(self, tmp_path):
        path = DatasheetWriter().write(tmp_path / "macro.md", self.SPEC)
        assert path.exists()
        assert path.read_text().startswith("# EasyACIM macro")

    def test_infeasible_spec_rejected(self):
        with pytest.raises(Exception):
            DatasheetWriter().render(ACIMDesignSpec(8, 8, 8, 4))
