"""Integration tests spanning multiple subsystems.

These tests exercise the combinations the paper's evaluation relies on:
the Figure-8 design points through model + netlist + layout, the estimation
model against the behavioral Monte-Carlo simulator, the explorer against the
published headline ranges, and the full flow from array size to exported
GDSII.
"""

import pytest

from repro import (
    ACIMDesignSpec,
    ACIMEstimator,
    ExploreRequest,
    FlowInputs,
    NSGA2Config,
    Session,
)
from repro.flow.controller import _FlowCore
from repro.dse.distill import DistillationCriteria
from repro.dse.exhaustive import exhaustive_pareto_front
from repro.layout.drc import DRCChecker
from repro.layout.gdsii import read_gds
from repro.model.calibration import FIGURE8_REFERENCE
from repro.netlist.traversal import count_leaf_instances
from repro.physical.pipeline import PhysicalPipeline
from repro.sim import MonteCarloSnr, NoiseSettings


class TestFigure8DesignPoints:
    """The three published 16 kb design points, end to end."""

    @pytest.mark.parametrize("spec_tuple,expected", list(FIGURE8_REFERENCE.items()))
    def test_model_reproduces_published_numbers(self, estimator, spec_tuple, expected):
        height, width, local, bits = spec_tuple
        expected_tops, expected_area = expected
        metrics = estimator.evaluate(ACIMDesignSpec(height, width, local, bits))
        assert metrics.tops == pytest.approx(expected_tops, rel=0.03)
        assert metrics.area_f2_per_bit == pytest.approx(expected_area, rel=0.01)

    def test_figure8c_has_higher_snr_than_b_at_same_throughput(self, estimator):
        metrics_b = estimator.evaluate(ACIMDesignSpec(128, 128, 8, 3))
        metrics_c = estimator.evaluate(ACIMDesignSpec(64, 256, 8, 3))
        assert metrics_c.tops == pytest.approx(metrics_b.tops, rel=1e-6)
        assert metrics_c.snr_db > metrics_b.snr_db
        assert metrics_c.area_f2_per_bit > metrics_b.area_f2_per_bit

    def test_netlist_of_figure8b_column_structure(self, cell_library):
        # Building the full 16 kb netlist is cheap because the hierarchy is
        # shared; verify the leaf counts match the architecture.
        spec = ACIMDesignSpec(128, 128, 8, 3)
        macro = PhysicalPipeline(cell_library).run(
            spec, generate_netlist=True, generate_layout=False).netlist
        counts = count_leaf_instances(macro)
        assert counts["sram8t"] == 16384
        assert counts["comparator"] == 128
        assert counts["sar_dff"] == 384

    def test_layout_dimensions_track_figure8_for_scaled_macro(self, cell_library):
        # A 1 kb macro with the Figure-8(b) column structure (H=128, L=8,
        # B=3, W=8): the column height must match the published 131 um.
        spec = ACIMDesignSpec(128, 8, 8, 3)
        report = PhysicalPipeline(cell_library).run(spec, route_columns=False).report
        assert report.height_um == pytest.approx(131 + 2.0, rel=0.05)


class TestModelAgainstSimulation:
    def test_snr_model_and_monte_carlo_agree_on_trends(self):
        estimator = ACIMEstimator()
        specs = [
            ACIMDesignSpec(64, 8, 8, 2),
            ACIMDesignSpec(64, 8, 4, 3),
            ACIMDesignSpec(128, 8, 4, 4),
        ]
        analytic = [
            estimator.snr_model.design_snr_db(s.adc_bits, s.local_arrays_per_column)
            for s in specs
        ]
        measured = [
            MonteCarloSnr(s, seed=33).run(trials=800).snr_db for s in specs
        ]
        # Ordering must agree and absolute values track within a few dB.
        assert sorted(range(3), key=lambda i: analytic[i]) == \
            sorted(range(3), key=lambda i: measured[i])
        for a, m in zip(analytic, measured):
            assert m == pytest.approx(a, abs=5.0)

    def test_noise_sources_degrade_measured_snr(self):
        spec = ACIMDesignSpec(128, 8, 4, 5)
        ideal = MonteCarloSnr(spec, noise=NoiseSettings.ideal(), seed=3).run(trials=600)
        noisy = MonteCarloSnr(
            spec,
            noise=NoiseSettings(cap_mismatch_kappa=4e-9, comparator_noise_sigma=0.01),
            seed=3,
        ).run(trials=600)
        assert noisy.snr_db < ideal.snr_db


class TestExplorerHeadlineClaims:
    def test_16kb_design_space_covers_paper_ranges(self):
        # Paper abstract: energy efficiency 50-750 TOPS/W, area
        # 1500-7500 F^2/bit across the design space (all array sizes); a
        # 16 kb array covers most of that span.
        designs = exhaustive_pareto_front(16384)
        efficiencies = [d.metrics.tops_per_watt for d in designs]
        areas = [d.metrics.area_f2_per_bit for d in designs]
        assert min(efficiencies) < 120
        assert max(efficiencies) > 600
        assert min(areas) < 2200
        assert max(areas) > 5000

    def test_explored_front_matches_exhaustive_extremes(self):
        with Session() as session:
            result = session.explore(ExploreRequest(
                array_size=16384, population=60, generations=30, seed=17))
        pareto_set = result.artifacts["pareto_set"]
        truth = exhaustive_pareto_front(16384)
        found_eff = max(d.metrics.tops_per_watt for d in pareto_set)
        true_eff = max(d.metrics.tops_per_watt for d in truth)
        assert found_eff >= 0.9 * true_eff
        found_area = min(d.metrics.area_f2_per_bit for d in pareto_set)
        true_area = min(d.metrics.area_f2_per_bit for d in truth)
        assert found_area <= 1.1 * true_area


class TestFullFlow:
    def test_flow_with_exported_layout_and_drc(self, tmp_path, technology):
        inputs = FlowInputs(
            array_size=256,
            nsga2=NSGA2Config(population_size=20, generations=8, seed=5),
            criteria=DistillationCriteria(max_adc_bits=3),
            max_layouts=1,
        )
        flow = _FlowCore(inputs)
        result = flow.run(route_columns=True, output_dir=str(tmp_path))
        assert result.layouts
        report = next(iter(result.layouts.values()))
        assert report.failed_nets == 0
        # GDS written and readable.
        cells = read_gds(report.gds_path, technology)
        assert report.layout.name in cells
        # The local-array level must be DRC-clean for metal shorts.
        local_array = next(
            cell for name, cell in report.layout.collect_cells().items()
            if name.startswith("local_array")
        )
        violations = DRCChecker(technology).check(local_array)
        shorts = [v for v in violations if v.rule == "min_spacing" and v.measured == 0]
        assert not shorts

    def test_flow_distillation_changes_selection(self):
        nsga2 = NSGA2Config(population_size=30, generations=12, seed=9)
        unconstrained = _FlowCore(FlowInputs(array_size=4096, nsga2=nsga2))
        constrained = _FlowCore(FlowInputs(
            array_size=4096, nsga2=nsga2,
            criteria=DistillationCriteria(min_snr_db=25.0)))
        free_run = unconstrained.run(generate_netlists=False, generate_layouts=False)
        tight_run = constrained.run(generate_netlists=False, generate_layouts=False)
        assert len(tight_run.distilled) <= len(free_run.distilled)
