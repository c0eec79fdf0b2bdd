"""Unit tests for parasitic extraction and model back-annotation."""

import pytest

from repro.errors import LayoutError, ModelError
from repro.arch.spec import ACIMDesignSpec
from repro.layout.extraction import ParasiticExtractor
from repro.layout.geometry import Rect
from repro.layout.layout import LayoutCell
from repro.model.backannotate import BackAnnotator
from repro.model.estimator import ACIMEstimator
from repro.physical.pipeline import PhysicalPipeline


class TestParasiticExtractor:
    def _cell_with_wires(self):
        cell = LayoutCell("wires", boundary=Rect(0, 0, 20_000, 20_000))
        # 10 um of M2 (vertical) and 5 um of M3 (horizontal) on net "sig".
        cell.add_shape("M2", Rect(1000, 1000, 1100, 11_000), net="sig")
        cell.add_shape("M3", Rect(1000, 11_000, 6000, 11_100), net="sig")
        cell.add_shape("VIA2", Rect(1020, 10_980, 1070, 11_030), net="sig")
        # An unrelated power stripe.
        cell.add_shape("M5", Rect(0, 15_000, 20_000, 15_200), net="VDD")
        # Anonymous fill must be ignored.
        cell.add_shape("M1", Rect(0, 0, 500, 100))
        return cell

    def test_extracts_wirelength_per_net(self, technology):
        report = ParasiticExtractor(technology).extract(self._cell_with_wires())
        assert set(report.nets) == {"sig", "VDD"}
        sig = report.net("sig")
        assert sig.wirelength_um == pytest.approx(15.0, rel=0.01)
        assert sig.segments_per_layer["M2"] == pytest.approx(10.0, rel=0.01)
        assert sig.via_count == 1

    def test_capacitance_uses_layer_constants(self, technology):
        report = ParasiticExtractor(technology).extract(self._cell_with_wires())
        sig = report.net("sig")
        m2 = technology.layer("M2")
        m3 = technology.layer("M3")
        expected = 10.0 * m2.capacitance_per_um + 5.0 * m3.capacitance_per_um
        assert sig.capacitance == pytest.approx(expected, rel=0.01)

    def test_resistance_includes_via(self, technology):
        report = ParasiticExtractor(technology).extract(self._cell_with_wires())
        sig = report.net("sig")
        via = technology.via("VIA23")
        assert sig.resistance > via.resistance

    def test_net_filter(self, technology):
        report = ParasiticExtractor(technology).extract(
            self._cell_with_wires(), nets=["VDD"])
        assert set(report.nets) == {"VDD"}

    def test_time_constant_positive(self, technology):
        report = ParasiticExtractor(technology).extract(self._cell_with_wires())
        assert report.net("sig").time_constant(1e-15) > 0

    def test_unknown_net_raises(self, technology):
        report = ParasiticExtractor(technology).extract(self._cell_with_wires())
        with pytest.raises(LayoutError):
            report.net("nope")

    def test_worst_net(self, technology):
        report = ParasiticExtractor(technology).extract(self._cell_with_wires())
        assert report.worst_net() is not None
        assert ParasiticExtractor(technology).extract(
            LayoutCell("empty", boundary=Rect(0, 0, 10, 10))).worst_net() is None

    def test_totals(self, technology):
        report = ParasiticExtractor(technology).extract(self._cell_with_wires())
        assert report.total_wirelength_um == pytest.approx(
            sum(n.wirelength_um for n in report.nets.values()))
        assert report.total_capacitance > 0


class TestBackAnnotation:
    @pytest.fixture(scope="class")
    def annotated(self, cell_library, technology):
        spec = ACIMDesignSpec(64, 4, 4, 3)
        report = PhysicalPipeline(cell_library).run(spec, route_columns=True).report
        annotator = BackAnnotator(technology)
        return annotator.annotate(spec, report.layout)

    def test_rbl_parasitics_extracted(self, annotated):
        assert "RBL" in annotated.parasitics.nets
        assert annotated.parasitics.net("RBL").wirelength_um > 10.0

    def test_time_constant_not_smaller_than_pre_layout(self, annotated):
        assert annotated.tau_post >= annotated.tau_pre

    def test_wire_energy_is_small_but_positive(self, annotated):
        assert annotated.wire_energy_per_mac > 0
        # Wire energy must stay a small fraction of the compute energy.
        assert annotated.wire_energy_per_mac < 5e-15

    def test_refined_model_changes_are_modest(self, annotated):
        assert 0.0 <= annotated.cycle_time_change < 0.5
        assert 0.0 <= annotated.energy_change < 0.5

    def test_post_layout_parameters_usable(self, annotated):
        metrics = ACIMEstimator(annotated.post_layout).evaluate(annotated.spec)
        assert metrics.tops > 0

    def test_unrouted_layout_rejected(self, cell_library, technology):
        spec = ACIMDesignSpec(64, 4, 4, 3)
        report = PhysicalPipeline(cell_library).run(spec, route_columns=False).report
        with pytest.raises(ModelError):
            BackAnnotator(technology).annotate(spec, report.layout)
