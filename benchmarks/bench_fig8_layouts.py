"""Experiment E2 — Figure 8: layouts of a 16 kb ACIM with various specifications.

Regenerates the three published 16 kb, B_ADC = 3 design points end to end
(netlist -> template-based hierarchical placement -> routing) and reports
the same quantities the paper annotates in Figure 8: die dimensions,
throughput and normalised area.  Paper reference values:

    (a) H=128, L=2 : 3.277 TOPS, 4504 F^2/bit, ~226 um x 256 um
    (b) H=128, L=8 : 0.813 TOPS, 2610 F^2/bit, ~256 um x 131 um
    (c) H=64,  L=8 : 0.813 TOPS, 2977 F^2/bit, ~510 um x  75 um

The reproduction's layouts add a thin peripheral buffer ring, so the
generated dies are a few percent larger than the Equation-10 model and the
paper's annotations; the relative ordering and ratios are preserved.
"""

from __future__ import annotations

import pytest

from repro.arch.spec import ACIMDesignSpec
from repro.flow.report import format_table
from repro.model.calibration import FIGURE8_REFERENCE
from repro.physical.pipeline import PhysicalPipeline

from bench_reporting import emit

#: (label, spec, paper TOPS, paper F^2/bit, paper die W um, paper die H um)
FIGURE8_CASES = [
    ("a", ACIMDesignSpec(128, 128, 2, 3), 3.277, 4504.0, 256.0, 226.0),
    ("b", ACIMDesignSpec(128, 128, 8, 3), 0.813, 2610.0, 256.0, 131.0),
    ("c", ACIMDesignSpec(64, 256, 8, 3), 0.813, 2977.0, 510.0, 75.0),
]


@pytest.mark.parametrize("label,spec,paper_tops,paper_f2,paper_w,paper_h",
                         FIGURE8_CASES, ids=["fig8a", "fig8b", "fig8c"])
def test_fig8_layout_matches_paper(benchmark, cell_library, estimator,
                                   label, spec, paper_tops, paper_f2, paper_w,
                                   paper_h):
    """Generate one Figure-8 layout and compare against the published point."""
    # A fresh pipeline per round, built outside the timed call, so every
    # round solves the design cold.
    report = benchmark.pedantic(
        lambda pipeline: pipeline.run(spec, route_columns=True).report,
        setup=lambda: ((PhysicalPipeline(cell_library),), {}),
        rounds=3,
    )
    metrics = estimator.evaluate(spec)
    rows = [{
        "config": f"Fig.8({label}) H={spec.height} L={spec.local_array_size}",
        "paper_TOPS": paper_tops,
        "repro_TOPS": round(metrics.tops, 3),
        "paper_F2_per_bit": paper_f2,
        "model_F2_per_bit": round(metrics.area_f2_per_bit, 0),
        "layout_F2_per_bit": round(report.area_f2_per_bit, 0),
        "paper_die_um": f"{paper_w:.0f} x {paper_h:.0f}",
        "repro_die_um": f"{report.width_um:.0f} x {report.height_um:.0f}",
        "routed_nets": report.routed_nets,
    }]
    emit(f"Figure 8({label}) — 16 kb ACIM layout", format_table(rows))

    # Model-level agreement with the paper's annotations.
    assert metrics.tops == pytest.approx(paper_tops, rel=0.03)
    assert metrics.area_f2_per_bit == pytest.approx(paper_f2, rel=0.01)
    # Layout-level agreement: dies land within ~6% of the published sizes
    # (the periphery accounts for the systematic excess).
    assert report.width_um == pytest.approx(paper_w, rel=0.06)
    assert report.height_um == pytest.approx(paper_h, rel=0.06)
    assert report.failed_nets == 0


def test_fig8_relative_tradeoffs(benchmark, cell_library, estimator):
    """The qualitative claims of Figure 8 hold between the three layouts."""
    def generate_all(pipeline):
        return {
            label: pipeline.run(spec, route_columns=False).report
            for label, spec, *_ in FIGURE8_CASES
        }

    reports = benchmark.pedantic(
        generate_all,
        setup=lambda: ((PhysicalPipeline(cell_library),), {}),
        rounds=3,
    )
    metrics = {label: estimator.evaluate(spec) for label, spec, *_ in FIGURE8_CASES}

    # (a) trades area for throughput relative to (b): L = 2 vs L = 8 gives
    # exactly four times the MACs per cycle.
    assert metrics["a"].tops == pytest.approx(4 * metrics["b"].tops, rel=0.01)
    assert reports["a"].area_um2 > 1.5 * reports["b"].area_um2
    # (c) achieves higher SNR than (b) at the same throughput, paying area.
    assert metrics["c"].snr_db > metrics["b"].snr_db
    assert metrics["c"].tops == pytest.approx(metrics["b"].tops, rel=1e-6)
    assert reports["c"].area_um2 > reports["b"].area_um2

    rows = [
        {
            "config": label,
            "TOPS": round(metrics[label].tops, 3),
            "SNR_dB": round(metrics[label].snr_db, 2),
            "area_um2": round(reports[label].area_um2, 0),
            "F2_per_bit": round(reports[label].area_f2_per_bit, 0),
        }
        for label, *_ in FIGURE8_CASES
    ]
    emit("Figure 8 — relative trade-offs across the three layouts",
         format_table(rows))


def test_fig8_netlist_content(benchmark, cell_library):
    """Netlist generation for the Figure-8(b) macro (16 kb, 128 columns)."""
    spec = ACIMDesignSpec(128, 128, 8, 3)
    macro = benchmark.pedantic(
        lambda pipeline: pipeline.run(
            spec, generate_netlist=True, generate_layout=False).netlist,
        setup=lambda: ((PhysicalPipeline(cell_library),), {}),
        rounds=3,
    )
    from repro.netlist.traversal import count_leaf_instances

    counts = count_leaf_instances(macro)
    emit("Figure 8(b) — generated macro netlist content", format_table([{
        "sram8t": counts["sram8t"],
        "local_compute": counts["local_compute"],
        "comparator": counts["comparator"],
        "sar_dff": counts["sar_dff"],
        "input_buffer": counts["input_buffer"],
        "output_buffer": counts["output_buffer"],
    }]))
    assert counts["sram8t"] == spec.array_size


def test_fig8_reference_table_is_self_consistent():
    """The calibration reference table matches the benchmark's case list."""
    for _label, spec, paper_tops, paper_f2, *_ in FIGURE8_CASES:
        reference = FIGURE8_REFERENCE[spec.as_tuple()]
        assert reference == (paper_tops, paper_f2)
