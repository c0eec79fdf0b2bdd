"""Experiment A4 — post-layout back-annotation vs pre-layout estimates.

The paper calibrates its model constants with post-layout simulation and
then trusts the analytic model inside the optimisation loop.  That is only
justified if the post-layout refinement changes the estimates by a small
amount; this ablation quantifies the drift for generated-and-routed macros:
wire parasitics are extracted from the routed column, back-annotated into
the timing and energy models, and the pre/post metrics are compared.
"""

from __future__ import annotations

import pytest

from repro.arch.spec import ACIMDesignSpec
from repro.flow.layout_gen import LayoutGenerator
from repro.flow.report import format_table
from repro.model.backannotate import BackAnnotator
from repro.model.estimator import ACIMEstimator

from bench_reporting import emit

#: Column-slice configurations covering the Figure-8 corner cases.
CASES = [
    ACIMDesignSpec(128, 8, 2, 3),   # tall column, many local arrays (long RBL)
    ACIMDesignSpec(128, 8, 8, 3),   # the balanced Figure-8(b) column
    ACIMDesignSpec(64, 8, 8, 3),    # short column
]


@pytest.mark.parametrize("spec", CASES,
                         ids=[f"H{c.height}_L{c.local_array_size}" for c in CASES])
def test_postlayout_drift_is_small(benchmark, cell_library, technology, spec):
    """Generate + route + extract + back-annotate one column configuration."""
    annotator = BackAnnotator(technology)

    def run_once(generator):
        layout_report = generator.generate(spec, route_column=True)
        return annotator.annotate(spec, layout_report.layout)

    # A fresh generator per round, built outside the timed call, so every
    # round solves the layout cold.
    annotation = benchmark.pedantic(
        run_once,
        setup=lambda: ((LayoutGenerator(cell_library),), {}),
        rounds=3,
    )
    pre = ACIMEstimator(annotation.pre_layout).evaluate(spec)
    post = ACIMEstimator(annotation.post_layout).evaluate(spec)
    rbl = annotation.parasitics.net("RBL")
    emit(
        f"Ablation A4 — post-layout drift (H={spec.height}, L={spec.local_array_size})",
        format_table([{
            "RBL_wire_um": round(rbl.wirelength_um, 1),
            "RBL_cap_fF": round(rbl.capacitance * 1e15, 2),
            "pre_TOPS": round(pre.tops, 4),
            "post_TOPS": round(post.tops, 4),
            "pre_fJ_per_MAC": round(pre.energy_per_mac * 1e15, 3),
            "post_fJ_per_MAC": round(post.energy_per_mac * 1e15, 3),
            "cycle_drift_%": round(annotation.cycle_time_change * 100, 2),
            "energy_drift_%": round(annotation.energy_change * 100, 2),
        }]),
    )
    # The drift must stay small enough to justify optimising on the analytic
    # model (the paper's implicit assumption).
    assert 0.0 <= annotation.cycle_time_change < 0.25
    assert 0.0 <= annotation.energy_change < 0.25
    # Taller columns carry longer read bitlines.
    assert rbl.wirelength_um > 0


def test_postlayout_drift_grows_with_column_height(cell_library, technology):
    """The extracted RBL load grows with the column height, as expected."""
    generator = LayoutGenerator(cell_library)
    annotator = BackAnnotator(technology)
    results = {}
    for spec in (ACIMDesignSpec(64, 8, 8, 3), ACIMDesignSpec(256, 8, 8, 3)):
        layout_report = generator.generate(spec, route_column=True)
        results[spec.height] = annotator.annotate(spec, layout_report.layout)
    short_rbl = results[64].parasitics.net("RBL")
    tall_rbl = results[256].parasitics.net("RBL")
    emit("Ablation A4 — RBL parasitics vs column height", format_table([
        {"H": 64, "wire_um": round(short_rbl.wirelength_um, 1),
         "cap_fF": round(short_rbl.capacitance * 1e15, 2)},
        {"H": 256, "wire_um": round(tall_rbl.wirelength_um, 1),
         "cap_fF": round(tall_rbl.capacitance * 1e15, 2)},
    ]))
    assert tall_rbl.wirelength_um > short_rbl.wirelength_um
    assert tall_rbl.capacitance > short_rbl.capacitance
