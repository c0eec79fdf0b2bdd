#!/usr/bin/env python3
"""Post-layout sign-off: extraction, back-annotation, yield and hand-off views.

After the automated flow produces a macro, a designer still wants to know
(1) how much the pre-layout estimates drift once real wire parasitics are
known, (2) whether the macro meets its SNR specification across mismatch,
and (3) the artefacts needed to integrate and verify the macro elsewhere.
This example walks that sign-off sequence for a Figure-8(b) style column:

* generate and route the macro, extract the read-bitline parasitics,
* back-annotate the timing/energy model and compare pre vs post layout,
* run a mismatch yield analysis against the CNN scenario's SNR target,
* emit the hand-off files: GDSII, DEF, LEF abstract and a SPICE testbench.

Run with::

    python examples/post_layout_signoff.py [output_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import ACIMDesignSpec, ACIMEstimator, default_cell_library, generic28
from repro.flow.report import format_table
from repro.flow.testbench import TestbenchGenerator
from repro.layout.lef_export import write_macro_lef, write_tech_lef
from repro.model.backannotate import BackAnnotator
from repro.physical import PhysicalPipeline
from repro.sim.yield_analysis import MismatchYieldAnalyzer

SPEC = ACIMDesignSpec(128, 8, 8, 3)   # one-column-slice version of Fig. 8(b)
SNR_SPEC_DB = 5.0                      # per-column SNR requirement (dB)


def main() -> None:
    output_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("signoff_out")
    output_dir.mkdir(parents=True, exist_ok=True)

    technology = generic28()
    library = default_cell_library(technology)

    # ------------------------------------------------------------------
    # 1. Generate and route the macro, extract parasitics, back-annotate.
    # ------------------------------------------------------------------
    print(f"Generating macro for {SPEC.describe()} ...")
    product = PhysicalPipeline(library).run(
        SPEC, generate_netlist=True, route_columns=True,
        output_dir=str(output_dir))
    layout_report = product.report
    annotator = BackAnnotator(technology)
    annotation = annotator.annotate(SPEC, layout_report.layout)
    rbl = annotation.parasitics.net("RBL")

    pre = ACIMEstimator(annotation.pre_layout).evaluate(SPEC)
    post = ACIMEstimator(annotation.post_layout).evaluate(SPEC)
    print("\nPre-layout vs post-layout estimates:")
    print(format_table([
        {"view": "pre-layout", "TOPS": round(pre.tops, 3),
         "fJ_per_MAC": round(pre.energy_per_mac * 1e15, 3),
         "tau_ns": round(annotation.tau_pre * 1e9, 3)},
        {"view": "post-layout", "TOPS": round(post.tops, 3),
         "fJ_per_MAC": round(post.energy_per_mac * 1e15, 3),
         "tau_ns": round(annotation.tau_post * 1e9, 3)},
    ]))
    print(f"RBL: {rbl.wirelength_um:.1f} um wire, "
          f"{rbl.capacitance * 1e15:.2f} fF, {rbl.resistance:.1f} ohm, "
          f"{rbl.via_count} vias")
    print(f"cycle-time drift {annotation.cycle_time_change * 100:.2f} %, "
          f"energy drift {annotation.energy_change * 100:.2f} %")

    # ------------------------------------------------------------------
    # 2. Mismatch yield against the SNR specification.
    # ------------------------------------------------------------------
    print("\nMismatch yield analysis:")
    result = MismatchYieldAnalyzer(SPEC, seed=17).run(
        snr_spec_db=SNR_SPEC_DB, instances=24, trials_per_instance=150)
    print(format_table([{
        "SNR_spec_dB": SNR_SPEC_DB,
        "instances": result.instances,
        "SNR_mean_dB": round(result.snr_mean_db, 2),
        "SNR_sigma_dB": round(result.snr_std_db, 2),
        "SNR_min_dB": round(result.snr_min_db, 2),
        "yield": f"{result.yield_fraction * 100:.1f} %",
    }]))

    # ------------------------------------------------------------------
    # 3. Hand-off artefacts: LEF abstract and SPICE testbench.
    # ------------------------------------------------------------------
    netlist = product.netlist
    testbench_path = output_dir / f"{netlist.name}_tb.sp"
    TestbenchGenerator().write(SPEC, netlist, testbench_path)
    tech_lef = output_dir / "generic28_tech.lef"
    macro_lef = output_dir / f"{layout_report.layout.name}.lef"
    write_tech_lef(technology, tech_lef)
    write_macro_lef(layout_report.layout, technology, macro_lef)

    print("\nHand-off files written:")
    for path in (layout_report.gds_path, layout_report.def_path,
                 str(macro_lef), str(tech_lef), str(testbench_path)):
        print(f"  {path}")


if __name__ == "__main__":
    main()
