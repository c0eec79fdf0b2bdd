#!/usr/bin/env python3
"""Generate the three Figure-8 layouts of the paper (16 kb, B_ADC = 3).

For each of the published design points the script runs the physical
pipeline — template-based netlist generation and hierarchical placement and
routing — writes SPICE, GDSII and DEF views, and prints the same annotations the paper puts next to Figure 8
(die size, throughput, F^2/bit).

Run with::

    python examples/generate_figure8_layouts.py [output_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro import ACIMDesignSpec, ACIMEstimator, default_cell_library, generic28
from repro.flow.report import format_table
from repro.netlist.spice import write_spice
from repro.physical import PhysicalPipeline

FIGURE8_SPECS = {
    "a": ACIMDesignSpec(128, 128, 2, 3),
    "b": ACIMDesignSpec(128, 128, 8, 3),
    "c": ACIMDesignSpec(64, 256, 8, 3),
}

PAPER_ANNOTATIONS = {
    "a": {"TOPS": 3.277, "F2_per_bit": 4504, "die": "226 x 256 um"},
    "b": {"TOPS": 0.813, "F2_per_bit": 2610, "die": "256 x 131 um"},
    "c": {"TOPS": 0.813, "F2_per_bit": 2977, "die": "510 x 75 um"},
}


def main() -> None:
    output_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("figure8_layouts")
    output_dir.mkdir(parents=True, exist_ok=True)

    technology = generic28()
    library = default_cell_library(technology)
    estimator = ACIMEstimator()
    # One pipeline for all three designs: macros they share are solved once.
    pipeline = PhysicalPipeline(library)

    rows = []
    for label, spec in FIGURE8_SPECS.items():
        print(f"Generating Figure 8({label}): {spec.describe()} ...")
        product = pipeline.run(
            spec, generate_netlist=True, route_columns=True,
            output_dir=str(output_dir))
        netlist, report = product.netlist, product.report
        spice_path = output_dir / f"{netlist.name}.sp"
        spice_path.write_text(write_spice(netlist))

        metrics = estimator.evaluate(spec)
        paper = PAPER_ANNOTATIONS[label]
        rows.append({
            "config": f"Fig.8({label})",
            "H": spec.height,
            "L": spec.local_array_size,
            "paper_TOPS": paper["TOPS"],
            "repro_TOPS": round(metrics.tops, 3),
            "paper_F2/bit": paper["F2_per_bit"],
            "repro_F2/bit": round(report.area_f2_per_bit, 0),
            "paper_die": paper["die"],
            "repro_die": f"{report.width_um:.0f} x {report.height_um:.0f} um",
            "gds": Path(report.gds_path).name,
        })

    print("\nFigure 8 reproduction summary:")
    print(format_table(rows))
    print(f"\nGDS, DEF and SPICE files written to {output_dir.resolve()}")


if __name__ == "__main__":
    main()
