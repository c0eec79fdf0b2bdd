#!/usr/bin/env python3
"""Quickstart: run the end-to-end EasyACIM flow on a small array.

The script exercises the whole pipeline on a 1 kb array so it finishes in a
few seconds:

1. design-space exploration with NSGA-II,
2. user distillation (here: keep solutions with at least 10 dB SNR),
3. template-based netlist generation,
4. template-based hierarchical placement and routing,
5. GDSII / DEF export.

Everything runs through the typed session API (``docs/api.md``): one
:class:`repro.api.Session` built from a :class:`repro.api.SessionConfig`,
one :class:`repro.api.FlowRequest` describing the run.  Run with::

    python examples/quickstart.py
    python examples/quickstart.py --backend process --workers 2

The ``--backend``/``--workers`` pair routes the exploration batches and the
netlist/layout fan-out through the parallel evaluation engine (the CI smoke
job runs ``--workers 2`` so the parallel path is exercised on every PR).
"""

from __future__ import annotations

import argparse
import dataclasses
import tempfile

from repro.api import FlowRequest, Session, SessionConfig
from repro.flow.report import (
    design_table,
    engine_stats_table,
    format_table,
    solution_report,
)
from repro.reporting.physical import physical_stats_table


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=("serial", "process"),
                        default=None,
                        help="evaluation-engine backend (default: serial, "
                             "or process when --workers is given)")
    parser.add_argument("--workers", type=int, default=None,
                        help="engine pool size (implies --backend process)")
    args = parser.parse_args(argv)
    backend = args.backend or ("process" if args.workers else "serial")

    request = FlowRequest(
        array_size=1024,
        population=40,
        generations=20,
        seed=1,
        min_snr_db=10.0,
        max_layouts=2,
        route_columns=True,
    )

    with tempfile.TemporaryDirectory() as output_dir, Session.from_config(
        SessionConfig(backend=backend, workers=args.workers)
    ) as session:
        outcome = session.flow(
            dataclasses.replace(request, output_dir=output_dir)
        )
        result = outcome.artifacts["result"]

        print("=" * 70)
        print("EasyACIM quickstart — 1 kb array")
        print("=" * 70)
        print(result.summary())

        print("\nPareto-frontier solutions (after distillation):")
        print(format_table(design_table(result.distilled)))

        print("\nBest-SNR solution in detail:")
        best = max(result.distilled, key=lambda d: d.metrics.snr_db)
        print(solution_report(best))

        print("\nGenerated layouts:")
        for key, report in result.layouts.items():
            print(f"  {key}: {report.width_um:.1f} x {report.height_um:.1f} um, "
                  f"{report.area_f2_per_bit:.0f} F^2/bit, "
                  f"GDS at {report.gds_path}")

        print("\nEvaluation-engine statistics:")
        print(format_table(engine_stats_table(outcome.engine_stats)))

        physical = outcome.payload.get("physical_stats")
        if physical:
            print("\nPhysical pipeline (per stage; docs/physical.md):")
            print(format_table(physical_stats_table(physical)))

        # Flow-reuse in action: the session's pipeline keeps every solved
        # macro, so re-running the same flow serves the layouts from the
        # macro cache instead of re-placing and re-routing them.
        again = session.flow(request)
        stats = again.payload["physical_stats"]
        if stats:
            print(f"\nSame flow again on this session: "
                  f"{stats['macros_built']} macros built, "
                  f"{stats['macros_reused']} reused from the macro cache "
                  f"(use --no-reuse / FlowRequest(reuse='off') to disable).")
        else:
            # Parallel engines take the flat per-solution fan-out instead
            # of the shared in-process macro cache (docs/physical.md).
            print("\nSame flow again on this session: layouts regenerated "
                  "through the parallel engine fan-out (macro reuse "
                  "applies on serial engines; see docs/physical.md).")


if __name__ == "__main__":
    main()
