#!/usr/bin/env python3
"""Near-miss template reuse benchmark (ISSUE 8).

Sweeps a 20-design neighbouring-configuration family — one ``(W, L)``
geometry, every feasible ``(H, B_ADC)`` — the shape an NSGA-II campaign
or an ADC-resolution study produces, and measures the column solves two
ways:

1. **flat** — every design placed and routed from scratch on its own
   fresh :class:`PhysicalPipeline` (nothing cached and no template to
   derive from; each pipeline is built outside the timed window);
2. **template** — a reuse pipeline with a persistent store: the first
   design of the family solves cold, every later one derives from the
   nearest solved template by incremental patch (replayed route plans +
   delta-band searches).

The gate asserts the place-and-route time of the *template-patched*
solves is >= 5x cheaper than the flat solves of the same designs, and
that every patched design's GDSII is byte-identical to the flat
baseline.  Each side's time is the fastest of ``PASSES`` passes, every
pass with fresh pipelines and a fresh store, so a pass slowed by other
load on a shared host does not decide the gate.  A final cold-process
segment re-opens the store and derives a fresh design through the
``template_index`` nearest-neighbour rung.
Enforcement is relaxed on single-core hosts (the numbers are still
recorded).

Run with::

    python benchmarks/bench_template_reuse.py          # record baseline
    python benchmarks/bench_template_reuse.py --quick  # CI smoke (no write)

Results are written to ``benchmarks/BENCH_template.json`` (override with
``--json``); the committed file is the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import time
from pathlib import Path

from repro.arch.spec import ACIMDesignSpec
from repro.cells.library import default_cell_library
from repro.layout.gdsii import write_gds
from repro.physical import PhysicalPipeline
from repro.store.result_store import ResultStore
from repro.technology.tech import generic28

#: One template family: fixed (W, L), every feasible (H, B_ADC) — 20
#: neighbouring configurations whose columns differ by rows or SAR stack.
FULL_FAMILY = [(16, 2), (32, 3), (64, 4), (128, 5), (256, 6)]
QUICK_FAMILY = [(16, 2), (32, 3)]

#: A design outside the sweep (non-power-of-two height, so its column is
#: never solved exactly by the sweep) used to exercise the store-backed
#: nearest-neighbour rung from a cold process.
COLD_PROCESS_SPEC = ACIMDesignSpec(96, 8, 4, 2)

#: Timed passes per side; the fastest one counts.
PASSES = 3


def sweep_specs(family) -> list:
    return [
        ACIMDesignSpec(height, 4, 4, bits)
        for height, max_bits in family
        for bits in range(1, max_bits + 1)
    ]


def solve(pipeline: PhysicalPipeline, spec: ACIMDesignSpec) -> dict:
    """One design through ``pipeline``; place+route seconds and deltas."""
    baseline = pipeline.stats.snapshot()
    start = time.perf_counter()
    report = pipeline.run(spec, route_columns=True).report
    total = time.perf_counter() - start
    delta = pipeline.stats.since(baseline)
    return {
        "spec": spec.as_tuple(),
        "layout": report.layout,
        "total_s": total,
        "solve_s": (delta.stage("placement").seconds
                    + delta.stage("routing").seconds),
        "derived": delta.macros_derived,
        "built": delta.macros_built,
    }


def solve_sweep(library, specs, store: ResultStore):
    """One pass: every design flat, then through a template pipeline.

    Every pipeline is new and ``store`` is expected empty, so every pass
    starts cold.  Returns the template pipeline and the per-design runs.
    """
    # ``solve`` times only the run, so each fresh pipeline is built
    # outside the timed window, and dropped after its one design.
    flat_runs = [solve(PhysicalPipeline(library), spec) for spec in specs]
    template = PhysicalPipeline(library, store=store)
    template_runs = [solve(template, spec) for spec in specs]
    return template, flat_runs, template_runs


def pass_seconds(flat_runs, template_runs) -> dict:
    """One pass's timings: place+route over the derived designs, and the
    end-to-end solve time of every design, flat and template."""
    pairs = [
        (flat_run, template_run)
        for flat_run, template_run in zip(flat_runs, template_runs)
        if template_run["derived"] >= 1
    ]
    return {
        "derived": len(pairs),
        "flat_solve": sum(f["solve_s"] for f, _ in pairs),
        "patched_solve": sum(t["solve_s"] for _, t in pairs),
        "flat_total": sum(r["total_s"] for r in flat_runs),
        "template_total": sum(r["total_s"] for r in template_runs),
    }


def gds_of(layout, technology, directory: Path, tag: str) -> bytes:
    path = directory / f"{tag}.gds"
    write_gds(layout, path, technology)
    return path.read_bytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: smaller sweep, no baseline write")
    parser.add_argument("--json", type=Path,
                        default=Path(__file__).parent / "BENCH_template.json")
    parser.add_argument("--no-assert", action="store_true",
                        help="record numbers without enforcing the 5x gate")
    args = parser.parse_args(argv)

    specs = sweep_specs(QUICK_FAMILY if args.quick else FULL_FAMILY)
    technology = generic28()
    library = default_cell_library(technology)
    cores = os.cpu_count() or 1

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        passes = []
        for index in range(PASSES):
            store = ResultStore(tmp_path / f"artifacts-{index}.sqlite")
            template, flat_runs, template_runs = solve_sweep(
                library, specs, store
            )
            passes.append(pass_seconds(flat_runs, template_runs))
            # The last pass's pipelines, runs and store stay for the
            # byte-identity checks and the cold-process segment.
            if index < PASSES - 1:
                store.close()

        mismatched = []
        for flat_run, template_run in zip(flat_runs, template_runs):
            tag = "x".join(str(v) for v in flat_run["spec"])
            if gds_of(flat_run["layout"], technology, tmp_path, f"f{tag}") \
                    != gds_of(template_run["layout"], technology, tmp_path,
                              f"t{tag}"):
                mismatched.append(flat_run["spec"])
        if mismatched:
            print(f"FAIL: template solves not byte-identical to flat "
                  f"for {mismatched}")
            return 1
        print(f"byte-identity: {len(specs)} GDSII streams identical "
              "(template-patched vs flat)")

        # Cold process on the same store: the template_index rung.
        cold = PhysicalPipeline(library, store=store)
        cold_run = solve(cold, COLD_PROCESS_SPEC)
        cold_reference = solve(PhysicalPipeline(library), COLD_PROCESS_SPEC)
        cold_identical = gds_of(
            cold_run["layout"], technology, tmp_path, "cold") == gds_of(
            cold_reference["layout"], technology, tmp_path, "coldref")
        store.close()
    if not cold_identical:
        print("FAIL: store-derived solve not byte-identical to flat")
        return 1
    if cold.macro_library.derived_from_store < 1:
        print("FAIL: cold process derived nothing from the store index")
        return 1
    print(f"store rung: cold process derived "
          f"{cold.macro_library.derived_from_store} macro(s) from the "
          f"template_index table, byte-identical")

    def fastest(key):
        return min(timing[key] for timing in passes)

    derived_designs = passes[-1]["derived"]
    flat_solve_s = fastest("flat_solve")
    patched_solve_s = fastest("patched_solve")
    speedup = flat_solve_s / patched_solve_s if patched_solve_s else 0.0
    total_speedup = fastest("flat_total") / fastest("template_total")

    n = len(specs)
    record = {
        "benchmark": "template_reuse",
        "designs": n,
        "derived_designs": derived_designs,
        "passes": PASSES,
        "cpu": platform.processor() or platform.machine(),
        "cores": cores,
        "python": platform.python_version(),
        "flat": {"solve_seconds": round(flat_solve_s, 6)},
        "template": {
            "solve_seconds": round(patched_solve_s, 6),
            "macros_built": template.stats.macros_built,
            "macros_derived": template.stats.macros_derived,
            "macros_reused": template.stats.macros_reused,
            "derived_from_store": cold.macro_library.derived_from_store,
        },
        "patched_speedup": round(speedup, 2),
        "end_to_end_speedup": round(total_speedup, 2),
    }
    print(f"    flat solves     : {flat_solve_s * 1e3:9.1f} ms "
          f"place+route over {derived_designs} derived designs "
          f"(fastest of {PASSES} passes)")
    print(f"    patched solves  : {patched_solve_s * 1e3:9.1f} ms "
          f"({template.stats.macros_derived} template derives, "
          f"{speedup:.2f}x)")
    print(f"    end to end      : {total_speedup:.2f}x over {n} designs")

    # Single-core hosts record but do not enforce.
    gate_applies = cores >= 2 and not args.no_assert
    record["speedup_gate"] = {
        "threshold": 5.0,
        "enforced": gate_applies,
        "passed": speedup >= 5.0 if gate_applies else None,
    }
    if gate_applies and speedup < 5.0:
        print(f"FAIL: template-patched speedup {speedup:.2f}x < 5x gate")
        return 1
    status = "OK" if speedup >= 5.0 else "RELAXED"
    print(f"{status}: template-patched solves {speedup:.2f}x over flat "
          f"(gate: 5x, {'enforced' if gate_applies else 'recorded only'})")

    if not args.quick:
        args.json.write_text(json.dumps(record, indent=2) + "\n")
        print(f"baseline written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
