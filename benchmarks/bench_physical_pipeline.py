#!/usr/bin/env python3
"""Speedup benchmark of the reuse-aware physical pipeline (ISSUE 5).

Measures the layout generation of a multi-design distill set — the
dominant cost when a campaign distills many Pareto designs — three ways:

1. **flat** — the cold baseline: every design solved from scratch on its
   own fresh :class:`PhysicalPipeline` (nothing cached, no template to
   derive from; the pipelines are built before the clock starts),
2. **cold reuse** — a fresh reuse pipeline with a persistent store:
   macros shared *across* the designs of the set are solved once,
3. **warm reuse** — a second fresh pipeline on the same store,
   simulating the next flow run / process of the campaign: everything is
   served from the content-addressed artifact cache.

The gate asserts warm reuse is >= 5x faster than flat, and that the warm
output is GDSII byte-identical to the flat baseline for every design.
Enforcement is relaxed on single-core hosts (the numbers are still
recorded).

Run with::

    python benchmarks/bench_physical_pipeline.py          # record baseline
    python benchmarks/bench_physical_pipeline.py --quick  # CI smoke (no write)

Results are written to ``benchmarks/BENCH_physical.json`` (override with
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

#: The distill set: designs of one campaign family sharing sub-structure
#: (same L everywhere, columns shared between equal-H pairs) — the shape
#: a real multi-design distillation produces.
FULL_SET = [
    ACIMDesignSpec(64, 4, 4, 3),
    ACIMDesignSpec(64, 8, 4, 3),
    ACIMDesignSpec(64, 16, 4, 3),
    ACIMDesignSpec(128, 4, 4, 3),
    ACIMDesignSpec(128, 8, 4, 3),
    ACIMDesignSpec(32, 8, 4, 2),
]

QUICK_SET = [
    ACIMDesignSpec(16, 4, 4, 2),
    ACIMDesignSpec(16, 8, 4, 2),
    ACIMDesignSpec(32, 4, 4, 2),
]


def generate_all(pipeline: PhysicalPipeline, specs) -> dict:
    """Layouts for the whole set; returns {macro name: layout}."""
    layouts = {}
    for spec in specs:
        report = pipeline.run(spec, route_columns=True).report
        layouts[report.layout.name] = report.layout
    return layouts


def gds_bytes(layouts: dict, technology, directory: Path, tag: str) -> dict:
    out = {}
    for name, layout in layouts.items():
        path = directory / f"{tag}_{name}.gds"
        write_gds(layout, path, technology)
        out[name] = path.read_bytes()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: smaller design set, no baseline write")
    parser.add_argument("--json", type=Path,
                        default=Path(__file__).parent / "BENCH_physical.json")
    parser.add_argument("--no-assert", action="store_true",
                        help="record numbers without enforcing the 5x gate")
    args = parser.parse_args(argv)

    specs = QUICK_SET if args.quick else FULL_SET
    technology = generic28()
    library = default_cell_library(technology)
    cores = os.cpu_count() or 1

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        store = ResultStore(tmp_path / "artifacts.sqlite")

        # 1. Flat baseline: every design from scratch, one fresh pipeline
        # per design, built outside the timed window.
        fresh = [PhysicalPipeline(library) for _ in specs]
        start = time.perf_counter()
        flat_layouts = {}
        for pipeline, spec in zip(fresh, specs):
            flat_layouts.update(generate_all(pipeline, [spec]))
        flat_s = time.perf_counter() - start
        del fresh, pipeline  # the reference caches stay out of later phases

        # 2. Cold reuse: macro sharing across the design set.
        cold = PhysicalPipeline(library, store=store)
        start = time.perf_counter()
        generate_all(cold, specs)
        cold_s = time.perf_counter() - start
        cold_stats = cold.stats.as_dict()

        # 3. Warm reuse: the next flow run / process on the same store.
        warm = PhysicalPipeline(library, store=store)
        start = time.perf_counter()
        warm_layouts = generate_all(warm, specs)
        warm_s = time.perf_counter() - start
        warm_stats = warm.stats.as_dict()
        store.close()

        flat_bytes = gds_bytes(flat_layouts, technology, tmp_path, "flat")
        warm_bytes = gds_bytes(warm_layouts, technology, tmp_path, "warm")

    if set(flat_bytes) != set(warm_bytes):
        print("FAIL: flat and warm runs produced different design sets")
        return 1
    mismatched = [name for name in flat_bytes
                  if flat_bytes[name] != warm_bytes[name]]
    if mismatched:
        print(f"FAIL: warm reuse not byte-identical to flat for {mismatched}")
        return 1
    print(f"byte-identity: {len(flat_bytes)} GDSII streams identical "
          "(flat vs warm reuse)")

    n = len(specs)
    warm_speedup = flat_s / warm_s
    cold_speedup = flat_s / cold_s
    record = {
        "benchmark": "physical_pipeline",
        "designs": n,
        "cpu": platform.processor() or platform.machine(),
        "cores": cores,
        "python": platform.python_version(),
        "flat": {"seconds": round(flat_s, 6)},
        "cold_reuse": {
            "seconds": round(cold_s, 6),
            "macros_built": cold_stats["macros_built"],
            "macros_reused": cold_stats["macros_reused"],
        },
        "warm_reuse": {
            "seconds": round(warm_s, 6),
            "macros_built": warm_stats["macros_built"],
            "macros_reused": warm_stats["macros_reused"],
            "store_hits": warm_stats["stages"]["layout"]["store_hits"],
        },
        "cold_speedup": round(cold_speedup, 2),
        "warm_speedup": round(warm_speedup, 2),
    }
    print(f"    flat (cold)     : {flat_s * 1e3:9.1f} ms for {n} designs")
    print(f"    cold reuse      : {cold_s * 1e3:9.1f} ms "
          f"({cold_stats['macros_reused']} macros reused in-set, "
          f"{cold_speedup:.2f}x)")
    print(f"    warm reuse      : {warm_s * 1e3:9.1f} ms "
          f"(artifact cache, {warm_speedup:.2f}x)")

    # Single-core hosts record but do not enforce.
    gate_applies = cores >= 2 and not args.no_assert
    record["speedup_gate"] = {
        "threshold": 5.0,
        "enforced": gate_applies,
        "passed": warm_speedup >= 5.0 if gate_applies else None,
    }
    if gate_applies and warm_speedup < 5.0:
        print(f"FAIL: warm reuse speedup {warm_speedup:.2f}x < 5x gate")
        return 1
    status = "OK" if warm_speedup >= 5.0 else "RELAXED"
    print(f"{status}: warm reuse {warm_speedup:.2f}x over the flat baseline "
          f"(gate: 5x, {'enforced' if gate_applies else 'recorded only'})")

    if not args.quick:
        args.json.write_text(json.dumps(record, indent=2) + "\n")
        print(f"baseline written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
