"""Template-reuse smoke test: three neighbouring designs, one family.

Exercises the parametric macro-template ladder end to end (the CI
``make template-smoke`` target):

1. run three neighbouring configurations — a base design, a taller
   column (H doubled) and a coarser ADC (B reduced) — through a
   reuse-aware :class:`PhysicalPipeline` backed by a persistent store,
   and assert the second and third designs *derive* their columns from
   the first one's solved template instead of re-solving cold;
2. re-solve every design cold — one fresh pipeline per design, with
   nothing cached and no template to derive from — and assert every
   exported GDSII stream is byte-identical (incremental patching is
   exact, not approximate);
3. open a *fresh* pipeline on the same store (as a new process would)
   for a fourth neighbouring design and assert it hydrates a template
   through the store's ``template_index`` nearest-neighbour rung;
4. assert the per-rung metrics counters are visible in the registry.

Exit code 0 means near-miss reuse is effective, exact and observable.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.arch.spec import ACIMDesignSpec
from repro.cells.library import default_cell_library
from repro.layout.gdsii import write_gds
from repro.obs import MetricsRegistry
from repro.physical import PhysicalPipeline
from repro.store.result_store import ResultStore
from repro.technology.tech import generic28

#: Base design plus two near-misses: H doubled, then B reduced.
SPECS = [
    ACIMDesignSpec(16, 4, 4, 2),
    ACIMDesignSpec(32, 4, 4, 2),
    ACIMDesignSpec(16, 4, 4, 1),
]
#: A fourth neighbour solved by a fresh pipeline on the warm store.
COLD_SPEC = ACIMDesignSpec(32, 4, 4, 1)


def export(pipeline: PhysicalPipeline, spec: ACIMDesignSpec,
           directory: Path, tag: str) -> bytes:
    layout = pipeline.run(spec, route_columns=True).report.layout
    path = directory / f"{tag}_{spec.height}x{spec.width}x{spec.adc_bits}.gds"
    write_gds(layout, path, pipeline.technology)
    return path.read_bytes()


def cold_export(library, spec: ACIMDesignSpec, directory: Path) -> bytes:
    """``spec`` solved on its own fresh pipeline: the cold reference."""
    return export(PhysicalPipeline(library), spec, directory, "cold")


def main() -> int:
    technology = generic28()
    library = default_cell_library(technology)
    metrics = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="easyacim-template-") as tmp:
        tmp_path = Path(tmp)
        store = ResultStore(tmp_path / "store.sqlite")

        # 1. Neighbouring designs derive from the first solved template.
        pipeline = PhysicalPipeline(library, store=store, metrics=metrics)
        derived_gds = [export(pipeline, spec, tmp_path, "tpl")
                       for spec in SPECS]
        stats = pipeline.stats
        print(f"template : {stats.macros_built} macros built, "
              f"{stats.macros_derived} derived, "
              f"{stats.macros_reused} reused")
        assert stats.macros_derived >= 2, \
            "expected the H and B neighbours to derive, not re-solve"

        # 2. Cold reference: incremental patching must be exact.
        cold_gds = [cold_export(library, spec, tmp_path) for spec in SPECS]
        assert derived_gds == cold_gds, \
            "template-derived GDSII differs from the cold reference"
        print(f"exactness: {len(SPECS)} GDSII streams byte-identical "
              "to a fresh pipeline per design")

        # 3. Fresh pipeline, warm store: the template_index rung.
        fresh = PhysicalPipeline(library, store=store, metrics=metrics)
        fresh_bytes = export(fresh, COLD_SPEC, tmp_path, "fresh")
        assert fresh.macro_library.derived_from_store >= 1, \
            "expected a nearest-neighbour hydrate from template_index"
        assert fresh_bytes == cold_export(library, COLD_SPEC, tmp_path), \
            "store-derived GDSII differs from the cold reference"
        print(f"store    : fresh pipeline derived "
              f"{fresh.macro_library.derived_from_store} macro(s) "
              "from the template_index rung, byte-identical")
        store.close()

    # 4. The ladder is observable: per-rung counters in the registry.
    snapshot = metrics.snapshot()
    for metric in ("physical.macro.built", "physical.macro.derive.memory",
                   "physical.macro.derive.store"):
        assert snapshot.get(metric, 0) >= 1, f"missing counter {metric}"
    print("metrics  : built/derive.memory/derive.store counters visible")
    print("OK: template reuse smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
