"""Experiment E8 — section-4 runtime claims.

The paper reports, on an Intel Xeon Gold 6230:

* "the agile design exploration for a particular array size can be finished
  in 30 minutes",
* "the layout generation for a particular solution in the Pareto-frontier
  set can be done in a few minutes", credited to the customized cell
  library and the pre-defined routing tracks for critical nets.

The reproduction's estimation model is analytic (no SPICE in the loop), so
both stages run orders of magnitude faster; these benchmarks record the
actual timings (for EXPERIMENTS.md) and assert only the *relationships* the
paper emphasises: exploration dominates layout generation per solution, and
pre-defined tracks keep the layout stage cheap even with routing enabled.
"""

from __future__ import annotations

import pytest

from repro.arch.spec import ACIMDesignSpec
# Benchmarks drive the internal core directly (same implementation the
# session layer uses) so they stay silent under -W error::DeprecationWarning.
from repro.dse.explorer import _ExplorerCore as DesignSpaceExplorer
from repro.dse.nsga2 import NSGA2Config
from repro.flow.layout_gen import LayoutGenerator
from repro.flow.report import format_table

from bench_reporting import emit

ARRAY_SIZE = 16 * 1024
#: Paper-reported runtimes (seconds) on the authors' server.
PAPER_DSE_SECONDS = 30 * 60
PAPER_LAYOUT_SECONDS = 3 * 60


def test_runtime_design_space_exploration(benchmark):
    """Full NSGA-II exploration of the 16 kb design space."""
    explorer = DesignSpaceExplorer(config=NSGA2Config(
        population_size=80, generations=60, seed=4))
    result = benchmark(explorer.explore, ARRAY_SIZE)
    emit("Runtime — 16 kb design-space exploration", format_table([{
        "paper_runtime_s": PAPER_DSE_SECONDS,
        "repro_runtime_s": round(result.runtime_seconds, 3),
        "evaluations": result.evaluations,
        "pareto_solutions": len(result.pareto_set),
    }]))
    # The reproduction must comfortably beat the paper's 30-minute budget.
    assert result.runtime_seconds < PAPER_DSE_SECONDS
    assert result.pareto_set


@pytest.mark.parametrize("route", [False, True], ids=["floorplan", "routed"])
def test_runtime_layout_generation(benchmark, cell_library, route):
    """Layout generation for one Pareto solution (Figure-8(b) configuration)."""
    spec = ACIMDesignSpec(128, 128, 8, 3)
    # A fresh generator (and pipeline) per round, built outside the timed
    # call, so every round solves the design cold.
    report = benchmark.pedantic(
        lambda generator: generator.generate(spec, route_column=route),
        setup=lambda: ((LayoutGenerator(cell_library),), {}),
        rounds=3,
    )
    emit(f"Runtime — 16 kb layout generation ({'routed' if route else 'floorplan'})",
         format_table([{
             "paper_runtime_s": PAPER_LAYOUT_SECONDS,
             "repro_runtime_s": round(report.runtime_seconds, 3),
             "routed_nets": report.routed_nets,
             "failed_nets": report.failed_nets,
         }]))
    assert report.runtime_seconds < PAPER_LAYOUT_SECONDS
    assert report.failed_nets == 0


def test_runtime_exploration_scales_with_array_size(benchmark):
    """Exploration cost grows modestly with the array size (agility claim)."""
    config = NSGA2Config(population_size=40, generations=20, seed=6)

    def explore_three_sizes():
        explorer = DesignSpaceExplorer(config=config)
        return {size: explorer.explore(size) for size in (4096, 16384, 65536)}

    results = benchmark(explore_three_sizes)
    rows = [
        {
            "array_size": size,
            "runtime_s": round(result.runtime_seconds, 3),
            "evaluations": result.evaluations,
            "pareto_solutions": len(result.pareto_set),
        }
        for size, result in results.items()
    ]
    emit("Runtime — exploration vs array size", format_table(rows))
    assert all(result.pareto_set for result in results.values())
