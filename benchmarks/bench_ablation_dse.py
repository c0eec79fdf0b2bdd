"""Experiment A1 — ablation: NSGA-II explorer vs exhaustive enumeration.

The paper chose NSGA-II for the design-space explorer; for the array sizes
it studies the discrete space is small enough to enumerate, so the natural
ablation is to compare the genetic explorer against the brute-force
baseline on (a) frontier quality — hypervolume of the energy/area
projection and extreme-point coverage — and (b) the number of model
evaluations spent.  The genetic explorer should reach essentially the same
frontier with a fraction of the evaluations, which is what makes it the
right tool once the estimation model becomes more expensive (e.g. backed by
simulation instead of closed-form equations).
"""

from __future__ import annotations

import pytest

from repro.dse.exhaustive import evaluate_all, exhaustive_pareto_front
# Benchmarks drive the internal core directly (same implementation the
# session layer uses) so they stay silent under -W error::DeprecationWarning.
from repro.dse.explorer import _ExplorerCore as DesignSpaceExplorer
from repro.dse.nsga2 import NSGA2Config
from repro.dse.pareto import hypervolume_2d
from repro.flow.report import format_table

from bench_reporting import emit

ARRAY_SIZE = 16 * 1024
REFERENCE_POINT = (50.0, 10.0)  # (fJ/MAC, kF^2/bit) — worse than any design.


def _projection(designs):
    return [(d.metrics.energy_per_mac * 1e15, d.metrics.area_f2_per_bit / 1e3)
            for d in designs]


def test_ablation_exhaustive_enumeration(benchmark, estimator):
    """Cost and outcome of the brute-force baseline."""
    designs = benchmark(evaluate_all, ARRAY_SIZE, estimator=estimator)
    front = exhaustive_pareto_front(ARRAY_SIZE, estimator=estimator)
    hv = hypervolume_2d(_projection(front), REFERENCE_POINT)
    emit("Ablation A1 — exhaustive enumeration", format_table([{
        "evaluations": len(designs),
        "pareto_solutions": len(front),
        "energy_area_hypervolume": round(hv, 2),
    }]))
    assert len(front) > 100


@pytest.mark.parametrize("generations", [10, 40], ids=["short", "long"])
def test_ablation_nsga2_quality_vs_budget(benchmark, estimator, generations):
    """Frontier quality of NSGA-II as a function of the generation budget."""
    config = NSGA2Config(population_size=60, generations=generations, seed=31)
    explorer = DesignSpaceExplorer(estimator=estimator, config=config)
    result = benchmark(explorer.explore, ARRAY_SIZE)

    truth = exhaustive_pareto_front(ARRAY_SIZE, estimator=estimator)
    hv_truth = hypervolume_2d(_projection(truth), REFERENCE_POINT)
    hv_found = hypervolume_2d(_projection(result.pareto_set), REFERENCE_POINT)
    coverage = hv_found / hv_truth if hv_truth else 0.0

    emit(f"Ablation A1 — NSGA-II ({generations} generations)", format_table([{
        "evaluations": result.evaluations,
        "pareto_solutions": len(result.pareto_set),
        "hypervolume_coverage": round(coverage, 4),
    }]))

    # Even the short budget must reach most of the exhaustive hypervolume,
    # and every reported solution must be feasible for the array size.
    assert coverage >= 0.85
    assert all(d.spec.is_feasible(ARRAY_SIZE) for d in result.pareto_set)


def test_ablation_nsga2_uses_fewer_unique_evaluations(estimator):
    """The GA touches far fewer distinct design points than enumeration."""
    config = NSGA2Config(population_size=40, generations=20, seed=8)
    from repro.dse.problem import ACIMDesignProblem
    from repro.dse.nsga2 import NSGA2
    from repro.engine import EvaluationCache, EvaluationEngine

    # A private engine+cache so the count reflects this run's unique specs,
    # not whatever the process-wide shared cache already holds.
    engine = EvaluationEngine(cache=EvaluationCache())
    problem = ACIMDesignProblem(ARRAY_SIZE, estimator=estimator, engine=engine)
    optimizer = NSGA2(problem, config)
    optimizer.run()
    unique_points = engine.stats.evaluations
    total_points = len(evaluate_all(ARRAY_SIZE, estimator=estimator))

    emit("Ablation A1 — evaluation economy", format_table([{
        "unique_points_evaluated_by_nsga2": unique_points,
        "total_feasible_points": total_points,
        "fraction": round(unique_points / total_points, 3),
    }]))
    assert unique_points <= total_points
