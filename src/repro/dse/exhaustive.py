"""Exhaustive design-space enumeration baseline.

The discrete ACIM design space for one array size is small (hundreds of
points), so the true Pareto frontier can be computed by brute force.  The
baseline serves two purposes:

* validation — the NSGA-II explorer must recover (a large fraction of) the
  true frontier, which the test suite checks;
* ablation — the benchmark harness compares the runtime of both approaches
  (experiment A1 in DESIGN.md).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.arch.batch import SpecBatch
from repro.dse.pareto import pareto_front
from repro.dse.problem import EvaluatedDesign
from repro.engine import EvaluationEngine, default_engine
from repro.model.estimator import ACIMEstimator


def evaluate_all(
    array_size: int,
    estimator: Optional[ACIMEstimator] = None,
    local_array_sizes: Sequence[int] = (2, 4, 8, 16, 32),
    max_adc_bits: int = 8,
    engine: Optional[EvaluationEngine] = None,
    batch: Optional[SpecBatch] = None,
) -> List[EvaluatedDesign]:
    """Evaluate every feasible design point of an array size.

    The grid is built directly as a :class:`~repro.arch.batch.SpecBatch`
    (meshgrid-style, no intermediate spec lists) and submitted to the
    evaluation engine as one array batch, computed inline with one
    vectorized model call; repeat calls (e.g. the sensitivity analyzer's
    perturbed sweeps) are served from the shared cache.

    Args:
        batch: a pre-built grid to evaluate instead of enumerating one —
            the sensitivity analyzer passes the same grid across all its
            perturbations so the design space is enumerated once.
    """
    estimator = estimator or ACIMEstimator()
    engine = engine or default_engine()
    if batch is None:
        batch = SpecBatch.enumerate(
            array_size,
            local_array_sizes=local_array_sizes,
            max_adc_bits=max_adc_bits,
        )
    metrics_list = engine.evaluate_specs(estimator, batch)
    return [
        EvaluatedDesign(metrics.spec, metrics, metrics.objectives())
        for metrics in metrics_list
    ]


def exhaustive_pareto_front(
    array_size: int,
    estimator: Optional[ACIMEstimator] = None,
    local_array_sizes: Sequence[int] = (2, 4, 8, 16, 32),
    max_adc_bits: int = 8,
    engine: Optional[EvaluationEngine] = None,
) -> List[EvaluatedDesign]:
    """The exact Pareto frontier of an array size's full design space."""
    designs = evaluate_all(
        array_size,
        estimator=estimator,
        local_array_sizes=local_array_sizes,
        max_adc_bits=max_adc_bits,
        engine=engine,
    )
    if not designs:
        return []
    front_indices = pareto_front([design.objectives for design in designs])
    return [designs[i] for i in front_indices]
