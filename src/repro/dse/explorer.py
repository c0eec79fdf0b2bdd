"""The MOGA-based design space explorer (paper Figure 4, section 3.2.2).

:class:`_ExplorerCore` runs the genetic exploration: given an array size
(and optionally a customised estimator or NSGA-II configuration) it
returns an :class:`ExplorationResult` containing the Pareto-frontier set
of ``(H, W, L, B_ADC)`` solutions with their estimated metrics, ready for
user distillation and layout generation.

The public front door is :meth:`repro.api.Session.explore`; the historical
``DesignSpaceExplorer`` shim was removed in 1.2.0 after its one-release
deprecation window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import OptimizationError
from repro.arch.spec import ACIMDesignSpec
from repro.dse.nsga2 import NSGA2, NSGA2Config
from repro.dse.pareto import pareto_front
from repro.dse.problem import ACIMDesignProblem, EvaluatedDesign
from repro.engine import EvaluationEngine, default_engine
from repro.model.estimator import ACIMEstimator


@dataclass
class ExplorationResult:
    """Output of one design-space exploration run.

    Attributes:
        array_size: the explored array size (H * W).
        pareto_set: non-dominated evaluated designs, deduplicated.
        evaluations: number of objective evaluations the optimiser used.
        generations: number of NSGA-II generations run.
        runtime_seconds: wall-clock exploration time (monotonic clock).
        history: per-generation statistics from the optimiser.
        engine_stats: evaluation-engine statistics (batches, cache
            hits, evaluations/sec) of this run, when an engine was used.
    """

    array_size: int
    pareto_set: List[EvaluatedDesign]
    evaluations: int
    generations: int
    runtime_seconds: float
    history: List[Dict[str, float]] = field(default_factory=list)
    engine_stats: Dict[str, float] = field(default_factory=dict)

    def specs(self) -> List[ACIMDesignSpec]:
        """The Pareto-frontier design specs."""
        return [design.spec for design in self.pareto_set]

    def metric_ranges(self) -> Dict[str, tuple]:
        """(min, max) of each headline metric across the Pareto set."""
        if not self.pareto_set:
            return {}
        metrics = [design.metrics for design in self.pareto_set]
        def span(values):
            return (min(values), max(values))
        return {
            "snr_db": span([m.snr_db for m in metrics]),
            "tops": span([m.tops for m in metrics]),
            "tops_per_watt": span([m.tops_per_watt for m in metrics]),
            "area_f2_per_bit": span([m.area_f2_per_bit for m in metrics]),
        }

    def as_table(self) -> List[dict]:
        """Flat dictionaries (one per solution), sorted by SNR descending."""
        rows = [design.metrics.as_dict() for design in self.pareto_set]
        return sorted(rows, key=lambda row: row["snr_db"], reverse=True)


def pareto_designs_from_population(problem, population) -> List[EvaluatedDesign]:
    """Distil a final NSGA-II population into the evaluated Pareto set.

    Keeps the feasible individuals, deduplicates them by decoded design
    point, evaluates the unique points as one engine batch, re-filters to
    the non-dominated subset and sorts by spec tuple — the canonical
    reduction shared by :class:`_ExplorerCore` and the campaign manager,
    so an interrupted-and-resumed campaign reports the exact set an
    uninterrupted exploration would.
    """
    array_size = problem.array_size
    unique: Dict[tuple, ACIMDesignSpec] = {}
    for individual in population:
        if not individual.feasible:
            continue
        spec = problem.decode(individual.genome)
        if spec.is_feasible(array_size):
            unique.setdefault(spec.as_tuple(), spec)
    if not unique:
        raise OptimizationError(
            f"exploration found no feasible designs for array size {array_size}"
        )
    specs = list(unique.values())
    metrics_list = problem.engine.evaluate_specs(problem.estimator, specs)
    designs = [
        EvaluatedDesign(spec, metrics, metrics.objectives())
        for spec, metrics in zip(specs, metrics_list)
    ]
    # Re-filter to the non-dominated subset after deduplication.
    front = pareto_front([design.objectives for design in designs])
    pareto_set = [designs[i] for i in front]
    pareto_set.sort(key=lambda d: d.spec.as_tuple())
    return pareto_set


class _ExplorerCore:
    """NSGA-II based explorer over the synthesizable-architecture space.

    Internal implementation behind :meth:`repro.api.Session.explore` (and
    direct core-level consumers such as the benchmarks).
    """

    def __init__(
        self,
        estimator: Optional[ACIMEstimator] = None,
        config: NSGA2Config = NSGA2Config(),
        local_array_sizes: Sequence[int] = (2, 4, 8, 16, 32),
        max_adc_bits: int = 8,
        engine: Optional[EvaluationEngine] = None,
        power_of_two_heights: bool = True,
    ) -> None:
        self.estimator = estimator or ACIMEstimator()
        self.config = config
        self.local_array_sizes = local_array_sizes
        self.max_adc_bits = max_adc_bits
        self.engine = engine if engine is not None else default_engine()
        self.power_of_two_heights = power_of_two_heights

    def explore(
        self,
        array_size: int,
        min_height: int = 2,
        max_height: Optional[int] = None,
    ) -> ExplorationResult:
        """Run the exploration for a user-defined array size.

        Returns the deduplicated Pareto-frontier set of feasible solutions.
        """
        engine = self.engine
        problem = ACIMDesignProblem(
            array_size,
            estimator=self.estimator,
            local_array_sizes=self.local_array_sizes,
            max_adc_bits=self.max_adc_bits,
            min_height=min_height,
            max_height=max_height,
            engine=engine,
            power_of_two_heights=self.power_of_two_heights,
        )
        optimizer = NSGA2(problem, self.config)
        stats_baseline = engine.stats.snapshot()
        start = time.perf_counter()
        final_population = optimizer.run()
        runtime = time.perf_counter() - start
        pareto_set = pareto_designs_from_population(problem, final_population)
        return ExplorationResult(
            array_size=array_size,
            pareto_set=pareto_set,
            evaluations=optimizer.evaluations,
            generations=self.config.generations,
            runtime_seconds=runtime,
            history=optimizer.history,
            engine_stats=engine.stats.since(stats_baseline).as_dict(),
        )

    def explore_many(
        self, array_sizes: Sequence[int], **kwargs
    ) -> Dict[int, ExplorationResult]:
        """Explore several array sizes (used by the Figure-9(a)(b) sweep).

        One engine (and thus one cache view) is shared across all sizes.
        """
        min_height = kwargs.pop("min_height", 2)
        max_height = kwargs.pop("max_height", None)
        if kwargs:
            raise TypeError(
                f"explore_many() got unexpected keyword arguments "
                f"{sorted(kwargs)}"
            )
        return {
            size: self.explore(size, min_height, max_height)
            for size in array_sizes
        }


