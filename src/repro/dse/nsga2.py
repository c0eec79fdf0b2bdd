"""NSGA-II implemented from scratch for the ACIM design-space explorer.

The implementation follows the classic algorithm (Deb et al., 2002):

* fast non-dominated sorting with crowding-distance diversity preservation,
* binary tournament selection on (constraint violation, rank, crowding),
* problem-defined crossover and mutation on the genome,
* elitist (mu + lambda) environmental selection.

Constraints are handled with Deb's feasibility rules ("constraint
domination"): a feasible individual always beats an infeasible one, and two
infeasible individuals are compared by total constraint violation.  The
ACIM problem (Equation 12) additionally repairs genomes so that
``H * W = array size`` always holds, leaving only the H/L >= 2^B_ADC and
H >= L constraints to the violation mechanism.

The algorithm is generic over a small problem protocol so the test suite
can exercise it on analytic benchmark problems with known Pareto fronts in
addition to the ACIM problem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Generic, List, Optional, Tuple, TypeVar

from repro.errors import OptimizationError
from repro.dse.pareto import crowding_distance, non_dominated_sort, objective_array
from repro.obs import get_tracer

Genome = TypeVar("Genome")


@dataclass
class Individual(Generic[Genome]):
    """One member of the NSGA-II population.

    Attributes:
        genome: problem-specific genome.
        objectives: minimisation objective vector.
        violation: total constraint violation (0 means feasible).
        rank: non-domination rank (0 is the best front).
        crowding: crowding distance within its front.
    """

    genome: Genome
    objectives: Tuple[float, ...] = ()
    violation: float = 0.0
    rank: int = 0
    crowding: float = 0.0

    @property
    def feasible(self) -> bool:
        """True when no constraint is violated."""
        return self.violation <= 0.0


@dataclass(frozen=True)
class NSGA2Config:
    """Hyper-parameters of the NSGA-II run.

    Attributes:
        population_size: number of individuals kept each generation.
        generations: number of generations to evolve.
        crossover_probability: probability a child is produced by crossover
            (otherwise it is a copy of one parent before mutation).
        mutation_probability: probability the child genome is mutated.
        seed: random seed for reproducibility.
    """

    population_size: int = 80
    generations: int = 60
    crossover_probability: float = 0.9
    mutation_probability: float = 0.4
    seed: int = 1

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise OptimizationError("population size must be at least 4")
        if self.generations < 1:
            raise OptimizationError("generations must be at least 1")
        for name in ("crossover_probability", "mutation_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise OptimizationError(f"{name} must be in [0, 1]")


class NSGA2(Generic[Genome]):
    """The NSGA-II optimiser.

    The ``problem`` object must provide:

    * ``random_genome(rng) -> Genome``
    * ``evaluate(genome) -> (objectives, violation)``
    * ``crossover(a, b, rng) -> Genome``
    * ``mutate(genome, rng) -> Genome``
    * optionally ``genome_key(genome)`` for duplicate suppression,
    * optionally ``evaluate_many(genomes) -> [(objectives, violation)]`` for
      population-batch evaluation (the ACIM problem routes this through the
      :class:`~repro.engine.engine.EvaluationEngine`).

    The initial population and each generation's offspring are evaluated as
    one batch.  Genome generation (which consumes the RNG) happens strictly
    before evaluation (which never does), so batched and per-genome
    evaluation produce bit-identical runs for a fixed seed.
    """

    def __init__(self, problem, config: NSGA2Config = NSGA2Config()) -> None:
        self.problem = problem
        self.config = config
        self._evaluations = 0
        self.history: List[Dict[str, float]] = []
        self._rng: Optional[random.Random] = None
        self._population: Optional[List[Individual]] = None
        self._generation = 0

    @property
    def evaluations(self) -> int:
        """Number of objective evaluations performed so far."""
        return self._evaluations

    @property
    def generation(self) -> int:
        """Number of completed generations (0 right after initialization)."""
        return self._generation

    @property
    def done(self) -> bool:
        """True once the configured generation budget is exhausted."""
        return (
            self._population is not None
            and self._generation >= self.config.generations
        )

    # -- main loop ------------------------------------------------------------

    def run(self) -> List[Individual]:
        """Evolve the population and return the final non-dominated set.

        Equivalent to :meth:`initialize` followed by :meth:`step` until
        :attr:`done`; checkpointing drivers (the campaign manager) call the
        stepwise API directly and snapshot :meth:`state` between steps.
        """
        self.initialize()
        while not self.done:
            self.step()
        return self.result()

    # -- stepwise / checkpointable API ----------------------------------------

    def initialize(self) -> None:
        """Seed the RNG and evaluate the initial population (generation 0)."""
        rng = random.Random(self.config.seed)
        population = self._initial_population(rng)
        self._assign_ranks(population)
        self._rng = rng
        self._population = population
        self._generation = 0

    def step(self) -> bool:
        """Evolve one generation; returns True while generations remain.

        RNG consumption is identical to the monolithic loop of :meth:`run`,
        so any interleaving of steps and state snapshots reproduces the
        uninterrupted evolution bit-identically.
        """
        if self._population is None:
            raise OptimizationError("call initialize() before step()")
        if self.done:
            return False
        # The span never touches the optimizer RNG, so tracing a run
        # cannot perturb its bit-identical evolution.
        with get_tracer().span("dse.generation", generation=self._generation):
            offspring = self._make_offspring(self._population, self._rng)
            self._population = self._environmental_selection(
                self._population + offspring
            )
            self._record_history(self._generation, self._population)
            self._generation += 1
        return not self.done

    def result(self) -> List[Individual]:
        """The current population's feasible non-dominated set."""
        if self._population is None:
            raise OptimizationError("call initialize() before result()")
        population = self._population
        return [ind for ind in population if ind.rank == 0 and ind.feasible] or [
            ind for ind in population if ind.rank == 0
        ]

    def state(self) -> Dict:
        """JSON-serializable snapshot of the full optimiser state.

        Captures the RNG state, the evaluated population (genomes must be
        nested tuples/lists of JSON scalars, as the ACIM genome is), the
        generation counter, the evaluation budget spent and the history —
        everything :meth:`restore_state` needs to continue bit-identically.
        """
        if self._population is None:
            raise OptimizationError("call initialize() before state()")
        version, internal, gauss_next = self._rng.getstate()
        return {
            "generation": self._generation,
            "evaluations": self._evaluations,
            "rng_state": [version, list(internal), gauss_next],
            "history": [dict(entry) for entry in self.history],
            "population": [
                {
                    "genome": individual.genome,
                    "objectives": list(individual.objectives),
                    "violation": individual.violation,
                    "rank": individual.rank,
                    "crowding": individual.crowding,
                }
                for individual in self._population
            ],
        }

    def restore_state(self, state: Dict) -> None:
        """Restore a :meth:`state` snapshot (inverse of JSON round-trip)."""
        try:
            version, internal, gauss_next = state["rng_state"]
            rng = random.Random()
            rng.setstate((version, tuple(internal), gauss_next))
            population = [
                Individual(
                    genome=_tuplify(entry["genome"]),
                    objectives=tuple(entry["objectives"]),
                    violation=float(entry["violation"]),
                    rank=int(entry["rank"]),
                    crowding=float(entry["crowding"]),
                )
                for entry in state["population"]
            ]
            generation = int(state["generation"])
            evaluations = int(state["evaluations"])
            history = [dict(entry) for entry in state["history"]]
        except (KeyError, TypeError, ValueError) as error:
            raise OptimizationError(f"invalid NSGA-II state snapshot: {error}")
        self._rng = rng
        self._population = population
        self._generation = generation
        self._evaluations = evaluations
        self.history = history

    # -- population management -----------------------------------------------

    def _initial_population(self, rng: random.Random) -> List[Individual]:
        genomes: List[Genome] = []
        seen = set()
        attempts = 0
        while len(genomes) < self.config.population_size:
            genome = self.problem.random_genome(rng)
            key = self._genome_key(genome)
            attempts += 1
            if key in seen and attempts < self.config.population_size * 20:
                continue
            seen.add(key)
            genomes.append(genome)
        return self._evaluate_many(genomes)

    def _evaluate_many(self, genomes: List[Genome]) -> List[Individual]:
        """Evaluate a genome batch, preferring the problem's batched path."""
        evaluate_many = getattr(self.problem, "evaluate_many", None)
        if evaluate_many is not None:
            evaluations = evaluate_many(genomes)
            if len(evaluations) != len(genomes):
                raise OptimizationError(
                    f"problem.evaluate_many returned {len(evaluations)} "
                    f"results for {len(genomes)} genomes"
                )
        else:
            evaluations = [self.problem.evaluate(genome) for genome in genomes]
        self._evaluations += len(genomes)
        return [
            Individual(genome=genome, objectives=tuple(objectives),
                       violation=float(violation))
            for genome, (objectives, violation) in zip(genomes, evaluations)
        ]

    def _make_offspring(
        self, population: List[Individual], rng: random.Random
    ) -> List[Individual]:
        # Selection and variation consume the RNG; evaluation does not, so
        # the child genomes are generated first and evaluated as one batch.
        child_genomes: List[Genome] = []
        while len(child_genomes) < self.config.population_size:
            parent_a = self._tournament(population, rng)
            parent_b = self._tournament(population, rng)
            if rng.random() < self.config.crossover_probability:
                child_genome = self.problem.crossover(
                    parent_a.genome, parent_b.genome, rng
                )
            else:
                child_genome = rng.choice((parent_a, parent_b)).genome
            if rng.random() < self.config.mutation_probability:
                child_genome = self.problem.mutate(child_genome, rng)
            child_genomes.append(child_genome)
        return self._evaluate_many(child_genomes)

    def _environmental_selection(
        self, combined: List[Individual]
    ) -> List[Individual]:
        self._assign_ranks(combined)
        by_front: Dict[int, List[Individual]] = {}
        for individual in combined:
            by_front.setdefault(individual.rank, []).append(individual)
        survivors: List[Individual] = []
        for rank in sorted(by_front):
            front = by_front[rank]
            if len(survivors) + len(front) <= self.config.population_size:
                survivors.extend(front)
                continue
            remaining = self.config.population_size - len(survivors)
            front.sort(key=lambda ind: ind.crowding, reverse=True)
            survivors.extend(front[:remaining])
            break
        return survivors

    # -- ranking and selection -------------------------------------------------

    def _assign_ranks(self, population: List[Individual]) -> None:
        """Assign constraint-aware ranks and crowding distances in place."""
        feasible = [ind for ind in population if ind.feasible]
        infeasible = [ind for ind in population if not ind.feasible]
        next_rank = 0
        if feasible:
            objectives = objective_array([ind.objectives for ind in feasible])
            fronts = non_dominated_sort(objectives)
            for front_rank, front in enumerate(fronts):
                distances = crowding_distance(objectives[front])
                for i, distance in zip(front, distances):
                    feasible[i].rank = front_rank
                    feasible[i].crowding = distance
            next_rank = len(fronts)
        # Infeasible individuals come after every feasible front, ordered by
        # total violation (Deb's constraint-domination).
        infeasible.sort(key=lambda ind: ind.violation)
        for offset, individual in enumerate(infeasible):
            individual.rank = next_rank + offset
            individual.crowding = 0.0

    @staticmethod
    def _tournament(population: List[Individual], rng: random.Random) -> Individual:
        a, b = rng.choice(population), rng.choice(population)
        if a.feasible != b.feasible:
            return a if a.feasible else b
        if not a.feasible and not b.feasible:
            return a if a.violation <= b.violation else b
        if a.rank != b.rank:
            return a if a.rank < b.rank else b
        return a if a.crowding >= b.crowding else b

    # -- bookkeeping -------------------------------------------------------------

    def _genome_key(self, genome: Genome):
        key_fn = getattr(self.problem, "genome_key", None)
        if key_fn is None:
            try:
                hash(genome)
                return genome
            except TypeError:
                return id(genome)
        return key_fn(genome)

    def _record_history(self, generation: int, population: List[Individual]) -> None:
        feasible = [ind for ind in population if ind.feasible]
        front = [ind for ind in feasible if ind.rank == 0]
        self.history.append({
            "generation": float(generation),
            "feasible": float(len(feasible)),
            "front_size": float(len(front)),
            "evaluations": float(self._evaluations),
        })


def _tuplify(value):
    """Rebuild nested tuples from JSON lists (genome deserialization)."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value
