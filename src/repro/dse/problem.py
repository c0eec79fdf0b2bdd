"""The ACIM design-space exploration problem (paper Equation 12).

The genome is the integer triple ``(height_index, local_index, adc_bits)``:

* ``height_index`` selects H from the divisors of the user-defined array
  size (power-of-two heights, as in the paper's explored space), which
  makes the ``H * W = array size`` constraint hold by construction;
* ``local_index`` selects L from the allowed local-array sizes (2..32 by
  default, the paper's bounds);
* ``adc_bits`` is B_ADC directly (1..8 by default).

The remaining Equation-12 constraints (``H >= L``, ``H`` divisible by ``L``
and ``H/L >= 2^B_ADC``) are enforced through the violation value consumed
by the NSGA-II constraint-domination rules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import OptimizationError
from repro.arch.batch import SpecBatch
from repro.arch.spec import ACIMDesignSpec, valid_heights
from repro.engine import EvaluationEngine, default_engine
from repro.model.estimator import ACIMEstimator, ACIMMetrics

#: Genome type: (height_index, local_index, adc_bits).
Genome = Tuple[int, int, int]


@dataclass(frozen=True)
class EvaluatedDesign:
    """A design point together with its metrics and objective vector.

    Attributes:
        spec: the design point.
        metrics: full estimation-model metrics.
        objectives: the Equation-12 minimisation vector [-SNR, -T, E, A].
    """

    spec: ACIMDesignSpec
    metrics: ACIMMetrics
    objectives: Tuple[float, float, float, float]


class ACIMDesignProblem:
    """NSGA-II problem wrapper around the ACIM estimation model."""

    def __init__(
        self,
        array_size: int,
        estimator: Optional[ACIMEstimator] = None,
        local_array_sizes: Sequence[int] = (2, 4, 8, 16, 32),
        max_adc_bits: int = 8,
        min_height: int = 2,
        max_height: Optional[int] = None,
        engine: Optional[EvaluationEngine] = None,
        power_of_two_heights: bool = True,
    ) -> None:
        if array_size < 4:
            raise OptimizationError("array size must be at least 4 bit cells")
        self.array_size = array_size
        self.estimator = estimator or ACIMEstimator()
        self.engine = engine or default_engine()
        self.local_array_sizes = tuple(sorted(set(local_array_sizes)))
        if not self.local_array_sizes:
            raise OptimizationError("at least one local array size is required")
        self.max_adc_bits = max_adc_bits
        # ``power_of_two_heights=False`` opens the full divisor grid (the
        # huge-space benchmarks); the default keeps the paper's
        # power-of-two explored space.
        heights = [
            h for h in valid_heights(
                array_size, power_of_two_only=power_of_two_heights
            )
            if h >= min_height and (max_height is None or h <= max_height)
        ]
        # Heights smaller than the smallest L can never be feasible.
        heights = [h for h in heights if h >= min(self.local_array_sizes)]
        if not heights:
            raise OptimizationError(
                f"no valid array heights for array size {array_size}"
            )
        self.heights = heights
        self._cache: Dict[Genome, Tuple[Tuple[float, ...], float]] = {}

    # -- genome <-> spec -------------------------------------------------------

    def decode(self, genome: Genome) -> ACIMDesignSpec:
        """Translate a genome into a design spec (not necessarily feasible)."""
        height_index, local_index, adc_bits = genome
        height = self.heights[height_index % len(self.heights)]
        local = self.local_array_sizes[local_index % len(self.local_array_sizes)]
        adc_bits = min(max(1, adc_bits), self.max_adc_bits)
        width = self.array_size // height
        return ACIMDesignSpec(height, width, local, adc_bits)

    def decode_columns(
        self, genome_rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`decode`: ``(k, 3)`` genome rows to spec columns.

        Returns ``(H, W, L, B_ADC)`` arrays.  Must mirror :meth:`decode`
        rule for rule (index wrap-around, B_ADC clamping) — the test suite
        asserts row-by-row parity between the two on random genomes.
        """
        genome_rows = np.asarray(genome_rows, dtype=np.int64)
        heights = np.asarray(self.heights, dtype=np.int64)
        locals_ = np.asarray(self.local_array_sizes, dtype=np.int64)
        h = heights[genome_rows[:, 0] % len(heights)]
        l = locals_[genome_rows[:, 1] % len(locals_)]
        b = np.clip(genome_rows[:, 2], 1, self.max_adc_bits)
        w = self.array_size // h
        return h, w, l, b

    def encode(self, spec: ACIMDesignSpec) -> Genome:
        """Translate a design spec back into a genome."""
        try:
            height_index = self.heights.index(spec.height)
        except ValueError:
            raise OptimizationError(f"height {spec.height} not in problem space")
        try:
            local_index = self.local_array_sizes.index(spec.local_array_size)
        except ValueError:
            raise OptimizationError(
                f"local array size {spec.local_array_size} not in problem space"
            )
        return (height_index, local_index, spec.adc_bits)

    def genome_key(self, genome: Genome) -> Tuple[int, int, int, int]:
        """Canonical duplicate-suppression key (the decoded design point)."""
        return self.decode(genome).as_tuple()

    # -- NSGA-II protocol ------------------------------------------------------

    def random_genome(self, rng: random.Random) -> Genome:
        """Draw a uniformly random genome."""
        return (
            rng.randrange(len(self.heights)),
            rng.randrange(len(self.local_array_sizes)),
            rng.randint(1, self.max_adc_bits),
        )

    def evaluate(self, genome: Genome) -> Tuple[Tuple[float, ...], float]:
        """Objective vector and constraint violation of a genome."""
        return self.evaluate_many([genome])[0]

    def evaluate_many(
        self, genomes: Sequence[Genome]
    ) -> List[Tuple[Tuple[float, ...], float]]:
        """Batched :meth:`evaluate`: results in genome order.

        The whole population is decoded and constraint-checked as NumPy
        columns — genome indices become array lookups into the height/L
        tables, the Equation-12 violations are a handful of vectorized
        comparisons — and the feasible rows are submitted to the evaluation
        engine as one :class:`~repro.arch.batch.SpecBatch`, which serves
        repeats from the shared cache and computes the misses inline.
        """
        results: List[Optional[Tuple[Tuple[float, ...], float]]] = [None] * len(genomes)
        fresh_indices: List[int] = []
        for index, genome in enumerate(genomes):
            cached = self._cache.get(genome)
            if cached is not None:
                results[index] = cached
            else:
                fresh_indices.append(index)
        if fresh_indices:
            h, w, l, b = self.decode_columns(
                [genomes[i] for i in fresh_indices]
            )
            violation = self._violation_array(h, l, b)
            feasible = violation == 0.0
            batch = SpecBatch(
                height=h[feasible], width=w[feasible],
                local_array_size=l[feasible], adc_bits=b[feasible],
            )
            feasible_positions = [
                index for index, ok in zip(fresh_indices, feasible.tolist()) if ok
            ]
            # Infeasible points never enter the Pareto ranking among
            # feasible ones; give them a neutral objective vector.
            for index, ok, value in zip(
                fresh_indices, feasible.tolist(), violation.tolist()
            ):
                if not ok:
                    result = ((0.0, 0.0, 0.0, 0.0), value)
                    self._cache[genomes[index]] = result
                    results[index] = result
            if len(batch):
                metrics_list = self.engine.evaluate_specs(self.estimator, batch)
                for index, metrics in zip(feasible_positions, metrics_list):
                    result = (metrics.objectives(), 0.0)
                    self._cache[genomes[index]] = result
                    results[index] = result
        return results  # type: ignore[return-value]

    @staticmethod
    def _violation_array(h: np.ndarray, l: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Total Equation-12 constraint violation of decoded genome columns.

        ``L - H`` when ``L > H``, plus 1 when ``L`` does not divide ``H``,
        else the ``2^B_ADC - H/L`` deficit of the CDAC grouping.
        """
        violation = np.where(l > h, (l - h).astype(float), 0.0)
        divides = (h % l) == 0
        deficit = (1 << np.clip(b, 0, 62)) - h // l
        violation += np.where(
            divides,
            np.where(deficit > 0, deficit.astype(float), 0.0),
            1.0,
        )
        return violation

    def crossover(self, a: Genome, b: Genome, rng: random.Random) -> Genome:
        """Uniform crossover on the three genes."""
        return tuple(rng.choice(pair) for pair in zip(a, b))  # type: ignore[return-value]

    def mutate(self, genome: Genome, rng: random.Random) -> Genome:
        """Mutate one gene: +/-1 step or full re-draw with small probability."""
        height_index, local_index, adc_bits = genome
        gene = rng.randrange(3)
        if gene == 0:
            if rng.random() < 0.2:
                height_index = rng.randrange(len(self.heights))
            else:
                height_index = _step(height_index, len(self.heights), rng)
        elif gene == 1:
            if rng.random() < 0.2:
                local_index = rng.randrange(len(self.local_array_sizes))
            else:
                local_index = _step(local_index, len(self.local_array_sizes), rng)
        else:
            if rng.random() < 0.2:
                adc_bits = rng.randint(1, self.max_adc_bits)
            else:
                adc_bits = min(self.max_adc_bits, max(1, adc_bits + rng.choice((-1, 1))))
        return (height_index, local_index, adc_bits)

    # -- helpers ---------------------------------------------------------------

    def feasible_batch(self) -> SpecBatch:
        """Every feasible design point of this problem instance, as arrays.

        Built meshgrid-style over (heights, local sizes, ADC precisions) in
        genome-index order and filtered by the vectorized Equation-12 mask.
        """
        return SpecBatch.from_product(
            self.heights,
            self.local_array_sizes,
            range(1, self.max_adc_bits + 1),
            array_size=self.array_size,
        )

    def feasible_specs(self) -> List[ACIMDesignSpec]:
        """Every feasible design point of this problem instance."""
        return self.feasible_batch().to_specs()


def _step(index: int, size: int, rng: random.Random) -> int:
    """Move an index one step up or down, clamped to the valid range."""
    return min(size - 1, max(0, index + rng.choice((-1, 1))))
