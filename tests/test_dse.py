"""Unit tests for the design-space exploration package."""

import math
import random

import numpy as np
import pytest

import pareto_reference
from repro.errors import OptimizationError
from repro.arch.spec import ACIMDesignSpec
from repro.dse import (
    ACIMDesignProblem,
    DistillationCriteria,
    Individual,
    NSGA2,
    NSGA2Config,
    crowding_distance,
    distill,
    dominates,
    exhaustive_pareto_front,
    hypervolume_2d,
    non_dominated_sort,
    pareto_front,
    pareto_front_mask,
)
from repro.dse.distill import distill_report
from repro.dse.exhaustive import evaluate_all
from repro.dse.explorer import _ExplorerCore


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (1, 3))
        assert not dominates((1, 3), (1, 3))
        assert not dominates((1, 3), (2, 1))

    def test_length_mismatch(self):
        with pytest.raises(OptimizationError):
            dominates((1, 2), (1, 2, 3))

    def test_pareto_front_extraction(self):
        points = [(1, 5), (2, 2), (5, 1), (3, 3), (6, 6)]
        front = pareto_front(points)
        assert set(front) == {0, 1, 2}

    def test_pareto_front_keeps_duplicates(self):
        points = [(1, 1), (1, 1), (2, 2)]
        assert set(pareto_front(points)) == {0, 1}

    def test_non_dominated_sort_layers(self):
        points = [(1, 1), (2, 2), (3, 3)]
        fronts = non_dominated_sort(points)
        assert fronts == [[0], [1], [2]]

    def test_non_dominated_sort_partitions_population(self):
        rng = random.Random(0)
        points = [(rng.random(), rng.random()) for _ in range(30)]
        fronts = non_dominated_sort(points)
        flattened = sorted(i for front in fronts for i in front)
        assert flattened == list(range(30))

    def test_crowding_distance_boundaries_infinite(self):
        points = [(0, 10), (2, 6), (5, 3), (9, 0)]
        distances = crowding_distance(points)
        assert math.isinf(distances[0]) and math.isinf(distances[-1])
        assert all(d > 0 for d in distances)

    def test_crowding_distance_small_fronts(self):
        assert crowding_distance([(1, 2)]) == [math.inf]
        assert crowding_distance([]) == []

    def test_hypervolume_2d(self):
        points = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        volume = hypervolume_2d(points, reference=(4.0, 4.0))
        assert volume == pytest.approx(6.0)

    def test_hypervolume_ignores_points_beyond_reference(self):
        assert hypervolume_2d([(5.0, 5.0)], reference=(4.0, 4.0)) == 0.0


class _ZDT1Problem:
    """Classic two-objective benchmark with a known Pareto front (g = 1)."""

    def __init__(self, dimensions=6):
        self.dimensions = dimensions

    def random_genome(self, rng):
        return tuple(rng.random() for _ in range(self.dimensions))

    def evaluate(self, genome):
        f1 = genome[0]
        g = 1.0 + 9.0 * sum(genome[1:]) / (self.dimensions - 1)
        f2 = g * (1.0 - math.sqrt(f1 / g))
        return (f1, f2), 0.0

    def crossover(self, a, b, rng):
        alpha = rng.random()
        return tuple(alpha * x + (1 - alpha) * y for x, y in zip(a, b))

    def mutate(self, genome, rng):
        index = rng.randrange(len(genome))
        values = list(genome)
        values[index] = min(1.0, max(0.0, values[index] + rng.gauss(0, 0.1)))
        return tuple(values)

    def genome_key(self, genome):
        return tuple(round(v, 6) for v in genome)


class TestNSGA2:
    def test_converges_towards_zdt1_front(self):
        problem = _ZDT1Problem()
        optimizer = NSGA2(problem, NSGA2Config(population_size=40, generations=60,
                                               seed=2))
        front = optimizer.run()
        assert front
        # On the true front f2 = 1 - sqrt(f1); require decent convergence.
        mean_gap = sum(
            abs(ind.objectives[1] - (1 - math.sqrt(ind.objectives[0])))
            for ind in front
        ) / len(front)
        assert mean_gap < 0.35

    def test_front_is_mutually_non_dominated(self):
        problem = _ZDT1Problem()
        front = NSGA2(problem, NSGA2Config(population_size=30, generations=30,
                                           seed=5)).run()
        objectives = [ind.objectives for ind in front]
        assert set(pareto_front(objectives)) == set(range(len(objectives)))

    def test_history_is_recorded(self):
        optimizer = NSGA2(_ZDT1Problem(), NSGA2Config(population_size=20,
                                                      generations=5, seed=1))
        optimizer.run()
        assert len(optimizer.history) == 5
        assert optimizer.evaluations > 20

    def test_deterministic_for_fixed_seed(self):
        config = NSGA2Config(population_size=20, generations=10, seed=42)
        front_a = NSGA2(_ZDT1Problem(), config).run()
        front_b = NSGA2(_ZDT1Problem(), config).run()
        assert [i.objectives for i in front_a] == [i.objectives for i in front_b]

    def test_constraint_domination_prefers_feasible(self):
        class ConstrainedProblem(_ZDT1Problem):
            def evaluate(self, genome):
                objectives, _ = super().evaluate(genome)
                violation = 1.0 if genome[0] < 0.5 else 0.0
                return objectives, violation

        front = NSGA2(ConstrainedProblem(), NSGA2Config(population_size=30,
                                                        generations=20, seed=3)).run()
        assert all(ind.feasible for ind in front)
        assert all(ind.genome[0] >= 0.5 for ind in front)

    def test_invalid_config(self):
        with pytest.raises(OptimizationError):
            NSGA2Config(population_size=2)
        with pytest.raises(OptimizationError):
            NSGA2Config(crossover_probability=1.5)


class TestACIMDesignProblem:
    def test_decode_respects_array_size(self):
        problem = ACIMDesignProblem(16384)
        rng = random.Random(0)
        for _ in range(50):
            spec = problem.decode(problem.random_genome(rng))
            assert spec.array_size == 16384

    def test_encode_decode_roundtrip(self):
        problem = ACIMDesignProblem(16384)
        spec = ACIMDesignSpec(128, 128, 8, 3)
        assert problem.decode(problem.encode(spec)) == spec

    def test_decode_columns_matches_scalar_decode(self):
        # The vectorized decode used by evaluate_many must mirror decode()
        # rule for rule (index wrap-around, B_ADC clamping) — including on
        # out-of-range genes, which wrap/clamp rather than error.
        problem = ACIMDesignProblem(16384)
        rng = random.Random(3)
        genomes = [problem.random_genome(rng) for _ in range(60)]
        genomes += [(997, 313, 40), (-1, -2, 0), (0, 0, 1)]
        h, w, l, b = problem.decode_columns(genomes)
        for index, genome in enumerate(genomes):
            spec = problem.decode(genome)
            assert (h[index], w[index], l[index], b[index]) == spec.as_tuple()

    def test_feasible_genomes_have_zero_violation(self):
        problem = ACIMDesignProblem(4096)
        genome = problem.encode(ACIMDesignSpec(64, 64, 8, 3))
        _objectives, violation = problem.evaluate(genome)
        assert violation == 0.0

    def test_infeasible_genome_has_positive_violation(self):
        problem = ACIMDesignProblem(4096, max_adc_bits=8)
        # H = 16, L = 16 -> H/L = 1 cannot support 8 ADC bits.
        genome = (problem.heights.index(16), problem.local_array_sizes.index(16), 8)
        _objectives, violation = problem.evaluate(genome)
        assert violation > 0

    def test_evaluation_is_cached(self):
        problem = ACIMDesignProblem(4096)
        genome = problem.encode(ACIMDesignSpec(64, 64, 8, 3))
        first = problem.evaluate(genome)
        second = problem.evaluate(genome)
        assert first is second

    def test_mutation_and_crossover_stay_in_bounds(self):
        problem = ACIMDesignProblem(4096)
        rng = random.Random(1)
        genome = problem.random_genome(rng)
        for _ in range(100):
            genome = problem.mutate(genome, rng)
            other = problem.random_genome(rng)
            child = problem.crossover(genome, other, rng)
            spec = problem.decode(child)
            assert spec.array_size == 4096
            assert 1 <= spec.adc_bits <= 8

    def test_feasible_specs_enumeration(self):
        problem = ACIMDesignProblem(1024)
        specs = problem.feasible_specs()
        assert specs
        assert all(s.is_feasible(1024) for s in specs)

    def test_small_array_size_rejected(self):
        with pytest.raises(OptimizationError):
            ACIMDesignProblem(2)


class TestExplorer:
    CONFIG = NSGA2Config(population_size=32, generations=16, seed=7)

    def test_explore_returns_feasible_pareto_set(self):
        explorer = _ExplorerCore(config=self.CONFIG)
        result = explorer.explore(4096)
        assert result.pareto_set
        for design in result.pareto_set:
            assert design.spec.is_feasible(4096)

    def test_pareto_set_is_non_dominated(self):
        explorer = _ExplorerCore(config=self.CONFIG)
        result = explorer.explore(4096)
        objectives = [d.objectives for d in result.pareto_set]
        assert set(pareto_front(objectives)) == set(range(len(objectives)))

    def test_explorer_solutions_are_true_pareto_points(self):
        # With four objectives almost every feasible point is non-dominated
        # (the 4 kb space has ~213 Pareto points), so a population-bounded
        # GA cannot return them all; what it returns must nevertheless be
        # exclusively true Pareto points, and a healthy fraction of the
        # population budget should survive to the final front.
        config = NSGA2Config(population_size=60, generations=40, seed=13)
        explorer = _ExplorerCore(config=config)
        result = explorer.explore(4096)
        truth = {d.spec.as_tuple() for d in exhaustive_pareto_front(4096)}
        found = {d.spec.as_tuple() for d in result.pareto_set}
        assert found <= truth
        assert len(found) >= config.population_size // 3

    def test_explorer_covers_energy_area_tradeoff(self):
        # On the 2-D energy/area projection (the paper's Figure-10 axes) the
        # GA front should achieve most of the exhaustive front's hypervolume.
        config = NSGA2Config(population_size=60, generations=40, seed=13)
        result = _ExplorerCore(config=config).explore(4096)
        truth = exhaustive_pareto_front(4096)

        def projection(designs):
            return [(d.metrics.energy_per_mac * 1e15, d.metrics.area_f2_per_bit / 1e3)
                    for d in designs]

        reference = (50.0, 10.0)
        hv_truth = hypervolume_2d(projection(truth), reference)
        hv_found = hypervolume_2d(projection(result.pareto_set), reference)
        assert hv_found >= 0.85 * hv_truth

    def test_metric_ranges_and_table(self):
        result = _ExplorerCore(config=self.CONFIG).explore(4096)
        ranges = result.metric_ranges()
        assert ranges["snr_db"][0] <= ranges["snr_db"][1]
        table = result.as_table()
        assert table and table[0]["snr_db"] >= table[-1]["snr_db"]

    def test_explore_many(self):
        results = _ExplorerCore(config=self.CONFIG).explore_many([1024, 2048])
        assert set(results) == {1024, 2048}


class TestParetoFrontMask:
    def test_matches_pairwise_reference(self):
        rng = random.Random(11)
        points = [
            tuple(rng.uniform(0, 4) for _ in range(4)) for _ in range(300)
        ]
        # Inject exact duplicates: both copies must be retained, exactly
        # as the O(n^2) reference keeps them.
        points += points[:20]
        mask = pareto_front_mask(points)
        reference = set(pareto_reference.pareto_front(points))
        assert set(np.flatnonzero(mask).tolist()) == reference

    def test_degenerate_inputs(self):
        assert pareto_front_mask(np.empty((0, 4))).tolist() == []
        assert pareto_front_mask([(1.0, 2.0)]).tolist() == [True]
        with pytest.raises(OptimizationError):
            pareto_front_mask(np.zeros(3))


class TestExhaustiveBaseline:
    def test_front_is_subset_of_all(self):
        designs = evaluate_all(1024)
        front = exhaustive_pareto_front(1024)
        assert 0 < len(front) <= len(designs)

    def test_front_members_not_dominated(self):
        designs = evaluate_all(1024)
        front = exhaustive_pareto_front(1024)
        for member in front:
            assert not any(
                dominates(other.objectives, member.objectives) for other in designs)


class TestDistillation:
    def _designs(self):
        return exhaustive_pareto_front(4096)

    def test_distill_filters_by_snr(self):
        designs = self._designs()
        criteria = DistillationCriteria(min_snr_db=20.0)
        selected = distill(designs, criteria)
        assert all(d.metrics.snr_db >= 20.0 for d in selected)
        assert len(selected) < len(designs)

    def test_scenario_presets_are_progressively_restrictive(self):
        designs = self._designs()
        report = distill_report(designs, [
            DistillationCriteria.transformer(),
            DistillationCriteria.cnn(),
            DistillationCriteria.snn(),
        ])
        assert set(report) == {"transformer", "cnn", "snn"}
        assert all(count <= len(designs) for count in report.values())

    def test_no_criteria_accepts_everything(self):
        designs = self._designs()
        assert len(distill(designs, DistillationCriteria())) == len(designs)

    def test_max_adc_bits_bound(self):
        designs = self._designs()
        selected = distill(designs, DistillationCriteria(max_adc_bits=3))
        assert all(d.spec.adc_bits <= 3 for d in selected)
