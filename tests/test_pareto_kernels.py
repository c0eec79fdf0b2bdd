"""Differential and resource tests of the NumPy Pareto kernels.

The kernels in :mod:`repro.dse.pareto` must reproduce the classic pairwise
loops (kept in ``tests/pareto_reference.py``) exactly: the same front
lists in the same order, the same crowding floats and the same front
indices — NSGA-II's fixed-seed evolution depends on all three.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

import pareto_reference as reference
from repro.dse import pareto
from repro.errors import OptimizationError

#: Integer coordinate ranges: 3 and 6 make ties and duplicates common.
VALUE_RANGES = (3, 6, 50, 10**6)


def _random_sets(count, seed):
    """Tie-heavy random objective sets: N 0-260, M 1-4, integer values."""
    rng = random.Random(seed)
    for case in range(count):
        n = rng.randint(0, 260) if case % 4 == 0 else rng.randint(0, 60)
        m = rng.randint(1, 4)
        span = VALUE_RANGES[case % len(VALUE_RANGES)]
        yield [tuple(rng.randrange(span) for _ in range(m)) for _ in range(n)]


def _assert_matches_reference(points):
    fronts = reference.non_dominated_sort(points)
    assert pareto.non_dominated_sort(points) == fronts
    for front in fronts:
        members = [points[i] for i in front]
        assert pareto.crowding_distance(members) == reference.crowding_distance(members)
    assert pareto.crowding_distance(points) == reference.crowding_distance(points)
    assert pareto.pareto_front(points) == reference.pareto_front(points)


class TestDifferential:
    def test_matches_reference_on_random_tie_heavy_sets(self):
        for points in _random_sets(320, seed=2002):
            _assert_matches_reference(points)

    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_matches_reference_across_block_boundaries(self, monkeypatch, block_rows):
        monkeypatch.setattr(pareto, "_BLOCK_ROWS", block_rows)
        for points in _random_sets(60, seed=1975 + block_rows):
            _assert_matches_reference(points)

    def test_matches_reference_on_real_valued_sets(self):
        rng = random.Random(7)
        for _ in range(40):
            m = rng.randint(2, 4)
            points = [
                tuple(rng.uniform(-1.0, 1.0) for _ in range(m))
                for _ in range(rng.randint(3, 120))
            ]
            _assert_matches_reference(points)

    def test_accepts_arrays_and_sequences_alike(self):
        rng = np.random.default_rng(3)
        array = rng.integers(0, 6, size=(90, 3)).astype(float)
        rows = [tuple(row) for row in array.tolist()]
        assert pareto.non_dominated_sort(array) == pareto.non_dominated_sort(rows)
        assert pareto.crowding_distance(array) == pareto.crowding_distance(rows)
        assert pareto.pareto_front(array) == pareto.pareto_front(rows)

    def test_degenerate_inputs(self):
        for kernel in (pareto.non_dominated_sort, pareto.crowding_distance,
                       pareto.pareto_front):
            assert kernel([]) == []
            assert kernel(np.empty((0, 4))) == []
        assert pareto.non_dominated_sort([(1, 1)]) == [[0]]
        assert pareto.crowding_distance([(1, 1), (2, 0)]) == [math.inf, math.inf]
        # Zero objectives: nothing dominates anything.
        assert pareto.non_dominated_sort([(), (), ()]) == [[0, 1, 2]]
        assert pareto.pareto_front([(), ()]) == [0, 1]


class TestInputValidation:
    @pytest.mark.parametrize("kernel", [
        pareto.non_dominated_sort, pareto.crowding_distance,
        pareto.pareto_front, pareto.pareto_front_mask,
    ])
    @pytest.mark.parametrize("points", [
        [(1, 2), (1, 2, 3), (0, 1)],
        [1.0, 2.0, 3.0],
        np.zeros((2, 2, 2)),
        [("a", "b"), ("c", "d"), ("e", "f")],
    ])
    def test_malformed_input_raises_optimization_error(self, kernel, points):
        with pytest.raises(OptimizationError):
            kernel(points)


class TestBoundedMemory:
    def test_ranking_8000_points_stays_under_40_mb(self):
        # A dense 8,000 x 8,000 boolean dominance matrix alone is 64 MB; the
        # blocked kernels never hold more than a few 1,024-row blocks.
        points = np.random.default_rng(0).integers(0, 50, size=(8000, 4)).astype(float)
        tracemalloc.start()
        try:
            fronts = pareto.non_dominated_sort(points)
            front = pareto.pareto_front(points)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(i for f in fronts for i in f) == list(range(8000))
        assert front == sorted(fronts[0])
        assert peak <= 40 * 2**20
