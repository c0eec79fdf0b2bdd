"""Pareto-dominance primitives (paper section 2.2).

All functions operate on plain sequences of objective vectors in a
*minimisation* context, matching the paper's Equation 1: ``u`` dominates
``v`` when it is no worse in every objective and strictly better in at
least one.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import OptimizationError


def dominates(u: Sequence[float], v: Sequence[float]) -> bool:
    """True if objective vector ``u`` Pareto-dominates ``v`` (minimisation)."""
    if len(u) != len(v):
        raise OptimizationError("objective vectors must have the same length")
    at_least_one_better = False
    for u_i, v_i in zip(u, v):
        if u_i > v_i:
            return False
        if u_i < v_i:
            at_least_one_better = True
    return at_least_one_better


def pareto_front(points: Sequence[Sequence[float]]) -> List[int]:
    """Indices of the non-dominated points in ``points``.

    Duplicated objective vectors are all retained (none dominates another).
    """
    indices: List[int] = []
    for i, candidate in enumerate(points):
        dominated = False
        for j, other in enumerate(points):
            if i != j and dominates(other, candidate):
                dominated = True
                break
        if not dominated:
            indices.append(i)
    return indices


def pareto_front_mask(points) -> np.ndarray:
    """Boolean mask of the non-dominated rows of an ``(N, M)`` array.

    Vectorized counterpart of :func:`pareto_front` for large sets (tens of
    thousands of points, where the pairwise loop is prohibitive).  Points
    are visited in lexicographic order — a dominator always sorts strictly
    before anything it dominates — and each is compared against the
    running non-dominated archive only, which transitivity makes
    sufficient.  Duplicated rows are all retained, matching
    :func:`pareto_front`.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise OptimizationError("points must be a 2-D objective array")
    n = pts.shape[0]
    keep = np.ones(n, dtype=bool)
    if n <= 1:
        return keep
    order = np.lexsort(pts.T[::-1])
    ranked = pts[order]
    archive = np.empty_like(ranked)
    archive[0] = ranked[0]
    archive_size = 1
    keep_ranked = np.ones(n, dtype=bool)
    for j in range(1, n):
        candidate = ranked[j]
        front = archive[:archive_size]
        no_worse = front <= candidate
        dominated = bool(np.any(
            np.all(no_worse, axis=1) & np.any(front < candidate, axis=1)
        ))
        if dominated:
            keep_ranked[j] = False
        else:
            archive[archive_size] = candidate
            archive_size += 1
    keep[order] = keep_ranked
    return keep


def non_dominated_sort(points: Sequence[Sequence[float]]) -> List[List[int]]:
    """Fast non-dominated sorting (Deb et al., NSGA-II).

    Returns fronts as lists of indices; front 0 is the Pareto front of the
    whole population, front 1 the Pareto front of the remainder, and so on.
    """
    n = len(points)
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts: List[List[int]] = [[]]

    for i in range(n):
        for j in range(i + 1, n):
            if dominates(points[i], points[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(points[j], points[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    for i in range(n):
        if domination_count[i] == 0:
            fronts[0].append(i)

    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    fronts.pop()  # the last front is always empty
    return fronts


def crowding_distance(points: Sequence[Sequence[float]]) -> List[float]:
    """Crowding distance of each point within one front (NSGA-II).

    Boundary points of every objective get infinite distance so they are
    always preferred, preserving the spread of the front.
    """
    n = len(points)
    if n == 0:
        return []
    if n <= 2:
        return [math.inf] * n
    num_objectives = len(points[0])
    distance = [0.0] * n
    for m in range(num_objectives):
        order = sorted(range(n), key=lambda i: points[i][m])
        low, high = points[order[0]][m], points[order[-1]][m]
        distance[order[0]] = math.inf
        distance[order[-1]] = math.inf
        span = high - low
        if span == 0:
            continue
        for position in range(1, n - 1):
            i = order[position]
            if math.isinf(distance[i]):
                continue
            previous_value = points[order[position - 1]][m]
            next_value = points[order[position + 1]][m]
            distance[i] += (next_value - previous_value) / span
    return distance


def hypervolume_2d(
    points: Sequence[Tuple[float, float]],
    reference: Tuple[float, float],
) -> float:
    """Hypervolume (area) dominated by a 2-D front w.r.t. a reference point.

    Used to compare frontier quality between the genetic explorer and the
    exhaustive baseline.  Points beyond the reference contribute nothing.
    """
    front = [points[i] for i in pareto_front(points)]
    front = [p for p in front if p[0] <= reference[0] and p[1] <= reference[1]]
    if not front:
        return 0.0
    front.sort(key=lambda p: p[0])
    area = 0.0
    previous_x = None
    best_y = reference[1]
    for x, y in front:
        if previous_x is None:
            previous_x = x
            best_y = y
            continue
        area += (x - previous_x) * (reference[1] - best_y)
        previous_x = x
        best_y = min(best_y, y)
    area += (reference[0] - previous_x) * (reference[1] - best_y)
    return area
