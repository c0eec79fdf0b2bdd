"""Pure-Python Pareto loops: the oracles for the NumPy kernels.

These are the classic pairwise formulations the array kernels of
:mod:`repro.dse.pareto` replace (Deb et al., 2002).  The differential tests
compare the kernels against them output for output — the same front
lists in the same order, the same crowding floats and the same front
indices.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.dse.pareto import dominates


def pareto_front(points: Sequence[Sequence[float]]) -> List[int]:
    """Indices of the non-dominated points, duplicates retained."""
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


def non_dominated_sort(points: Sequence[Sequence[float]]) -> List[List[int]]:
    """Fast non-dominated sorting with per-point dominated lists."""
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
    """Crowding distance of each point within one front."""
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
