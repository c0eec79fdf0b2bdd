"""Pareto-dominance primitives (paper section 2.2).

All functions take objective vectors — a sequence of equal-length
vectors or an ``(N, M)`` array — in a *minimisation* context, matching the
paper's Equation 1: ``u`` dominates ``v`` when it is no worse in every
objective and strictly better in at least one.  Objectives must not be
NaN.  The set-level kernels are NumPy array code whose outputs (front
lists and their order, crowding floats) are identical to the classic
pairwise loops; ragged or non-2-D input raises
:class:`~repro.errors.OptimizationError`.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import OptimizationError

#: Largest number of dominator rows compared at once: the kernels' extra
#: memory is a few ``(_BLOCK_ROWS, N)`` boolean buffers.
_BLOCK_ROWS = 1024


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


def pareto_front(points) -> List[int]:
    """Ascending indices of the non-dominated points in ``points``.

    Duplicated objective vectors are all retained (none dominates another).
    """
    return np.flatnonzero(pareto_front_mask(points)).tolist()


def pareto_front_mask(points) -> np.ndarray:
    """Boolean mask of the non-dominated rows of an ``(N, M)`` array.

    Points are visited in lexicographic order — a dominator always sorts
    strictly before anything it dominates — in blocks of at most
    :data:`_BLOCK_ROWS` rows.  Each block's rows that are still undominated
    are compared against every undominated row from the block onwards,
    which transitivity makes sufficient: a dominated point is always
    dominated by some non-dominated one.  The cost is O(N·F·M) for a front
    of F points, and duplicated rows are all retained.
    """
    columns, n = _objective_columns(points)
    keep = np.ones(n, dtype=bool)
    if n <= 1 or not len(columns):
        return keep
    order = np.lexsort(columns[::-1])
    ranked = columns[:, order]
    alive = np.ones(n, dtype=bool)
    for start in range(0, n, _BLOCK_ROWS):
        rows = start + np.flatnonzero(alive[start:start + _BLOCK_ROWS])
        targets = start + np.flatnonzero(alive[start:])
        dominated = _dominance(ranked, rows, targets).any(axis=0)
        alive[targets[dominated]] = False
    keep[order] = alive
    return keep


def non_dominated_sort(points) -> List[List[int]]:
    """Fast non-dominated sorting (Deb et al., NSGA-II).

    Returns fronts as lists of indices; front 0 is the Pareto front of the
    whole population, front 1 the Pareto front of the remainder, and so on.

    Dominance counts are built in blocks of at most :data:`_BLOCK_ROWS`
    rows, so extra memory is O(_BLOCK_ROWS·N) and no N×N matrix is kept.
    Each front is then peeled by recomputing only its own rows against the
    unranked points.  The order within a front is the classic algorithm's:
    a point joins the next front when its last dominator in the current
    front is processed, and points released by the same dominator follow
    in ascending index — hence one ``lexsort`` on (position of the last
    current-front dominator, index).
    """
    columns, n = _objective_columns(points)
    if n == 0:
        return []
    everyone = np.arange(n)
    count = np.zeros(n, dtype=np.int64)
    for start in range(0, n, _BLOCK_ROWS):
        rows = everyone[start:start + _BLOCK_ROWS]
        count += np.count_nonzero(_dominance(columns, rows, everyone), axis=0)
    fronts: List[List[int]] = []
    unranked = np.ones(n, dtype=bool)
    front = np.flatnonzero(count == 0)
    while front.size:
        fronts.append(front.tolist())
        unranked[front] = False
        rest = np.flatnonzero(unranked)
        if not rest.size:
            break
        last_dominator = np.zeros(rest.size, dtype=np.int64)
        for start in range(0, front.size, _BLOCK_ROWS):
            dom = _dominance(columns, front[start:start + _BLOCK_ROWS], rest)
            count[rest] -= np.count_nonzero(dom, axis=0)
            last_in_block = start + len(dom) - 1 - np.argmax(dom[::-1], axis=0)
            np.copyto(last_dominator, last_in_block, where=dom.any(axis=0))
        released = count[rest] == 0
        front = rest[released]
        front = front[np.lexsort((front, last_dominator[released]))]
    return fronts


def crowding_distance(points) -> List[float]:
    """Crowding distance of each point within one front (NSGA-II).

    Boundary points of every objective get infinite distance so they are
    always preferred, preserving the spread of the front.  Objectives are
    visited in order and each interior point gets one
    ``(next - previous) / span`` term per objective while its distance is
    still finite.
    """
    columns, n = _objective_columns(points)
    if n <= 2:
        return [math.inf] * n
    distance = np.zeros(n)
    for values in columns:
        order = np.argsort(values, kind="stable")
        distance[order[0]] = distance[order[-1]] = math.inf
        ranked = values[order]
        span = ranked[-1] - ranked[0]
        if span == 0:
            continue
        interior = order[1:-1]
        gaps = (ranked[2:] - ranked[:-2]) / span
        finite = ~np.isinf(distance[interior])
        distance[interior[finite]] += gaps[finite]
    return distance.tolist()


def objective_array(points) -> np.ndarray:
    """``points`` as a validated ``(N, M)`` float array.

    Raises :class:`~repro.errors.OptimizationError` on ragged, non-numeric
    or non-2-D input; an empty sequence becomes a ``(0, 0)`` array.
    """
    try:
        array = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as error:
        raise OptimizationError(
            f"objective vectors must form an (N, M) array: {error}"
        ) from None
    if array.ndim == 1 and array.size == 0:
        return array.reshape(0, 0)
    if array.ndim != 2:
        raise OptimizationError("points must be a 2-D objective array")
    return array


def _objective_columns(points) -> Tuple[np.ndarray, int]:
    """``points`` as contiguous ``(M, N)`` objective columns, and N."""
    array = objective_array(points)
    return np.ascontiguousarray(array.T), array.shape[0]


def _dominance(columns: np.ndarray, rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``dom[a, b]``: point ``rows[a]`` Pareto-dominates point ``targets[b]``.

    Built one objective at a time into ``(len(rows), len(targets))``
    boolean buffers; broadcasting all objectives at once (an N×N×M
    temporary) is several times slower.
    """
    shape = (rows.size, targets.size)
    no_worse = np.ones(shape, dtype=bool)
    better = np.zeros(shape, dtype=bool)
    scratch = np.empty(shape, dtype=bool)
    for values in columns:
        mine = values[rows][:, None]
        theirs = values[targets]
        no_worse &= np.less_equal(mine, theirs, out=scratch)
        better |= np.less(mine, theirs, out=scratch)
    no_worse &= better
    return no_worse


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
