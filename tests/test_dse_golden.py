"""Fixed-seed contracts of the NSGA-II explorer.

The golden digests pin the exact output of the explore request and of the
optimiser state (ranks, crowding floats, population order and the RNG
state), so any change to ranking order or tie-breaking fails here rather
than passing a same-code-twice determinism check.  The quality test
reports how much of the exact (exhaustive) Pareto front NSGA-II recovers.
"""

import hashlib
import json

import pytest

from repro.api import ExploreRequest, Session
from repro.dse.nsga2 import NSGA2, NSGA2Config
from repro.dse.problem import ACIMDesignProblem

#: seed -> (explore payload digest, final NSGA2.state() digest) for the
#: 65,536-bit, population-128, 10-generation request.
GOLDEN = {
    1: ("fddcefa89250e9c0", "ecb71c7509449e45"),
    2: ("fb614118d68f78e3", "a6557caf0a0b2dda"),
}


def _digest(document) -> str:
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_explore_payload_digest(seed):
    with Session() as session:
        result = session.submit(ExploreRequest(
            array_size=65536, population=128, generations=10, seed=seed,
        ))
    assert _digest(result.payload) == GOLDEN[seed][0]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_optimizer_state_digest(seed):
    optimizer = NSGA2(ACIMDesignProblem(65536), NSGA2Config(128, 10, seed=seed))
    optimizer.run()
    assert _digest(optimizer.state()) == GOLDEN[seed][1]


@pytest.mark.parametrize("request_fields", [
    {"array_size": 65536, "population": 128, "generations": 10, "seed": 1},
    {"array_size": 65536, "population": 128, "generations": 10, "seed": 2},
    {},  # the ExploreRequest defaults (16,384 bits, population 80 x 40)
], ids=["perfbench-seed-1", "perfbench-seed-2", "defaults"])
def test_front_precision_and_recall_against_exhaustive(request_fields, record_property):
    # A report, not a tuning target: with four objectives nearly every
    # feasible point is non-dominated, so a bounded population holds only
    # part of the exact front (recall), but what it holds must be on it
    # (precision).  Floors sit at the values measured when this was added:
    # seed 1 keeps 97 of its 98 front points on the exact front (0.9898).
    with Session() as session:
        found_result = session.submit(ExploreRequest(**request_fields))
        exact_result = session.submit(ExploreRequest(
            method="exhaustive",
            array_size=found_result.payload["array_size"],
        ))
    found = {d.spec.as_tuple() for d in found_result.artifacts["pareto_set"]}
    exact = {d.spec.as_tuple() for d in exact_result.artifacts["pareto_set"]}
    precision = len(found & exact) / len(found)
    recall = len(found & exact) / len(exact)
    record_property("precision", round(precision, 3))
    record_property("recall", round(recall, 3))
    record_property("exact_front_size", len(exact))
    assert precision >= 0.985
    assert recall >= 0.20
