"""Toy-size self-test of the benchmark harness (seconds, not minutes).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import random
import sys
import types

import fixtures

sys.path.insert(0, str(fixtures.SRC))

import run  # noqa: E402
import serve_load  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import fingerprint  # noqa: E402


def _toy_module():
    module = types.ModuleType("toy_layers")

    def leaf():
        sum(range(20000))

    def outer():  # looks leaf up on the module, as program code does
        module.leaf()
        module.leaf()

    module.leaf, module.outer = leaf, outer
    sys.modules["toy_layers"] = module
    return module


def test_self_time_excludes_children_and_absent_hooks_do_not_raise():
    module = _toy_module()
    tracer = Tracer(hooks=(
        ("toy_layers", "outer", "toy.outer", None),
        ("toy_layers", "leaf", "toy.leaf", None),
        ("toy_layers", "gone", "toy.gone", None),
        ("no_such_module_anywhere", "f", "toy.gone", None),
    )).install()
    try:
        module.outer()
    finally:
        tracer.uninstall()
    rollup = tracer.rollup()
    assert rollup["toy.leaf"]["calls"] == 2 and rollup["toy.outer"]["calls"] == 1
    outer, leaf = rollup["toy.outer"], rollup["toy.leaf"]
    assert abs(outer["incl_s"] - outer["self_s"] - leaf["incl_s"]) < 1e-9
    assert len({span.request for span in tracer.spans}) == 1
    assert tracer.absent == ["toy_layers.gone", "no_such_module_anywhere.f"]
    module.outer()  # uninstalled: no new spans
    assert len(tracer.spans) == 3


def test_program_hooks_trace_a_tiny_explore():
    from repro.api import ExploreRequest, Session, SessionConfig

    tracer = Tracer().install()
    try:
        with Session(SessionConfig()) as session:
            session.submit(ExploreRequest(array_size=1024, population=8, generations=2))
    finally:
        tracer.uninstall()
    rollup = tracer.rollup()
    assert rollup["api.submit"]["calls"] == 1
    assert rollup["dse.step"]["calls"] == 2
    assert rollup["dse.rank"]["self_s"] > 0
    metrics = run.layer_metrics(rollup, tracer.absent, {}, 1, 0.0, 0.0)
    assert {name for name, _ in run.LAYER_METRICS} == set(metrics)


def test_fingerprint_ignores_only_the_last_bits_of_a_double():
    assert fingerprint({"x": 0.1 + 0.2}) == fingerprint({"x": 0.3})
    assert fingerprint({"x": 0.3}) != fingerprint({"x": 0.3000001})
    assert fingerprint([1, (2, 3)]) == fingerprint([1, [2, 3]])


def test_nearest_rank_percentile():
    values = list(range(1, 1001))
    assert run.percentile(values, 0.5) == 500
    assert run.percentile(values, 0.99) == 990
    assert run.percentile([7.0], 0.99) == 7.0


def test_round_time_sums_each_phase_fastest_time_per_group():
    fastest = {("a", "x"): 0.25, ("a", "rest"): 0.5, ("b", "request"): 2.0}
    assert run._round_times(fastest) == {"a": 0.75, "b": 2.0}


def test_serve_mix_is_seeded_fixed_in_composition_and_feasible():
    first = serve_load.round_requests(3, 1)
    assert first == serve_load.round_requests(3, 1)
    assert first != serve_load.round_requests(4, 1)
    assert len(first) == sum(count for _, count in serve_load.ROUND_MIX)
    pareto = [r for r in first if r["kind"] == "query" and "pareto_only" not in r]
    assert len(pareto) == dict(serve_load.ROUND_MIX)["pareto"]
    assert len(pareto) / len(first) < 0.005  # the slowest class stays out of the p99
    rng = random.Random(0)
    for _ in range(200):
        request = serve_load.serve_request("estimate", rng)
        ratio = request["height"] // request["local_array_size"]
        assert ratio >= 2 ** request["adc_bits"]


def test_page_check_catches_bad_pages():
    ranks = {"tops": True}
    request = {"limit": 2, "offset": 0, "rank_by": "tops"}
    good = {"count": 2, "total": 5, "designs": [{"tops": 3.0}, {"tops": 1.0}]}
    assert serve_load._page_problem(request, good, ranks) == ""
    unordered = dict(good, designs=[{"tops": 1.0}, {"tops": 3.0}])
    assert "ordered" in serve_load._page_problem(request, unordered, ranks)
    short = dict(good, count=1, designs=[{"tops": 3.0}])
    assert serve_load._page_problem(request, short, ranks)
