"""Tests of the unified evaluation engine (cache, backends, determinism)."""

import os

import pytest

from repro.arch.batch import SpecBatch
from repro.arch.spec import ACIMDesignSpec, enumerate_design_space
from repro.dse.exhaustive import evaluate_all
from repro.dse.explorer import _ExplorerCore
from repro.dse.nsga2 import NSGA2Config
from repro.engine import (
    BACKENDS,
    EvaluationCache,
    EvaluationEngine,
    parameters_cache_key,
    spec_cache_key,
    validate_backend,
)
from repro.errors import (
    HTTP_STATUS_BY_CODE,
    EngineError,
    OptimizationError,
    SpecificationError,
    WorkerCrashError,
)
from repro.model.estimator import ACIMEstimator, METRIC_FIELDS, ModelParameters


class TestEvaluationCache:
    def test_miss_then_hit(self):
        cache = EvaluationCache(max_size=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_bounded_lru_eviction(self):
        cache = EvaluationCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh recency: "b" is now LRU
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_invalid_size_rejected(self):
        with pytest.raises(EngineError):
            EvaluationCache(max_size=0)

    def test_parameter_keys_distinguish_bundles(self):
        base = ModelParameters()
        calibrated = ModelParameters.calibrated()
        assert parameters_cache_key(base) != parameters_cache_key(calibrated)
        spec = ACIMDesignSpec(64, 16, 2, 4)
        assert spec_cache_key(spec, base) != spec_cache_key(spec, calibrated)


class TestEvaluationEngine:
    def test_unknown_backend_rejected(self):
        with pytest.raises(EngineError):
            EvaluationEngine("gpu")
        with pytest.raises(EngineError):
            validate_backend("cluster")

    def test_map_preserves_order(self):
        with EvaluationEngine("serial") as engine:
            assert engine.map(_square, list(range(20))) == [
                i * i for i in range(20)
            ]

    def test_map_preserves_order_process(self):
        with EvaluationEngine("process", workers=2) as engine:
            assert engine.map(_square, list(range(20))) == [
                i * i for i in range(20)
            ]

    def test_evaluate_specs_matches_serial_evaluate(self):
        estimator = ACIMEstimator()
        specs = list(enumerate_design_space(1024))
        expected = [estimator.evaluate(spec) for spec in specs]
        for backend in BACKENDS:
            engine = EvaluationEngine(
                backend, workers=2, cache=EvaluationCache()
            )
            with engine:
                got = engine.evaluate_specs(estimator, specs)
            # The scalar fast path and the vectorized batch path agree
            # within the documented 1e-12 parity bound (transcendental
            # ufuncs may differ from ``math`` by a few ULP).
            for got_metrics, expected_metrics in zip(got, expected):
                _assert_metrics_close(got_metrics, expected_metrics, backend)

    def test_cache_hits_on_repeat_batches(self):
        engine = EvaluationEngine("serial", cache=EvaluationCache())
        estimator = ACIMEstimator()
        specs = list(enumerate_design_space(1024))
        engine.evaluate_specs(estimator, specs)
        first_evals = engine.stats.evaluations
        engine.evaluate_specs(estimator, specs)
        assert engine.stats.evaluations == first_evals
        assert engine.stats.cache_hits == len(specs)

    def test_duplicate_specs_evaluated_once(self):
        engine = EvaluationEngine("serial", cache=EvaluationCache())
        estimator = ACIMEstimator()
        spec = ACIMDesignSpec(64, 16, 2, 4)
        results = engine.evaluate_specs(estimator, [spec, spec, spec])
        assert results[0] == results[1] == results[2]
        assert engine.stats.evaluations == 1

    def test_stats_as_dict(self):
        engine = EvaluationEngine("serial", cache=EvaluationCache())
        engine.evaluate_specs(ACIMEstimator(), [ACIMDesignSpec(64, 16, 2, 4)])
        stats = engine.stats.as_dict()
        assert stats["backend"] == "serial"
        assert stats["evaluations"] == 1
        assert stats["busy_seconds"] > 0


class TestInlineEvaluation:
    """Spec evaluation runs in the calling process on every backend."""

    def test_backends_are_serial_and_process(self):
        assert BACKENDS == ("serial", "process")
        with pytest.raises(EngineError):
            EvaluationEngine("thread")

    def test_empty_spec_list(self):
        with _fresh_process_engine() as engine:
            assert engine.evaluate_specs(ACIMEstimator(), []) == []
            assert engine._executor is None

    def test_single_spec_batch(self):
        estimator = ACIMEstimator()
        spec = ACIMDesignSpec(64, 16, 2, 4)
        with _fresh_process_engine() as engine:
            (got,) = engine.evaluate_specs(estimator, [spec])
        _assert_metrics_close(got, estimator.evaluate(spec))

    def test_process_backend_evaluates_large_batch_inline(self):
        estimator = ACIMEstimator()
        batch = SpecBatch.enumerate(4096)
        with _fresh_process_engine() as engine:
            got = engine.evaluate_specs(estimator, batch)
            # No pool is ever spawned for analytic work.
            assert engine._executor is None
        expected = estimator.evaluate_batch(batch)
        assert [m.spec for m in got] == [m.spec for m in expected]
        for g, e in zip(got, expected):
            for field in METRIC_FIELDS:
                assert getattr(g, field) == getattr(e, field)

    def test_infeasible_spec_raises_in_parent(self):
        batch = SpecBatch.concat([
            SpecBatch.enumerate(1024),
            SpecBatch.from_spec(ACIMDesignSpec(4, 256, 8, 1)),  # L > H
        ])
        with _fresh_process_engine() as engine:
            with pytest.raises(SpecificationError):
                engine.evaluate_specs(ACIMEstimator(), batch)

    def test_stats_drop_dispatch_and_serialize_seconds(self):
        for backend in BACKENDS:
            with EvaluationEngine(
                backend, workers=2, cache=EvaluationCache()
            ) as engine:
                engine.evaluate_specs(
                    ACIMEstimator(), SpecBatch.enumerate(1024)
                )
                stats = engine.stats.as_dict()
            assert stats["worker_seconds"] > 0, backend
            assert "dispatch_seconds" not in stats
            assert "serialize_seconds" not in stats
            assert engine.metrics.value("engine.dispatch.seconds", None) is None
            assert engine.metrics.value("engine.serialize.seconds", None) is None

    def test_worker_seconds_are_deltas_in_since(self):
        with EvaluationEngine("serial", cache=EvaluationCache()) as engine:
            engine.evaluate_specs(ACIMEstimator(), SpecBatch.enumerate(1024))
            baseline = engine.stats.snapshot()
            engine.cache.clear()
            engine.evaluate_specs(ACIMEstimator(), SpecBatch.enumerate(1024))
            delta = engine.stats.since(baseline)
        assert 0 < delta.worker_seconds < engine.stats.worker_seconds

    def test_engine_stats_table_shows_worker_seconds(self):
        from repro.flow.report import engine_stats_table

        with EvaluationEngine("serial", cache=EvaluationCache()) as engine:
            engine.evaluate_specs(
                ACIMEstimator(), [ACIMDesignSpec(64, 16, 2, 4)]
            )
            (row,) = engine_stats_table(engine.stats.as_dict())
        assert {"busy_s", "worker_s"} <= set(row)
        assert not {"dispatch_s", "serialize_s"} & set(row)


class TestEngineMap:
    """``map`` is the engine's one parallel path (a process pool)."""

    def test_generic_map_chunks_are_clamped(self):
        engine = EvaluationEngine("process", workers=8)
        try:
            # An even 4 * workers split of 20 items would be 1-item
            # chunks; the floor keeps them larger without idling workers.
            assert 1 < engine._chunk(20) <= 20 // 8
            assert engine._chunk(20) <= 20
            assert engine._chunk(3200) == 100  # the even split
            assert engine._chunk(1) == 1
        finally:
            engine.close()

    def test_per_call_chunk_size_preserves_order(self):
        with EvaluationEngine("process", workers=2) as engine:
            assert engine.map(_square, list(range(9)), chunk_size=4) == [
                i * i for i in range(9)
            ]

    def test_infeasible_spec_raises_in_parent_without_hanging(self):
        # A worker-side SpecificationError is an ordinary exception: it is
        # shipped back and raised in the parent, and the pool survives.
        specs = [(64, 16, 2, 4), (4, 256, 8, 1), (128, 64, 4, 3)]
        with EvaluationEngine("process", workers=2) as engine:
            with pytest.raises(SpecificationError):
                engine.map(_evaluate_tuple, specs, chunk_size=1)
            executor = engine._executor
            assert engine.map(_square, [2, 3]) == [4, 9]
            assert engine._executor is executor

    def test_worker_crash_raises_typed_error(self):
        with EvaluationEngine("process", workers=2) as engine:
            with pytest.raises(WorkerCrashError) as excinfo:
                engine.map(_crash_on_three, list(range(8)), chunk_size=1)
            error = excinfo.value
            assert error.code == "worker-crash"
            assert isinstance(error, EngineError)
            assert error.as_dict()["code"] == "worker-crash"
            assert HTTP_STATUS_BY_CODE[error.code] == 500
            assert engine._executor is None  # the broken pool is dropped

    def test_next_map_after_a_crash_rebuilds_the_pool(self):
        with EvaluationEngine("process", workers=2) as engine:
            with pytest.raises(WorkerCrashError):
                engine.map(_crash_on_three, list(range(8)), chunk_size=1)
            assert engine.map(_square, list(range(20))) == [
                i * i for i in range(20)
            ]

    def test_close_releases_the_pool_workers(self):
        engine = EvaluationEngine("process", workers=2)
        engine.map(_square, list(range(8)))
        pids = list(engine._executor._processes)
        assert pids
        engine.close()
        engine.close()  # idempotent
        assert engine._executor is None
        assert not any(_pid_running(pid) for pid in pids)


class TestEstimatorBatch:
    def test_batch_equals_individual_evaluations(self):
        estimator = ACIMEstimator(ModelParameters.calibrated())
        specs = list(enumerate_design_space(4096))
        batch = estimator.evaluate_batch(specs)
        for spec, metrics in zip(specs, batch):
            _assert_metrics_close(metrics, estimator.evaluate(spec))

    def test_batch_with_full_snr_model(self):
        params = ModelParameters(use_simplified_snr=False)
        estimator = ACIMEstimator(params)
        specs = list(enumerate_design_space(1024))
        batch = estimator.evaluate_batch(specs)
        for spec, metrics in zip(specs, batch):
            _assert_metrics_close(metrics, estimator.evaluate(spec))


class TestExhaustiveThroughEngine:
    def test_evaluate_all_identical_across_backends(self):
        serial = evaluate_all(4096)
        with EvaluationEngine(
            "process", workers=2, cache=EvaluationCache()
        ) as engine:
            parallel = evaluate_all(4096, engine=engine)
        assert [d.spec for d in parallel] == [d.spec for d in serial]
        assert [d.objectives for d in parallel] == [
            d.objectives for d in serial
        ]


class TestSeedDeterminismAcrossBackends:
    """The ISSUE's regression: same seed => identical Pareto set, any backend."""

    def test_serial_and_process_backends_agree(self):
        pareto_sets = {}
        for backend in ("serial", "process"):
            config = NSGA2Config(
                population_size=28, generations=10, seed=11,
                backend=backend, workers=2,
            )
            # A private cache per run so the comparison is between actual
            # computations, not a warm shared cache.
            engine = EvaluationEngine(
                backend, workers=2, cache=EvaluationCache()
            )
            with engine:
                explorer = _ExplorerCore(config=config, engine=engine)
                result = explorer.explore(4096)
            pareto_sets[backend] = {
                (design.spec.as_tuple(), design.objectives)
                for design in result.pareto_set
            }
        assert pareto_sets["serial"] == pareto_sets["process"]

    def test_vectorized_and_reference_kernels_agree_bit_identically(self):
        """The ISSUE 3 regression: the array-kernel refactor leaves a
        fixed-seed NSGA-II Pareto front bit-identical to the retained
        scalar-reference path (the pre-refactor implementation)."""
        pareto_sets = {}
        for kernel in ("reference", "vectorized"):
            config = NSGA2Config(population_size=28, generations=10, seed=11)
            estimator = ACIMEstimator(kernel=kernel)
            # A private cache per run so the two kernels cannot serve each
            # other's evaluations.
            engine = EvaluationEngine("serial", cache=EvaluationCache())
            with engine:
                explorer = _ExplorerCore(
                    estimator=estimator, config=config, engine=engine
                )
                result = explorer.explore(4096)
            pareto_sets[kernel] = [
                (design.spec.as_tuple(), design.objectives)
                for design in result.pareto_set
            ]
        assert pareto_sets["vectorized"] == pareto_sets["reference"]

    def test_engine_stats_surface_in_result(self):
        config = NSGA2Config(population_size=16, generations=4, seed=2)
        result = _ExplorerCore(config=config).explore(1024)
        assert result.engine_stats["backend"] == "serial"
        assert result.engine_stats["tasks"] > 0

    def test_engine_stats_are_per_run_deltas(self):
        config = NSGA2Config(population_size=16, generations=4, seed=2)
        with EvaluationEngine("serial", cache=EvaluationCache()) as engine:
            explorer = _ExplorerCore(config=config, engine=engine)
            first = explorer.explore(1024)
            second = explorer.explore(1024)
        # Identical seeded runs submit the identical number of tasks; a
        # cumulative (non-delta) snapshot would double on the second run.
        assert second.engine_stats["tasks"] == first.engine_stats["tasks"]
        # The second run is fully served by the engine's warm cache.
        assert second.engine_stats["evaluations"] == 0
        assert second.engine_stats["cache_hits"] > 0

    def test_invalid_backend_in_config(self):
        with pytest.raises(EngineError):
            NSGA2Config(backend="gpu")
        with pytest.raises(OptimizationError):
            NSGA2Config(workers=0)


def _square(value: int) -> int:
    return value * value


def _crash_on_three(value: int) -> int:
    """Kill the worker process outright on item 3 (fault injection)."""
    if value == 3:
        os._exit(1)
    return value * value


def _evaluate_tuple(spec_tuple):
    return ACIMEstimator().evaluate(ACIMDesignSpec(*spec_tuple))


def _fresh_process_engine(workers: int = 2) -> EvaluationEngine:
    """A process engine with a private cache (no shared-cache hits)."""
    return EvaluationEngine("process", workers=workers, cache=EvaluationCache())


def _pid_running(pid: int) -> bool:
    """True while ``pid`` is a live (non-zombie) process."""
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False


def _assert_metrics_close(got, expected, context=""):
    """Metrics records agree on the spec and within 1e-12 on every metric."""
    from repro.model.estimator import METRIC_FIELDS

    assert got.spec == expected.spec, context
    for field in METRIC_FIELDS:
        assert getattr(got, field) == pytest.approx(
            getattr(expected, field), rel=1e-12, abs=0.0
        ), (field, context)
