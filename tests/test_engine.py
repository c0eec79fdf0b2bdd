"""Tests of the unified evaluation engine (cache, inline evaluation,
determinism)."""

import pytest

from repro.arch.batch import SpecBatch
from repro.arch.spec import ACIMDesignSpec, enumerate_design_space
from repro.dse.exhaustive import evaluate_all
from repro.dse.explorer import _ExplorerCore
from repro.dse.nsga2 import NSGA2Config
from repro.engine import (
    EngineStats,
    EvaluationCache,
    EvaluationEngine,
    parameters_cache_key,
    spec_cache_key,
)
from repro.errors import EngineError, SpecificationError
from repro.model.estimator import ACIMEstimator, METRIC_FIELDS, ModelParameters
from repro.store.result_store import key_digest, params_digest_of


class TestEvaluationCache:
    def test_miss_then_hit(self):
        cache = EvaluationCache(max_size=4)
        assert cache.get("a") is None
        assert cache.get("a", "default") == "default"
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache and len(cache) == 1

    def test_bounded_lru_eviction(self):
        cache = EvaluationCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh recency: "b" is now LRU
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_invalid_size_rejected(self):
        with pytest.raises(EngineError):
            EvaluationCache(max_size=0)

    def test_parameter_keys_distinguish_bundles(self):
        base = ModelParameters()
        calibrated = ModelParameters.calibrated()
        assert parameters_cache_key(base) != parameters_cache_key(calibrated)
        spec = ACIMDesignSpec(64, 16, 2, 4)
        assert spec_cache_key(spec, base) != spec_cache_key(spec, calibrated)

    def test_estimator_keys_its_bundle_once_with_stable_digests(self):
        # Store rows are addressed by the SHA-256 of the full key, so the
        # key an estimator computes at construction must keep the digests
        # existing stores were written with.
        estimator = ACIMEstimator()
        assert estimator.parameters_key == parameters_cache_key(
            ModelParameters()
        )
        key = spec_cache_key(
            ACIMDesignSpec(128, 128, 8, 3),
            params_key=estimator.parameters_key,
        )
        assert key_digest(key) == (
            "b7802ef6b1282f3840823a680c7385cb011cc5bd8dd072671c8dd43a690b7a19"
        )
        assert params_digest_of(estimator.parameters_key) == (
            "bf601a63ed3013595a412786a3397a9a0592c95c39c58777515ed79e119efd9f"
        )


class TestEvaluationEngine:
    def test_unknown_backend_rejected(self):
        # Backends were removed in 1.7.0; the arguments are keyword-only,
        # so a backend name can no longer bind silently as the cache.
        with pytest.raises(TypeError):
            EvaluationEngine("gpu")
        with pytest.raises(TypeError):
            EvaluationEngine(backend="serial")
        with pytest.raises(TypeError):
            EvaluationEngine(workers=2)

    def test_evaluate_specs_matches_serial_evaluate(self):
        estimator = ACIMEstimator()
        specs = list(enumerate_design_space(1024))
        expected = [estimator.evaluate(spec) for spec in specs]
        engine = EvaluationEngine(cache=EvaluationCache())
        got = engine.evaluate_specs(estimator, specs)
        # The scalar fast path and the vectorized batch path agree
        # within the documented 1e-12 parity bound (transcendental
        # ufuncs may differ from ``math`` by a few ULP).
        for got_metrics, expected_metrics in zip(got, expected):
            _assert_metrics_close(got_metrics, expected_metrics)

    def test_cache_hits_on_repeat_batches(self):
        engine = EvaluationEngine(cache=EvaluationCache())
        estimator = ACIMEstimator()
        specs = list(enumerate_design_space(1024))
        engine.evaluate_specs(estimator, specs)
        first_evals = engine.stats.evaluations
        engine.evaluate_specs(estimator, specs)
        assert engine.stats.evaluations == first_evals
        assert engine.stats.cache_hits == len(specs)

    def test_duplicate_specs_evaluated_once(self):
        engine = EvaluationEngine(cache=EvaluationCache())
        estimator = ACIMEstimator()
        spec = ACIMDesignSpec(64, 16, 2, 4)
        results = engine.evaluate_specs(estimator, [spec, spec, spec])
        assert results[0] == results[1] == results[2]
        assert engine.stats.evaluations == 1

    def test_stats_as_dict(self):
        engine = EvaluationEngine(cache=EvaluationCache())
        engine.evaluate_specs(ACIMEstimator(), [ACIMDesignSpec(64, 16, 2, 4)])
        stats = engine.stats.as_dict()
        # Removed in 1.7.0 together with the pool: gone, not constants.
        assert not {"backend", "workers"} & set(stats)
        assert stats["evaluations"] == 1
        assert stats["busy_seconds"] > 0


class TestInlineEvaluation:
    """Spec evaluation runs in the calling process."""

    def test_empty_spec_list(self):
        engine = _fresh_engine()
        assert engine.evaluate_specs(ACIMEstimator(), []) == []
        assert engine.stats.tasks == 0

    def test_single_spec_batch(self):
        estimator = ACIMEstimator()
        spec = ACIMDesignSpec(64, 16, 2, 4)
        (got,) = _fresh_engine().evaluate_specs(estimator, [spec])
        _assert_metrics_close(got, estimator.evaluate(spec))

    def test_large_batch_evaluates_inline(self):
        estimator = ACIMEstimator()
        batch = SpecBatch.enumerate(4096)
        got = _fresh_engine().evaluate_specs(estimator, batch)
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
        with pytest.raises(SpecificationError):
            _fresh_engine().evaluate_specs(ACIMEstimator(), batch)

    def test_stats_drop_dispatch_and_serialize_seconds(self):
        engine = _fresh_engine()
        engine.evaluate_specs(ACIMEstimator(), SpecBatch.enumerate(1024))
        stats = engine.stats.as_dict()
        assert stats["worker_seconds"] > 0
        assert "dispatch_seconds" not in stats
        assert "serialize_seconds" not in stats
        assert engine.metrics.value("engine.dispatch.seconds", None) is None
        assert engine.metrics.value("engine.serialize.seconds", None) is None

    def test_worker_seconds_are_per_scope(self):
        engine = _fresh_engine()
        engine.evaluate_specs(ACIMEstimator(), SpecBatch.enumerate(1024))
        engine.cache.clear()
        with engine.metrics.scope() as scope:
            engine.evaluate_specs(ACIMEstimator(), SpecBatch.enumerate(1024))
        run = EngineStats.from_metrics(scope.read())
        assert 0 < run.worker_seconds < engine.stats.worker_seconds

    def test_engine_stats_table_shows_worker_seconds(self):
        from repro.flow.report import engine_stats_table

        engine = _fresh_engine()
        engine.evaluate_specs(ACIMEstimator(), [ACIMDesignSpec(64, 16, 2, 4)])
        (row,) = engine_stats_table(engine.stats.as_dict())
        assert {"busy_s", "worker_s"} <= set(row)
        assert not {"dispatch_s", "serialize_s"} & set(row)
        assert not {"backend", "workers"} & set(row)


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
    def test_evaluate_all_identical_with_injected_engine(self):
        # The default engine (shared cache) and an injected private-cache
        # engine must agree exactly.
        shared = evaluate_all(4096)
        private = evaluate_all(4096, engine=_fresh_engine())
        assert [d.spec for d in private] == [d.spec for d in shared]
        assert [d.objectives for d in private] == [
            d.objectives for d in shared
        ]


class TestSeedDeterminismAcrossBackends:
    """Same seed => identical Pareto set, whatever computes it."""

    def test_vectorized_and_reference_kernels_agree_bit_identically(self):
        """The ISSUE 3 regression: the array-kernel refactor leaves a
        fixed-seed NSGA-II Pareto front bit-identical to the retained
        scalar-reference path (the pre-refactor implementation)."""
        pareto_sets = {}
        estimators = {
            "reference": _ReferenceEstimator(),
            "vectorized": ACIMEstimator(),
        }
        for kernel, estimator in estimators.items():
            config = NSGA2Config(population_size=28, generations=10, seed=11)
            # A private cache per run so the two kernels cannot serve each
            # other's evaluations.
            explorer = _ExplorerCore(
                estimator=estimator, config=config, engine=_fresh_engine()
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
        assert "backend" not in result.engine_stats
        assert result.engine_stats["tasks"] > 0

    def test_engine_stats_are_per_run_deltas(self):
        config = NSGA2Config(population_size=16, generations=4, seed=2)
        explorer = _ExplorerCore(config=config, engine=_fresh_engine())
        first = explorer.explore(1024)
        second = explorer.explore(1024)
        # Identical seeded runs submit the identical number of tasks; a
        # cumulative (non-delta) snapshot would double on the second run.
        assert second.engine_stats["tasks"] == first.engine_stats["tasks"]
        # The second run is fully served by the engine's warm cache.
        assert second.engine_stats["evaluations"] == 0
        assert second.engine_stats["cache_hits"] > 0

    def test_invalid_backend_in_config(self):
        # Removed in 1.7.0: the optimiser config has no engine knobs.
        with pytest.raises(TypeError):
            NSGA2Config(backend="gpu")
        with pytest.raises(TypeError):
            NSGA2Config(workers=0)


class _ReferenceEstimator(ACIMEstimator):
    """Evaluates every batch through the scalar reference loop."""

    def evaluate_batch(self, specs):
        return self.evaluate_batch_reference(specs)


def _fresh_engine() -> EvaluationEngine:
    """An engine with a private cache (no shared-cache hits)."""
    return EvaluationEngine(cache=EvaluationCache())


def _assert_metrics_close(got, expected, context=""):
    """Metrics records agree on the spec and within 1e-12 on every metric."""
    from repro.model.estimator import METRIC_FIELDS

    assert got.spec == expected.spec, context
    for field in METRIC_FIELDS:
        assert getattr(got, field) == pytest.approx(
            getattr(expected, field), rel=1e-12, abs=0.0
        ), (field, context)
