"""Tests of the persistent result store (round-trip, write-through,
concurrency, query)."""

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    EstimateRequest,
    ExploreRequest,
    QueryRequest,
    Session,
    SessionConfig,
)
from repro.arch.batch import SpecBatch
from repro.arch.spec import ACIMDesignSpec
from repro.dse.distill import DistillationCriteria
from repro.engine import (
    EvaluationCache,
    EvaluationEngine,
    parameters_cache_key,
    reset_shared_cache,
    shared_cache,
    spec_cache_key,
)
from repro.errors import EngineError, StoreError
from repro.model.estimator import ACIMEstimator, ModelParameters
from repro.reporting.export import export_json, load_json
from repro.store import (
    ResultStore,
    SCHEMA_VERSION,
    canonical_key,
    key_digest,
)
from repro.store.result_store import RANK_METRICS


def _entries(estimator, specs):
    """(engine cache key, metrics) pairs for a list of specs."""
    params_key = parameters_cache_key(estimator.parameters)
    metrics = estimator.evaluate_batch(specs)
    return [
        (spec_cache_key(spec, params_key=params_key), m)
        for spec, m in zip(specs, metrics)
    ]


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "store.sqlite") as store:
        yield store


SPECS = [
    ACIMDesignSpec(128, 8, 4, 3),
    ACIMDesignSpec(64, 16, 4, 3),
    ACIMDesignSpec(256, 4, 8, 4),
]


class TestResultStoreRoundTrip:
    def test_put_get_round_trip(self, store, estimator):
        entries = _entries(estimator, SPECS)
        # A technology-tagged key is its own content address; get() looks
        # rows up by key_digest(), so the batched write must match it.
        entries += [((key[0], key[1], "generic28"), m) for key, m in entries]
        assert store.put_many(entries) == len(entries)
        for key, metrics in entries:
            assert store.get(key) == metrics  # bit-exact (REAL is float64)
        assert len(store) == len(entries)

    def test_rewrites_are_idempotent(self, store, estimator):
        entries = _entries(estimator, SPECS)
        store.put_many(entries)
        assert store.put_many(entries) == 0
        assert len(store) == len(entries)

    def test_missing_key_returns_none(self, store, estimator):
        (key, _metrics), = _entries(estimator, SPECS[:1])
        assert store.get(key) is None

    def test_distinct_parameters_are_distinct_entries(self, store):
        spec = SPECS[0]
        for params in (ModelParameters(), ModelParameters.calibrated()):
            store.put_many(_entries(ACIMEstimator(params), [spec]))
        assert len(store) == 2
        # One batch mixing both bundles: each (spec, bundle) is its own
        # row, and the rows already present are not counted again.
        mixed = [
            entry
            for params in (ModelParameters(), ModelParameters.calibrated())
            for entry in _entries(ACIMEstimator(params), SPECS[:2])
        ]
        assert store.put_many(mixed) == 2
        assert len(store) == 4
        for key, metrics in mixed:
            assert store.get(key) == metrics

    def test_canonical_key_digest_is_stable(self, estimator):
        params_key = parameters_cache_key(estimator.parameters)
        key = spec_cache_key(SPECS[0], params_key=params_key)
        assert canonical_key(key) == canonical_key(key)
        assert key_digest(key) == key_digest(key)
        other = spec_cache_key(SPECS[1], params_key=params_key)
        assert key_digest(key) != key_digest(other)

    def test_store_survives_reopen(self, tmp_path, estimator):
        path = tmp_path / "store.sqlite"
        entries = _entries(estimator, SPECS)
        with ResultStore(path) as store:
            store.put_many(entries)
        with ResultStore(path) as store:
            assert len(store) == len(entries)
            assert store.get(entries[0][0]) == entries[0][1]

    def test_closed_store_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store.sqlite")
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreError):
            len(store)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            # The connection is in autocommit mode; the UPDATE lands at once.
            store._conn.execute(
                "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
        with pytest.raises(StoreError, match="schema version"):
            ResultStore(path)


class _RecordingEstimator(ACIMEstimator):
    """The stock model, remembering every spec it actually computes."""

    def __init__(self):
        super().__init__()
        self.computed = set()

    def evaluate_batch(self, specs):
        self.computed.update(specs.as_tuples())
        return super().evaluate_batch(specs)


class TestWriteThrough:
    def test_engine_writes_through_and_never_reads_back(
        self, tmp_path, estimator
    ):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            engine = EvaluationEngine(store=store)
            engine.evaluate_specs(estimator, SPECS)
            assert engine.stats.evaluations == len(SPECS)
            # Written by the call itself: the engine has nothing to close.
            assert len(store) == len(SPECS)
        # A fresh engine on the reopened store (a new process's view)
        # recomputes instead of loading, and stores nothing twice.
        with ResultStore(path) as store:
            engine = EvaluationEngine(store=store)
            engine.evaluate_specs(estimator, SPECS)
            assert engine.stats.evaluations == len(SPECS)
            assert engine.stats.cache_hits == 0
            assert len(store) == len(SPECS)

    def test_store_backed_engine_owns_a_private_cache(self, store):
        engine = EvaluationEngine(store=store)
        assert engine.cache is not shared_cache()
        assert len(engine.cache) == 0
        with pytest.raises(EngineError, match="private cache"):
            EvaluationEngine(cache=EvaluationCache(), store=store)

    def test_failed_write_fails_its_own_request(self, tmp_path, estimator):
        path = tmp_path / "store.sqlite"
        request = EstimateRequest(
            height=128, width=128, local_array_size=4, adc_bits=3
        )
        key = spec_cache_key(request.spec(), estimator.parameters)
        with ResultStore(path, timeout=0.1) as store:
            with Session(store=store) as session:
                holder = sqlite3.connect(path, isolation_level=None)
                holder.execute("BEGIN EXCLUSIVE")
                try:
                    with pytest.raises(StoreError):
                        session.estimate(request)
                    assert len(session.engine.cache) == 0
                finally:
                    holder.execute("ROLLBACK")
                    holder.close()
                result = session.estimate(request)
                assert result.status == "ok"
                assert store.get(key) == result.artifacts["metrics"][0]
                assert len(store) == 1

    def test_query_reads_writes_served_by_the_shared_cache(self, tmp_path):
        # A store-less session warms the process-wide cache first; the
        # store-backed session must still persist every design it
        # evaluates, or query designs would miss them.
        request = ExploreRequest(
            array_size=1024, population=16, generations=4, seed=5
        )
        reset_shared_cache()
        recorder = _RecordingEstimator()
        with Session(estimator=recorder) as warm:
            warm.explore(request)
        assert recorder.computed
        config = SessionConfig(store=str(tmp_path / "store.sqlite"))
        with Session.from_config(config) as session:
            session.explore(request)
            listed = session.query(QueryRequest(pareto_only=False))
        assert listed.payload["total"] == len(recorder.computed)
        assert {
            entry.spec.as_tuple() for entry in listed.artifacts["entries"]
        } == recorder.computed


class TestConcurrentWriters:
    def test_two_processes_write_concurrently(self, tmp_path):
        path = tmp_path / "store.sqlite"
        script = (
            "import sys\n"
            "from repro.arch.spec import ACIMDesignSpec\n"
            "from repro.engine import parameters_cache_key, spec_cache_key\n"
            "from repro.model.estimator import ACIMEstimator\n"
            "from repro.store import ResultStore\n"
            "adc_bits = int(sys.argv[2])\n"
            "estimator = ACIMEstimator()\n"
            "params_key = parameters_cache_key(estimator.parameters)\n"
            "specs = [ACIMDesignSpec(h, 4096 // h, 2, adc_bits)\n"
            "         for h in (64, 128, 256, 512, 1024, 2048)]\n"
            "entries = [(spec_cache_key(s, params_key=params_key), m)\n"
            "           for s, m in zip(specs, estimator.evaluate_batch(specs))]\n"
            "with ResultStore(sys.argv[1]) as store:\n"
            "    for entry in entries:\n"
            "        store.put_many([entry])\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), str(bits)],
                env=env, stderr=subprocess.PIPE,
            )
            for bits in (3, 4)
        ]
        for worker in workers:
            _stdout, stderr = worker.communicate(timeout=120)
            assert worker.returncode == 0, stderr.decode()
        with ResultStore(path) as store:
            assert len(store) == 12  # 6 heights x 2 disjoint ADC precisions


class TestQuery:
    def test_query_filters_and_ranks(self, store, estimator):
        store.put_many(_entries(estimator, SPECS))
        everything = store.query(pareto_only=False)
        assert len(everything) == len(SPECS)
        ranked = [e.metrics.tops_per_watt for e in everything]
        assert ranked == sorted(ranked, reverse=True)
        floor = ranked[1]
        criteria = DistillationCriteria(min_tops_per_watt=floor)
        selected = store.query(criteria=criteria, pareto_only=False)
        assert len(selected) == 2

    def test_query_pareto_only_drops_dominated(self, store, estimator):
        # Same (L, B) at different heights: a strictly dominated point
        # exists in the full set but not in the Pareto-only view.
        specs = [ACIMDesignSpec(h, 2048 // h, 4, 3) for h in (32, 64, 128, 256)]
        store.put_many(_entries(estimator, specs))
        full = store.query(pareto_only=False)
        pareto = store.query(pareto_only=True)
        assert 0 < len(pareto) <= len(full)

    def test_query_limit_and_rank_direction(self, store, estimator):
        store.put_many(_entries(estimator, SPECS))
        top = store.query(pareto_only=False, rank_by="area_f2_per_bit", limit=1)
        assert len(top) == 1
        areas = [e.metrics.area_f2_per_bit
                 for e in store.query(pareto_only=False,
                                      rank_by="area_f2_per_bit")]
        assert areas == sorted(areas)  # smaller area ranks first

    def test_unknown_rank_metric_rejected(self, store):
        with pytest.raises(StoreError, match="rank metric"):
            store.query(rank_by="speed")

    def test_rank_query_plan_uses_index_no_temp_btree(self, tmp_path):
        path = tmp_path / "s.sqlite"
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        for metric, descending in RANK_METRICS.items():
            direction = "DESC" if descending else "ASC"
            order = ", ".join(
                f"{column} {direction}"
                for column in (metric, "height", "width", "local", "adc_bits")
            )
            plan = " ".join(
                row[3] for row in conn.execute(
                    f"EXPLAIN QUERY PLAN SELECT * FROM evaluations "
                    f"ORDER BY {order}"
                )
            )
            assert f"idx_eval_rank_{metric}" in plan, metric
            assert "TEMP B-TREE" not in plan, metric
        conn.close()

    def test_fast_path_matches_python_path(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            engine = EvaluationEngine(store=store)
            engine.evaluate_specs(ACIMEstimator(), SpecBatch.enumerate(4096))
            for rank_by in ("tops_per_watt", "snr_db", "area_f2_per_bit"):
                fast, fast_total = store.query_page(
                    rank_by=rank_by, pareto_only=False
                )
                # Reference: the Python sort key on the same rows.
                expected = sorted(
                    fast,
                    key=lambda e: (
                        getattr(e.metrics, rank_by), e.spec.as_tuple()
                    ),
                    reverse=RANK_METRICS[rank_by],
                )
                assert [e.spec.as_tuple() for e in fast] == (
                    [e.spec.as_tuple() for e in expected]
                )
                # Pagination slices the same total ordering.
                page, total = store.query_page(
                    rank_by=rank_by, pareto_only=False, limit=5, offset=3
                )
                assert total == fast_total
                assert [e.spec.as_tuple() for e in page] == (
                    [e.spec.as_tuple() for e in fast[3:8]]
                )


class TestLeftoverScreeningTable:
    """Files written before 1.5.0 carry the removed screening feature's
    ``surrogates`` table and training-scan index; they stay untouched."""

    def test_new_store_creates_neither(self, tmp_path):
        path = tmp_path / "new.sqlite"
        ResultStore(path).close()
        with sqlite3.connect(path) as conn:
            names = {row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master"
            )}
        assert "surrogates" not in names
        assert "idx_evaluations_params_created" not in names

    def test_old_file_opens_queries_and_reports_stats(self, tmp_path, estimator):
        path = tmp_path / "old.sqlite"
        with ResultStore(path) as store:
            store.put_many(_entries(estimator, SPECS))
        with sqlite3.connect(path) as conn:
            conn.executescript(
                "CREATE TABLE surrogates (params_digest TEXT NOT NULL, "
                "version INTEGER NOT NULL, training_rows INTEGER NOT NULL, "
                "training_fingerprint TEXT NOT NULL, model_json TEXT NOT NULL, "
                "created_at REAL NOT NULL, "
                "PRIMARY KEY (params_digest, version));"
                "INSERT INTO surrogates VALUES ('p', 1, 3, 'f', '{}', 0.0);"
                "CREATE INDEX idx_evaluations_params_created "
                "ON evaluations(params_digest, created_at);"
            )
        with ResultStore(path) as store:
            assert len(store.query(pareto_only=False)) == len(SPECS)
            stats = store.stats()
            assert stats["schema_version"] == SCHEMA_VERSION == 3
            assert stats["evaluations"] == len(SPECS)
            assert "surrogates" not in stats
        with sqlite3.connect(path) as conn:
            assert conn.execute(
                "SELECT COUNT(*) FROM surrogates"
            ).fetchone() == (1,)


class TestAtomicJsonExport:
    def test_export_ends_with_newline_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.json"
        export_json([{"a": 1}], path)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["records"] == [{"a": 1}]
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_export_replaces_existing_document_atomically(self, tmp_path):
        path = tmp_path / "out.json"
        export_json([{"a": 1}], path)
        export_json([{"a": 2}], path, metadata={"run": 2})
        document = load_json(path)
        assert document["records"] == [{"a": 2}]
        assert document["metadata"] == {"run": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
