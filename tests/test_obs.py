"""Tests of the observability layer: tracing, metrics, exporters, surfacing.

Covers the ``repro.obs`` primitives themselves, the byte-identity of the
registry-backed ``EngineStats``, cross-process span collection, the
``run_metrics`` store table, the per-request metrics delta on
``ApiResult``, the CLI trace plumbing, and the overhead bound the
always-on instrumentation must respect while tracing is disabled.
"""

import json
import os
import time

import pytest

from repro.api import ApiResult, EstimateRequest, QueryRequest, Session, SessionConfig
from repro.arch.batch import SpecBatch
from repro.arch.spec import ACIMDesignSpec
from repro.cli import main
from repro.engine import EvaluationCache, EvaluationEngine, reset_shared_cache
from repro.flow.report import engine_stats_table, format_table
from repro.model.estimator import ACIMEstimator
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_SPAN,
    SIZE_BUCKETS,
    Span,
    Tracer,
    configure_tracing,
    counters_only,
    export_chrome,
    export_jsonl,
    get_tracer,
    span_to_trace_event,
)
from repro.reporting.observability import (
    campaign_trend_table,
    metrics_table,
    run_metrics_table,
)
from repro.store.result_store import ResultStore


@pytest.fixture(autouse=True)
def _global_tracer_off():
    """Tests that enable the process-wide tracer must not leak it."""
    yield
    configure_tracing(enabled=False)


def _fresh_serial_engine(**kwargs) -> EvaluationEngine:
    return EvaluationEngine(cache=EvaluationCache(max_size=100_000), **kwargs)


# ---------------------------------------------------------------------------
# Metrics instruments and registry
# ---------------------------------------------------------------------------


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("demo.count")
        counter.inc()
        counter.add(4)
        assert counter.value == 5
        assert Counter.delta(counter.snapshot_value(), 2) == 3
        assert Counter.delta(counter.snapshot_value(), None) == 5

    def test_gauge_is_a_level(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("demo.level")
        gauge.set(7)
        gauge.set(3)
        assert gauge.value == 3
        # The delta view reports the level, not a difference.
        assert Gauge.delta(gauge.snapshot_value(), 7) == 3

    def test_histogram_buckets_and_overflow(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("demo.seconds", bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 99.0):
            histogram.observe(value)
        snap = histogram.snapshot_value()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(100.05)
        assert snap["buckets"] == [[0.1, 1], [1.0, 2], ["inf", 1]]

    def test_histogram_rejects_unsorted_bounds(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("demo.bad", bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("demo.empty", bounds=())

    def test_histogram_delta_diffs_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("demo.seconds", bounds=(1.0,))
        histogram.observe(0.5)
        baseline = histogram.snapshot_value()
        histogram.observe(0.5)
        histogram.observe(5.0)
        delta = Histogram.delta(histogram.snapshot_value(), baseline)
        assert delta["count"] == 2
        assert delta["buckets"] == [[1.0, 1], ["inf", 1]]

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("demo.name")
        with pytest.raises(ValueError):
            registry.gauge("demo.name")
        with pytest.raises(ValueError):
            registry.histogram("demo.name")

    def test_snapshot_and_since(self):
        registry = MetricsRegistry()
        registry.counter("a").add(2)
        baseline = registry.snapshot()
        registry.counter("a").add(3)
        registry.counter("b").inc()  # created after the baseline
        delta = registry.since(baseline)
        assert delta == {"a": 3, "b": 1}

    def test_counters_only_drops_histograms(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.histogram("h").observe(0.1)
        assert counters_only(registry.snapshot()) == {"a": 1}

    def test_value_and_names(self):
        registry = MetricsRegistry()
        registry.counter("a").add(4)
        assert registry.value("a") == 4
        assert registry.value("missing", default=-1) == -1
        assert registry.names() == ["a"]


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_disabled_span_is_the_shared_null_handle(self):
        tracer = Tracer(enabled=False)
        handle = tracer.span("engine.evaluate_specs", count=3)
        assert handle is NULL_SPAN
        with handle as span:
            span.set("k", "v")  # must be a silent no-op
        assert len(tracer.finished_spans()) == 0

    def test_nesting_links_parent_ids(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            assert tracer.current_span() is outer
        assert tracer.current_span() is None
        spans = {span.name: span for span in tracer.finished_spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None

    def test_span_timestamps_are_monotonic(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            time.sleep(0.001)
        (span,) = tracer.finished_spans()
        assert 0 < span.start_ns <= span.end_ns
        assert span.duration_ns > 0

    def test_thread_local_stacks(self):
        import threading

        tracer = Tracer(enabled=True)
        seen = {}

        def worker():
            with tracer.span("thread.child") as span:
                seen["parent"] = span.parent_id

        with tracer.span("main.root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The other thread's stack starts empty: its span is a root.
        assert seen["parent"] is None

    def test_buffer_is_bounded(self):
        tracer = Tracer(enabled=True, max_spans=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished_spans()) == 2
        assert tracer.dropped == 3

    def test_configure_tracing_resets_the_global_tracer(self):
        tracer = configure_tracing(enabled=True)
        assert tracer is get_tracer()
        first_id = tracer.trace_id
        assert first_id is not None
        with tracer.span("x"):
            pass
        tracer = configure_tracing(enabled=True)
        assert tracer.trace_id is not None and tracer.trace_id != first_id
        assert len(tracer.finished_spans()) == 0
        configure_tracing(enabled=False)
        assert not get_tracer().enabled
        assert get_tracer().span("y") is NULL_SPAN


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _sample_trace() -> Tracer:
    tracer = Tracer(enabled=True)
    with tracer.span("engine.evaluate_specs", count=2):
        with tracer.span("engine.chunk", where="inline"):
            pass
    return tracer


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = _sample_trace()
        path = tmp_path / "trace.jsonl"
        export_jsonl(tracer.finished_spans(), path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 2
        by_name = {record["name"]: record for record in records}
        assert (by_name["engine.chunk"]["parent_id"]
                == by_name["engine.evaluate_specs"]["span_id"])
        for record in records:
            assert 0 < record["start_ns"] <= record["end_ns"]
            assert record["duration_ns"] >= 0
            assert isinstance(record["attrs"], dict)

    def test_chrome_round_trip(self, tmp_path):
        tracer = _sample_trace()
        path = tmp_path / "trace.json"
        export_chrome(tracer.finished_spans(), path, trace_id=tracer.trace_id)
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["trace_id"] == tracer.trace_id
        events = document["traceEvents"]
        assert len(events) == 2
        ids = {event["args"]["span_id"] for event in events}
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            parent = event["args"]["parent_id"]
            assert parent is None or parent in ids
        categories = {event["cat"] for event in events}
        assert categories == {"engine"}

    def test_chrome_event_shape(self):
        span = Span("store.flush", attrs={"rows": 3},
                    start_ns=1_000, end_ns=4_000, pid=7, tid=9)
        event = span_to_trace_event(span)
        assert event["name"] == "store.flush"
        assert event["cat"] == "store"
        assert event["ts"] == pytest.approx(1.0)
        assert event["dur"] == pytest.approx(3.0)
        assert event["pid"] == 7 and event["tid"] == 9
        assert event["args"]["rows"] == 3

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "nested" / "trace.json"
        export_chrome(_sample_trace().finished_spans(), path)
        assert path.exists()
        assert [p.name for p in path.parent.iterdir()] == ["trace.json"]

    def test_empty_exports_are_valid(self, tmp_path):
        jsonl = tmp_path / "empty.jsonl"
        chrome = tmp_path / "empty.json"
        export_jsonl([], jsonl)
        export_chrome([], chrome)
        assert jsonl.read_text() == ""
        assert json.loads(chrome.read_text())["traceEvents"] == []


# ---------------------------------------------------------------------------
# EngineStats byte-identity and engine instrumentation
# ---------------------------------------------------------------------------


class TestEngineStatsByteIdentity:
    def test_zero_activity_dict_is_byte_identical(self):
        engine = _fresh_serial_engine()
        stats = engine.stats.as_dict()
        expected = {
            "batches": 0,
            "tasks": 0,
            "evaluations": 0,
            "cache_hits": 0,
            "busy_seconds": 0.0,
            "worker_seconds": 0.0,
            "evaluations_per_second": 0.0,
        }
        assert stats == expected
        assert list(stats) == list(expected)
        # The registry holds plain ints; the EngineStats view must coerce
        # the timing fields back to float so json output stays identical.
        for key, value in expected.items():
            assert type(stats[key]) is type(value), key
        assert json.dumps(stats) == json.dumps(expected)

    def test_counts_flow_through_the_registry(self):
        engine = _fresh_serial_engine()
        estimator = ACIMEstimator()
        specs = [ACIMDesignSpec(128, 128, 4, 3), ACIMDesignSpec(128, 128, 8, 3)]
        engine.evaluate_specs(estimator, specs)
        engine.evaluate_specs(estimator, specs)  # second pass: cache hits
        stats = engine.stats
        assert stats.batches == 2
        assert stats.tasks == 4
        assert stats.evaluations == 2
        assert stats.cache_hits == 2
        assert engine.metrics.value("engine.eval.computed") == 2
        assert engine.metrics.value("engine.cache.hit") == 2
        batch_size = engine.metrics.value("engine.eval.batch_size")
        assert batch_size["count"] == 2

    def test_snapshot_since_still_works(self):
        engine = _fresh_serial_engine()
        estimator = ACIMEstimator()
        engine.evaluate_specs(estimator, [ACIMDesignSpec(128, 128, 4, 3)])
        baseline = engine.stats.snapshot()
        engine.evaluate_specs(estimator, [ACIMDesignSpec(128, 128, 8, 3)])
        delta = engine.stats.since(baseline)
        assert delta.batches == 1 and delta.tasks == 1


class TestEngineTracing:
    def test_serial_batch_produces_nested_spans(self):
        # Analytic evaluation never leaves the calling process: one
        # inline chunk span nests under the batch span.
        configure_tracing(enabled=True)
        engine = _fresh_serial_engine()
        batch = SpecBatch.enumerate(16 * 1024)
        engine.evaluate_specs(ACIMEstimator(), batch)
        spans = {span.name: span for span in get_tracer().finished_spans()}
        assert "engine.evaluate_specs" in spans
        assert "engine.chunk" in spans
        chunk = spans["engine.chunk"]
        assert chunk.attrs == {"where": "inline", "count": len(batch)}
        assert chunk.parent_id == spans["engine.evaluate_specs"].span_id
        assert chunk.pid == os.getpid()

    def test_disabled_tracer_records_nothing(self):
        engine = _fresh_serial_engine()
        engine.evaluate_specs(ACIMEstimator(), [ACIMDesignSpec(128, 128, 4, 3)])
        assert len(get_tracer().finished_spans()) == 0


# ---------------------------------------------------------------------------
# Overhead bounds (tracer disabled => near-zero cost)
# ---------------------------------------------------------------------------


class TestOverhead:
    def test_disabled_span_call_is_cheap(self):
        tracer = Tracer(enabled=False)
        calls = 100_000
        started = time.perf_counter()
        for _ in range(calls):
            with tracer.span("hot.path"):
                pass
        elapsed = time.perf_counter() - started
        # Generous absolute bound: the no-op handle must stay far under
        # the microseconds-per-evaluation the engine itself costs.
        assert elapsed / calls < 5e-6

    def test_instrumented_batch_overhead_is_bounded(self):
        """A disabled-tracer batch must not be slower than a traced one.

        The pre-instrumentation engine is gone, so the regression proxy
        compares the permanent instrumentation's two modes on the same
        ~1k-spec grid: with the tracer disabled the batch must complete
        within 5% (plus a fixed noise allowance) of the *traced* run —
        i.e. the always-on hooks cost no more than tracing itself.
        """
        from repro.arch.spec import enumerate_design_space

        specs = [
            spec
            for array_size in (4096, 8192, 16 * 1024, 32 * 1024)
            for spec in enumerate_design_space(array_size)
        ]
        assert len(specs) >= 1000
        estimator = ACIMEstimator()

        def timed_run() -> float:
            engine = _fresh_serial_engine()
            started = time.perf_counter()
            engine.evaluate_specs(estimator, specs)
            elapsed = time.perf_counter() - started
            return elapsed

        configure_tracing(enabled=False)
        disabled = min(timed_run() for _ in range(3))
        configure_tracing(enabled=True)
        enabled = min(timed_run() for _ in range(3))
        configure_tracing(enabled=False)
        assert disabled <= enabled * 1.05 + 0.010


# ---------------------------------------------------------------------------
# engine_stats_table clamps (satellite fix)
# ---------------------------------------------------------------------------


class TestEngineStatsTableClamp:
    def test_negative_timing_renders_zero(self):
        rows = engine_stats_table({
            "worker_seconds": -1e-9, "busy_seconds": 0.5,
            "evaluations": 100, "evaluations_per_second": 200.0,
        })
        assert rows[0]["worker_s"] == 0.0
        text = format_table(rows)
        assert "-0.00" not in text and "-1e-09" not in text

    def test_zero_busy_never_divides(self):
        rows = engine_stats_table({
            "evaluations": 10, "busy_seconds": 0.0,
        })
        assert rows[0]["evals_per_s"] == 0.0

    def test_missing_rate_recomputed_from_busy(self):
        rows = engine_stats_table({
            "evaluations": 100, "busy_seconds": 2.0,
        })
        assert rows[0]["evals_per_s"] == pytest.approx(50.0)

    def test_non_numeric_timings_clamp_to_zero(self):
        rows = engine_stats_table({
            "busy_seconds": None, "worker_seconds": "nan?",
            "evaluations_per_second": -1.0,
        })
        assert rows[0]["busy_s"] == 0.0
        assert rows[0]["worker_s"] == 0.0
        assert rows[0]["evals_per_s"] == 0.0

    def test_empty_stats_stay_empty(self):
        assert engine_stats_table({}) == []


# ---------------------------------------------------------------------------
# run_metrics store table and campaign integration
# ---------------------------------------------------------------------------


class TestRunMetricsStore:
    def test_round_trip_and_run_index(self, tmp_path):
        store = ResultStore(tmp_path / "store.sqlite")
        store.create_campaign("c1", 1024, {}, "digest", 4)
        assert store.put_run_metrics("c1", {"generations": 2}) == 0
        assert store.put_run_metrics("c1", {"generations": 2}) == 1
        rows = store.list_run_metrics("c1")
        assert [row["run_index"] for row in rows] == [0, 1]
        assert rows[0]["metrics"] == {"generations": 2}
        assert rows[0]["created_at"] > 0
        store.close()

    def test_list_filters_by_campaign(self, tmp_path):
        store = ResultStore(tmp_path / "store.sqlite")
        for name in ("a", "b"):
            store.create_campaign(name, 1024, {}, "digest", 1)
            store.put_run_metrics(name, {"generations": 1})
        assert len(store.list_run_metrics()) == 2
        assert [row["campaign"] for row in store.list_run_metrics("b")] == ["b"]
        store.close()

    def test_campaign_run_records_metrics_snapshot(self, tmp_path):
        config = SessionConfig(store=str(tmp_path / "store.sqlite"))
        with Session.from_config(config) as session:
            from repro.api import CampaignRequest

            session.submit(CampaignRequest(
                name="nightly", action="run", array_size=1024,
                population=12, generations=3, seed=1,
            ))
            rows = session.store.list_run_metrics("nightly")
        assert len(rows) == 1
        metrics = rows[0]["metrics"]
        assert metrics["status"] == "completed"
        assert metrics["generations"] == 3
        assert metrics["generations_per_second"] >= 0
        assert not {"backend", "workers"} & set(metrics)
        assert 0.0 <= metrics["cache_hit_rate"] <= 1.0


# ---------------------------------------------------------------------------
# ApiResult metrics delta + trace id
# ---------------------------------------------------------------------------


class TestApiSurfacing:
    def test_submit_attaches_metrics_delta(self):
        reset_shared_cache()
        with Session.from_config(SessionConfig()) as session:
            result = session.submit(EstimateRequest(
                height=128, width=128, local_array_size=4, adc_bits=3,
            ))
        assert result.metrics["engine.eval.computed"] == 1
        assert result.metrics["engine.eval.batches"] == 1
        assert result.trace_id is None  # tracing off by default

    def test_submit_attaches_trace_id_when_tracing(self):
        tracer = configure_tracing(enabled=True)
        with Session.from_config(SessionConfig()) as session:
            result = session.submit(EstimateRequest(
                height=128, width=128, local_array_size=4, adc_bits=3,
            ))
        assert result.trace_id == tracer.trace_id
        names = {span.name for span in tracer.finished_spans()}
        assert "api.estimate" in names

    def test_result_round_trips_metrics_and_trace_id(self):
        result = ApiResult(
            kind="estimate", status="ok", payload={},
            metrics={"engine.eval.computed": 3}, trace_id="abc-1",
        )
        decoded = ApiResult.from_dict(json.loads(result.to_json()))
        assert decoded.metrics == {"engine.eval.computed": 3}
        assert decoded.trace_id == "abc-1"

    def test_query_payload_lists_run_metrics(self, tmp_path):
        config = SessionConfig(store=str(tmp_path / "store.sqlite"))
        with Session.from_config(config) as session:
            result = session.submit(QueryRequest(what="campaigns"))
        assert result.payload["run_metrics"] == []


# ---------------------------------------------------------------------------
# Reporting tables
# ---------------------------------------------------------------------------


class TestObservabilityTables:
    def test_metrics_table_folds_histograms(self):
        registry = MetricsRegistry()
        registry.counter("engine.cache.hit").add(4)
        registry.histogram("store.put.seconds").observe(0.5)
        registry.histogram("store.put.seconds").observe(1.5)
        rows = metrics_table(registry.snapshot())
        by_name = {row["metric"]: row for row in rows}
        assert by_name["engine.cache.hit"]["sum"] == 4
        histogram = by_name["store.put.seconds"]
        assert histogram["kind"] == "histogram"
        assert histogram["count"] == 2
        assert histogram["mean"] == pytest.approx(1.0)

    def test_run_metrics_table_shape(self):
        rows = run_metrics_table([{
            "campaign": "c", "run_index": 0,
            "metrics": {"status": "completed", "generations": 5,
                        "runtime_seconds": 2.0,
                        "generations_per_second": 2.5,
                        "evaluations": 40, "cache_hit_rate": 0.25},
        }])
        assert rows[0]["gens_per_s"] == 2.5
        assert rows[0]["cache_hit_rate"] == 0.25

    def test_campaign_trend_table_aggregates_runs(self):
        rows = campaign_trend_table([
            {"campaign": "c", "run_index": 0,
             "metrics": {"generations": 4, "runtime_seconds": 2.0,
                         "generations_per_second": 2.0,
                         "cache_hit_rate": 0.1}},
            {"campaign": "c", "run_index": 1,
             "metrics": {"generations": 4, "runtime_seconds": 1.0,
                         "generations_per_second": 4.0,
                         "cache_hit_rate": 0.9}},
        ])
        (row,) = rows
        assert row["runs"] == 2
        assert row["generations"] == 8
        assert row["gens_per_s"] == pytest.approx(8 / 3.0, abs=1e-3)
        assert row["first_gps"] == 2.0 and row["last_gps"] == 4.0
        assert row["first_hit_rate"] == 0.1 and row["last_hit_rate"] == 0.9


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


class TestCliTrace:
    def test_trace_subcommand_exports_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        exit_code = main([
            "trace", "--trace-out", str(out), "--",
            "estimate", "--height", "128", "--width", "128",
            "--local", "4", "--adc-bits", "3",
        ])
        assert exit_code == 0
        assert "written to" in capsys.readouterr().err
        document = json.loads(out.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert {"api.estimate", "engine.evaluate_specs"} <= names
        assert not get_tracer().enabled  # main() disabled it again

    def test_trace_flag_writes_jsonl(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        exit_code = main([
            "estimate", "--height", "128", "--width", "128",
            "--local", "4", "--adc-bits", "3", "--trace", str(out),
        ])
        assert exit_code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert any(record["name"] == "api.estimate" for record in records)

    def test_trace_keeps_json_stdout_clean(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        exit_code = main([
            "estimate", "--height", "128", "--width", "128",
            "--local", "4", "--adc-bits", "3",
            "--json", "--trace", str(out),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        document = json.loads(captured.out)  # stdout is pure JSON
        assert document["trace_id"] is not None
        assert document["metrics"]["engine.eval.batches"] == 1
        assert "written to" in captured.err

    def test_trace_without_command_fails(self, capsys):
        assert main(["trace", "--trace-out", "x.json"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_metrics_command_renders_runs(self, tmp_path, capsys):
        store = str(tmp_path / "store.sqlite")
        main(["campaign", "run", "t", "--store", store, "--array-size", "1024",
              "--population", "12", "--generations", "2"])
        capsys.readouterr()
        exit_code = main(["metrics", "--store", store])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Campaign run metrics" in captured
        assert "gens_per_s" in captured

    def test_metrics_command_campaign_filter(self, tmp_path, capsys):
        store = str(tmp_path / "store.sqlite")
        main(["campaign", "run", "t", "--store", store, "--array-size", "1024",
              "--population", "12", "--generations", "2"])
        capsys.readouterr()
        assert main(["metrics", "--store", store, "--campaign", "nope"]) == 0
        assert "no recorded run metrics" in capsys.readouterr().out

    def test_campaign_list_shows_trends(self, tmp_path, capsys):
        store = str(tmp_path / "store.sqlite")
        main(["campaign", "run", "t", "--store", store, "--array-size", "1024",
              "--population", "12", "--generations", "2"])
        capsys.readouterr()
        assert main(["campaign", "list", "--store", store]) == 0
        captured = capsys.readouterr().out
        assert "Run metrics across resumes" in captured
