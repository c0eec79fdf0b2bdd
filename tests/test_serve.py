"""Tests of the multi-tenant serving layer (``repro.serve``).

Covers the job queue's priority/fairness/cancellation semantics and the
token-bucket rate limiter in isolation (deterministic fake clock), then
the full HTTP server over ephemeral ports: submission and result
envelopes, structured error mapping (including the 429 rate-limit
envelope with ``Retry-After``), generation-by-generation campaign
streaming with reconnect-from-cursor, mid-campaign cancellation leaving
a resumable checkpoint, concurrent multi-threaded ``Session.submit``
against the shared engine, and graceful drain-and-shutdown.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

import repro.serve.server as server_module
from repro.api import (
    CampaignRequest,
    EstimateRequest,
    QueryRequest,
    Session,
    SessionConfig,
    request_from_dict,
)
from repro.errors import (
    HTTP_STATUS_BY_CODE,
    RateLimitError,
    ReproError,
    RequestError,
    ServeError,
    StoreError,
    http_status_of,
)
from repro.serve import (
    Job,
    JobQueue,
    ReproServer,
    ServeClient,
    ServeHTTPError,
    ServerConfig,
    TenantRateLimiter,
    TokenBucket,
)

TINY_CAMPAIGN = {
    "kind": "campaign",
    "array_size": 1024,
    "population": 12,
    "generations": 4,
    "seed": 7,
}


@pytest.fixture
def server(tmp_path):
    """A running server over a file-backed store on an ephemeral port."""
    config = ServerConfig(
        port=0,
        workers=2,
        session=SessionConfig(store=str(tmp_path / "serve.sqlite")),
    )
    instance = ReproServer(config).start()
    yield instance
    instance.shutdown()


@pytest.fixture
def client(server):
    return ServeClient(server.url)


# ---------------------------------------------------------------------------
# Job queue semantics (no HTTP involved)
# ---------------------------------------------------------------------------


class TestJobQueue:
    def test_priority_then_arrival_order(self):
        queue = JobQueue()
        low = queue.submit("t", {"kind": "estimate"}, priority=0)
        high = queue.submit("t", {"kind": "estimate"}, priority=5)
        mid_a = queue.submit("t", {"kind": "estimate"}, priority=2)
        mid_b = queue.submit("t", {"kind": "estimate"}, priority=2)
        claimed = [queue.claim(timeout=0.1) for _ in range(2)]
        assert [job.id for job in claimed] == [high.id, mid_a.id]
        # per-tenant cap (2) bites now: nothing else claimable until release
        assert queue.claim(timeout=0.05) is None
        high.complete({})
        queue.release(high)
        assert queue.claim(timeout=0.1).id == mid_b.id
        assert low.state == "queued"

    def test_tenant_cap_does_not_starve_other_tenants(self):
        queue = JobQueue(max_per_tenant=1)
        queue.submit("greedy", {"kind": "estimate"}, priority=9)
        queue.submit("greedy", {"kind": "estimate"}, priority=9)
        other = queue.submit("patient", {"kind": "estimate"}, priority=0)
        first = queue.claim(timeout=0.1)
        assert first.tenant == "greedy"
        # greedy is at its cap; the low-priority patient job still runs
        assert queue.claim(timeout=0.1).id == other.id

    def test_cancel_queued_job_withdraws_it(self):
        queue = JobQueue()
        job = queue.submit("t", {"kind": "estimate"})
        report = queue.cancel(job.id)
        assert report == {"state": "cancelled", "cancel_requested": True}
        assert queue.claim(timeout=0.05) is None
        assert job.finished

    def test_cancel_running_is_cooperative(self):
        queue = JobQueue()
        job = queue.submit("t", {"kind": "estimate"})
        claimed = queue.claim(timeout=0.1)
        report = queue.cancel(claimed.id)
        assert report == {"state": "running", "cancel_requested": True}
        assert claimed.cancel_event.is_set()
        assert not claimed.finished  # executor decides when to stop

    def test_cancel_finished_is_noop_report(self):
        queue = JobQueue()
        job = queue.submit("t", {"kind": "estimate"})
        queue.claim(timeout=0.1)
        job.complete({"ok": True})
        queue.release(job)
        assert queue.cancel(job.id) == {
            "state": "done", "cancel_requested": False,
        }

    def test_unknown_job_raises_serve_error(self):
        with pytest.raises(ServeError, match="unknown job"):
            JobQueue().get("job-999999")

    def test_closed_queue_rejects_and_drains(self):
        queue = JobQueue()
        job = queue.submit("t", {"kind": "estimate"})
        queue.close()
        with pytest.raises(ServeError, match="draining"):
            queue.submit("t", {"kind": "estimate"})
        claimed = queue.claim(timeout=0.1)
        assert claimed.id == job.id
        job.complete({})
        queue.release(job)
        assert queue.claim(timeout=0.05) is None
        assert queue.drain(timeout=1.0)

    def test_retention_evicts_only_finished(self):
        queue = JobQueue(retention=2)
        done = [queue.submit("t", {"kind": "estimate"}) for _ in range(2)]
        for job in done:
            queue.claim(timeout=0.1)
            job.complete({})
            queue.release(job)
        live = queue.submit("t", {"kind": "estimate"})
        extra = queue.submit("t", {"kind": "estimate"})
        assert queue.get(live.id) is live
        assert queue.get(extra.id) is extra
        # the oldest finished jobs were evicted, never the live ones
        with pytest.raises(ServeError):
            queue.get(done[0].id)

    def test_eviction_skips_a_job_caught_mid_finish(self):
        # The queue reads ``state`` without the job's lock, so it can see
        # a terminal job whose ``finished_at`` has not landed yet.  That
        # job is the newest, not the oldest: it must survive eviction.
        queue = JobQueue(retention=2)
        old = queue.submit("t", {"kind": "estimate"})
        queue.claim(timeout=0.1)
        old.complete({})
        queue.release(old)
        finishing = queue.submit("t", {"kind": "estimate"})
        queue.claim(timeout=0.1)
        finishing.state = "done"  # finished_at still None
        queue.submit("t", {"kind": "estimate"})
        assert queue.get(finishing.id) is finishing
        with pytest.raises(ServeError):
            queue.get(old.id)

    def test_eviction_follows_finish_order_not_arrival(self):
        queue = JobQueue(retention=2)
        first = queue.submit("t", {"kind": "estimate"})
        second = queue.submit("t", {"kind": "estimate"})
        for _ in range(2):
            queue.claim(timeout=0.1)
        second.complete({})
        queue.release(second)
        first.fail({"code": "x"})
        queue.release(first)
        queue.submit("t", {"kind": "estimate"})
        # ``second`` finished first, so it goes first.
        with pytest.raises(ServeError):
            queue.get(second.id)
        assert queue.get(first.id) is first
        queue.submit("t", {"kind": "estimate"})
        with pytest.raises(ServeError):
            queue.get(first.id)
        assert queue.stats()["jobs_retained"] == 2

    def test_live_jobs_stay_past_the_retention_bound(self):
        queue = JobQueue(retention=1)
        running = [queue.submit("t", {"kind": "estimate"}) for _ in range(2)]
        for _ in range(2):
            queue.claim(timeout=0.1)
        queued = queue.submit("t", {"kind": "estimate"})
        cancelled = queue.submit("t", {"kind": "estimate"})
        queue.cancel(cancelled.id)  # a withdrawn queued job is finished
        live = queue.submit("t", {"kind": "estimate"})
        with pytest.raises(ServeError):
            queue.get(cancelled.id)
        for job in (*running, queued, live):
            assert queue.get(job.id) is job
        assert queue.stats()["jobs_retained"] == 4
        running[1].complete({})
        queue.release(running[1])
        queue.submit("t", {"kind": "estimate"})
        with pytest.raises(ServeError):
            queue.get(running[1].id)
        assert queue.get(running[0].id) is running[0]

    def test_finished_job_is_evictable_once_released(self):
        # A worker finishes its job before it releases the tenant slot;
        # the queue records the finish on release, under its lock.
        queue = JobQueue(retention=1)
        job = queue.submit("t", {"kind": "estimate"})
        queue.claim(timeout=0.1)
        job.complete({})
        queue.submit("t", {"kind": "estimate"})
        assert queue.get(job.id) is job
        queue.release(job)
        queue.submit("t", {"kind": "estimate"})
        with pytest.raises(ServeError):
            queue.get(job.id)

    def test_finish_time_lands_before_terminal_state(self):
        seen = []

        class RecordingJob(Job):
            def __setattr__(self, name, value):
                if name == "state" and value == "done":
                    seen.append(self.finished_at)
                super().__setattr__(name, value)

        job = RecordingJob("job-1", "t", {"kind": "estimate"})
        job.complete({})
        assert seen and seen[0] is not None

    def test_event_log_cursor_replay(self):
        queue = JobQueue()
        job = queue.submit("t", {"kind": "estimate"}, stream=True)
        job.add_event({"event": "generation", "n": 1})
        job.add_event({"event": "generation", "n": 2})
        events, cursor = job.events_after(0, timeout=0.1)
        assert [e["n"] for e in events] == [1, 2]
        job.complete({})
        later, cursor = job.events_after(cursor, timeout=0.1)
        assert later[-1]["event"] == "end"
        # replay from scratch sees the identical log
        replay, _ = job.events_after(0, timeout=0.1)
        assert [e.get("event") for e in replay] == [
            "generation", "generation", "end",
        ]


# ---------------------------------------------------------------------------
# Rate limiting (fake clock; no sleeping)
# ---------------------------------------------------------------------------


class TestRateLimiting:
    def test_token_bucket_refills_at_rate(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_take() is None
        assert bucket.try_take() is None
        wait = bucket.try_take()
        assert wait == pytest.approx(0.5)
        now[0] += 0.5  # one token refilled
        assert bucket.try_take() is None

    def test_limiter_isolates_tenants(self):
        now = [0.0]
        limiter = TenantRateLimiter(1.0, clock=lambda: now[0])
        limiter.admit("a")
        with pytest.raises(RateLimitError) as info:
            limiter.admit("a")
        assert info.value.retry_after_seconds == pytest.approx(1.0)
        limiter.admit("b")  # a's exhaustion never touches b
        record = info.value.as_dict()
        assert record["code"] == "rate-limited"
        assert record["retry_after_seconds"] == pytest.approx(1.0)

    def test_none_rate_disables_limiting(self):
        limiter = TenantRateLimiter(None)
        for _ in range(1000):
            limiter.admit("t")
        assert limiter.levels() == {}


# ---------------------------------------------------------------------------
# Structured error -> HTTP status mapping
# ---------------------------------------------------------------------------


class TestHttpStatusMapping:
    def test_every_error_code_has_a_status(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        for cls in subclasses(ReproError):
            if cls.__module__ != "repro.errors":
                continue  # client-side helpers define their own codes
            assert cls.code in HTTP_STATUS_BY_CODE, cls

    def test_selected_mappings(self):
        assert http_status_of(RequestError("x")) == 400
        assert http_status_of(RateLimitError("x")) == 429
        assert http_status_of(ServeError("x")) == 503
        assert http_status_of(StoreError("x")) == 409
        assert http_status_of(ValueError("x")) == 500  # unknown: internal

    def test_request_error_field_in_payload(self):
        error = RequestError("bad", field="priority")
        assert error.as_dict()["field"] == "priority"
        assert "field" not in RequestError("bad").as_dict()

    def test_rejection_lists_allowed_kinds(self):
        with pytest.raises(RequestError) as info:
            request_from_dict({"kind": "warp-drive"})
        message = str(info.value)
        assert "allowed kinds" in message and "estimate" in message
        assert info.value.as_dict()["field"] == "kind"
        with pytest.raises(RequestError, match="missing the 'kind'"):
            request_from_dict({})


# ---------------------------------------------------------------------------
# The HTTP server end-to-end
# ---------------------------------------------------------------------------


class TestServerEndpoints:
    def test_submit_run_estimate(self, client):
        document = client.run({"kind": "estimate"})
        assert document["state"] == "done"
        result = document["result"]
        assert result["kind"] == "estimate" and result["status"] == "ok"
        assert "metrics" in result["payload"]

    def test_listen_backlog_absorbs_connection_bursts(self, server):
        # socketserver's default backlog of 5 drops SYNs under a handful
        # of concurrent clients, stalling each for a 1 s retransmit.
        assert server._httpd.request_queue_size == 128

    def test_healthz_and_metrics(self, client):
        client.run({"kind": "estimate"})
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["jobs"]["by_state"]["done"] >= 1
        metrics = client.metrics()
        assert metrics["server"]["jobs"]["accepting"] is True
        assert metrics["metrics"]["serve.jobs.submitted"] >= 1
        assert "engine_stats" in metrics

    def test_validation_error_maps_to_400_envelope(self, client):
        with pytest.raises(ServeHTTPError) as info:
            client.submit({"kind": "estimate", "adc_bits": -3})
        assert info.value.status == 400
        assert info.value.error["code"] == "request"
        with pytest.raises(ServeHTTPError) as info:
            client.submit({"kind": "warp-drive"})
        assert info.value.status == 400
        assert info.value.error["field"] == "kind"
        with pytest.raises(ServeHTTPError) as info:
            client.submit({"kind": "explore", "surrogate": "screen"})
        assert info.value.status == 400
        assert info.value.error["code"] == "request"

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeHTTPError) as info:
            client.job("job-424242")
        assert info.value.status == 404

    def test_failed_job_carries_structured_error(self, client, server):
        # validate passes (shape), execution fails (semantics): the
        # campaign resume of a name that was never run.
        document = client.run({
            "kind": "campaign", "name": "never-ran", "action": "resume",
        })
        assert document["state"] == "failed"
        assert document["error"]["code"] in ("store", "optimization")

    def test_rate_limit_429_envelope(self, tmp_path):
        config = ServerConfig(
            port=0,
            workers=1,
            rate_limit=0.001,  # one token, then a very long refill
            rate_burst=1.0,
            session=SessionConfig(),
        )
        with ReproServer(config) as server:
            client = ServeClient(server.url)
            client.submit({"kind": "estimate"}, tenant="alice")
            with pytest.raises(ServeHTTPError) as info:
                client.submit({"kind": "estimate"}, tenant="alice")
            assert info.value.status == 429
            error = info.value.error
            assert error["code"] == "rate-limited"
            assert error["retry_after_seconds"] > 0
            # another tenant is unaffected
            client.submit({"kind": "estimate"}, tenant="bob")
            limited = client.metrics()["metrics"]["serve.rate_limited"]
            assert limited == 1

    def test_query_pagination_over_http(self, client):
        client.run({"kind": "explore", "array_size": 1024,
                    "population": 12, "generations": 2, "seed": 3})
        full = client.run({"kind": "query", "what": "designs"})
        payload = full["result"]["payload"]
        total = payload["total"]
        assert total == payload["count"] > 1
        page = client.run({
            "kind": "query", "what": "designs", "limit": 1, "offset": 1,
        })["result"]["payload"]
        assert page["count"] == 1 and page["total"] == total
        assert page["designs"][0] == payload["designs"][1]
        tail = client.run({
            "kind": "query", "what": "designs", "offset": total,
        })["result"]["payload"]
        assert tail["count"] == 0 and tail["total"] == total


class TestStreaming:
    def test_campaign_streams_generations_and_matches_direct(
        self, client, server, tmp_path
    ):
        accepted = client.submit(
            dict(TINY_CAMPAIGN, name="streamed"), stream=True
        )
        events = client.stream_events(accepted["job_id"])
        kinds = [event.get("event") for event in events]
        assert kinds[0] == "start" and kinds[-1] == "end"
        generations = [e for e in events if e.get("event") == "generation"]
        assert [g["generations_done"] for g in generations] == [1, 2, 3, 4]
        assert generations[-1]["campaign_status"] == "completed"
        streamed = client.job(accepted["job_id"])["result"]

        direct = Session.from_config(
            SessionConfig(store=str(tmp_path / "direct.sqlite"))
        )
        try:
            twin = direct.submit(
                CampaignRequest(**{**_campaign_kwargs(), "name": "direct"})
            )
        finally:
            direct.close()
        assert streamed["payload"]["pareto"] == twin.payload["pareto"]
        assert (
            streamed["payload"]["evaluations"]
            == twin.payload["evaluations"]
        )

    def test_two_clients_one_reconnects_from_cursor(self, client, server):
        accepted = client.submit(
            dict(TINY_CAMPAIGN, name="two-readers"), stream=True
        )
        job_id = accepted["job_id"]
        follower_events = []
        follower = threading.Thread(
            target=lambda: follower_events.extend(
                ServeClient(server.url).stream(job_id)
            )
        )
        follower.start()
        # Second client: read two events, "disconnect", reconnect after.
        partial = []
        for event in client.stream(job_id):
            partial.append(event)
            if len(partial) == 2:
                break
        cursor = partial[-1]["_cursor"]
        resumed = list(client.stream(job_id, after=cursor))
        follower.join(timeout=60)
        rejoined = [dict(e, _cursor=None) for e in partial + resumed]
        followed = [dict(e, _cursor=None) for e in follower_events]
        assert rejoined == followed  # lossless replay across the reconnect
        assert followed[-1]["event"] == "end"

    def test_stream_of_plain_job_ends_cleanly(self, client):
        accepted = client.submit({"kind": "estimate"}, stream=True)
        events = client.stream_events(accepted["job_id"])
        assert [e["event"] for e in events] == ["start", "end"]
        assert events[-1]["state"] == "done"


class TestWire:
    """Compact replies, the stream-following ``wait`` and the latency
    histogram."""

    def test_job_reply_is_compact_json(self, client, server):
        job_id = client.run({"kind": "estimate"})["id"]
        connection = http.client.HTTPConnection(server.config.host, server.port)
        try:
            connection.request("GET", f"/v1/jobs/{job_id}")
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/json"
        assert int(response.getheader("Content-Length")) == len(body)
        assert body == json.dumps(json.loads(body)).encode() + b"\n"
        result = json.loads(body)["result"]
        with Session() as session:
            twin = json.loads(json.dumps(
                session.submit(EstimateRequest()).to_dict()
            ))
        # Timings, trace ids and cache counters differ between the two
        # sessions; what the request computed must not, float reprs
        # included.
        assert set(result) == set(twin)
        for key in ("kind", "status", "payload", "warnings"):
            assert result[key] == twin[key]

    def test_wait_on_finished_job_is_one_stream_and_one_job_get(
        self, client
    ):
        job_id = client.submit({"kind": "estimate"})["job_id"]
        client.stream_events(job_id)  # the job is finished now
        before = client.metrics()["metrics"]["serve.http.requests"]
        assert client.wait(job_id)["state"] == "done"
        after = client.metrics()["metrics"]["serve.http.requests"]
        # A metrics snapshot counts its own request: the stream and the
        # job GET of ``wait``, then the second metrics GET.
        assert after - before == 3

    def test_wait_times_out_on_a_queued_job(self, monkeypatch):
        # Keep-alive comments every 50 ms must not extend the deadline.
        monkeypatch.setattr(server_module, "STREAM_KEEPALIVE_SECONDS", 0.05)
        server = ReproServer(
            ServerConfig(port=0, workers=2, max_per_tenant=1)
        ).start()
        try:
            client = ServeClient(server.url)
            # The layout job blocks on the physical lock the test holds,
            # so the tenant's estimate stays queued behind its cap.
            with server._physical_lock:
                blocker = client.submit(
                    {"kind": "layout", "route_columns": False}
                )
                queued = client.submit({"kind": "estimate"})
                # Should ``wait`` overrun its deadline, this cancel ends
                # the stream and the missing raise fails the test.
                rescue = threading.Timer(
                    30.0, client.cancel, (queued["job_id"],)
                )
                rescue.start()
                try:
                    with pytest.raises(ServeError, match="still 'queued'"):
                        client.wait(queued["job_id"], timeout=0.3)
                finally:
                    rescue.cancel()
                assert client.job(queued["job_id"])["state"] == "queued"
            assert client.wait(blocker["job_id"])["state"] == "done"
            assert client.wait(queued["job_id"])["state"] == "done"
        finally:
            server.shutdown()

    def test_latency_histogram_counts_json_replies_not_streams(
        self, client, server
    ):
        done = client.run({"kind": "estimate"})
        job_id = done["id"]
        # Jobs never record it, so it is no entry of their envelopes.
        assert "serve.http.latency_seconds" not in done["result"]["metrics"]
        # One kept-alive connection: the server handles its requests in
        # order, so each reply is observed before the next one is read.
        connection = http.client.HTTPConnection(server.config.host, server.port)

        def get(path: str) -> dict:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read())

        try:
            first = get("/v1/metrics")["metrics"]
            client.stream_events(job_id)
            get(f"/v1/jobs/{job_id}")
            get("/v1/healthz")
            second = get("/v1/metrics")["metrics"]
        finally:
            connection.close()
        # A snapshot counts its own request but not its own reply.
        assert (
            second["serve.http.requests"] - first["serve.http.requests"]
            == 4  # stream, job, healthz, metrics
        )
        latency_first = first["serve.http.latency_seconds"]
        latency_second = second["serve.http.latency_seconds"]
        assert latency_second["count"] - latency_first["count"] == 3
        assert latency_second["sum"] > latency_first["sum"]
        assert sum(n for _, n in latency_second["buckets"]) == (
            latency_second["count"]
        )

    def test_submitted_request_is_parsed_once(self, client, monkeypatch):
        calls = []
        parse = server_module.request_from_dict

        def counting(document):
            calls.append(document["kind"])
            return parse(document)

        monkeypatch.setattr(server_module, "request_from_dict", counting)
        assert client.run({"kind": "estimate"})["state"] == "done"
        assert calls == ["estimate"]


class TestCancellation:
    def test_cancel_mid_campaign_leaves_resumable_checkpoint(
        self, client, server
    ):
        request = dict(
            TINY_CAMPAIGN, name="cancel-me", generations=200, population=16
        )
        accepted = client.submit(request, stream=True)
        job_id = accepted["job_id"]
        stream = client.stream(job_id)
        seen = 0
        for event in stream:
            if event.get("event") == "generation":
                seen = event["generations_done"]
                if seen >= 2:
                    break
        report = client.cancel(job_id)
        assert report["cancel_requested"] is True
        final = client.wait(job_id, timeout=60)
        assert final["state"] == "cancelled"
        # the campaign is interrupted-but-resumable on the shared store:
        # finishing it via resume works and picks up where it stopped.
        resumed = client.run({
            "kind": "campaign", "name": "cancel-me", "action": "resume",
            "stop_after": 1,
        }, timeout=120)
        assert resumed["state"] == "done"
        payload = resumed["result"]["payload"]
        assert payload["generations_done"] > seen >= 2

    def test_cancel_queued_job_never_runs(self):
        # An unstarted server has no workers: the queue holds jobs
        # deterministically, so "cancel while still queued" is exact.
        server = ReproServer(ServerConfig(port=0, workers=1))
        victim = server.submit({"kind": "estimate"})
        report = server.cancel(victim.id)
        assert report == {"state": "cancelled", "cancel_requested": True}
        assert server.queue.get(victim.id).state == "cancelled"
        server.shutdown()


class TestSharedSessionConcurrency:
    def test_concurrent_submits_share_cache_and_stats(self, tmp_path):
        session = Session.from_config(
            SessionConfig(store=str(tmp_path / "shared.sqlite"))
        )
        errors = []

        # Distinctive geometry: the engine's memoization cache is shared
        # process-wide, so the default spec may be warm from other tests.
        spec = EstimateRequest(height=256, width=32)

        def worker(seed):
            try:
                for _ in range(3):
                    result = session.submit(spec)
                    assert result.status == "ok"
                session.submit(QueryRequest(what="designs", limit=2))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = session.engine.stats
        # 18 identical estimates: one thread computed, the rest hit the
        # shared LRU; totals are exact because counters are lock-guarded.
        assert stats.evaluations + stats.cache_hits == 18
        assert 1 <= stats.evaluations < 18
        session.close()
        session.close()  # idempotent
        assert session.closed

    def test_server_mixed_load_many_tenants(self, server):
        client = ServeClient(server.url)
        accepted = []
        for index in range(12):
            tenant = f"tenant-{index % 3}"
            accepted.append(client.submit(
                {"kind": "estimate"} if index % 2 else {"kind": "library"},
                tenant=tenant,
                priority=index % 4,
            ))
        finals = [client.wait(a["job_id"], timeout=120) for a in accepted]
        assert all(f["state"] == "done" for f in finals)
        by_state = client.healthz()["jobs"]["by_state"]
        assert by_state["done"] >= 12 and by_state["failed"] == 0


class TestShutdown:
    def test_graceful_shutdown_drains_inflight(self, tmp_path):
        config = ServerConfig(
            port=0, workers=2,
            session=SessionConfig(store=str(tmp_path / "drain.sqlite")),
        )
        server = ReproServer(config).start()
        client = ServeClient(server.url)
        accepted = client.submit(
            {"kind": "explore", "array_size": 1024,
             "population": 12, "generations": 3, "seed": 2})
        server.shutdown()  # must wait for the running job, then close
        job = server.queue.get(accepted["job_id"])
        assert job.state == "done"
        assert server.session.closed
        with pytest.raises(ServeError, match="draining"):
            server.submit({"kind": "estimate"})

    def test_server_config_round_trip_and_validation(self):
        config = ServerConfig(port=0, workers=3, rate_limit=10.0)
        clone = ServerConfig.from_dict(config.to_dict())
        assert clone.workers == 3 and clone.rate_limit == 10.0
        with pytest.raises(ServeError, match="workers"):
            ServerConfig(workers=0).validate()
        with pytest.raises(RequestError, match="unknown server config"):
            ServerConfig.from_dict({"wrkers": 2})
        # The session's engine pool size was removed in 1.7.0; the
        # server's own job threads stay ``ServerConfig.workers``.
        with pytest.raises(RequestError, match="workers") as excinfo:
            ServerConfig.from_dict({"session": {"workers": 2}})
        assert excinfo.value.field == "workers"
        with pytest.raises(RequestError, match="workers") as excinfo:
            ServerConfig(session={"workers": 2}).validate()
        assert excinfo.value.field == "workers"


def _campaign_kwargs() -> dict:
    kwargs = dict(TINY_CAMPAIGN)
    kwargs.pop("kind")
    return kwargs
