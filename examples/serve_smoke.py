#!/usr/bin/env python3
"""Serving-layer smoke test: every endpoint of a live server over HTTP.

The CI ``make serve-smoke`` target boots a real
:class:`~repro.serve.server.ReproServer` on an ephemeral port — stdlib
HTTP, worker pool, one shared file-backed session — and walks the whole
wire surface with a :class:`~repro.serve.client.ServeClient`:

1. every request kind of the typed catalogue submitted by HTTP as plain
   JSON and polled to a healthy terminal state, across three tenants;
2. a checkpointed campaign streamed generation-by-generation over SSE,
   with a second reader attached mid-flight from a replay cursor
   (both must observe the identical event log);
3. a long campaign cancelled mid-flight — it must end ``cancelled`` and
   then *finish* via an HTTP ``resume`` request (the checkpoint
   survives cancellation);
4. structured rejections: unknown kind, invalid field, unknown job, and
   the 429 rate-limit envelope with its retry hint;
5. ``/v1/metrics`` + ``/v1/healthz`` accounting, then a graceful
   drain-and-shutdown (queue refuses new work, in-flight jobs finish,
   the session closes).

Exit code 0 means the serving layer is alive end-to-end.
"""

from __future__ import annotations

import sys
import tempfile
import threading
from pathlib import Path

from repro.api import SessionConfig
from repro.errors import ServeError
from repro.serve import ReproServer, ServeClient, ServeHTTPError, ServerConfig

#: One JSON document per request kind, sized for a seconds-long run.
MIXED_DOCUMENTS = [
    {"kind": "estimate", "height": 128, "width": 8, "local_array_size": 4,
     "adc_bits": 3},
    {"kind": "explore", "array_size": 1024, "population": 16,
     "generations": 3, "seed": 3},
    {"kind": "query", "what": "designs", "limit": 3, "offset": 1},
    {"kind": "query", "what": "campaigns"},
    {"kind": "validate-snr", "adc_bits": [3], "height": 64,
     "local_array_size": 4, "trials": 100},
    {"kind": "library", "report": False},
]

STREAMED_CAMPAIGN = {
    "kind": "campaign", "name": "serve-smoke-streamed",
    "array_size": 1024, "population": 12, "generations": 3, "seed": 5,
}

CANCELLED_CAMPAIGN = {
    "kind": "campaign", "name": "serve-smoke-cancelled",
    "array_size": 1024, "population": 12, "generations": 400, "seed": 6,
}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="easyacim-serve-smoke-") as tmp:
        config = ServerConfig(
            port=0, workers=2,
            session=SessionConfig(store=str(Path(tmp) / "store.sqlite")),
        )
        server = ReproServer(config).start()
        client = ServeClient(server.url)
        print(f"server up on {server.url}")

        # 1. the full request catalogue over HTTP, three tenants ----------
        for index, document in enumerate(MIXED_DOCUMENTS):
            tenant = f"tenant-{index % 3}"
            final = client.run(document, tenant=tenant, timeout=300)
            check(final["state"] == "done",
                  f"{document['kind']} ended {final['state']!r}")
            check(final["result"]["status"] == "ok",
                  f"{document['kind']} status {final['result']['status']!r}")
            print(f"  {document['kind']:<12} done   (tenant {tenant})")

        # 2. streamed campaign + second reader from a cursor --------------
        accepted = client.submit(STREAMED_CAMPAIGN, tenant="streamer",
                                 stream=True)
        job_id = accepted["job_id"]
        first_events = []
        for event in client.stream(job_id, timeout=600):
            first_events.append(event)
        generations = [e for e in first_events
                       if e.get("event") == "generation"]
        check(len(generations) == STREAMED_CAMPAIGN["generations"],
              f"expected {STREAMED_CAMPAIGN['generations']} generation "
              f"events, saw {len(generations)}")
        check(first_events[-1]["event"] == "end", "stream missing end event")
        # a late reader replays the identical, already-finished log
        replayed = ServeClient(server.url).stream_events(job_id)
        check([dict(e, _cursor=None) for e in replayed]
              == [dict(e, _cursor=None) for e in first_events],
              "late reader saw a different event log")
        print(f"  campaign     streamed {len(generations)} generations, "
              "replay identical")

        # 3. cancel mid-flight, then resume to completion over HTTP -------
        doomed = client.submit(CANCELLED_CAMPAIGN, tenant="streamer",
                               stream=True)
        for event in client.stream(doomed["job_id"], timeout=600):
            if event.get("event") == "generation":
                break  # one checkpoint committed: cancel now
        client.cancel(doomed["job_id"])
        final = client.wait(doomed["job_id"], timeout=300)
        check(final["state"] == "cancelled",
              f"cancelled campaign ended {final['state']!r}")
        resumed = client.run(
            {"kind": "campaign", "name": CANCELLED_CAMPAIGN["name"],
             "action": "resume", "stop_after": 2},
            tenant="streamer", timeout=300)
        check(resumed["state"] == "done", "resume after cancel failed")
        check(resumed["result"]["payload"]["generations_done"] >= 2,
              "resume made no progress")
        print("  campaign     cancelled mid-flight, checkpoint resumed by "
              "HTTP")

        # 4. structured rejections ----------------------------------------
        try:
            client.submit({"kind": "warp-drive"})
            check(False, "unknown kind was accepted")
        except ServeHTTPError as error:
            check(error.status == 400 and error.error["field"] == "kind",
                  f"unknown kind: {error.status}/{error.error}")
        try:
            client.job("job-999999")
            check(False, "unknown job returned")
        except ServeHTTPError as error:
            check(error.status == 404, f"unknown job status {error.status}")
        limited = ReproServer(ServerConfig(
            port=0, workers=1, rate_limit=0.001, rate_burst=1.0)).start()
        try:
            throttled = ServeClient(limited.url)
            throttled.submit({"kind": "library"}, tenant="busy")
            try:
                throttled.submit({"kind": "library"}, tenant="busy")
                check(False, "rate limit never fired")
            except ServeHTTPError as error:
                check(error.status == 429
                      and error.error["code"] == "rate-limited"
                      and error.error["retry_after_seconds"] > 0,
                      f"429 envelope wrong: {error.status}/{error.error}")
        finally:
            limited.shutdown()
        print("  rejections   400 unknown-kind, 404 unknown-job, 429 "
              "rate-limited all structured")

        # 5. metrics, health, graceful shutdown ---------------------------
        metrics = client.metrics()
        submitted = metrics["metrics"]["serve.jobs.submitted"]
        check(submitted >= len(MIXED_DOCUMENTS) + 3,
              f"submitted counter {submitted} too low")
        health = client.healthz()
        check(health["status"] == "ok" and health["jobs"]["accepting"],
              f"unhealthy: {health}")
        server.shutdown()
        check(server.session.closed, "session not closed by shutdown")
        try:
            server.submit({"kind": "library"})
            check(False, "drained server accepted a job")
        except ServeError:
            pass
        print(f"  shutdown     drained cleanly after {submitted} jobs, "
              "session closed")

    print("serve smoke: all endpoints healthy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
