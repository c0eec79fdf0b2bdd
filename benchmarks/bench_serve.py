#!/usr/bin/env python3
"""Serving-layer load benchmark (ISSUE 9).

Drives a real :class:`~repro.serve.server.ReproServer` — stdlib HTTP
front end, priority job queue, worker pool, one shared session — with a
closed-loop multi-tenant client fleet:

1. **mixed load** — ``--clients`` threads (distinct tenants) each push a
   repeating estimate/query/library mix through ``POST /v1/submit`` and
   follow each job's event stream to completion, >= 1000 requests total
   in the full run; sustained throughput and client-observed p50/p99
   latency are recorded;
2. **streamed campaign** — one tenant runs a checkpointed campaign with
   generation-by-generation SSE streaming *concurrently with* the mixed
   load, and one mid-flight cancellation is exercised on a second
   campaign (which must end ``cancelled`` and stay resumable);
3. **bit-identity** — the streamed campaign's Pareto set must equal a
   direct ``Session.submit`` of the identical request on a private
   store: the server path may change *when* generations run, never what
   they compute.

Gates (relaxed, recorded-only, on single-core hosts like the smoke CI
runner — same convention as the physical-pipeline gates): sustained mixed
throughput >= 25 requests/second and client-observed p99 latency
<= 1.0 s.

Run with::

    python benchmarks/bench_serve.py          # record baseline
    python benchmarks/bench_serve.py --quick  # CI smoke (no write)

Results are written to ``benchmarks/BENCH_serve.json`` (override with
``--json``); the committed file is the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import tempfile
import threading
import time
from pathlib import Path

from repro.api import CampaignRequest, Session, SessionConfig
from repro.serve import ReproServer, ServeClient, ServerConfig

THROUGHPUT_GATE = 25.0  # sustained mixed requests/second
P99_GATE = 1.0          # client-observed seconds, submit -> terminal

CAMPAIGN = dict(array_size=1024, population=16, generations=5, seed=11)


def mixed_request(index: int) -> dict:
    """The repeating estimate/query/library request mix."""
    slot = index % 10
    if slot < 7:
        # vary geometry so the shared cache sees hits *and* misses
        # (H/L >= 2^B feasibility holds for every combination below)
        heights = (256, 512, 1024)
        return {"kind": "estimate", "height": heights[index % 3],
                "width": 64, "adc_bits": 2 + index % 4}
    if slot < 9:
        return {"kind": "query", "what": "designs", "limit": 5,
                "offset": index % 3}
    return {"kind": "library"}


def client_loop(url: str, tenant: str, count: int,
                latencies: list, failures: list) -> None:
    """Closed loop: submit, wait to terminal, record client-side latency."""
    client = ServeClient(url)
    for index in range(count):
        request = mixed_request(index)
        start = time.perf_counter()
        try:
            accepted = client.submit(request, tenant=tenant)
            final = client.wait(accepted["job_id"], timeout=120)
            if final["state"] != "done":
                failures.append((tenant, index, final["state"]))
        except Exception as error:  # noqa: BLE001 - recorded, not raised
            failures.append((tenant, index, repr(error)))
        latencies.append(time.perf_counter() - start)


def percentile(values: list, fraction: float) -> float:
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(fraction * len(ranked)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: smaller load, no baseline write")
    parser.add_argument("--clients", type=int, default=8,
                        help="closed-loop client threads / tenants")
    parser.add_argument("--requests", type=int, default=None,
                        help="total mixed requests (default 1000, quick 120)")
    parser.add_argument("--json", type=Path,
                        default=Path(__file__).parent / "BENCH_serve.json")
    parser.add_argument("--no-assert", action="store_true",
                        help="record numbers without enforcing the gates")
    args = parser.parse_args(argv)

    total_requests = args.requests or (120 if args.quick else 1000)
    clients = max(1, args.clients)
    per_client = max(1, total_requests // clients)
    total_requests = per_client * clients
    cores = os.cpu_count() or 1

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        config = ServerConfig(
            port=0,
            workers=max(4, min(8, cores * 2)),
            max_per_tenant=2,
            session=SessionConfig(store=str(tmp_path / "serve.sqlite")),
        )
        server = ReproServer(config).start()
        url = server.url

        # -- streamed campaign riding alongside the mixed load ------------
        stream_client = ServeClient(url)
        streamed = stream_client.submit(
            dict(CAMPAIGN, kind="campaign", name="bench-streamed"),
            tenant="campaigner", stream=True)
        stream_events: list = []
        stream_thread = threading.Thread(
            target=lambda: stream_events.extend(
                stream_client.stream(streamed["job_id"], timeout=600)))
        stream_thread.start()

        # -- a second campaign cancelled mid-flight ------------------------
        doomed = stream_client.submit(
            {"kind": "campaign", "name": "bench-cancelled",
             "array_size": 1024, "population": 16, "generations": 500,
             "seed": 3},
            tenant="campaigner", stream=True)
        doomed_gen = threading.Event()
        def watch_doomed():
            for event in stream_client.stream(doomed["job_id"], timeout=600):
                if event.get("event") == "generation":
                    doomed_gen.set()  # >= 1 checkpoint committed: cancel now
        doomed_thread = threading.Thread(target=watch_doomed)
        doomed_thread.start()

        # -- the mixed closed-loop fleet -----------------------------------
        latencies: list = []
        failures: list = []
        threads = [
            threading.Thread(
                target=client_loop,
                args=(url, f"tenant-{i}", per_client, latencies, failures))
            for i in range(clients)
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        doomed_gen.wait(timeout=300)
        cancel_report = stream_client.cancel(doomed["job_id"])
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_start

        stream_thread.join(timeout=600)
        doomed_thread.join(timeout=600)
        doomed_final = stream_client.wait(doomed["job_id"], timeout=120)
        streamed_final = stream_client.wait(streamed["job_id"], timeout=300)
        metrics = stream_client.metrics()
        server.shutdown()

    # -- bit-identity: server-streamed campaign vs direct submit -----------
    generations = [e for e in stream_events
                   if e.get("event") == "generation"]
    with tempfile.TemporaryDirectory() as tmp:
        direct = Session.from_config(
            SessionConfig(store=str(Path(tmp) / "direct.sqlite")))
        try:
            twin = direct.submit(
                CampaignRequest(name="bench-direct", **CAMPAIGN))
        finally:
            direct.close()
    streamed_payload = streamed_final["result"]["payload"]
    identical = (
        streamed_payload["pareto"] == twin.payload["pareto"]
        and streamed_payload["evaluations"] == twin.payload["evaluations"]
        and len(generations) == CAMPAIGN["generations"]
    )
    if not identical:
        print("FAIL: streamed campaign diverged from direct Session.submit")
        return 1
    print(f"bit-identity: streamed campaign == direct submit "
          f"({len(generations)} generation events, "
          f"{len(streamed_payload['pareto'])} pareto points)")

    if failures:
        print(f"FAIL: {len(failures)} of {total_requests} mixed requests "
              f"failed; first: {failures[0]}")
        return 1
    if doomed_final["state"] != "cancelled":
        print(f"FAIL: cancelled campaign ended {doomed_final['state']!r}")
        return 1
    print(f"cancellation: mid-flight cancel acknowledged "
          f"(state at request: {cancel_report['state']}), "
          f"job ended cancelled with a resumable checkpoint")

    throughput = total_requests / wall
    p50 = percentile(latencies, 0.50)
    p99 = percentile(latencies, 0.99)
    counters = metrics["metrics"]
    record = {
        "benchmark": "serve",
        "requests": total_requests,
        "clients": clients,
        "server_workers": config.workers,
        "cpu": platform.processor() or platform.machine(),
        "cores": cores,
        "python": platform.python_version(),
        "wall_seconds": round(wall, 3),
        "throughput_rps": round(throughput, 2),
        "latency_seconds": {
            "p50": round(p50, 5),
            "p99": round(p99, 5),
            "max": round(max(latencies), 5),
        },
        "streamed_campaign": {
            "generations": len(generations),
            "pareto_points": len(streamed_payload["pareto"]),
            "bit_identical_to_direct": identical,
        },
        "cancelled_campaign_state": doomed_final["state"],
        "server_counters": {
            name: value for name, value in sorted(counters.items())
            if name.startswith("serve.") and isinstance(value, (int, float))
        },
    }
    print(f"    mixed load      : {total_requests} requests, "
          f"{clients} tenants, {wall:.2f} s wall")
    print(f"    throughput      : {throughput:9.1f} req/s sustained")
    print(f"    latency         : p50 {p50 * 1e3:.1f} ms, "
          f"p99 {p99 * 1e3:.1f} ms")

    # Single-core hosts record but do not enforce.
    gate_applies = cores >= 2 and not args.no_assert
    record["throughput_gate"] = {
        "threshold_rps": THROUGHPUT_GATE,
        "enforced": gate_applies,
        "passed": throughput >= THROUGHPUT_GATE if gate_applies else None,
    }
    record["p99_gate"] = {
        "threshold_seconds": P99_GATE,
        "enforced": gate_applies,
        "passed": p99 <= P99_GATE if gate_applies else None,
    }
    if gate_applies and throughput < THROUGHPUT_GATE:
        print(f"FAIL: {throughput:.1f} req/s < {THROUGHPUT_GATE:g} gate")
        return 1
    if gate_applies and p99 > P99_GATE:
        print(f"FAIL: p99 {p99:.3f} s > {P99_GATE:g} s gate")
        return 1
    ok = throughput >= THROUGHPUT_GATE and p99 <= P99_GATE
    status = "OK" if ok else "RELAXED"
    print(f"{status}: {throughput:.1f} req/s, p99 {p99 * 1e3:.1f} ms "
          f"(gates: {THROUGHPUT_GATE:g} req/s, {P99_GATE:g} s p99, "
          f"{'enforced' if gate_applies else 'recorded only'})")

    if not args.quick:
        args.json.write_text(json.dumps(record, indent=2) + "\n")
        print(f"baseline written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
