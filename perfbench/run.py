#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload serve --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --workload all --repeat 10 --seed 1   # steadiness
    python3 perfbench/run.py --record                              # references

Workloads (``BENCHMARK.json`` says why each exists): ``explore`` and
``flow`` run in this process through ``Session.submit`` (``workloads.py``);
``serve`` drives a ``repro serve`` process over HTTP (``serve_load.py``).
A run repeats rounds of the workload's fixed request group until
``--seconds`` have passed, after one untimed warm-up round.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over several back-to-back starts, before the
  rounds, of the time from spawning a fresh interpreter to a ready
  store-less ``Session``, or to a ``repro serve`` on a copy of the
  pre-seeded store answering ``/v1/healthz``.  Starts taken between
  rounds instead read 15-50% slower, after each round has evicted the
  caches, which would tie set-up time to the workload's rounds;
* ``wall_s``: wall time of one round with the least disturbance the run
  saw.  Rounds repeat the same cold-started work, and other tenants of a
  shared host only ever add time to a round.  In-process, a round is one
  request, split into consecutive phases that sum to its wall time; the
  round time is the sum of each phase's fastest time over the run (for a
  pool of several groups, the mean over groups).  ``explore`` has one
  phase, the request, so there it is the fastest round.  ``flow`` has
  the program's own physical stage timings (``stage_<name>_seconds``)
  plus the rest of the request: on a shared 2-core VM, 0.5-s flow rounds
  ran 30-80% slower in busy spells of one to several seconds, and
  phases of 0.02-0.2 s find undisturbed stretches that whole rounds
  miss (on a quiet host the two estimates agree within 1%).  Neither
  removes slower drift of the host's speed over minutes, which moves a
  pure-Python calibration loop by the same share.  ``serve`` takes the
  fastest round of its fixed mix;
* ``req_p50_ms`` / ``req_p99_ms``: nearest-rank percentiles of the
  per-request latency.  For ``serve`` the latency is from submit to the
  terminal SSE event as the client sees it (a failed request counts as
  the client timeout), and each metric is the median, over consecutive
  windows of 1,000 requests (four rounds), of the window's percentile: a
  window holds 10 samples beyond its p99, and a busy spell of the host
  that inflates one window's tail does not move the median window.  In
  one run-wide pool, the p99 spread 0.20 over ten runs on a busy host.
  In-process every round is one request, so there they are over each
  distinct request's round time as above.  Every workload prints every
  end-to-end metric, one result format for all; over a handful of
  requests the p99 is only the slowest of them;
* ``throughput_rps``: requests of one round per second of ``wall_s``;
* ``peak_rss_mb``: peak resident memory of the process that runs the
  program (this one, or the server).

Failures (errors, timeouts, outputs that differ from ``reference.json`` or
from an in-process twin) are the ``failed`` count of the result line, with
``attempted`` as its base; any failure makes the exit code non-zero.

``--trace 1`` alternates plain and traced rounds (``spans.py`` wraps the
program's public calls; nothing inside ``src/`` changes) and prints the
per-layer metrics of :data:`LAYER_METRICS`.  Seconds and counts are per
round, except ``store.open_s``, ``store.hydrate_s`` and
``store.hydrate_rows``, which are per store opened, and the ``serve.*``
latencies, which are medians per request.  ``trace.overhead_s`` is the
traced ``wall_s`` minus the plain ``wall_s`` of the same run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import fixtures

WORKLOAD_NAMES = ("explore", "flow", "serve")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("peak_rss_mb", "MB"),
)

LAYER_METRICS = (
    ("api.self_s", "s"),
    ("dse.rank_s", "s"),
    ("dse.rank_calls", "count"),
    ("dse.pareto_s", "s"),
    ("dse.variation_s", "s"),
    ("dse.loop_s", "s"),
    ("dse.evaluate_s", "s"),
    ("dse.generations", "count"),
    ("engine.evaluate_s", "s"),
    ("engine.map_s", "s"),
    ("engine.specs", "count"),
    ("engine.computed", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.store_hits", "count"),
    ("model.evaluate_s", "s"),
    ("model.specs", "count"),
    ("store.open_s", "s"),
    ("store.hydrate_s", "s"),
    ("store.hydrate_rows", "count"),
    ("store.write_s", "s"),
    ("store.rows_written", "count"),
    ("store.query_s", "s"),
    ("store.file_mb", "MB"),
    ("flow.self_s", "s"),
    ("physical.run_s", "s"),
    ("physical.netlist_s", "s"),
    ("physical.placement_s", "s"),
    ("physical.routing_s", "s"),
    ("physical.layout_s", "s"),
    ("physical.export_s", "s"),
    ("physical.macros_built", "count"),
    ("physical.macros_reused", "count"),
    ("physical.reuse_ratio", "ratio"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.job_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.rss_growth_mb", "MB"),
    ("trace.overhead_s", "s"),
    ("trace.hooks_absent", "count"),
)

#: Fresh-interpreter session starts timed per in-process run.
SETUP_SAMPLES = 11
PHYSICAL_STAGES = ("netlist", "placement", "routing", "layout", "export")


@dataclass
class Measurement:
    """Everything one run measured, before it becomes metrics."""

    setup_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    throughput_rps: float = 0.0
    #: Per-request latencies, in the windows ``req_p*_ms`` are taken over.
    latency_windows: List[List[float]] = field(default_factory=list)
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    store_rows: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(fraction * len(ranked)) - 1)]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _keep_fastest(fastest: dict, key, seconds: float) -> None:
    fastest[key] = min(fastest.get(key, math.inf), seconds)


# -- in-process workloads ------------------------------------------------------


def run_inprocess(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Measurement:
    from spans import Tracer
    from workloads import WORKLOADS

    reference = json.loads((fixtures.BENCH / "reference.json").read_text()).get(name, {})
    workload = WORKLOADS[name](work)
    measurement = Measurement()
    for _ in range(SETUP_SAMPLES):
        measurement.setup_s.append(fixtures.time_session_start())

    def run_group(group_index: int, tracer=None):
        gc.collect()  # the previous round's garbage is not this round's cost
        if tracer is not None:
            tracer.install()
        try:
            group = workload.group(seed, group_index)
        except Exception:  # a failing request is counted, and the run goes on
            measurement.attempted += 1
            measurement.problems.append(traceback.format_exc(limit=3))
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        measurement.attempted += len(group.latencies_s)
        expected = reference.get(group.key, {})
        for label, digest in sorted(group.fingerprints.items()):
            if expected.get(label) != digest:
                measurement.problems.append(
                    f"{name} {group.key} {label}: output {digest} "
                    f"!= reference {expected.get(label)}"
                )
        measurement.problems.extend(group.problems)
        return group

    run_group(0)  # warm-up: checked, not timed
    tracer = Tracer() if trace else None
    traced = []
    # Fastest time of each (group key, phase), in plain and in traced
    # rounds, and fastest whole plain round per group (for provenance).
    fastest_phase: Dict[bool, Dict[tuple, float]] = {False: {}, True: {}}
    fastest_round: Dict[str, float] = {}
    rounds = failed_groups = 0
    start = time.perf_counter()
    index = 0
    while True:
        # A trace run measures every group twice: plain, then traced.
        tracing = trace and index % 2 == 1
        group = run_group(index // 2 if trace else index, tracer if tracing else None)
        index += 1
        if group is None:
            failed_groups += 1
            continue
        for phase, phase_s in group.phases_s.items():
            _keep_fastest(fastest_phase[tracing], (group.key, phase), phase_s)
        if tracing:
            traced.append(group)
        else:
            rounds += 1
            _keep_fastest(fastest_round, group.key, group.wall_s)
        enough = rounds >= 2 and (not trace or len(traced) >= 2)
        if time.perf_counter() - start >= seconds and (enough or failed_groups >= 3):
            break
    measurement.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Every group is one request, so a group's round time is also the
    # latency of its request.
    plain = _round_times(fastest_phase[False])
    if plain:
        measurement.wall_s = statistics.fmean(plain.values())
        measurement.throughput_rps = len(plain) / sum(plain.values())
        measurement.latency_windows = [list(plain.values())]
    measurement.notes.update(
        rounds=rounds, distinct_requests=len(plain),
        phases=len(fastest_phase[False]),
        fastest_whole_round_s=statistics.fmean(fastest_round.values()) if fastest_round else 0.0,
    )
    if trace:
        engine: Dict[str, float] = defaultdict(float)
        for group in traced:
            for stats in group.engine_stats:
                for key, value in stats.items():
                    if isinstance(value, (int, float)):
                        engine[key] += value
        traced_rounds = _round_times(fastest_phase[True])
        measurement.layers = layer_metrics(
            tracer.rollup(), tracer.absent, engine, len(traced),
            store_mb=0.0,
            overhead_s=statistics.fmean(traced_rounds.values()) - measurement.wall_s
            if traced_rounds else 0.0,
        )
    return measurement


def _round_times(fastest_phase: Dict[tuple, float]) -> Dict[str, float]:
    """Round time per group key: the sum of its phases' fastest times."""
    rounds: Dict[str, float] = defaultdict(float)
    for (key, _), phase_s in fastest_phase.items():
        rounds[key] += phase_s
    return dict(rounds)


# -- the serve workload ------------------------------------------------------------


def run_serve(seed: int, seconds: float, trace: bool, work: Path) -> Measurement:
    import serve_load

    pristine = fixtures.seeded_store()
    measurement = Measurement(store_rows=fixtures.store_rows(pristine))
    servers = []

    def launch(traced: bool = False):
        """A server on a fresh store copy (not started yet)."""
        rollup = work / f"rollup-{len(servers)}.json" if traced else None
        servers.append(serve_load.ServerProcess(
            fixtures.copy_store(pristine, work, f"serve-{len(servers)}.sqlite"), rollup=rollup
        ))
        return servers[-1]

    def started(traced: bool = False):
        server = launch(traced)
        server.start()
        return server

    try:
        for _ in range(serve_load.SETUP_STARTS):
            if servers:
                servers[-1].stop()
            measurement.setup_s.append(launch().start())
        plain = serve_load.serve_phase(
            servers[-1], started, seed, seconds / 2 if trace else seconds
        )
        phases = [plain]
        if trace:
            phases.append(serve_load.serve_phase(
                started(True), lambda: started(True), seed, seconds / 2
            ))
    finally:
        for server in servers:
            server.stop()
    outcomes = [outcome for phase in phases for outcome in phase.outcomes]
    measurement.attempted = len(outcomes)
    measurement.problems = serve_load.check_outcomes(outcomes)
    # Rounds share one composition; the fastest is the least disturbed by
    # the host's other tenants (see ``wall_s``).
    measurement.wall_s = min(plain.walls)
    measurement.throughput_rps = max(plain.rates)
    done = [o for o in plain.outcomes if o.state == "done" and not o.error]
    latencies = [
        o.latency_s if o.state == "done" and not o.error else serve_load.CLIENT_TIMEOUT_S
        for o in plain.outcomes
    ]
    size = serve_load.LATENCY_WINDOW
    measurement.latency_windows = [
        latencies[first:first + size] for first in range(0, len(latencies) - size + 1, size)
    ] or [latencies]
    measurement.peak_rss_mb = plain.peak_rss_mb
    measurement.notes.update(
        rounds=len(plain.walls), clients=serve_load.CLIENTS,
        servers=len(servers) - serve_load.SETUP_STARTS + 1,
    )
    if trace:
        traced = phases[1]
        reports = [json.loads(s.rollup.read_text()) for s in servers if s.rollup is not None]
        rollup: Dict[str, Dict[str, float]] = {}
        for report in reports:
            for name, row in report["rollup"].items():
                total = rollup.setdefault(name, dict.fromkeys(row, 0))
                for key, value in row.items():
                    total[key] += value
        jobs = [o.job for o in done]
        measurement.layers = layer_metrics(
            rollup, reports[0]["absent"], traced.engine, len(traced.walls),
            store_mb=plain.store_mb,
            overhead_s=min(traced.walls) - measurement.wall_s,
            serve={
                "serve.submit_ms": _median([o.submit_s for o in done]) * 1e3,
                "serve.queue_wait_ms": _median(
                    [j["started_at"] - j["created_at"] for j in jobs]) * 1e3,
                "serve.job_ms": _median(
                    [j["finished_at"] - j["started_at"] for j in jobs]) * 1e3,
                "serve.transport_ms": _median([
                    o.latency_s - (o.job["finished_at"] - o.job["created_at"])
                    for o in done
                ]) * 1e3,
                "serve.rss_growth_mb": plain.rss_end_mb - plain.rss_start_mb,
            },
        )
    return measurement


# -- metrics -----------------------------------------------------------------------


def layer_metrics(rollup, absent, engine, rounds, store_mb, overhead_s, serve=None) -> Dict[str, float]:
    """Per-layer metrics from a span rollup and summed envelope counters."""

    def row(name):
        return rollup.get(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "count": 0})

    def per_round(value):
        return value / rounds if rounds else 0.0

    def per_call(name, key):
        calls = row(name)["calls"]
        return row(name)[key] / calls if calls else 0.0

    def ratio(part, other):
        return part / (part + other) if part + other else 0.0

    values = {
        "api.self_s": per_round(row("api.submit")["self_s"]),
        "dse.rank_s": per_round(row("dse.rank")["self_s"]),
        "dse.rank_calls": per_round(row("dse.rank")["calls"]),
        "dse.pareto_s": per_round(row("dse.pareto")["self_s"]),
        "dse.variation_s": per_round(row("dse.variation")["self_s"]),
        "dse.loop_s": per_round(row("dse.init")["self_s"] + row("dse.step")["self_s"]),
        "dse.evaluate_s": per_round(row("dse.evaluate")["incl_s"]),
        "dse.generations": per_round(row("dse.step")["calls"]),
        "engine.evaluate_s": per_round(row("engine.evaluate")["self_s"]),
        "engine.map_s": per_round(row("engine.map")["self_s"]),
        "engine.specs": per_round(engine.get("tasks", 0)),
        "engine.computed": per_round(engine.get("evaluations", 0)),
        "engine.cache_hit_ratio": ratio(engine.get("cache_hits", 0), engine.get("evaluations", 0)),
        "engine.store_hits": per_round(engine.get("store_hits", 0)),
        "model.evaluate_s": per_round(row("model.evaluate")["self_s"]),
        "model.specs": per_round(row("model.evaluate")["count"]),
        "store.open_s": per_call("store.open", "incl_s"),
        "store.hydrate_s": per_call("store.hydrate", "incl_s"),
        "store.hydrate_rows": per_call("store.hydrate", "count"),
        "store.write_s": per_round(row("store.write")["self_s"]),
        "store.rows_written": per_round(row("store.write")["count"]),
        "store.query_s": per_round(row("store.query")["self_s"]),
        "store.file_mb": store_mb,
        "flow.self_s": per_round(row("flow.run")["self_s"]),
        "physical.run_s": per_round(row("physical.run")["self_s"]),
        "physical.macros_built": per_round(engine.get("macros_built", 0)),
        "physical.macros_reused": per_round(engine.get("macros_reused", 0)),
        "physical.reuse_ratio": ratio(engine.get("macros_reused", 0), engine.get("macros_built", 0)),
        "trace.overhead_s": overhead_s,
        "trace.hooks_absent": len(absent),
    }
    for stage in PHYSICAL_STAGES:
        values[f"physical.{stage}_s"] = per_round(engine.get(f"stage_{stage}_seconds", 0.0))
    values.update({name: 0.0 for name, _ in LAYER_METRICS if name.startswith("serve.")})
    values.update(serve or {})
    return {name: values[name] for name, _ in LAYER_METRICS}


def end_to_end(measurement: Measurement) -> Dict[str, float]:
    windows = measurement.latency_windows or [[0.0]]
    return {
        "setup_s": _median(measurement.setup_s),
        "wall_s": measurement.wall_s,
        "req_p50_ms": _median([percentile(window, 0.50) for window in windows]) * 1e3,
        "req_p99_ms": _median([percentile(window, 0.99) for window in windows]) * 1e3,
        "throughput_rps": measurement.throughput_rps,
        "peak_rss_mb": measurement.peak_rss_mb,
    }


def provenance(args, measurement: Measurement) -> dict:
    import numpy

    windows = measurement.latency_windows or [[]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": fixtures.git_revision(),
        "source_sha256": fixtures.source_digest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cache_state": "cold: a fresh server process per run and every "
                       "16 rounds (under its job retention)" if args.workload == "serve"
        else "cold: fresh process per run, process-wide evaluation cache "
             "replaced and a new session opened every round",
        "store_rows_at_start": measurement.store_rows,
        "setup_samples": len(measurement.setup_s),
        "latency_samples": sum(len(window) for window in windows),
        "latency_windows": len(windows),
        "samples_beyond_p99_per_window": len(windows[0]) - math.ceil(0.99 * len(windows[0])),
        **measurement.notes,
    }


@contextmanager
def scratch_directory(prefix: str):
    """A private directory under the work root, removed afterwards; also the
    directory Python's ``tempfile`` uses meanwhile."""
    work = fixtures.WORK / f"{prefix}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work)
    try:
        yield work
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)


def measure(args) -> int:
    with scratch_directory("run") as work:
        if args.workload == "serve":
            measurement = run_serve(args.seed, args.seconds, bool(args.trace), work)
        else:
            measurement = run_inprocess(args.workload, args.seed, args.seconds, bool(args.trace), work)
    failed = min(len(measurement.problems), max(1, measurement.attempted))
    attempted = max(1, measurement.attempted)
    if args.trace:
        values, units = measurement.layers, dict(LAYER_METRICS)
    else:
        values, units = end_to_end(measurement), dict(END_TO_END)
    for problem in measurement.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload}: failed_ratio {failed}/{attempted} = "
          f"{failed / attempted:.4f} (failed requests / attempted)", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:24s} {value:14.6f} {units[name]}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args, measurement)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


# -- steadiness self-check and reference recording ----------------------------------


def self_check(args) -> int:
    """Run each workload ``--repeat`` times on consecutive seeds, each in its
    own process, and print median, quartiles and spread per metric."""
    spec = json.loads((fixtures.ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    names = (
        [workload["name"] for workload in spec["workloads"]]
        if args.workload == "all" else [args.workload]
    )
    status = 0
    for name in names:
        values = defaultdict(list)
        for offset in range(args.repeat):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed + offset), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            child = subprocess.run(command, capture_output=True, text=True, timeout=900)
            result = json.loads(child.stdout.strip().splitlines()[-1]) if child.stdout.strip() else {}
            if child.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {args.seed + offset}: exit {child.returncode}\n{child.stderr[-2000:]}")
                status = 1
                continue
            for metric, record in result["metrics"].items():
                values[metric].append(record["value"])
        print(f"\n{name}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for metric, series in values.items():
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and not args.trace:
                flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {metric:24s} {median:12.5f} {q1:12.5f} {q3:12.5f} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
    return status


def record(args) -> int:
    """Rewrite ``reference.json``: every group of every in-process workload,
    run twice from cold, must give the same fingerprints."""
    from workloads import WORKLOADS

    reference: Dict[str, Dict[str, Dict[str, str]]] = {}
    with scratch_directory("record") as work:
        for name, cls in WORKLOADS.items():
            workload = cls(work)
            reference[name] = {}
            for index in range(len(workload.pool)):
                first, second = workload.group(index, 0), workload.group(index, 0)
                if first.fingerprints != second.fingerprints or first.problems:
                    print(f"{name} {first.key}: not reproducible or wrong: "
                          f"{first.fingerprints} {second.fingerprints} {first.problems}")
                    return 1
                reference[name][first.key] = first.fingerprints
                print(f"{name} {first.key}: {len(first.fingerprints)} fingerprints")
    path = fixtures.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measured time per run (after set-up and warm-up)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness self-check: run each workload this many "
                             "times on consecutive seeds and print the spreads")
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from the current program")
    args = parser.parse_args(argv)
    if not fixtures.program_present():
        print(f"error: the program is not here (no {fixtures.SRC / 'repro'}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(fixtures.SRC))
    os.environ["TMPDIR"] = str(fixtures.WORK)
    fixtures.WORK.mkdir(parents=True, exist_ok=True)
    if args.record:
        return record(args)
    if args.repeat:
        return self_check(args)
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
