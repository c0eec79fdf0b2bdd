"""The ``serve`` workload's server process and closed-loop HTTP clients.

The server is a real ``repro serve --port 0`` process on a copy of the
pre-seeded store.  Each client thread is one tenant running a closed loop:
``POST /v1/submit``, then ``GET /v1/stream/<id>`` until the terminal
``end`` event, then ``GET /v1/jobs/<id>`` for the result.  Latency is timed
on the client from the submit to the ``end`` event, so it is not quantized
by a polling interval.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from fixtures import BENCH, ROOT, child_env

#: Bounded geometry set of the estimate requests: after the first rounds
#: every estimate is a cache hit, and the store stops growing.
HEIGHTS = (64, 128, 256, 512, 1024)
LOCAL_SIZES = (2, 4, 8)
RANKS = ("tops_per_watt", "snr_db", "tops", "area_f2_per_bit")

CLIENT_TIMEOUT_S = 60.0


#: Composition of every round of 250 requests; only the order and the
#: parameters vary with the seed.  The store-wide Pareto query, the
#: slowest class, is 0.4% of the mix: well under the 1% beyond
#: ``req_p99_ms``, so the p99 is a tail of the small requests and moves
#: with a stall that hits under 1% of them.
ROUND_MIX = (("estimate", 190), ("page", 36), ("library", 12), ("explore", 11), ("pareto", 1))
#: Requests per latency window (four rounds): 10 samples beyond its p99.
LATENCY_WINDOW = 1000


def serve_request(kind: str, rng: random.Random) -> dict:
    """One request of the mix, with seeded parameters."""
    if kind == "estimate":
        height = rng.choice(HEIGHTS)
        local = rng.choice(LOCAL_SIZES)
        max_bits = min(8, (height // local).bit_length() - 1)
        return {
            "kind": "estimate", "height": height, "width": 64,
            "local_array_size": local, "adc_bits": rng.randint(1, max_bits),
            "adc_sweep": rng.random() < 0.25,
        }
    if kind == "page":
        return {
            "kind": "query", "what": "designs", "pareto_only": False,
            "rank_by": rng.choice(RANKS), "limit": 10,
            "offset": 10 * rng.randrange(5),
        }
    if kind == "library":
        return {"kind": "library"}
    if kind == "pareto":
        return {
            "kind": "query", "what": "designs", "limit": 10,
            "offset": 10 * rng.randrange(3),
        }
    return {
        "kind": "explore", "array_size": rng.choice((1024, 4096)),
        "population": 16, "generations": 5, "seed": rng.randint(1, 3),
    }


def round_requests(seed: int, round_index: int) -> List[dict]:
    """The 250 requests of one round, in a seeded order."""
    rng = random.Random(f"serve:{seed}:{round_index}")
    kinds = [kind for kind, count in ROUND_MIX for _ in range(count)]
    rng.shuffle(kinds)
    return [serve_request(kind, rng) for kind in kinds]


# -- the server process ----------------------------------------------------------


class ServerProcess:
    """One ``repro serve`` child on ``store``; traced when ``rollup`` names
    the file the traced launcher writes its span rollup to."""

    def __init__(self, store: Path, rollup: Optional[Path] = None) -> None:
        self.store = store
        self.rollup = rollup
        self.host = "127.0.0.1"
        self.port = 0
        self.process: Optional[subprocess.Popen] = None
        self._stderr: List[str] = []

    def start(self) -> float:
        """Spawn the server; returns seconds until ``/v1/healthz`` answers."""
        args = ["serve", "--port", "0", "--store", str(self.store)]
        if self.rollup is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(BENCH / "traced_serve.py"),
                       str(self.rollup), "--", *args]
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        for line in self.process.stderr:
            self._stderr.append(line)
            if "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                break
        else:
            self.stop()
            raise RuntimeError("server exited before listening:\n"
                               + "".join(self._stderr[-20:]))
        threading.Thread(target=self._drain, daemon=True).start()
        deadline = time.monotonic() + 60
        while True:
            try:
                status, _ = self.get("/v1/healthz")
                if status == 200:
                    return time.perf_counter() - start
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never answered /v1/healthz")
            time.sleep(0.002)

    def _drain(self) -> None:
        for line in self.process.stderr:
            self._stderr.append(line)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=CLIENT_TIMEOUT_S)

    def get(self, path: str) -> Tuple[int, dict]:
        """One ``GET`` on its own short-lived connection."""
        connection = self.connect()
        try:
            return http_json(connection, "GET", path)
        finally:
            connection.close()

    def memory_mb(self, field_name: str) -> float:
        """``VmRSS`` / ``VmHWM`` of the server process, in MB."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"{field_name} not reported for the server")

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then wait for it."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)


def http_json(connection, method: str, path: str, body=None) -> Tuple[int, dict]:
    payload = None if body is None else json.dumps(body).encode()
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    return response.status, (json.loads(raw) if raw else {})


# -- the clients -------------------------------------------------------------------


@dataclass
class Outcome:
    request: dict
    latency_s: float = 0.0
    submit_s: float = 0.0
    state: str = "error"
    job: dict = field(default_factory=dict)
    error: str = ""


class Client:
    """One tenant's closed loop: each HTTP call on its own connection, as
    ``repro.serve.ServeClient`` does, so a client never holds more than one
    connection."""

    def __init__(self, server: ServerProcess, tenant: str) -> None:
        self.server = server
        self.tenant = tenant

    def run(self, requests: List[dict], outcomes: List[Outcome]) -> None:
        for request in requests:
            outcome = Outcome(request)
            try:
                self._one(outcome)
            except (OSError, http.client.HTTPException, ValueError) as error:
                outcome.error = f"{type(error).__name__}: {error}"
            outcomes.append(outcome)

    def _one(self, outcome: Outcome) -> None:
        start = time.perf_counter()
        connection = self.server.connect()
        try:
            status, accepted = http_json(connection, "POST", "/v1/submit", {
                "request": outcome.request, "tenant": self.tenant,
            })
        finally:
            connection.close()
        outcome.submit_s = time.perf_counter() - start
        if status != 202:
            outcome.error = f"submit HTTP {status}: {accepted}"
            return
        job_id = accepted["job_id"]
        connection = self.server.connect()
        try:
            connection.request("GET", f"/v1/stream/{job_id}")
            response = connection.getresponse()
            if response.status != 200:
                outcome.error = f"stream HTTP {response.status}"
                return
            while True:
                line = response.readline()
                if not line:
                    outcome.error = "stream closed before the end event"
                    return
                if line.startswith(b"event: end"):
                    outcome.latency_s = time.perf_counter() - start
                    break
        finally:
            connection.close()
        status, job = self.server.get(f"/v1/jobs/{job_id}")
        if status != 200:
            outcome.error = f"job HTTP {status}"
            return
        outcome.job = job
        outcome.state = job.get("state", "unknown")


def run_round(server: ServerProcess, clients: int, requests: List[dict]) -> Tuple[float, List[Outcome]]:
    """Spread one round's requests over ``clients`` closed loops."""
    outcomes: List[List[Outcome]] = [[] for _ in range(clients)]
    loops = [Client(server, f"tenant-{index}") for index in range(clients)]
    threads = [
        threading.Thread(target=loop.run, args=(requests[index::clients], outcomes[index]))
        for index, loop in enumerate(loops)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return wall, [outcome for part in outcomes for outcome in part]


# -- the workload ------------------------------------------------------------------

#: Server starts timed for ``setup_s``; the last one serves the load.
SETUP_STARTS = 7
#: Rounds one server serves before a fresh one takes over: 16 rounds are
#: 4,000 jobs, under the server's 4,096-job retention.  Past it the
#: server evicts on every submit, and its eviction can drop a job that is
#: just finishing (its state is set before its ``finished_at``), which the
#: client then reads as HTTP 404: about one request in 10^4.
ROUNDS_PER_SERVER = 16
#: Closed-loop clients: at most the core count, and never more than two,
#: so the offered load is the same on any host.
CLIENTS = max(1, min(2, os.cpu_count() or 1))


@dataclass
class Phase:
    """Rounds served by one server process."""

    walls: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    outcomes: List[Outcome] = field(default_factory=list)
    rss_start_mb: float = 0.0
    rss_end_mb: float = 0.0
    peak_rss_mb: float = 0.0
    store_mb: float = 0.0
    #: Engine counters gained over the phase, summed over its servers.
    engine: dict = field(default_factory=dict)


def _engine_stats(server: ServerProcess) -> dict:
    status, document = server.get("/v1/metrics")
    if status != 200:
        raise RuntimeError(f"/v1/metrics answered HTTP {status}")
    return document["engine_stats"]


def serve_phase(server: ServerProcess, next_server: Callable[[], ServerProcess],
                seed: int, seconds: float) -> Phase:
    """Closed-loop rounds from a started server until ``seconds`` pass (at
    least two rounds); every :data:`ROUNDS_PER_SERVER` rounds the server
    is stopped and ``next_server()`` starts the next.  ``rss_*`` are the
    first server's, ``peak_rss_mb`` the highest of any."""
    phase = Phase(rss_start_mb=server.memory_mb("VmRSS"))
    start = time.perf_counter()
    round_index = 0
    try:
        while True:
            before = _engine_stats(server)
            for _ in range(ROUNDS_PER_SERVER):
                wall, outcomes = run_round(
                    server, CLIENTS, round_requests(seed, round_index)
                )
                phase.walls.append(wall)
                phase.rates.append(sum(o.state == "done" for o in outcomes) / wall)
                phase.outcomes.extend(outcomes)
                round_index += 1
                finished = time.perf_counter() - start >= seconds and round_index >= 2
                if finished:
                    break
            for key, value in _engine_stats(server).items():
                if isinstance(value, (int, float)):
                    phase.engine[key] = phase.engine.get(key, 0) + value - before.get(key, 0)
            if not phase.rss_end_mb:
                phase.rss_end_mb = server.memory_mb("VmRSS")
            phase.peak_rss_mb = max(phase.peak_rss_mb, server.memory_mb("VmHWM"))
            server.stop()
            phase.store_mb = server.store.stat().st_size / 1e6
            if finished:
                return phase
            server = next_server()
    finally:
        server.stop()


def check_outcomes(outcomes: List[Outcome]) -> List[str]:
    """Every job done; estimates and explores equal to an in-process
    ``Session.submit`` twin; query pages well-formed; library consistent."""
    from repro.api import Session, SessionConfig
    from repro.engine import reset_shared_cache
    from repro.store.result_store import RANK_METRICS

    problems: List[str] = []
    twins: dict = {}
    for outcome in outcomes:
        request = outcome.request
        if outcome.error or outcome.state != "done":
            problems.append(f"{request['kind']}: {outcome.state} {outcome.error}")
            continue
        result = outcome.job.get("result") or {}
        payload = result.get("payload") or {}
        if result.get("status") != "ok":
            problems.append(f"{request['kind']}: status {result.get('status')}")
        elif request["kind"] in ("estimate", "explore"):
            twins.setdefault(json.dumps(request, sort_keys=True), []).append(payload)
        elif request["kind"] == "query":
            problem = _page_problem(request, payload, RANK_METRICS)
            if problem:
                problems.append(f"query: {problem}")
        elif payload.get("consistent") is not True:
            problems.append("library: cell library reported inconsistent")
    reset_shared_cache()
    with Session(SessionConfig()) as session:
        for key, payloads in twins.items():
            expected = json.loads(json.dumps(session.submit(json.loads(key)).payload))
            problems.extend(
                f"{key}: differs from its in-process twin"
                for payload in payloads if payload != expected
            )
    return problems


def _page_problem(request: dict, payload: dict, rank_metrics: dict) -> str:
    designs = payload.get("designs")
    if not isinstance(designs, list) or payload.get("count") != len(designs):
        return "count does not match the designs listed"
    total = payload.get("total")
    if not isinstance(total, int) or len(designs) != max(
        0, min(request["limit"], total - request["offset"])
    ):
        return f"{len(designs)} designs on a page of {request['limit']} at offset {request['offset']} of {total}"
    rank = request.get("rank_by", "tops_per_watt")
    values = [design[rank] for design in designs]
    ordered = sorted(values, reverse=rank_metrics[rank])
    if values != ordered:
        return f"page not ordered by {rank}"
    return ""
