"""The in-process workloads: ``explore`` and ``flow``.

Each workload is a fixed pool of request groups.  A run executes group
``(seed + i) % len(pool)`` in round ``i = 0, 1, ...`` until its time is
up, so every run covers the pool evenly and the seed sets where it
starts.  Every round starts cold, as a fresh ``repro`` process would: the
process-wide evaluation cache is replaced and a new store-less
``Session`` is opened.  Request defaults are the program's: serial
backend, ``surrogate="off"``, no shards.

Correctness: every group's outputs are reduced to fingerprints and
compared with ``reference.json`` (``run.py --record`` rewrites it).
Floats are rounded to 12 significant digits before hashing, so only a
change beyond the last few bits of a double counts as a mismatch.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List


def _canonical(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def fingerprint(value) -> str:
    """Short digest of a JSON-able value (floats to 12 significant digits)."""
    text = json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


@dataclass
class GroupRun:
    """What one round (one request group) produced."""

    key: str
    wall_s: float = 0.0
    #: ``wall_s`` split into consecutive phases (they sum to ``wall_s``).
    phases_s: Dict[str, float] = field(default_factory=dict)
    latencies_s: List[float] = field(default_factory=list)
    engine_stats: List[dict] = field(default_factory=list)
    fingerprints: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def timed(self, session, request):
        """Submit ``request`` and record its latency; returns the result."""
        start = time.perf_counter()
        result = session.submit(request)
        self.latencies_s.append(time.perf_counter() - start)
        self.engine_stats.append(result.engine_stats)
        return result


def _fresh_session():
    from repro.api import Session, SessionConfig
    from repro.engine import reset_shared_cache

    reset_shared_cache()
    return Session(SessionConfig())


class Workload:
    """Base: a pool of request groups."""

    name = ""
    pool: tuple = ()

    def __init__(self, work: Path) -> None:
        self.work = work

    def group(self, seed: int, round_index: int) -> GroupRun:
        raise NotImplementedError


class Explore(Workload):
    """NSGA-II exploration of a 65,536-bit array, population 128, no store.

    Non-dominated sorting dominates its time; evaluation, the store and
    the physical layers are idle (ranking is over 90% of a traced round).
    10 generations keep a round near 0.2 s on a quiet host: the shorter
    the round, the more rounds a run holds and the likelier some of them
    fall between the host's busy spells (at 30 generations, 0.55-s
    rounds, ten-run spreads reached 0.40 on a busy host).
    """

    name = "explore"
    pool = (1, 2)

    def group(self, seed: int, round_index: int) -> GroupRun:
        from repro.api import ExploreRequest

        nsga_seed = self.pool[(seed + round_index) % len(self.pool)]
        run = GroupRun(key=f"seed-{nsga_seed}")
        session = _fresh_session()
        try:
            result = run.timed(session, ExploreRequest(
                array_size=65536, population=128, generations=10, seed=nsga_seed,
            ))
        finally:
            session.close()
        run.wall_s = run.latencies_s[0]
        run.phases_s = {"request": run.wall_s}
        run.fingerprints["payload"] = fingerprint(result.payload)
        return run


class Flow(Workload):
    """One end-to-end flow with distillation, routed columns and GDS/DEF
    export, on a fresh session every round so the macro library starts
    cold.

    The distillation bounds exclude every H >= 512 design, whose maze
    routing alone takes 8-27 s, and leave four designs with H <= 64: the
    macro ladder both builds and reuses within the request, and the
    physical pipeline dominates.  The request is the same for every
    workload seed: other NSGA-II seeds distil to the same four designs,
    so a seed-dependent request would only look varied.  12 generations
    reach the same designs and outputs as 40 in 0.13 s instead of 0.35 s
    of the round: the shorter the longest phase (see ``wall_s`` in
    ``run.py``), the likelier it runs undisturbed on a shared host.
    """

    name = "flow"
    pool = (5,)

    def group(self, seed: int, round_index: int) -> GroupRun:
        from repro.api import FlowRequest

        nsga_seed = self.pool[(seed + round_index) % len(self.pool)]
        run = GroupRun(key=f"seed-{nsga_seed}")
        out_dir = self.work / "flow"
        shutil.rmtree(out_dir, ignore_errors=True)
        session = _fresh_session()
        try:
            result = run.timed(session, FlowRequest(
                array_size=16384, population=64, generations=12,
                seed=nsga_seed, min_snr_db=15.0, min_tops=2.0,
                max_layouts=6, route_columns=True, output_dir=str(out_dir),
            ))
        finally:
            session.close()
        run.wall_s = run.latencies_s[0]
        # The physical stages as the program times them, and the rest of
        # the request (exploration, distillation, session overhead).
        stages = {
            key: value for key, value in result.engine_stats.items()
            if key.startswith("stage_") and key.endswith("_seconds")
        }
        rest = run.wall_s - sum(stages.values())
        run.phases_s = {**stages, "rest": rest} if rest >= 0 else {"request": run.wall_s}
        files = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:20]
            for path in sorted(out_dir.iterdir())
        }
        shutil.rmtree(out_dir, ignore_errors=True)
        run.fingerprints["outputs"] = fingerprint({
            "files": files,
            "distilled": result.payload["distilled"],
            "netlists": result.payload["netlists"],
        })
        if not files:
            run.problems.append(f"flow seed {nsga_seed} exported no files")
        return run


WORKLOADS = {cls.name: cls for cls in (Explore, Flow)}
