"""Paths, the pre-seeded result store and set-up timing for the benchmark.

Everything the benchmark writes lives under ``.perfbench_work/`` at the
root of the checkout.  The ``serve`` workload's pre-seeded store is built
once per source revision (keyed by a digest of ``src/``) through the
public API and then copied fresh for every server, so every server starts
from identical bytes.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

#: Bump when the seeding recipe below changes, so cached stores rebuild.
RECIPE_VERSION = "3"


def program_present() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment for child processes: the program on the path, temp
    files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(WORK)
    return env


def source_digest() -> str:
    """SHA-256 over every file of ``src/repro`` (the program's identity
    when no git metadata is available)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str:
    """The checkout's git revision, or ``unknown`` outside a repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


# -- the pre-seeded store ------------------------------------------------------


def _seed_serve_store(path: Path) -> None:
    """Exhaustive explores at two array sizes plus one past campaign: a
    store small enough that a store-wide Pareto query stays a
    tens-of-milliseconds request a server answers among many others."""
    from repro.api import CampaignRequest, ExploreRequest, Session, SessionConfig

    with Session(SessionConfig(store=str(path))) as session:
        for exponent in (10, 12):
            session.submit(ExploreRequest(array_size=2 ** exponent, method="exhaustive"))
        session.submit(CampaignRequest(
            name="past-0", array_size=2 ** 11, population=32, generations=8, seed=1,
        ))


def seeded_store() -> Path:
    """Path of the pristine pre-seeded store (built on first use).

    Seeding runs in a child process, so its process-wide caches never
    leak into the measuring process.
    """
    key = hashlib.sha256(
        (source_digest() + RECIPE_VERSION).encode()
    ).hexdigest()[:16]
    target = WORK / f"fixtures-{key}" / "serve.sqlite"
    if target.is_file():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    partial = target.with_suffix(f".partial-{os.getpid()}")
    subprocess.run(
        [sys.executable, str(BENCH / "fixtures.py"), str(partial)],
        env=child_env(), check=True, timeout=600,
    )
    os.replace(partial, target)
    return target


def copy_store(source: Path, directory: Path, name: str) -> Path:
    """A fresh byte-identical copy of ``source`` inside ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / name
    for suffix in ("", "-journal", "-wal", "-shm"):
        stale = Path(str(target) + suffix)
        if stale.exists():
            stale.unlink()
    shutil.copyfile(source, target)
    return target


def store_rows(path: Path) -> int:
    """Evaluation rows in a store file (read-only, no program import)."""
    import sqlite3

    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        return connection.execute("SELECT COUNT(*) FROM evaluations").fetchone()[0]
    finally:
        connection.close()


# -- set-up timing -------------------------------------------------------------


def time_session_start() -> float:
    """Seconds from spawning a fresh interpreter to a ready ``Session``.

    The child imports the program, opens a store-less session (as the
    in-process workloads use) and reports readiness on stdout; the time
    is taken when that line arrives.
    """
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(BENCH / "ready.py")], env=child_env(),
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        child.stdout.close()
        child.wait(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"session start-up child failed: {line!r}")
    return elapsed


if __name__ == "__main__":
    # Child entry point of seeded_store(): python fixtures.py PATH
    _seed_serve_store(Path(sys.argv[1]))
