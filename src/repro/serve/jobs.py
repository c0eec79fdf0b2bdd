"""Jobs and the priority queue feeding the serving layer's worker pool.

A :class:`Job` is one tenant request travelling through the server: the
validated request envelope, its queue priority, its lifecycle state and —
for streaming consumers — an append-only event log any number of clients
can follow concurrently (each stream holds only a cursor into the log, so
a disconnected client re-attaches and replays from wherever it left off).

:class:`JobQueue` hands jobs to worker threads strictly by ``(priority
descending, arrival order)`` **among runnable jobs**: a tenant already
running its configured maximum of concurrent jobs is skipped, so one
tenant queueing a thousand campaigns cannot starve everyone else no
matter how high it bids.  Cancellation is cooperative: a queued job is
simply withdrawn; a running job has its :attr:`Job.cancel_event` set and
long-running executors (the generation-by-generation campaign stepper)
check it between checkpoints, leaving the campaign interrupted-but-
resumable exactly like a killed process would.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import ServeError

#: Lifecycle states of a job.  ``queued -> running -> done|failed|
#: cancelled``; cancellation of a queued job skips ``running``.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Default per-tenant cap on concurrently *running* jobs.
DEFAULT_MAX_PER_TENANT = 2


class Job:
    """One request travelling through the server.

    Args:
        job_id: server-assigned identifier (the client's handle).
        tenant: tenant name the job is accounted against.
        request: the validated request dictionary (``kind`` + fields).
        priority: larger runs earlier (ties: arrival order).
        stream: whether progress events should be recorded for streaming.
    """

    def __init__(
        self,
        job_id: str,
        tenant: str,
        request: dict,
        priority: int = 0,
        stream: bool = False,
    ) -> None:
        self.id = job_id
        self.tenant = tenant
        self.request = request
        self.priority = priority
        self.stream = stream
        self.state = "queued"
        self.result: Optional[dict] = None
        self.error: Optional[dict] = None
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.cancel_event = threading.Event()
        self._events: List[dict] = []
        self._condition = threading.Condition()

    # -- state ----------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True in any terminal state."""
        return self.state in ("done", "failed", "cancelled")

    def describe(self) -> dict:
        """The status document ``GET /v1/jobs/<id>`` returns."""
        with self._condition:
            record = {
                "id": self.id,
                "tenant": self.tenant,
                "kind": self.request.get("kind"),
                "priority": self.priority,
                "stream": self.stream,
                "state": self.state,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "events": len(self._events),
            }
            if self.result is not None:
                record["result"] = self.result
            if self.error is not None:
                record["error"] = self.error
            return record

    def _finish(self, state: str, **fields) -> None:
        with self._condition:
            for name, value in fields.items():
                setattr(self, name, value)
            # ``finished_at`` first: the queue's ``stats`` reads ``state``
            # without this lock, and a terminal state must never be seen
            # without its finish time.
            self.finished_at = time.time()
            self.state = state
            self._events.append({
                "event": "end",
                "state": state,
                "job_id": self.id,
            })
            self._condition.notify_all()

    def complete(self, result: dict) -> None:
        """Terminal success: attach the result envelope."""
        self._finish("done", result=result)

    def fail(self, error: dict) -> None:
        """Terminal failure: attach the structured error record."""
        self._finish("failed", error=error)

    def cancelled(self, result: Optional[dict] = None) -> None:
        """Terminal cancellation (``result`` carries any partial outcome,
        e.g. the interrupted-but-resumable campaign envelope)."""
        self._finish("cancelled", result=result)

    # -- event streaming -------------------------------------------------------

    def add_event(self, event: dict) -> None:
        """Append one progress event and wake every waiting stream."""
        with self._condition:
            self._events.append(dict(event))
            self._condition.notify_all()

    def events_after(
        self, cursor: int, timeout: Optional[float] = None
    ) -> Tuple[List[dict], int]:
        """Events beyond ``cursor``, blocking until there are any.

        Returns ``(events, new_cursor)``; an empty list means the timeout
        elapsed with nothing new (the caller emits a keep-alive and polls
        again).  The log is append-only and never truncated while the job
        is retained, so any cursor from 0 upward replays consistently —
        that is what makes client disconnect/reconnect lossless.
        """
        with self._condition:
            if cursor >= len(self._events) and not self.finished:
                self._condition.wait(timeout)
            events = [dict(event) for event in self._events[cursor:]]
            return events, cursor + len(events)


class JobQueue:
    """Priority queue with cancellation and per-tenant concurrency bounds.

    Args:
        max_per_tenant: cap on concurrently running jobs per tenant;
            queued jobs beyond it stay queued (without blocking other
            tenants' claims) until one of the tenant's jobs finishes.
        retention: completed jobs to retain for status/stream queries
            (oldest finished jobs are evicted first, never live ones).
    """

    def __init__(
        self,
        max_per_tenant: int = DEFAULT_MAX_PER_TENANT,
        retention: int = 4096,
    ) -> None:
        if max_per_tenant < 1:
            raise ServeError("max_per_tenant must be at least 1")
        self.max_per_tenant = max_per_tenant
        self.retention = max(1, retention)
        self._lock = threading.Condition()
        self._pending: List[Tuple[int, int, Job]] = []  # (-priority, seq, job)
        self._jobs: Dict[str, Job] = {}
        # Finished jobs in the order the queue saw them finish (on
        # release or on withdrawal): eviction pops the front.
        self._finished: Deque[Job] = deque()
        self._running_by_tenant: Dict[str, int] = {}
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._closed = False

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        tenant: str,
        request: dict,
        priority: int = 0,
        stream: bool = False,
    ) -> Job:
        """Enqueue one request; returns the queued :class:`Job`."""
        with self._lock:
            if self._closed:
                raise ServeError("job queue is draining; not accepting jobs")
            job = Job(
                f"job-{next(self._ids):06d}",
                tenant,
                request,
                priority=priority,
                stream=stream,
            )
            self._jobs[job.id] = job
            self._pending.append((-int(priority), next(self._seq), job))
            self._evict_finished()
            self._lock.notify_all()
            return job

    def get(self, job_id: str) -> Job:
        """Look a job up by id (raises :class:`ServeError` when unknown)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(f"unknown job {job_id!r}")
        return job

    # -- worker side -----------------------------------------------------------

    def claim(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Hand the best runnable job to a worker (blocking).

        The best runnable job is the highest-priority, earliest-arrived
        pending job whose tenant is below its running cap.  Returns
        ``None`` on timeout or when the queue is closed and empty.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                best_index = None
                for index, (neg_priority, seq, job) in enumerate(self._pending):
                    if (
                        self._running_by_tenant.get(job.tenant, 0)
                        >= self.max_per_tenant
                    ):
                        continue
                    if best_index is None or (neg_priority, seq) < (
                        self._pending[best_index][0],
                        self._pending[best_index][1],
                    ):
                        best_index = index
                if best_index is not None:
                    _, _, job = self._pending.pop(best_index)
                    job.state = "running"
                    job.started_at = time.time()
                    self._running_by_tenant[job.tenant] = (
                        self._running_by_tenant.get(job.tenant, 0) + 1
                    )
                    return job
                if self._closed and not self._pending:
                    return None
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._lock.wait(remaining)

    def release(self, job: Job) -> None:
        """Return a claimed job's tenant slot (the job is terminal now)."""
        with self._lock:
            if job.finished:
                self._finished.append(job)
            count = self._running_by_tenant.get(job.tenant, 0) - 1
            if count > 0:
                self._running_by_tenant[job.tenant] = count
            else:
                self._running_by_tenant.pop(job.tenant, None)
            self._lock.notify_all()

    # -- cancellation ----------------------------------------------------------

    def cancel(self, job_id: str) -> dict:
        """Cancel a job: withdraw it if queued, signal it if running.

        Returns ``{"state", "cancel_requested"}`` — a running job only
        *observes* the request at its next cancellation point (between
        campaign generations), so its terminal state arrives later.
        Cancelling a finished job is a no-op report, not an error.
        """
        job = self.get(job_id)
        with self._lock:
            for index, (_, _, pending) in enumerate(self._pending):
                if pending.id == job_id:
                    del self._pending[index]
                    break
            if job.state == "queued":
                job.cancel_event.set()
                job.cancelled()
                self._finished.append(job)
                return {"state": job.state, "cancel_requested": True}
            if job.state == "running":
                job.cancel_event.set()
                return {"state": job.state, "cancel_requested": True}
            return {"state": job.state, "cancel_requested": False}

    # -- drain / shutdown ------------------------------------------------------

    def close(self) -> None:
        """Stop accepting new jobs; claims drain what is already queued."""
        with self._lock:
            self._closed = True
            self._lock.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until nothing is pending or running; True when drained."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._pending or self._running_by_tenant:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._lock.wait(remaining if remaining is not None else 0.2)
            return True

    # -- statistics ------------------------------------------------------------

    def stats(self) -> dict:
        """Occupancy counters for ``/v1/metrics`` and ``/v1/healthz``."""
        with self._lock:
            by_state: Dict[str, int] = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            return {
                "pending": len(self._pending),
                "running": sum(self._running_by_tenant.values()),
                "by_state": by_state,
                "tenants_running": dict(self._running_by_tenant),
                "jobs_retained": len(self._jobs),
                "accepting": not self._closed,
            }

    def _evict_finished(self) -> None:
        """Drop the oldest finished jobs beyond the retention bound.

        Jobs enter the finish-order deque only when the queue sees them
        finish (a released terminal job, a withdrawn queued one), so live
        jobs and a job caught mid-finish are never candidates; each
        eviction is one pop from the front.
        """
        while len(self._jobs) > self.retention and self._finished:
            self._jobs.pop(self._finished.popleft().id, None)
