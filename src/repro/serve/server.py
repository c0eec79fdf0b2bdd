"""The multi-tenant HTTP + job-queue server over the Session API.

:class:`ReproServer` hosts one shared :class:`~repro.api.Session` — one
evaluation engine, one memoization cache, one result store, one physical
macro library — behind a stdlib-only HTTP front end and a worker-thread
pool fed by a :class:`~repro.serve.jobs.JobQueue`.  Every tenant's
requests are the same typed envelopes :func:`repro.api.request_from_dict`
already validates, so the wire protocol is exactly the documented JSON
request catalogue plus a thin job wrapper.

Endpoints (``docs/serving.md`` is the full protocol reference):

* ``POST /v1/submit`` — enqueue ``{"request": {...}, "tenant", "priority",
  "stream"}``; replies ``202`` with the job id.  Rejections reuse the
  library's structured errors: validation failures map through
  :data:`repro.errors.HTTP_STATUS_BY_CODE`, rate-limited tenants get
  ``429`` with ``Retry-After``.
* ``GET /v1/jobs/<id>`` — status (and the result envelope once done);
  ``POST /v1/jobs/<id>/cancel`` / ``DELETE /v1/jobs/<id>`` — cancel.
* ``GET /v1/stream/<id>`` — Server-Sent Events: campaign jobs emit one
  event per committed generation (the stepwise NSGA-II loop), every job
  emits a terminal ``end`` event.  Streams are cursors over an
  append-only per-job event log, so a dropped client reconnects with
  ``?after=<cursor>`` and misses nothing — and the *job* never notices:
  campaigns keep stepping server-side, checkpointed in the store.
* ``GET /v1/metrics`` — the session's metric registry snapshot, engine
  stats, queue occupancy and per-tenant rate-limit levels.
* ``GET /v1/healthz`` — liveness/drain state.

Concurrency model: estimation/exploration/query workloads run fully
concurrently on the shared engine (its cache, metrics and store
write-through are thread-safe); physical workloads (``flow``/``layout``)
serialize on one internal lock because the macro library mutates shared
layout state.  Per-tenant fairness is enforced by the queue's bounded
concurrency, admission by token-bucket rate limits.

Shutdown: :meth:`ReproServer.shutdown` (or SIGTERM through ``repro
serve``) stops admission, drains queued and in-flight jobs, then closes
the session.  Every computed evaluation was already written through to
the store by the request that computed it.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from dataclasses import dataclass, field, fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.api import CampaignRequest, Session, SessionConfig, request_from_dict
from repro.api.results import ApiResult
from repro.errors import (
    RateLimitError,
    ReproError,
    RequestError,
    ServeError,
    http_status_of,
)
from repro.obs import get_tracer
from repro.serve.jobs import DEFAULT_MAX_PER_TENANT, Job, JobQueue
from repro.serve.ratelimit import TenantRateLimiter

#: Seconds between SSE keep-alive comments on an idle stream.
STREAM_KEEPALIVE_SECONDS = 5.0

#: Tenant used when a submission names none.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class ServerConfig:
    """Serializable configuration of one server instance.

    Attributes:
        host / port: bind address (``port=0`` picks an ephemeral port —
            the tests and the benchmark use that).
        workers: job-executor threads (concurrent jobs server-wide).
        session: the shared :class:`~repro.api.SessionConfig` (or its
            dict form) every job runs against.
        max_per_tenant: concurrently *running* jobs allowed per tenant.
        rate_limit: admission rate per tenant in requests/second
            (``None``: unlimited).
        rate_burst: token-bucket capacity (``None``: one second's worth).
        retention: finished jobs retained for status/stream reads.
    """

    host: str = "127.0.0.1"
    port: int = 8433
    workers: int = 4
    session: SessionConfig = field(default_factory=SessionConfig)
    max_per_tenant: int = DEFAULT_MAX_PER_TENANT
    rate_limit: Optional[float] = None
    rate_burst: Optional[float] = None
    retention: int = 4096

    def validate(self) -> "ServerConfig":
        """Raise a structured error when invalid; returns ``self``."""
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ServeError(
                f"workers must be a positive integer, got {self.workers!r}"
            )
        if not isinstance(self.port, int) or not 0 <= self.port <= 65535:
            raise ServeError(f"port must be 0..65535, got {self.port!r}")
        if not isinstance(self.max_per_tenant, int) or self.max_per_tenant < 1:
            raise ServeError(
                "max_per_tenant must be a positive integer, "
                f"got {self.max_per_tenant!r}"
            )
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ServeError(
                f"rate_limit must be positive, got {self.rate_limit!r}"
            )
        if self.rate_burst is not None and self.rate_burst <= 0:
            raise ServeError(
                f"rate_burst must be positive, got {self.rate_burst!r}"
            )
        self._session_config()
        return self

    def _session_config(self) -> SessionConfig:
        session = self.session
        if isinstance(session, dict):
            session = SessionConfig.from_dict(session)
        return session.validate()

    def to_dict(self) -> dict:
        """Serializable dictionary (the ``from_dict`` twin)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["session"] = self._session_config().to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ServerConfig":
        """Build (and validate) a config from a plain dictionary."""
        if not isinstance(data, dict):
            raise RequestError(
                f"server config must be a dict, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise RequestError(
                f"unknown server config field(s) {', '.join(unknown)}",
                field=unknown[0],
            )
        data = dict(data)
        if isinstance(data.get("session"), dict):
            data["session"] = SessionConfig.from_dict(data["session"])
        try:
            config = cls(**data)
        except TypeError as error:
            raise RequestError(f"cannot build ServerConfig: {error}")
        return config.validate()


def error_envelope(kind: str, error: BaseException) -> dict:
    """The serialized ``status="error"`` result envelope of a failure.

    The same shape the CLI's ``--json`` error path emits, so every
    transport reports failures identically.
    """
    if isinstance(error, ReproError):
        record = error.as_dict()
    else:
        record = {
            "code": "internal",
            "error": type(error).__name__,
            "message": str(error),
        }
    return ApiResult(
        kind=kind, status="error", payload={"error": record}
    ).to_dict()


class _HTTPServer(ThreadingHTTPServer):
    """The listener: one daemon thread per connection and a deep backlog.

    socketserver's default listen backlog of 5 overflows as soon as a
    handful of clients connect at once; the kernel then drops SYNs and
    each dropped client stalls ~1 s in TCP retransmission.
    """

    daemon_threads = True
    request_queue_size = 128


class ReproServer:
    """Multi-tenant job server over one shared :class:`Session`.

    Args:
        config: server settings; ``config.session`` describes the shared
            substrate (set ``store`` there to enable campaigns, campaign
            streaming and store queries).
        session: externally owned session to serve instead of building
            one (never closed by this server).

    Lifecycle: :meth:`start` binds and spins up the pool, :meth:`shutdown`
    drains and releases; the instance is a context manager.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        session: Optional[Session] = None,
    ) -> None:
        self.config = (config or ServerConfig()).validate()
        self._owns_session = session is None
        self.session = session or Session.from_config(
            self.config._session_config()
        )
        self.queue = JobQueue(
            max_per_tenant=self.config.max_per_tenant,
            retention=self.config.retention,
        )
        self.limiter = TenantRateLimiter(
            self.config.rate_limit, self.config.rate_burst
        )
        self.metrics = self.session.metrics
        self._m_submitted = self.metrics.counter("serve.jobs.submitted")
        self._m_done = self.metrics.counter("serve.jobs.done")
        self._m_failed = self.metrics.counter("serve.jobs.failed")
        self._m_cancelled = self.metrics.counter("serve.jobs.cancelled")
        self._m_rate_limited = self.metrics.counter("serve.rate_limited")
        self._m_http = self.metrics.counter("serve.http.requests")
        self._m_job_seconds = self.metrics.histogram("serve.job.seconds")
        self._m_wait_seconds = self.metrics.histogram("serve.queue.wait_seconds")
        self._m_generations = self.metrics.counter("serve.stream.generations")
        # The physical pipeline's macro library mutates shared state;
        # flow/layout jobs serialize on this lock (everything else runs
        # concurrently on the thread-safe engine substrate).
        self._physical_lock = threading.Lock()
        self._httpd: Optional[_HTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._workers: list = []
        self._draining = False
        self._stopped = threading.Event()
        self._started_at = time.time()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ReproServer":
        """Bind the HTTP listener and start the worker pool."""
        if self._httpd is not None:
            return self
        handler = _make_handler(self)
        self._httpd = _HTTPServer((self.config.host, self.config.port), handler)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve-http",
            daemon=True,
        )
        self._http_thread.start()
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        self._started_at = time.time()
        return self

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral pick)."""
        if self._httpd is None:
            return self.config.port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients talk to."""
        return f"http://{self.config.host}:{self.port}"

    def request_shutdown(self) -> None:
        """Signal-handler-safe shutdown trigger (e.g. SIGTERM): stops
        admission immediately; :meth:`wait` performs the actual drain."""
        self._draining = True
        self.queue.close()
        self._stopped.set()

    def wait(self) -> None:
        """Block until :meth:`request_shutdown` fires, then drain."""
        self._stopped.wait()
        self.shutdown()

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admission, drain in-flight jobs, release everything.

        Args:
            drain: finish queued and running jobs first; ``False``
                instead requests cancellation of every live job (queued
                ones are withdrawn, running campaigns stop at their next
                generation checkpoint, resumable).
            timeout: bound on the drain wait (None: wait for completion).
        """
        self._draining = True
        self.queue.close()
        if not drain:
            for job_id in list(self.queue._jobs):
                try:
                    self.queue.cancel(job_id)
                except ServeError:
                    pass
        self.queue.drain(timeout)
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._workers = []
        if self._owns_session:
            self.session.close()
        self._stopped.set()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- submission (transport-independent core) -------------------------------

    def submit(
        self,
        request: dict,
        tenant: str = DEFAULT_TENANT,
        priority: int = 0,
        stream: bool = False,
    ) -> Job:
        """Validate, rate-limit and enqueue one request document.

        Raises the library's structured errors on rejection (the HTTP
        layer maps them through :data:`HTTP_STATUS_BY_CODE`); on success
        the job is queued and will be claimed by a worker thread.
        """
        if self._draining:
            raise ServeError("server is draining; not accepting requests")
        if not tenant or not isinstance(tenant, str):
            raise RequestError(
                f"tenant must be a non-empty string, got {tenant!r}",
                field="tenant",
            )
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise RequestError(
                f"priority must be an integer, got {priority!r}",
                field="priority",
            )
        try:
            self.limiter.admit(tenant)
        except RateLimitError:
            self._m_rate_limited.inc()
            raise
        # Full envelope validation up front: a malformed request never
        # occupies a queue slot, and the submitter gets the structured
        # error synchronously.
        validated = request_from_dict(request)
        job = self.queue.submit(
            tenant, validated.to_dict(), priority=priority, stream=stream
        )
        self._m_submitted.inc()
        return job

    def cancel(self, job_id: str) -> dict:
        """Cancel a job by id (see :meth:`JobQueue.cancel`)."""
        return self.queue.cancel(job_id)

    # -- job execution ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self.queue.claim(timeout=0.25)
            if job is None:
                if self._draining:
                    return
                continue
            try:
                self._execute(job)
            finally:
                self.queue.release(job)

    def _execute(self, job: Job) -> None:
        started = time.perf_counter()
        self._m_wait_seconds.observe(
            max(0.0, (job.started_at or job.created_at) - job.created_at)
        )
        tracer = get_tracer()
        with tracer.span(
            "serve.job",
            job_id=job.id,
            tenant=job.tenant,
            kind=job.request.get("kind"),
        ):
            try:
                if job.cancel_event.is_set():
                    job.cancelled()
                    self._m_cancelled.inc()
                    return
                if job.stream:
                    job.add_event({
                        "event": "start",
                        "job_id": job.id,
                        "kind": job.request.get("kind"),
                    })
                request = request_from_dict(job.request)
                if (
                    isinstance(request, CampaignRequest)
                    and request.stop_after is None
                ):
                    self._execute_campaign_stepwise(job, request)
                else:
                    if request.kind in ("flow", "layout"):
                        with self._physical_lock:
                            result = self.session.submit(request)
                    else:
                        result = self.session.submit(request)
                    job.complete(result.to_dict())
                    self._m_done.inc()
            except ReproError as error:
                job.fail(error.as_dict())
                self._m_failed.inc()
            except Exception as error:  # internal bug: report, keep serving
                job.fail(error_envelope(job.request.get("kind", "?"), error)
                         ["payload"]["error"])
                self._m_failed.inc()
            finally:
                self._m_job_seconds.observe(time.perf_counter() - started)

    def _execute_campaign_stepwise(
        self, job: Job, request: CampaignRequest
    ) -> None:
        """Drive a campaign generation-by-generation on the stepwise API.

        Each step is one ``stop_after=1`` drive through the session's
        existing checkpoint/resume path: the generation commits to the
        store before its progress event is emitted, so everything a
        stream reports is durable, cancellation between generations
        leaves an interrupted-but-resumable campaign (identical to a
        killed process), and the finished Pareto set is bit-identical to
        an uninterrupted :meth:`Session.submit` of the same request —
        resuming from a checkpoint replays the exact RNG/population
        state.
        """
        step = dataclasses.replace(request, stop_after=1)
        while True:
            if job.cancel_event.is_set():
                job.cancelled(result=None)
                self._m_cancelled.inc()
                return
            result = self.session.submit(step)
            payload = result.payload
            self._m_generations.inc()
            if job.stream:
                job.add_event({
                    "event": "generation",
                    "campaign": payload["name"],
                    "generations_done": payload["generations_done"],
                    "total_generations": payload["total_generations"],
                    "evaluations": payload["evaluations"],
                    "campaign_status": payload["campaign_status"],
                })
            if payload["campaign_status"] == "completed":
                job.complete(result.to_dict())
                self._m_done.inc()
                return
            # Continue the committed checkpoint; the original action may
            # have been "run", every subsequent leg is a resume.
            step = CampaignRequest(
                name=request.name, action="resume", stop_after=1,
                checkpoint_every=request.checkpoint_every,
            )

    # -- documents -------------------------------------------------------------

    def healthz(self) -> dict:
        """The ``/v1/healthz`` document."""
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "workers": self.config.workers,
            "jobs": self.queue.stats(),
        }

    def metrics_document(self) -> dict:
        """The ``/v1/metrics`` document."""
        return {
            "server": {
                "uptime_seconds": round(time.time() - self._started_at, 3),
                "draining": self._draining,
                "jobs": self.queue.stats(),
                "rate_limit": {
                    "requests_per_second": self.config.rate_limit,
                    "burst": self.limiter.burst,
                    "tenant_tokens": self.limiter.levels(),
                },
            },
            "engine_stats": self.session.engine.stats.as_dict(),
            "metrics": self.metrics.snapshot(),
        }


# -- the HTTP face -------------------------------------------------------------


def _make_handler(app: ReproServer):
    """Bind a request-handler class to one server instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"

        # -- plumbing -----------------------------------------------------

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # metrics, not stderr, carry request accounting

        def _send_json(
            self,
            status: int,
            document: dict,
            extra_headers: Tuple[Tuple[str, str], ...] = (),
        ) -> None:
            body = json.dumps(document, indent=2).encode("utf-8") + b"\n"
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in extra_headers:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _send_error_envelope(self, kind: str, error: BaseException) -> None:
            headers: Tuple[Tuple[str, str], ...] = ()
            if isinstance(error, RateLimitError):
                headers = (
                    ("Retry-After", f"{max(1, round(error.retry_after_seconds))}"),
                )
            self._send_json(
                http_status_of(error), error_envelope(kind, error), headers
            )

        def _read_body(self) -> dict:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return {}
            try:
                document = json.loads(raw.decode("utf-8"))
            except ValueError as error:
                raise RequestError(f"request body is not valid JSON: {error}")
            if not isinstance(document, dict):
                raise RequestError(
                    f"request body must be a JSON object, "
                    f"got {type(document).__name__}"
                )
            return document

        # -- routing ------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - stdlib casing
            app._m_http.inc()
            parsed = urlparse(self.path)
            parts = [p for p in parsed.path.split("/") if p]
            try:
                if parts == ["v1", "healthz"]:
                    self._send_json(200, app.healthz())
                elif parts == ["v1", "metrics"]:
                    self._send_json(200, app.metrics_document())
                elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                    self._send_json(200, app.queue.get(parts[2]).describe())
                elif len(parts) == 3 and parts[:2] == ["v1", "stream"]:
                    self._stream(parts[2], parsed.query)
                else:
                    self._send_json(404, error_envelope(
                        "http", ServeError(f"no route GET {parsed.path}")
                    ))
            except ServeError as error:
                self._send_json(404, error_envelope("http", error))
            except ReproError as error:
                self._send_error_envelope("http", error)

        def do_POST(self) -> None:  # noqa: N802 - stdlib casing
            app._m_http.inc()
            parsed = urlparse(self.path)
            parts = [p for p in parsed.path.split("/") if p]
            try:
                if parts == ["v1", "submit"]:
                    body = self._read_body()
                    request = body.get("request")
                    if not isinstance(request, dict):
                        raise RequestError(
                            "submit body needs a 'request' object "
                            "(the typed request envelope)",
                            field="request",
                        )
                    job = app.submit(
                        request,
                        tenant=body.get("tenant", DEFAULT_TENANT),
                        priority=body.get("priority", 0),
                        stream=bool(body.get("stream", False)),
                    )
                    self._send_json(202, {
                        "job_id": job.id,
                        "state": job.state,
                        "tenant": job.tenant,
                        "priority": job.priority,
                        "stream": job.stream,
                    })
                elif (
                    len(parts) == 4
                    and parts[:2] == ["v1", "jobs"]
                    and parts[3] == "cancel"
                ):
                    self._send_json(200, app.cancel(parts[2]))
                else:
                    self._send_json(404, error_envelope(
                        "http", ServeError(f"no route POST {parsed.path}")
                    ))
            except ReproError as error:
                self._send_error_envelope("http", error)

        def do_DELETE(self) -> None:  # noqa: N802 - stdlib casing
            app._m_http.inc()
            parts = [p for p in urlparse(self.path).path.split("/") if p]
            try:
                if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                    self._send_json(200, app.cancel(parts[2]))
                else:
                    self._send_json(404, error_envelope(
                        "http", ServeError(f"no route DELETE {self.path}")
                    ))
            except ReproError as error:
                self._send_error_envelope("http", error)

        # -- SSE ----------------------------------------------------------

        def _stream(self, job_id: str, query: str) -> None:
            job = app.queue.get(job_id)
            params = parse_qs(query)
            cursor = 0
            if "after" in params:
                try:
                    cursor = max(0, int(params["after"][0]))
                except ValueError:
                    raise RequestError(
                        f"after must be an integer event cursor, "
                        f"got {params['after'][0]!r}",
                        field="after",
                    )
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            # Until-close framing: no Content-Length, the event stream
            # ends when the job does.
            self.send_header("Connection", "close")
            self.end_headers()
            app.metrics.counter("serve.stream.clients").inc()
            try:
                while True:
                    events, cursor = job.events_after(
                        cursor, timeout=STREAM_KEEPALIVE_SECONDS
                    )
                    if not events:
                        if job.finished:
                            return
                        self.wfile.write(b": keep-alive\n\n")
                        self.wfile.flush()
                        continue
                    for index, event in enumerate(events):
                        event_id = cursor - len(events) + index + 1
                        frame = (
                            f"id: {event_id}\n"
                            f"event: {event.get('event', 'message')}\n"
                            f"data: {json.dumps(event)}\n\n"
                        )
                        self.wfile.write(frame.encode("utf-8"))
                    self.wfile.flush()
                    if any(e.get("event") == "end" for e in events):
                        return
            except (BrokenPipeError, ConnectionResetError):
                # Client went away mid-stream; the job keeps running and
                # a reconnect replays from any cursor.
                app.metrics.counter("serve.stream.disconnects").inc()

    return Handler
