"""Stdlib HTTP client for the serving layer.

:class:`ServeClient` wraps ``http.client`` so examples, tests and the
load benchmark talk to :class:`~repro.serve.server.ReproServer` without
third-party dependencies.  Methods mirror the endpoints one-to-one and
return the parsed JSON documents; non-2xx replies raise
:class:`ServeHTTPError` carrying the status code and the structured
error envelope the server emitted.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlparse

from repro.errors import ServeError


class ServeHTTPError(ServeError):
    """A non-2xx HTTP reply, carrying the server's error envelope."""

    code = "serve-http"

    def __init__(self, status: int, document: dict) -> None:
        error = (document.get("payload") or {}).get("error") or {}
        message = error.get("message") or f"HTTP {status}"
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.document = document
        self.error = error

    def as_dict(self) -> dict:
        record = super().as_dict()
        record["status"] = self.status
        record["server_error"] = self.error
        return record


class ServeClient:
    """Minimal synchronous client for one ``repro serve`` endpoint.

    Args:
        url: server base URL, e.g. ``http://127.0.0.1:8433``.
        timeout: socket timeout for non-streaming calls, seconds.
    """

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        parsed = urlparse(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ServeError(f"server url must be http://host:port, got {url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout

    # -- plumbing --------------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, dict]:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            document = json.loads(raw.decode("utf-8")) if raw else {}
            return response.status, document
        finally:
            connection.close()

    def _call(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        status, document = self._request(method, path, body)
        if not 200 <= status < 300:
            raise ServeHTTPError(status, document)
        return document

    # -- endpoints -------------------------------------------------------------

    def submit(
        self,
        request: dict,
        tenant: str = "default",
        priority: int = 0,
        stream: bool = False,
    ) -> dict:
        """``POST /v1/submit``; returns the acceptance document."""
        return self._call("POST", "/v1/submit", {
            "request": request,
            "tenant": tenant,
            "priority": priority,
            "stream": stream,
        })

    def job(self, job_id: str) -> dict:
        """``GET /v1/jobs/<id>``; the job status document."""
        return self._call("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        """``POST /v1/jobs/<id>/cancel``."""
        return self._call("POST", f"/v1/jobs/{job_id}/cancel")

    def metrics(self) -> dict:
        """``GET /v1/metrics``."""
        return self._call("GET", "/v1/metrics")

    def healthz(self) -> dict:
        """``GET /v1/healthz``."""
        return self._call("GET", "/v1/healthz")

    def wait(self, job_id: str, timeout: float = 60.0) -> dict:
        """Follow the job's event stream to its ``end`` event.

        Returns the final status document (one ``GET /v1/jobs/<id>``
        after the stream ends); raises :class:`ServeError` when the job
        is not terminal ``timeout`` seconds from now, keep-alive comments
        notwithstanding (the job keeps running server-side).
        """
        deadline = time.monotonic() + timeout
        try:
            for _ in self._follow(job_id, 0, timeout, deadline):
                pass
        except TimeoutError:
            pass
        document = self.job(job_id)
        if document["state"] not in ("done", "failed", "cancelled"):
            raise ServeError(
                f"job {job_id} still {document['state']!r} "
                f"after {timeout:g}s"
            )
        return document

    def run(
        self,
        request: dict,
        tenant: str = "default",
        priority: int = 0,
        timeout: float = 60.0,
    ) -> dict:
        """Submit and wait; returns the terminal job document."""
        accepted = self.submit(request, tenant=tenant, priority=priority)
        return self.wait(accepted["job_id"], timeout=timeout)

    # -- streaming -------------------------------------------------------------

    def stream(
        self,
        job_id: str,
        after: int = 0,
        timeout: float = 120.0,
    ) -> Iterator[dict]:
        """Follow ``GET /v1/stream/<id>`` as parsed SSE events.

        Yields each event dictionary (augmented with its ``_cursor``, the
        value to pass as ``after=`` when reconnecting) and returns once
        the terminal ``end`` event arrives.  Keep-alive comments are
        consumed silently.
        """
        return self._follow(job_id, after, timeout, None)

    def _follow(
        self,
        job_id: str,
        after: int,
        timeout: float,
        deadline: Optional[float],
    ) -> Iterator[dict]:
        """The SSE reader behind :meth:`stream` and :meth:`wait`.

        ``timeout`` bounds each socket read; a ``deadline`` (a
        ``time.monotonic()`` instant) also bounds the whole stream, so a
        trickle of keep-alive comments cannot outlast it: past it the
        reader raises :class:`TimeoutError`.
        """

        def remaining() -> float:
            if deadline is None:
                return timeout
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"stream of job {job_id} past its deadline")
            return min(timeout, left)

        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=remaining()
        )
        try:
            connection.request("GET", f"/v1/stream/{job_id}?after={after}")
            # The response takes the socket over once it reads the
            # ``Connection: close`` header; keep a handle for timeouts.
            sock = connection.sock
            response = connection.getresponse()
            if response.status != 200:
                raw = response.read()
                document = json.loads(raw.decode("utf-8")) if raw else {}
                raise ServeHTTPError(response.status, document)
            fields: Dict[str, str] = {}
            while True:
                sock.settimeout(remaining())
                line = response.readline()
                if not line:
                    return  # server closed the stream
                text = line.decode("utf-8").rstrip("\r\n")
                if not text:  # blank line: dispatch the accumulated frame
                    if "data" in fields:
                        event = json.loads(fields["data"])
                        if "id" in fields:
                            event["_cursor"] = int(fields["id"])
                        yield event
                        if event.get("event") == "end":
                            return
                    fields = {}
                    continue
                if text.startswith(":"):
                    continue  # keep-alive comment
                name, _, value = text.partition(":")
                fields[name.strip()] = value.lstrip()
        finally:
            connection.close()

    def stream_events(
        self, job_id: str, timeout: float = 120.0
    ) -> List[dict]:
        """Collect the full event stream of a job into a list."""
        return list(self.stream(job_id, timeout=timeout))
