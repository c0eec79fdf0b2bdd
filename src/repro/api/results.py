"""The typed result envelope every :class:`repro.api.Session` call returns.

Callers never touch internal tuples: each workflow packs its outcome into
an :class:`ApiResult` whose ``payload`` is plain JSON-serializable data
(dicts, lists, numbers, strings), with the engine statistics and any
non-fatal warnings alongside.  Rich in-process objects (evaluated designs,
layout reports, the full :class:`~repro.flow.controller.FlowResult`) ride
in :attr:`ApiResult.artifacts`, which is deliberately excluded from the
dict round-trip — the serialized form is exactly what a remote consumer
would see.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import RequestError

#: Result statuses a session can report.  ``error`` never appears on a
#: result returned from :meth:`Session.submit` — failures raise — but is
#: reserved for transports that must serialize an exception instead.
STATUSES = ("ok", "interrupted", "failed", "error")


@dataclass
class ApiResult:
    """Outcome of one API request.

    Attributes:
        kind: the request kind that produced this result.
        status: ``ok``, ``interrupted`` (checkpointed campaign stopped
            early, resumable) or ``failed`` (the workflow ran but reports
            an unhealthy outcome, e.g. library consistency problems).
        payload: JSON-serializable result data (shape documented per
            request type in ``docs/api.md``).
        warnings: non-fatal notes (skipped infeasible points, ...).
        engine_stats: evaluation-engine statistics of this call (plus the
            flattened pipeline keys on physical workflows).
        runtime_seconds: wall-clock of this call (monotonic clock).
        metrics: what this call recorded into the session metrics
            registry (``repro.obs`` names -> values; histograms as
            documents).  ``engine_stats`` is a view of the same figures.
        trace_id: id of the active trace during this call (None when
            tracing was disabled).
        artifacts: rich in-process objects backing the payload; excluded
            from :meth:`to_dict` and from equality.
    """

    kind: str
    status: str = "ok"
    payload: Dict[str, Any] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    engine_stats: Dict[str, Any] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    metrics: Dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[str] = None
    artifacts: Dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        """True when the workflow completed healthily."""
        return self.status == "ok"

    def to_dict(self) -> dict:
        """Serializable dictionary (artifacts excluded)."""
        return {
            "kind": self.kind,
            "status": self.status,
            "payload": self.payload,
            "warnings": list(self.warnings),
            "engine_stats": dict(self.engine_stats),
            "runtime_seconds": self.runtime_seconds,
            "metrics": dict(self.metrics),
            "trace_id": self.trace_id,
        }

    def to_json(self, indent: int = 2) -> str:
        """The envelope as a JSON document (used by the CLI ``--json``)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict) -> "ApiResult":
        """Rebuild an envelope from :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise RequestError(
                f"result must be a dict, got {type(data).__name__}"
            )
        data = dict(data)
        unknown = sorted(
            set(data)
            - {"kind", "status", "payload", "warnings", "engine_stats",
               "runtime_seconds", "metrics", "trace_id"}
        )
        if unknown:
            raise RequestError(
                f"unknown result field(s) {', '.join(unknown)}"
            )
        try:
            result = cls(**data)
        except TypeError as error:
            raise RequestError(f"cannot build ApiResult: {error}")
        if result.status not in STATUSES:
            raise RequestError(
                f"unknown result status {result.status!r}; "
                f"expected one of {sorted(STATUSES)}"
            )
        return result
