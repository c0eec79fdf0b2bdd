"""Exception hierarchy for the EasyACIM reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch a single base class at flow boundaries while still being
able to discriminate between configuration, modelling, layout and routing
failures when they need to.

Each exception class carries a machine-readable :attr:`~ReproError.code`
(a stable kebab-case identifier) so non-Python consumers — the JSON CLI
output, a future HTTP service — can dispatch on the failure kind without
parsing the human-readable message.  The :mod:`repro.api` request layer
raises these same exceptions from its validation, so a bad
``EstimateRequest`` reports the identical ``specification`` code a bad
:class:`~repro.arch.spec.ACIMDesignSpec` does.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence


class ReproError(Exception):
    """Base class of all exceptions raised by the library.

    Attributes:
        code: stable machine-readable identifier of the failure kind,
            overridden by every subclass (``specification``, ``store``,
            ``request``, ...).
    """

    code: str = "repro"

    def as_dict(self) -> Dict[str, str]:
        """Serializable ``{"code", "error", "message"}`` record."""
        return {
            "code": self.code,
            "error": type(self).__name__,
            "message": str(self),
        }


class SpecificationError(ReproError):
    """A design specification violates an architectural constraint.

    Raised, for example, when ``H * W`` does not equal the requested array
    size or when the ADC precision exceeds the available capacitor groups
    (paper Equation 12).
    """

    code = "specification"


class TechnologyError(ReproError):
    """The technology description is inconsistent or incomplete."""

    code = "technology"


class NetlistError(ReproError):
    """A netlist is malformed (dangling nets, duplicate instances, ...)."""

    code = "netlist"


class CellLibraryError(ReproError):
    """The customized cell library does not provide a required cell."""

    code = "cell-library"


class LayoutError(ReproError):
    """A layout operation failed (overlaps, out-of-bounds shapes, ...)."""

    code = "layout"


class PlacementError(LayoutError):
    """The placer could not produce a legal placement."""

    code = "placement"


class RoutingError(LayoutError):
    """The router could not connect one or more nets."""

    code = "routing"


class DRCError(LayoutError):
    """A design-rule check failed.

    Carries the complete violation list (every offending shape of every
    rule, not just the first), so callers and the JSON error envelope can
    report rule names and offending coordinates.

    Args:
        message: human-readable summary.
        violations: the offending records; anything with an ``as_dict()``
            (e.g. :class:`repro.layout.drc.DRCViolation`) serializes
            fully, other objects fall back to ``str``.
    """

    code = "drc"

    def __init__(self, message: str, violations: Sequence = ()) -> None:
        super().__init__(message)
        self.violations = list(violations)

    def as_dict(self) -> Dict:
        """Structured record including rule names and shape coordinates."""
        record = super().as_dict()
        record["violations"] = [
            violation.as_dict() if hasattr(violation, "as_dict")
            else str(violation)
            for violation in self.violations
        ]
        return record


class ModelError(ReproError):
    """The performance estimation model received invalid parameters."""

    code = "model"


class CalibrationError(ModelError):
    """Model calibration against reference data failed to converge."""

    code = "calibration"


class OptimizationError(ReproError):
    """The design-space explorer failed (empty feasible set, ...)."""

    code = "optimization"


class SimulationError(ReproError):
    """The behavioral simulator received an invalid configuration."""

    code = "simulation"


class FlowError(ReproError):
    """The top-level flow controller failed to complete a stage."""

    code = "flow"


class EngineError(ReproError):
    """The evaluation engine was misconfigured (unknown backend, ...)."""

    code = "engine"


class WorkerCrashError(EngineError):
    """A process-pool worker died mid-call.

    Raised by :meth:`repro.engine.EvaluationEngine.map` instead of the
    executor's sticky ``BrokenProcessPool`` when a worker process exits
    abnormally (segfault, OOM kill, ``os._exit``).  The engine drops the
    broken pool and rebuilds it on the next call, so the crash fails one
    call, not the engine.
    """

    code = "worker-crash"


class StoreError(ReproError):
    """The persistent result store failed (schema mismatch, bad campaign,
    corrupt checkpoint, ...)."""

    code = "store"


class RequestError(ReproError):
    """An API request is malformed (unknown kind, unexpected field, ...).

    Domain violations inside a structurally valid request raise the
    matching domain exception instead (:class:`SpecificationError` for an
    infeasible spec, :class:`StoreError` for an unknown rank metric, ...);
    this class covers the envelope itself.

    Args:
        message: human-readable summary.
        field: name of the offending request field when the rejection is
            attributable to one (``"kind"`` for an unknown request kind);
            serialized into :meth:`as_dict` so HTTP consumers can
            highlight the bad input without parsing the message.
    """

    code = "request"

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field

    def as_dict(self) -> Dict[str, str]:
        """Structured record, including the offending field when known."""
        record = super().as_dict()
        if self.field is not None:
            record["field"] = self.field
        return record


class ServeError(ReproError):
    """The serving layer rejected or could not place a request
    (unknown job, draining server, malformed transport envelope, ...)."""

    code = "serve"


class RateLimitError(ServeError):
    """A tenant exhausted its token bucket; retry after the given delay.

    Args:
        message: human-readable summary.
        retry_after_seconds: seconds until the bucket next has a token
            (the server surfaces it as the ``Retry-After`` header).
    """

    code = "rate-limited"

    def __init__(
        self, message: str, retry_after_seconds: float = 1.0
    ) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds

    def as_dict(self) -> Dict:
        """Structured record including the retry hint."""
        record = super().as_dict()
        record["retry_after_seconds"] = round(self.retry_after_seconds, 3)
        return record


#: Stable HTTP status for every error ``code`` — the single mapping the
#: serving layer (and any other transport) uses to turn a
#: :meth:`ReproError.as_dict` payload into a response status.  Client
#: mistakes (malformed envelopes, domain-invalid requests) are 4xx;
#: infrastructure failures (engine, worker crash) are 5xx.
HTTP_STATUS_BY_CODE: Dict[str, int] = {
    "repro": 500,
    "specification": 400,
    "technology": 400,
    "netlist": 400,
    "cell-library": 400,
    "layout": 422,
    "placement": 422,
    "routing": 422,
    "drc": 422,
    "model": 400,
    "calibration": 422,
    "optimization": 400,
    "simulation": 400,
    "flow": 400,
    "engine": 500,
    "worker-crash": 500,
    "store": 409,
    "request": 400,
    "serve": 503,
    "rate-limited": 429,
}


def http_status_of(error: BaseException) -> int:
    """The HTTP status an error maps to (500 for anything unknown).

    Works on any exception: :class:`ReproError` subclasses resolve
    through :data:`HTTP_STATUS_BY_CODE` by their ``code``; foreign
    exceptions are internal failures (500).
    """
    code = getattr(error, "code", None)
    return HTTP_STATUS_BY_CODE.get(code, 500)
