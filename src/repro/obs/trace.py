"""Nested-span tracing across threads.

:class:`Tracer` produces :class:`Span` records — named intervals on the
monotonic clock with parent/child links and free-form attributes — via
the ``with tracer.span(name, **attrs):`` context manager.  The design
targets the engine's execution model:

* **Near-zero cost when disabled.**  The process-wide tracer starts
  disabled; ``span()`` then returns a shared no-op handle without
  allocating, so instrumentation stays in the hot paths permanently (the
  overhead regression test bounds the per-call cost).
* **Thread-safe nesting.**  The current-span stack is thread-local, so
  concurrent threads (a server's job workers) each build their own
  ancestry while recording into one shared, lock-protected buffer.
* **Bounded memory.**  The buffer holds at most ``max_spans`` records;
  overflow increments :attr:`Tracer.dropped` instead of growing without
  bound.

Export with :mod:`repro.obs.exporters` (JSONL or Chrome ``trace_event``
for Perfetto).  See ``docs/observability.md``.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, List, Optional

#: Default span-buffer capacity (per tracer).
DEFAULT_MAX_SPANS = 100_000

_span_counter = itertools.count(1)


def _new_span_id() -> str:
    """A span id unique across the processes contributing to one trace."""
    return f"{os.getpid():x}-{next(_span_counter):x}"


class Span:
    """One named, timed interval with ancestry and attributes.

    Attributes:
        name: span name (dotted lowercase, e.g. ``engine.evaluate_specs``).
        span_id: unique id (``<pid hex>-<counter hex>``).
        parent_id: enclosing span's id, or ``None`` for a root span.
        start_ns / end_ns: ``time.perf_counter_ns()`` interval
            (``end_ns`` is 0 until the span finishes).
        attrs: free-form JSON-able attributes.
        pid / tid: recording process and thread.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "start_ns", "end_ns",
        "attrs", "pid", "tid",
    )

    def __init__(
        self,
        name: str,
        parent_id: Optional[str] = None,
        attrs: Optional[Dict] = None,
        span_id: Optional[str] = None,
        start_ns: int = 0,
        end_ns: int = 0,
        pid: Optional[int] = None,
        tid: Optional[int] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id or _new_span_id()
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.attrs = attrs or {}
        self.pid = pid if pid is not None else os.getpid()
        self.tid = tid if tid is not None else threading.get_ident()

    @property
    def duration_ns(self) -> int:
        """Span duration (0 while unfinished)."""
        if not self.end_ns:
            return 0
        return max(0, self.end_ns - self.start_ns)

    def set(self, key: str, value) -> None:
        """Attach (or overwrite) one attribute."""
        self.attrs[key] = value

    def as_dict(self) -> Dict:
        """Serializable record (the JSONL exporter's line shape)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, dur={self.duration_ns}ns)"
        )


class _NullSpan:
    """The shared no-op handle ``span()`` returns while tracing is off."""

    __slots__ = ()
    span_id = None
    parent_id = None
    name = ""
    attrs: Dict = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, key: str, value) -> None:
        return None


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager driving one live span through the tracer."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._push(self.span)
        self.span.start_ns = time.perf_counter_ns()
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.span.end_ns = time.perf_counter_ns()
        self._tracer._pop(self.span)
        self._tracer.record(self.span)
        return None


class Tracer:
    """Collects spans into a bounded, thread-safe buffer.

    Args:
        enabled: record spans (``False`` makes ``span()`` a no-op).
        max_spans: buffer capacity; overflow counts into ``dropped``.
    """

    def __init__(
        self, enabled: bool = False, max_spans: int = DEFAULT_MAX_SPANS
    ) -> None:
        self.max_spans = max(1, int(max_spans))
        self.trace_id: Optional[str] = None
        self.dropped = 0
        self._enabled = bool(enabled)
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._local = threading.local()
        if self._enabled:
            self.enable()

    # -- lifecycle ------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True while spans are being recorded."""
        return self._enabled

    def enable(self) -> "Tracer":
        """Start (or restart) recording under a fresh trace id."""
        with self._lock:
            self._enabled = True
            if self.trace_id is None:
                self.trace_id = f"{os.getpid():x}-{time.time_ns():x}"
        return self

    def disable(self) -> "Tracer":
        """Stop recording (the buffer is kept until :meth:`clear`)."""
        self._enabled = False
        return self

    def clear(self) -> None:
        """Drop every buffered span and reset the trace id."""
        with self._lock:
            self._spans.clear()
            self.dropped = 0
            self.trace_id = None

    # -- recording ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current_span(self) -> Optional[Span]:
        """This thread's innermost open span (None outside any span)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **attrs):
        """Open a nested span: ``with tracer.span("physical.routing", n=3):``.

        Returns a context manager yielding the live :class:`Span` (so the
        body can ``span.set(...)`` attributes), or the shared no-op
        handle when tracing is disabled.
        """
        if not self._enabled:
            return NULL_SPAN
        parent = self.current_span()
        return _SpanHandle(self, Span(
            name,
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs or None,
        ))

    def record(self, span: Span) -> None:
        """Append one finished span to the buffer (bounded)."""
        if not self._enabled:
            return
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(span)

    # -- reading --------------------------------------------------------------

    def finished_spans(self) -> List[Span]:
        """A copy of the buffered spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)


#: The process-wide tracer every instrumentation site records into.
_GLOBAL_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled until :func:`configure_tracing`)."""
    return _GLOBAL_TRACER


def configure_tracing(
    enabled: bool = True, max_spans: int = DEFAULT_MAX_SPANS
) -> Tracer:
    """(Re)configure the process-wide tracer and return it.

    Enabling clears any previous buffer and starts a fresh trace id, so
    each ``repro trace`` invocation exports exactly its own spans;
    disabling stops recording and drops the buffer.
    """
    tracer = _GLOBAL_TRACER
    tracer.disable()
    tracer.clear()
    tracer.max_spans = max(1, int(max_spans))
    if enabled:
        tracer.enable()
    return tracer

