"""Benchmark-side tracing: timing wrappers around the program's public calls.

The program under test is not modified.  :class:`Tracer` replaces a fixed
list of module and class attributes (:data:`HOOKS`) with wrappers that
record one in-memory span per call: name, start, end, parent span and the
id of the request (root span) it belongs to.  :meth:`Tracer.rollup` turns
the spans into per-name self time (duration minus the time covered by
direct child spans), inclusive time, call counts and per-call counts.

A hook whose target no longer exists (a module, class or function removed
or renamed by a later change) is reported in :attr:`Tracer.absent` and
skipped; it never raises.  End-to-end runs never construct a tracer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


def _length_of_first_argument(args, kwargs, result) -> int:
    return len(args[1]) if len(args) > 1 else 0


def _length_of_result(args, kwargs, result) -> int:
    return len(result) if result is not None else 0


def _int_result(args, kwargs, result) -> int:
    return int(result or 0)


# (module, attribute path, span name, per-call counter or None).
# ``pareto_front`` is hooked where it is bound: the explorer and session
# import it by name, the result store imports it from ``repro.dse.pareto``
# inside ``query_page``.
HOOKS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.api.session", "Session.submit", "api.submit", None),
    ("repro.dse.nsga2", "non_dominated_sort", "dse.rank", None),
    ("repro.dse.nsga2", "crowding_distance", "dse.rank", None),
    ("repro.dse.explorer", "pareto_front", "dse.pareto", None),
    ("repro.api.session", "pareto_front", "dse.pareto", None),
    ("repro.dse.pareto", "pareto_front", "dse.pareto", None),
    ("repro.dse.problem", "ACIMDesignProblem.random_genome", "dse.variation", None),
    ("repro.dse.problem", "ACIMDesignProblem.crossover", "dse.variation", None),
    ("repro.dse.problem", "ACIMDesignProblem.mutate", "dse.variation", None),
    ("repro.dse.problem", "ACIMDesignProblem.evaluate_many", "dse.evaluate", None),
    ("repro.dse.nsga2", "NSGA2.initialize", "dse.init", None),
    ("repro.dse.nsga2", "NSGA2.step", "dse.step", None),
    ("repro.engine.engine", "EvaluationEngine.evaluate_specs", "engine.evaluate", None),
    ("repro.engine.engine", "EvaluationEngine.map", "engine.map", None),
    ("repro.model.estimator", "ACIMEstimator.evaluate_batch", "model.evaluate",
     _length_of_first_argument),
    ("repro.store.result_store", "ResultStore.__init__", "store.open", None),
    ("repro.store.result_store", "ResultStore.hydrate", "store.hydrate",
     _length_of_result),
    ("repro.store.result_store", "ResultStore.put_many", "store.write",
     _int_result),
    ("repro.store.result_store", "ResultStore.query_page", "store.query", None),
    ("repro.physical.pipeline", "PhysicalPipeline.run", "physical.run", None),
    ("repro.flow.controller", "_FlowCore.run", "flow.run", None),
)


class _Span:
    __slots__ = ("name", "start", "end", "parent", "request", "child_seconds", "count")

    def __init__(self, name: str, parent: Optional["_Span"], request: int) -> None:
        self.name = name
        self.parent = parent
        self.request = request
        self.start = time.perf_counter()
        self.end = 0.0
        self.child_seconds = 0.0
        self.count = 0


class Tracer:
    """Installs the :data:`HOOKS` wrappers and collects their spans."""

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = hooks
        self.spans: List[_Span] = []
        self.absent: List[str] = []
        self.enabled = False
        self._local = threading.local()
        self._requests = itertools.count(1)
        self._installed: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every hook target that exists; record the missing ones."""
        self.absent = []
        for module_name, path, span_name, counter in self.hooks:
            owner, attribute = self._resolve(module_name, path)
            if owner is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            original = owner.__dict__[attribute]
            setattr(owner, attribute, self._wrap(original, span_name, counter))
            self._installed.append((owner, attribute, original))
        self.enabled = True
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute (in reverse installation order)."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed = []
        self.enabled = False

    @staticmethod
    def _resolve(module_name: str, path: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, None
        *parents, attribute = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return None, None
        if not callable(getattr(owner, "__dict__", {}).get(attribute)):
            return None, None
        return owner, attribute

    def _wrap(self, function, span_name: str, counter):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            request = parent.request if parent else next(tracer._requests)
            span = _Span(span_name, parent, request)
            stack.append(span)
            try:
                result = function(*args, **kwargs)
                if counter is not None:
                    span.count = counter(args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_seconds += span.end - span.start
                tracer.spans.append(span)

        return wrapper

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- results --------------------------------------------------------------

    def rollup(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``self_s``, ``incl_s``, ``calls`` and ``count``.

        Inclusive time counts only outermost spans of a name, so a
        recursive or re-entrant call is not counted twice.
        """
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "count": 0}
            )
            duration = span.end - span.start
            row["self_s"] += duration - span.child_seconds
            row["calls"] += 1
            row["count"] += span.count
            ancestor = span.parent
            while ancestor is not None and ancestor.name != span.name:
                ancestor = ancestor.parent
            if ancestor is None:
                row["incl_s"] += duration
        return table
