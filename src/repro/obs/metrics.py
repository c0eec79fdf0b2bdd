"""Counters, gauges and fixed-bucket histograms behind one registry.

:class:`MetricsRegistry` is the quantitative half of the observability
layer (:mod:`repro.obs.trace` is the temporal half): a flat, thread-safe
namespace of named instruments that every subsystem — the evaluation
engine, the physical pipeline, the result store, the campaign loop —
records into.  Consumers read it three ways:

* **snapshots** — :meth:`MetricsRegistry.snapshot` returns a plain,
  JSON-serializable dictionary of every instrument's current value
  (the registry's totals);
* **scopes** — ``with registry.scope() as scope:`` records, next to the
  totals, what the current context adds or observes while the scope is
  open; :meth:`MetricsScope.read` returns it in the snapshot's shape
  (the per-call figures :meth:`repro.api.Session.submit` attaches to
  every :class:`~repro.api.results.ApiResult`).  Scopes live in a
  :mod:`contextvars` variable, so work other threads do meanwhile —
  including threads started inside the scope — is not counted;
* **typed views** — ``EngineStats`` and ``PipelineStats`` are read-only
  views built ``from_metrics()`` of a snapshot or a scope (see
  :mod:`repro.engine.engine` and :mod:`repro.physical.artifacts`), so
  each fact is counted once, here.

Instruments are created on first use (``registry.counter(name)``) and
instrument handles are cheap to hold, so hot paths resolve them once and
record batch-aggregated values — one lock acquisition per batch, not per
item.  Counter values are plain Python ints/floats accumulated in the
same order the legacy ``+=`` counters used, which is what keeps the
``EngineStats`` view bit-identical to the pre-registry dataclass.

Metric names are dotted lowercase paths (``engine.cache.hit``,
``store.put.seconds``); the catalogue lives in
``docs/observability.md``.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Default histogram bucket upper bounds for second-valued observations.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0
)

#: Default histogram bucket upper bounds for batch-size observations.
SIZE_BUCKETS: Tuple[float, ...] = (1, 8, 32, 128, 512, 2048, 8192)

#: The scopes open in the current context, outermost first.  A new
#: thread starts with none: it records into the registries' totals only.
_OPEN_SCOPES: ContextVar[Tuple["MetricsScope", ...]] = ContextVar(
    "repro_metrics_scopes", default=()
)


class Counter:
    """A monotonically accumulating value (int or float increments)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self._value: Number = 0
        self._lock = lock

    def add(self, amount: Number) -> None:
        """Accumulate ``amount`` (negative amounts are a caller bug)."""
        with self._lock:
            self._value += amount
        for scope in _OPEN_SCOPES.get():
            if scope.lock is self._lock:
                recorded = scope.recorded
                recorded[self.name] = recorded.get(self.name, 0) + amount

    def inc(self) -> None:
        """Accumulate 1."""
        self.add(1)

    @property
    def value(self) -> Number:
        """The accumulated total."""
        return self._value

    def snapshot_value(self) -> Number:
        return self._value

    def scoped_value(self, recorded: Optional[Number]) -> Number:
        # Zero of the total's own type, so an idle seconds counter
        # reads 0.0, as its snapshot would.
        return type(self._value)() if recorded is None else recorded


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self._value: Number = 0
        self._lock = lock

    def set(self, value: Number) -> None:
        """Record the current level."""
        with self._lock:
            self._value = value

    @property
    def value(self) -> Number:
        return self._value

    def snapshot_value(self) -> Number:
        return self._value

    def scoped_value(self, recorded: None) -> Number:
        # A gauge is a level, not a flow: a scope reports the current
        # level (sets are never recorded per scope).
        return self._value


class Histogram:
    """Fixed-bucket distribution of observed values.

    Buckets are cumulative-style upper bounds (``le``); one overflow
    bucket catches everything beyond the last bound.  The snapshot shape
    is JSON-friendly: ``{"count", "sum", "buckets": [[le, n], ...]}``
    with ``le`` of the overflow bucket serialized as ``"inf"``.
    """

    __slots__ = ("name", "bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        bounds: Sequence[Number],
        lock: threading.RLock,
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(
                f"histogram {name!r} needs ascending bucket bounds, "
                f"got {bounds!r}"
            )
        self.name = name
        self.bounds: Tuple[Number, ...] = tuple(bounds)
        self._counts: List[int] = [0] * (len(self.bounds) + 1)
        self._sum: float = 0.0
        self._count: int = 0
        self._lock = lock

    def observe(self, value: Number) -> None:
        """Record one observation."""
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
        for scope in _OPEN_SCOPES.get():
            if scope.lock is self._lock:
                recorded = scope.recorded.get(self.name)
                if recorded is None:
                    recorded = scope.recorded[self.name] = [
                        0, 0.0, [0] * len(self._counts)
                    ]
                recorded[0] += 1
                recorded[1] += value
                recorded[2][index] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot_value(self) -> Dict[str, object]:
        return self._document(self._count, self._sum, self._counts)

    def scoped_value(self, recorded: Optional[List]) -> Dict[str, object]:
        count, total, counts = recorded or (0, 0.0, [0] * len(self._counts))
        return self._document(count, total, counts)

    def _document(
        self, count: int, total: float, counts: List[int]
    ) -> Dict[str, object]:
        labels = [*self.bounds, "inf"]
        return {
            "count": count,
            "sum": total,
            "buckets": [
                [label, bucket] for label, bucket in zip(labels, counts)
            ],
        }


class MetricsRegistry:
    """A named, thread-safe collection of counters, gauges and histograms.

    Instruments are created on first use and live for the registry's
    lifetime; asking for an existing name returns the existing instrument
    (a kind mismatch raises).  Long-lived registries accumulate forever;
    a consumer that wants one run's figures runs it inside a
    :meth:`scope` and reads the scope.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._instruments: Dict[str, object] = {}

    def _instrument(self, name: str, kind, *args):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name, *args, self._lock)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise ValueError(
                    f"metric {name!r} is a "
                    f"{type(instrument).__name__}, not a {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """The (auto-created) counter called ``name``."""
        return self._instrument(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The (auto-created) gauge called ``name``."""
        return self._instrument(name, Gauge)

    def histogram(
        self, name: str, bounds: Sequence[Number] = SECONDS_BUCKETS
    ) -> Histogram:
        """The (auto-created) histogram called ``name``.

        ``bounds`` only applies on creation; later calls return the
        existing instrument unchanged.
        """
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = Histogram(name, bounds, self._lock)
                self._instruments[name] = instrument
            elif not isinstance(instrument, Histogram):
                raise ValueError(
                    f"metric {name!r} is a "
                    f"{type(instrument).__name__}, not a Histogram"
                )
            return instrument

    def value(self, name: str, default: Number = 0) -> object:
        """One instrument's current value (``default`` when absent)."""
        instrument = self._instruments.get(name)
        if instrument is None:
            return default
        return instrument.snapshot_value()

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, object]:
        """Every instrument's current value as plain JSON-able data."""
        with self._lock:
            return {
                name: instrument.snapshot_value()
                for name, instrument in sorted(self._instruments.items())
            }

    def scope(self) -> "MetricsScope":
        """A context manager recording what this context adds from here.

        ``with registry.scope() as scope: ...`` then ``scope.read()``.
        Scopes nest: every open scope of this registry in the current
        context records each add and observation.
        """
        return MetricsScope(self)


class MetricsScope:
    """What one context recorded into a registry while the scope was open.

    Counter adds and histogram observations made in the context that
    opened the scope land in ``recorded`` (plain numbers and
    ``[count, sum, bucket counts]`` lists, keyed by metric name) as well
    as in the registry's totals.  Work of other threads, and of threads
    started inside the scope, is not recorded.
    """

    __slots__ = ("_registry", "lock", "recorded", "_token")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        # The registry's lock doubles as its identity: every instrument
        # of the registry holds the same one.
        self.lock = registry._lock
        self.recorded: Dict[str, object] = {}
        self._token = None

    def __enter__(self) -> "MetricsScope":
        self._token = _OPEN_SCOPES.set(_OPEN_SCOPES.get() + (self,))
        return self

    def __exit__(self, *exc_info) -> None:
        _OPEN_SCOPES.reset(self._token)

    def read(self) -> Dict[str, object]:
        """One entry per registered instrument, in the snapshot's shape.

        Counters and histograms hold what this scope recorded (zero of
        the instrument's own type when it recorded nothing); gauges
        report their current level.
        """
        registry = self._registry
        with registry._lock:
            items = sorted(registry._instruments.items())
        recorded = self.recorded
        return {
            name: instrument.scoped_value(recorded.get(name))
            for name, instrument in items
        }
