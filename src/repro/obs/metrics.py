"""Counters, gauges and fixed-bucket histograms behind one registry.

:class:`MetricsRegistry` is the quantitative half of the observability
layer (:mod:`repro.obs.trace` is the temporal half): a flat, thread-safe
namespace of named instruments that every subsystem — the evaluation
engine, the physical pipeline, the result store, the campaign loop —
records into.  Consumers read it two ways:

* **snapshots** — :meth:`MetricsRegistry.snapshot` returns a plain,
  JSON-serializable dictionary of every instrument's current value, and
  :meth:`MetricsRegistry.since` diffs two snapshots into a per-call
  delta (the shape :meth:`repro.api.Session.submit` attaches to every
  :class:`~repro.api.results.ApiResult`);
* **typed views** — ``EngineStats`` is materialized *from* the registry
  (see :mod:`repro.engine.engine`), so the legacy statistics API keeps
  its exact shape while the numbers live here.

Instruments are created on first use (``registry.counter(name)``) and
instrument handles are cheap to hold, so hot paths resolve them once and
record batch-aggregated values — one lock acquisition per batch, not per
item.  Counter values are plain Python ints/floats accumulated in the
same order the legacy ``+=`` counters used, which is what keeps the
registry-backed ``EngineStats`` bit-identical to the pre-refactor one.

Metric names are dotted lowercase paths (``engine.cache.hit``,
``store.put.seconds``); the catalogue lives in
``docs/observability.md``.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Default histogram bucket upper bounds for second-valued observations.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0
)

#: Default histogram bucket upper bounds for batch-size observations.
SIZE_BUCKETS: Tuple[float, ...] = (1, 8, 32, 128, 512, 2048, 8192)


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

    def inc(self) -> None:
        """Accumulate 1."""
        self.add(1)

    @property
    def value(self) -> Number:
        """The accumulated total."""
        return self._value

    def snapshot_value(self) -> Number:
        return self._value

    @staticmethod
    def delta(current: Number, baseline: Optional[Number]) -> Number:
        return current - (baseline or 0)


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

    @staticmethod
    def delta(current: Number, baseline: Optional[Number]) -> Number:
        # A gauge is a level, not a flow: the delta view reports the
        # current level rather than a meaningless difference.
        return current


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

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot_value(self) -> Dict[str, object]:
        labels = [*self.bounds, "inf"]
        return {
            "count": self._count,
            "sum": self._sum,
            "buckets": [
                [label, count]
                for label, count in zip(labels, list(self._counts))
            ],
        }

    @staticmethod
    def delta(current: Dict, baseline: Optional[Dict]) -> Dict:
        if not baseline:
            return current
        base_counts = {
            label: count for label, count in baseline.get("buckets", [])
        }
        return {
            "count": current["count"] - baseline.get("count", 0),
            "sum": current["sum"] - baseline.get("sum", 0.0),
            "buckets": [
                [label, count - base_counts.get(label, 0)]
                for label, count in current["buckets"]
            ],
        }


class MetricsRegistry:
    """A named, thread-safe collection of counters, gauges and histograms.

    Instruments are created on first use and live for the registry's
    lifetime; asking for an existing name returns the existing instrument
    (a kind mismatch raises).  ``snapshot()``/``since()`` mirror the
    ``EngineStats.snapshot()/since()`` discipline the repo already uses:
    long-lived registries accumulate forever, consumers diff snapshots.
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

    def since(self, baseline: Dict[str, object]) -> Dict[str, object]:
        """Per-instrument deltas relative to an earlier :meth:`snapshot`.

        Counters and histograms diff; gauges report their current level.
        Instruments created after the baseline appear with their full
        value (their baseline is implicitly zero).
        """
        deltas: Dict[str, object] = {}
        with self._lock:
            items = list(sorted(self._instruments.items()))
        for name, instrument in items:
            deltas[name] = type(instrument).delta(
                instrument.snapshot_value(), baseline.get(name)
            )
        return deltas


def counters_only(snapshot: Dict[str, object]) -> Dict[str, Number]:
    """The scalar subset of a snapshot/delta (drops histogram documents)."""
    return {
        name: value
        for name, value in snapshot.items()
        if isinstance(value, (int, float))
    }
