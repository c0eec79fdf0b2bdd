"""Bounded, thread-safe memoization cache for design-point evaluations.

Evaluating one ``(H, W, L, B_ADC)`` spec through the estimation model is
pure: the metrics depend only on the spec, the :class:`ModelParameters`
bundle and (for layout-aware consumers) the technology.  The cache keys on
exactly that triple, so two explorer runs, a sensitivity sweep and the
exhaustive baseline all share each other's work when they use the same
model constants — the repeated-flow re-evaluation the per-problem dicts of
older revisions could never avoid.

Thread-safety model: evaluation runs in the calling process, so the
cache needs a lock only against concurrent *threads* (a server's job
workers and any user threads).  Hits are counted once, by the engine,
as the ``engine.cache.hit`` metric.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

#: Default capacity of the shared cache — a few hundred array sizes' worth
#: of full design spaces (a 16 kb space has ~300 feasible points).
DEFAULT_CACHE_SIZE = 65536


def parameters_cache_key(parameters) -> Tuple:
    """Stable hashable key of a :class:`ModelParameters` bundle.

    ``dataclasses.astuple`` recurses into the nested frozen parameter
    bundles, producing a flat tuple of floats/bools that identifies the
    model constants independent of object identity.  It is not cheap
    (a deep copy of the bundle), so each estimator computes it once, as
    ``ACIMEstimator.parameters_key``.
    """
    return dataclasses.astuple(parameters)


def spec_tuple_cache_key(
    spec_tuple: Tuple, params_key: Tuple, technology: Optional[str] = None
) -> Tuple:
    """Cache key from an already-extracted ``(H, W, L, B_ADC)`` tuple.

    The single authority for the key layout: :func:`spec_cache_key`, the
    engine's batch path (which gets its tuples straight from
    ``SpecBatch.as_tuples()``) and the store layer all produce keys through
    here, so they can never drift apart.
    """
    return (spec_tuple, params_key, technology)


def spec_cache_key(
    spec,
    parameters=None,
    technology: Optional[str] = None,
    params_key: Optional[Tuple] = None,
) -> Tuple:
    """Cache key of one evaluation: ``(spec, model-params, tech)``.

    Pass ``params_key`` (a precomputed :func:`parameters_cache_key`, such
    as ``ACIMEstimator.parameters_key``) when keying many specs against
    the same bundle, so the bundle is not flattened per spec.
    """
    if params_key is None:
        params_key = parameters_cache_key(parameters)
    return spec_tuple_cache_key(spec.as_tuple(), params_key, technology)


class EvaluationCache:
    """A bounded LRU cache.

    Attributes:
        max_size: capacity; the least recently used entry is evicted first.
    """

    def __init__(self, max_size: int = DEFAULT_CACHE_SIZE) -> None:
        if max_size < 1:
            from repro.errors import EngineError

            raise EngineError("cache size must be at least 1")
        self.max_size = max_size
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    # -- mapping operations ---------------------------------------------------

    def get(self, key: Hashable, default=None):
        """Look up ``key``, refreshing its recency."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
            return default

    def put(self, key: Hashable, value) -> None:
        """Insert (or refresh) an entry, evicting the LRU one when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()


_shared_cache: Optional[EvaluationCache] = None
_shared_lock = threading.Lock()


def shared_cache() -> EvaluationCache:
    """The process-wide evaluation cache shared by every consumer.

    Explorer problems, the exhaustive baseline and the flow controller all
    default to this instance, so identical specs evaluated with identical
    model constants are computed once per process lifetime rather than once
    per run.
    """
    global _shared_cache
    with _shared_lock:
        if _shared_cache is None:
            _shared_cache = EvaluationCache()
        return _shared_cache


def reset_shared_cache(max_size: int = DEFAULT_CACHE_SIZE) -> EvaluationCache:
    """Replace the shared cache (used by tests and long-running services)."""
    global _shared_cache
    with _shared_lock:
        _shared_cache = EvaluationCache(max_size)
        return _shared_cache
