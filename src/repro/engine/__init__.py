"""Unified evaluation engine: batched, cached design evaluation.

Every evaluation consumer in the repository — the NSGA-II explorer, the
exhaustive baseline and the sensitivity analyzer — routes through
:class:`EvaluationEngine`, which evaluates analytic specs inline, in the
calling process, against a bounded memoization cache keyed by
``(spec, model-params, tech)``.

See ``docs/engine.md`` for the cache and statistics semantics.
"""

from repro.engine.cache import (
    EvaluationCache,
    parameters_cache_key,
    reset_shared_cache,
    shared_cache,
    spec_cache_key,
)
from repro.engine.engine import EngineStats, EvaluationEngine, default_engine

__all__ = [
    "EngineStats",
    "EvaluationCache",
    "EvaluationEngine",
    "default_engine",
    "parameters_cache_key",
    "reset_shared_cache",
    "shared_cache",
    "spec_cache_key",
]
