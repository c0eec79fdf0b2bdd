"""Unified evaluation engine: batched, cached design evaluation.

Every evaluation consumer in the repository — the NSGA-II explorer, the
exhaustive baseline, the sensitivity analyzer, the flow controller's
netlist/layout fan-out and the scaling benchmarks — routes through
:class:`EvaluationEngine`, which evaluates analytic specs inline against a
bounded shared memoization cache keyed by ``(spec, model-params, tech)``
and fans generic work out through ``map`` on one process pool (backend
``serial`` or ``process``).

See ``docs/engine.md`` for backend selection and cache semantics.
"""

from repro.engine.cache import (
    EvaluationCache,
    parameters_cache_key,
    reset_shared_cache,
    shared_cache,
    spec_cache_key,
)
from repro.engine.engine import EngineStats, EvaluationEngine, default_engine
from repro.engine.executors import BACKENDS, resolve_workers, validate_backend
from repro.engine.screen import ScreeningEvaluator

__all__ = [
    "BACKENDS",
    "EngineStats",
    "EvaluationCache",
    "EvaluationEngine",
    "ScreeningEvaluator",
    "default_engine",
    "parameters_cache_key",
    "reset_shared_cache",
    "resolve_workers",
    "shared_cache",
    "spec_cache_key",
    "validate_backend",
]
