"""The unified evaluation engine: batched, cached, inline evaluation.

:class:`EvaluationEngine` is the single seam every evaluation consumer in
the repository routes through — the NSGA-II explorer's population batches,
the exhaustive baseline's full grids and the sensitivity analyzer's
perturbed sweeps.  It combines

* inline analytic evaluation: :meth:`EvaluationEngine.evaluate_specs`
  computes cache misses in the calling process through one vectorized
  ``estimator.evaluate_batch`` per batch,
* the bounded memoization cache keyed by ``(spec, model-params, tech)``
  (see :mod:`repro.engine.cache`): the process-wide one for a store-less
  engine, a private one for a store-backed engine, which writes every
  computed miss through to its store before caching it, and
* hit/miss/timing statistics exposed to results and reports.

Determinism contract: for a fixed input order the engine returns results in
exactly that order, and evaluation is pure, so an NSGA-II run with a fixed
seed always produces the identical Pareto set (the regression suite asserts
this bit-identically).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Union

from repro.arch.batch import SpecBatch
from repro.engine.cache import (
    EvaluationCache,
    parameters_cache_key,
    shared_cache,
    spec_tuple_cache_key,
)
from repro.errors import EngineError
from repro.obs import MetricsRegistry, SIZE_BUCKETS, get_tracer


@dataclass
class EngineStats:
    """Aggregate statistics of one engine instance.

    Attributes:
        batches: number of ``evaluate_specs`` batch submissions.
        tasks: total items routed through the engine.
        evaluations: spec evaluations actually computed (cache misses).
        cache_hits: spec evaluations answered from the cache.
        busy_seconds: wall-clock time spent inside engine calls.
        worker_seconds: time spent inside ``estimator.evaluate_batch``
            computing cache misses (the model's own share of
            ``busy_seconds``; the rest is keying, caching and the store
            write-through).
    """

    batches: int = 0
    tasks: int = 0
    evaluations: int = 0
    cache_hits: int = 0
    busy_seconds: float = 0.0
    worker_seconds: float = 0.0

    @property
    def evaluations_per_second(self) -> float:
        """Computed evaluations per busy second (0 when idle)."""
        if self.busy_seconds <= 0.0:
            return 0.0
        return self.evaluations / self.busy_seconds

    def snapshot(self) -> "EngineStats":
        """An independent copy of the counters at this instant."""
        return replace(self)

    def since(self, baseline: "EngineStats") -> "EngineStats":
        """Counter deltas relative to an earlier :meth:`snapshot`.

        Engines are long-lived (one per flow, shared across `explore_many`
        sizes), so per-run statistics are reported as deltas instead of the
        cumulative totals.
        """
        return EngineStats(
            batches=self.batches - baseline.batches,
            tasks=self.tasks - baseline.tasks,
            evaluations=self.evaluations - baseline.evaluations,
            cache_hits=self.cache_hits - baseline.cache_hits,
            busy_seconds=self.busy_seconds - baseline.busy_seconds,
            worker_seconds=self.worker_seconds - baseline.worker_seconds,
        )

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for result records and report tables."""
        return {
            "batches": self.batches,
            "tasks": self.tasks,
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "busy_seconds": round(self.busy_seconds, 6),
            "worker_seconds": round(self.worker_seconds, 6),
            "evaluations_per_second": round(self.evaluations_per_second, 1),
        }


class EvaluationEngine:
    """Batched, cached evaluation of design points in the calling process.

    Args:
        cache: evaluation cache of a store-less engine; defaults to the
            process-wide shared cache.
        store: optional :class:`~repro.store.result_store.ResultStore`.
            Each batch of computed misses is written through to it with
            ``put_many`` before it enters the cache, and the engine never
            reads the store back.  A store-backed engine always owns a
            private cache, so every cached key is already stored; passing
            ``cache`` as well raises :class:`~repro.errors.EngineError`.
        metrics: :class:`~repro.obs.MetricsRegistry` the engine records
            into; defaults to a private registry.  All statistics live in
            the registry under ``engine.*`` names and :attr:`stats`
            materializes the classic :class:`EngineStats` view from it.

    Arguments are keyword-only, so a call written for the removed
    ``backend`` positional argument fails loudly instead of binding a
    backend name as the cache.  The engine holds no processes or threads
    and needs no closing.
    """

    def __init__(
        self,
        *,
        cache: Optional[EvaluationCache] = None,
        store=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if store is not None:
            if cache is not None:
                raise EngineError(
                    "a store-backed engine owns a private cache; pass a "
                    "cache or a store, not both"
                )
            cache = EvaluationCache()
        self.store = store
        self.cache = cache if cache is not None else shared_cache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Instrument handles are resolved once: hot paths record into
        # them directly instead of paying a name lookup per batch.
        registry = self.metrics
        self._m_batches = registry.counter("engine.eval.batches")
        self._m_tasks = registry.counter("engine.eval.tasks")
        self._m_evaluations = registry.counter("engine.eval.computed")
        self._m_cache_hits = registry.counter("engine.cache.hit")
        self._m_busy = registry.counter("engine.busy.seconds")
        self._m_worker = registry.counter("engine.worker.seconds")
        self._m_batch_size = registry.histogram(
            "engine.eval.batch_size", SIZE_BUCKETS
        )

    # -- statistics -----------------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        """Aggregate batch/cache/timing statistics of this engine.

        Materialized from the metrics registry on every read.  The
        ``int()``/``float()`` coercions matter: registry counters start
        as int ``0``, and ``as_dict()`` must keep emitting ``0.0`` (not
        ``0``) for the seconds fields to stay byte-identical with the
        pre-registry dataclass.
        """
        return EngineStats(
            batches=int(self._m_batches.value),
            tasks=int(self._m_tasks.value),
            evaluations=int(self._m_evaluations.value),
            cache_hits=int(self._m_cache_hits.value),
            busy_seconds=float(self._m_busy.value),
            worker_seconds=float(self._m_worker.value),
        )

    # -- cached spec evaluation ----------------------------------------------

    def evaluate_specs(self, estimator, specs: Union[SpecBatch, Sequence]) -> List:
        """Evaluate design specs through ``estimator``, cached and batched.

        Accepts either a sequence of scalar specs or a
        :class:`~repro.arch.batch.SpecBatch` (grid consumers build batches
        directly, skipping the per-spec object hop).  Returns one
        :class:`~repro.model.estimator.ACIMMetrics` per spec, in input
        order.  Hits are served from the cache; misses are deduplicated,
        gathered into one miss SpecBatch and computed inline.  With a
        store the computed batch is written through (one ``put_many``)
        before it enters the cache, so a failed write raises
        :class:`~repro.errors.StoreError` from this call and caches
        nothing.
        """
        if isinstance(specs, SpecBatch):
            batch = specs
            tuples = batch.as_tuples()
        else:
            batch = None
            spec_list = list(specs)
            tuples = [spec.as_tuple() for spec in spec_list]
        start = time.perf_counter()
        try:
            if not tuples:
                return []
            with get_tracer().span(
                "engine.evaluate_specs", count=len(tuples)
            ) as eval_span:
                params_key = parameters_cache_key(estimator.parameters)
                keys = [
                    spec_tuple_cache_key(spec_tuple, params_key)
                    for spec_tuple in tuples
                ]
                results: Dict[tuple, object] = {}
                missing_indices: List[int] = []
                pending = set()
                # Hit counts aggregate in locals and land in the registry
                # once per batch — one lock acquisition instead of one per
                # spec, which is what keeps the instrumented serial path
                # inside the overhead budget.
                cache_hits = 0
                for index, key in enumerate(keys):
                    if key in results or key in pending:
                        continue
                    cached = self.cache.get(key)
                    if cached is not None:
                        results[key] = cached
                        cache_hits += 1
                    else:
                        pending.add(key)
                        missing_indices.append(index)
                if cache_hits:
                    self._m_cache_hits.add(cache_hits)
                eval_span.set("misses", len(missing_indices))
                if missing_indices:
                    if batch is not None:
                        missing = batch.take(missing_indices)
                    else:
                        missing = SpecBatch.from_specs(
                            [spec_list[i] for i in missing_indices]
                        )
                    computed = self._compute(estimator, missing)
                    missing_keys = [keys[index] for index in missing_indices]
                    if self.store is not None:
                        self.store.put_many(list(zip(missing_keys, computed)))
                    for key, metrics in zip(missing_keys, computed):
                        results[key] = metrics
                        self.cache.put(key, metrics)
                    self._m_evaluations.add(len(missing_indices))
                return [results[key] for key in keys]
        finally:
            self._m_batches.inc()
            self._m_tasks.add(len(tuples))
            self._m_busy.add(time.perf_counter() - start)
            self._m_batch_size.observe(len(tuples))

    def _compute(self, estimator, batch: SpecBatch) -> List:
        """Evaluate a cache-miss SpecBatch inline, in order, with one
        vectorized ``evaluate_batch``."""
        with get_tracer().span(
            "engine.chunk", where="inline", count=len(batch)
        ):
            started = time.perf_counter()
            results = estimator.evaluate_batch(batch)
            self._m_worker.add(time.perf_counter() - started)
        return results


def default_engine() -> EvaluationEngine:
    """A fresh engine bound to the shared cache (the cheap default)."""
    return EvaluationEngine()
