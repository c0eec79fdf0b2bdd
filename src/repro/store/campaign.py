"""Named, checkpointed, resumable exploration campaigns.

:class:`_CampaignManagerCore` (driven through
:meth:`repro.api.Session.campaign`) runs NSGA-II explorations as *campaigns*: named
units of work whose configuration, per-generation state (population + RNG
state) and results all live in a :class:`~repro.store.result_store
.ResultStore`.  A campaign can be killed at any point — including in the
middle of a generation — and ``resume`` continues from the last committed
checkpoint, reproducing the uninterrupted run bit-identically (the NSGA-II
step loop consumes the RNG deterministically and design evaluation is
pure, so replaying from any snapshot converges on the same Pareto set).

Every campaign's engine is store-backed: each batch of computed misses
is written through to the store before it is cached, so every design a
campaign evaluated is queryable (once, by content address) as soon as
the generation that evaluated it returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dse.distill import DistillationCriteria
from repro.dse.explorer import pareto_designs_from_population
from repro.dse.nsga2 import NSGA2, NSGA2Config
from repro.dse.problem import ACIMDesignProblem, EvaluatedDesign
from repro.engine import (
    EvaluationEngine,
    parameters_cache_key,
    spec_cache_key,
)
from repro.errors import StoreError
from repro.model.estimator import ACIMEstimator
from repro.store.result_store import (
    CampaignRecord,
    ResultStore,
    StoredEvaluation,
    params_digest_of,
)

#: NSGA2Config fields persisted in (and restored from) the campaign row.
_NSGA2_FIELDS = (
    "population_size",
    "generations",
    "crossover_probability",
    "mutation_probability",
    "seed",
)

#: Problem-shape fields persisted alongside the optimiser configuration.
_PROBLEM_FIELDS = (
    "local_array_sizes",
    "max_adc_bits",
    "min_height",
    "max_height",
)


@dataclass
class CampaignResult:
    """Outcome of one ``run``/``resume`` call.

    Attributes:
        name: the campaign name.
        array_size: explored array size.
        status: ``completed`` or ``interrupted`` (checkpointed, resumable).
        generations_done: committed generations after this call.
        total_generations: the configured generation budget.
        evaluations: objective evaluations spent so far (all calls).
        pareto_set: the final Pareto set (empty while interrupted).
        runtime_seconds: wall-clock of this call.
        engine_stats: evaluation-engine statistics of this call.
        resumed: True when this call continued from a checkpoint.
    """

    name: str
    array_size: int
    status: str
    generations_done: int
    total_generations: int
    evaluations: int
    pareto_set: List[EvaluatedDesign] = field(default_factory=list)
    runtime_seconds: float = 0.0
    engine_stats: Dict[str, float] = field(default_factory=dict)
    resumed: bool = False

    def as_dict(self) -> dict:
        """Flat summary row for report tables."""
        return {
            "name": self.name,
            "array_size": self.array_size,
            "status": self.status,
            "generations": f"{self.generations_done}/{self.total_generations}",
            "evaluations": self.evaluations,
            "pareto": len(self.pareto_set),
            "runtime_s": round(self.runtime_seconds, 2),
        }


class _CampaignManagerCore:
    """Runs, resumes and queries checkpointed exploration campaigns.

    Internal implementation behind :meth:`repro.api.Session.campaign`
    (and direct core-level consumers such as the tests).

    Args:
        store: the persistent result store all campaigns share.
        estimator: estimation model (must match on resume; the stored
            parameter digest is verified).
        checkpoint_every: commit a snapshot every N generations (1 keeps
            the resume cost at a single generation; larger values trade
            re-computation on resume for fewer commits).
        engine: an externally owned engine every drive runs through (the
            session layer shares its engine this way).  When omitted each
            ``run``/``resume`` builds a fresh engine backed by ``store``.
    """

    def __init__(
        self,
        store: ResultStore,
        estimator: Optional[ACIMEstimator] = None,
        checkpoint_every: int = 1,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        if checkpoint_every < 1:
            raise StoreError("checkpoint_every must be at least 1")
        self.store = store
        self.estimator = estimator or ACIMEstimator()
        self.checkpoint_every = checkpoint_every
        self.engine = engine

    @property
    def params_digest(self) -> str:
        """Content address of this manager's model-parameter bundle."""
        return params_digest_of(parameters_cache_key(self.estimator.parameters))

    # -- run / resume ----------------------------------------------------------

    def run(
        self,
        name: str,
        array_size: int,
        config: Optional[NSGA2Config] = None,
        local_array_sizes: Sequence[int] = (2, 4, 8, 16, 32),
        max_adc_bits: int = 8,
        min_height: int = 2,
        max_height: Optional[int] = None,
        stop_after_generations: Optional[int] = None,
    ) -> CampaignResult:
        """Start a new named campaign.

        ``stop_after_generations`` stops (with a committed checkpoint, so
        ``resume`` continues seamlessly) after that many generations in
        this call — the programmatic equivalent of killing the process.
        """
        if self.store.get_campaign(name) is not None:
            raise StoreError(
                f"campaign {name!r} already exists; use resume() to continue"
            )
        config = config or NSGA2Config()
        campaign_config = {
            **{key: getattr(config, key) for key in _NSGA2_FIELDS},
            "local_array_sizes": list(local_array_sizes),
            "max_adc_bits": max_adc_bits,
            "min_height": min_height,
            "max_height": max_height,
            "checkpoint_every": self.checkpoint_every,
        }
        self.store.create_campaign(
            name,
            array_size,
            campaign_config,
            self.params_digest,
            total_generations=config.generations,
        )
        return self._drive(
            name, array_size, campaign_config,
            checkpoint=None, stop_after=stop_after_generations, resumed=False,
        )

    def resume(
        self,
        name: str,
        stop_after_generations: Optional[int] = None,
    ) -> CampaignResult:
        """Continue a killed or interrupted campaign from its checkpoint.

        A campaign killed before its first checkpoint committed simply
        restarts from its (deterministic) seed; either way the final
        Pareto set matches the uninterrupted run bit-identically.
        """
        record = self.store.require_campaign(name)
        if record.status == "completed":
            raise StoreError(
                f"campaign {name!r} is already completed; "
                "query it with load_pareto()/query()"
            )
        if record.params_digest != self.params_digest:
            raise StoreError(
                f"campaign {name!r} was run with different model parameters "
                f"(stored digest {record.params_digest[:12]}..., "
                f"current {self.params_digest[:12]}...)"
            )
        checkpoint = self.store.latest_checkpoint(name)
        _reject_screened(name, record.config, checkpoint)
        return self._drive(
            name, record.array_size, record.config,
            checkpoint=checkpoint, stop_after=stop_after_generations,
            resumed=True,
        )

    def _drive(
        self,
        name: str,
        array_size: int,
        campaign_config: Dict,
        checkpoint: Optional[Tuple[int, Dict]],
        stop_after: Optional[int],
        resumed: bool,
    ) -> CampaignResult:
        config = NSGA2Config(**_nsga2_fields(campaign_config))
        start = time.perf_counter()
        engine = self.engine or EvaluationEngine(store=self.store)
        stats_baseline = engine.stats.snapshot()
        problem = ACIMDesignProblem(
            array_size,
            estimator=self.estimator,
            local_array_sizes=tuple(campaign_config["local_array_sizes"]),
            max_adc_bits=campaign_config["max_adc_bits"],
            min_height=campaign_config["min_height"],
            max_height=campaign_config["max_height"],
            engine=engine,
        )
        optimizer = NSGA2(problem, config)
        if checkpoint is not None:
            optimizer.restore_state(checkpoint[1])
        else:
            optimizer.initialize()
            self.store.save_checkpoint(name, 0, optimizer.state())
        # The run-time cadence travels with the campaign so a resumed
        # leg keeps the commit cost profile the run was started with.
        checkpoint_every = int(
            campaign_config.get("checkpoint_every", self.checkpoint_every)
        )
        steps_this_call = 0
        generation_seconds = engine.metrics.histogram(
            "campaign.generation.seconds"
        )
        generation_counter = engine.metrics.counter(
            "campaign.generations"
        )
        while not optimizer.done:
            if stop_after is not None and steps_this_call >= stop_after:
                break
            step_start = time.perf_counter()
            optimizer.step()
            generation_seconds.observe(time.perf_counter() - step_start)
            generation_counter.inc()
            steps_this_call += 1
            stopping = (
                stop_after is not None and steps_this_call >= stop_after
            )
            if (
                optimizer.done
                or stopping
                or optimizer.generation % checkpoint_every == 0
            ):
                self.store.save_checkpoint(
                    name, optimizer.generation, optimizer.state()
                )
            if stopping:
                break
        pareto_set: List[EvaluatedDesign] = []
        if optimizer.done:
            status = "completed"
            pareto_set = pareto_designs_from_population(
                problem, optimizer.result()
            )
            self.store.save_pareto(
                name, _pareto_entries(pareto_set, self.estimator)
            )
        else:
            status = "interrupted"
        runtime = time.perf_counter() - start
        self.store.update_campaign(
            name,
            status=status,
            generations_done=optimizer.generation,
            evaluations=optimizer.evaluations,
            add_runtime_seconds=runtime,
        )
        stats_delta = engine.stats.since(stats_baseline).as_dict()
        run_row = _run_metrics_row(
            status, steps_this_call, runtime, stats_delta
        )
        self.store.put_run_metrics(name, run_row)
        return CampaignResult(
            name=name,
            array_size=array_size,
            status=status,
            generations_done=optimizer.generation,
            total_generations=config.generations,
            evaluations=optimizer.evaluations,
            pareto_set=pareto_set,
            runtime_seconds=runtime,
            engine_stats=stats_delta,
            resumed=resumed,
        )

    # -- inspection ------------------------------------------------------------

    def list(self) -> List[CampaignRecord]:
        """Every campaign in the store, oldest first."""
        return self.store.list_campaigns()

    def pareto(self, name: str) -> List[StoredEvaluation]:
        """A completed campaign's recorded Pareto set."""
        self.store.require_campaign(name)
        return self.store.load_pareto(name)

    def query(
        self,
        criteria: Optional[DistillationCriteria] = None,
        pareto_only: bool = True,
        rank_by: str = "tops_per_watt",
        limit: Optional[int] = None,
    ) -> List[StoredEvaluation]:
        """Ranked design points across every campaign that fed the store."""
        return self.store.query(
            criteria=criteria,
            pareto_only=pareto_only,
            rank_by=rank_by,
            limit=limit,
        )


def _nsga2_fields(campaign_config: Dict) -> Dict:
    """The NSGA2Config keyword arguments a stored campaign row records.

    Keys of removed features are not NSGA-II fields, so they are ignored:
    ``backend``/``workers`` (rows written before 1.7.0, including the
    older ``"thread"`` backend), ``shards`` and the pre-1.5.0 screening
    knobs.  None of them ever changed a result.
    """
    return {key: campaign_config[key] for key in _NSGA2_FIELDS}


def _reject_screened(
    name: str, campaign_config: Dict, checkpoint: Optional[Tuple[int, Dict]]
) -> None:
    """Refuse to resume a campaign started with surrogate screening.

    Screening was removed in 1.5.0.  Replaying such a campaign with exact
    evaluation would quietly diverge from its checkpointed population, so
    resume fails instead; start a new campaign to continue the search.
    """
    screened = campaign_config.get("surrogate", "off") != "off"
    if screened or (checkpoint is not None and "screener" in checkpoint[1]):
        raise StoreError(
            f"campaign {name!r} was run with surrogate screening, which was "
            "removed in 1.5.0; it cannot be resumed — start a new campaign "
            "instead"
        )


def _pareto_entries(
    designs: Sequence[EvaluatedDesign], estimator: ACIMEstimator
) -> List[Tuple[Tuple, object]]:
    """(engine cache key, metrics) pairs of a Pareto set, for persistence."""
    params_key = parameters_cache_key(estimator.parameters)
    return [
        (spec_cache_key(design.spec, params_key=params_key), design.metrics)
        for design in designs
    ]


def _run_metrics_row(
    status: str, generations: int, runtime: float, stats_delta: Dict
) -> Dict:
    """The per-drive metric snapshot persisted into ``run_metrics``.

    One row per run/resume leg: throughput (generations/sec) and
    cache-economics (hit rate) of exactly this leg, so ``campaign list``
    can show how both trend across resumes.
    """
    cache_hits = int(stats_delta.get("cache_hits", 0))
    evaluations = int(stats_delta.get("evaluations", 0))
    lookups = cache_hits + evaluations
    return {
        "status": status,
        "generations": generations,
        "runtime_seconds": round(runtime, 6),
        "generations_per_second": (
            round(generations / runtime, 3) if runtime > 0 else 0.0
        ),
        "evaluations": evaluations,
        "cache_hits": cache_hits,
        "cache_hit_rate": (
            round(cache_hits / lookups, 4) if lookups else 0.0
        ),
    }


def record_exploration(
    store: ResultStore,
    name: str,
    exploration,
    estimator: ACIMEstimator,
    config: NSGA2Config,
) -> None:
    """Record a finished (non-campaign) exploration as campaign metadata.

    The flow controller calls this so one-shot flow runs leave
    the same queryable trace as managed campaigns: a completed campaign row
    plus the Pareto set's evaluations.  Re-running the same flow replaces
    the row (upsert) rather than failing.
    """
    campaign_config = {
        **{key: getattr(config, key) for key in _NSGA2_FIELDS},
        "local_array_sizes": None,
        "max_adc_bits": None,
        "min_height": None,
        "max_height": None,
    }
    store.upsert_campaign(
        name,
        array_size=exploration.array_size,
        config=campaign_config,
        params_digest=params_digest_of(
            parameters_cache_key(estimator.parameters)
        ),
        status="completed",
        generations_done=exploration.generations,
        total_generations=config.generations,
        evaluations=exploration.evaluations,
        runtime_seconds=exploration.runtime_seconds,
    )
    store.save_pareto(name, _pareto_entries(exploration.pareto_set, estimator))
