"""The :class:`Session`: one typed entry point for every workflow.

A session owns the shared execution substrate — one
:class:`~repro.engine.engine.EvaluationEngine` (inline evaluation over a
memoization cache: the process-wide one, or a private one when the
session has a store), one reuse-aware
:class:`~repro.physical.pipeline.PhysicalPipeline`, an optional persistent
:class:`~repro.store.result_store.ResultStore`, the
:class:`~repro.model.estimator.ModelParameters` bundle and the technology
— and executes typed requests against it:

    from repro.api import ExploreRequest, Session, SessionConfig

    with Session.from_config(SessionConfig(store="results.sqlite")) as session:
        result = session.explore(ExploreRequest(array_size=16 * 1024))
        print(result.payload["pareto_size"], result.engine_stats)

Every consumer (the CLI, the tests, a future HTTP service or job queue)
goes through this layer, so store/model/technology conventions live in
exactly one place.  :class:`SessionConfig` is JSON-serializable like the
requests, so a whole job description — session settings plus request — can
cross a wire.

Determinism: workflows share the session engine's cache, and design
evaluation is pure, so running requests in any order never changes their
results — a fixed-seed :class:`~repro.api.requests.ExploreRequest` returns
the Pareto front a direct :class:`~repro.dse.explorer._ExplorerCore` run
produces (regression-tested bit-identically).  Physical workflows share
the session's :attr:`~Session.pipeline`, whose macro/artifact cache is
regression-tested geometry-exact (``docs/physical.md``).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.api.requests import (
    ApiRequest,
    CampaignRequest,
    EstimateRequest,
    ExploreRequest,
    FlowRequest,
    LayoutRequest,
    LibraryRequest,
    QueryRequest,
    ValidateSnrRequest,
    request_from_dict,
)
from repro.api.results import ApiResult
from repro.arch.batch import SpecBatch
from repro.arch.spec import ACIMDesignSpec
from repro.cells.library import default_cell_library
from repro.dse.distill import DistillationCriteria, distill
from repro.dse.exhaustive import evaluate_all
from repro.dse.explorer import ExplorationResult, _ExplorerCore
from repro.dse.nsga2 import NSGA2Config
from repro.dse.pareto import pareto_front
from repro.dse.sensitivity import SensitivityAnalyzer
from repro.engine import EvaluationEngine
from repro.errors import RequestError, StoreError, TechnologyError
from repro.flow.controller import FlowInputs, _FlowCore
from repro.model.estimator import ACIMEstimator, ModelParameters
from repro.obs import MetricsRegistry, get_tracer
from repro.physical.macro_library import MACRO_STAGE
from repro.physical.pipeline import PhysicalPipeline
from repro.store.campaign import _CampaignManagerCore
from repro.store.result_store import ResultStore
from repro.technology.tech import generic28

#: Technology factories a session can be configured with by name.
TECHNOLOGIES: Dict[str, Callable] = {
    "generic28": generic28,
}


@dataclass(frozen=True)
class SessionConfig:
    """Serializable execution settings shared by every request a session runs.

    Attributes:
        store: path of the persistent SQLite result store (None: no
            persistence; campaigns and queries then require a store to be
            injected programmatically).
        technology: named technology the physical workflows build on
            (see :data:`TECHNOLOGIES`).
        calibrated_model: use :meth:`ModelParameters.calibrated` (fitted
            simplified-SNR constants) instead of the stock bundle.
    """

    store: Optional[str] = None
    technology: str = "generic28"
    calibrated_model: bool = False

    def validate(self) -> "SessionConfig":
        """Raise a structured :mod:`repro.errors` exception when invalid."""
        if self.technology not in TECHNOLOGIES:
            raise TechnologyError(
                f"unknown technology {self.technology!r}; "
                f"expected one of {sorted(TECHNOLOGIES)}"
            )
        return self

    def to_dict(self) -> dict:
        """Serializable dictionary (the request-side twin of ``from_dict``)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SessionConfig":
        """Build (and validate) a config from a plain dictionary.

        Unknown fields raise :class:`~repro.errors.RequestError` naming the
        first of them — including the settings removed in 1.7.0
        (``backend``, ``workers``), so an old job description fails loudly
        instead of being half-applied.
        """
        if not isinstance(data, dict):
            raise RequestError(
                f"session config must be a dict, got {type(data).__name__}"
            )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise RequestError(
                f"unknown session config field(s) {', '.join(unknown)}",
                field=unknown[0],
            )
        try:
            config = cls(**data)
        except TypeError as error:
            raise RequestError(f"cannot build SessionConfig: {error}")
        return config.validate()


class Session:
    """Executes typed API requests on one shared engine/store/model setup.

    Args:
        config: execution settings (defaults to a serial, store-less
            session on the shared cache).
        estimator: estimation model override (defaults to the config's
            stock or calibrated bundle).
        engine: externally owned engine to run on.
        store: externally owned result store (takes precedence over
            ``config.store``; never closed by this session).

    Sessions are context managers; :meth:`close` releases the store
    connection the session owns and is idempotent.
    """

    def __init__(
        self,
        config: Optional[SessionConfig] = None,
        *,
        estimator: Optional[ACIMEstimator] = None,
        engine: Optional[EvaluationEngine] = None,
        store: Optional[ResultStore] = None,
    ) -> None:
        self.config = (config or SessionConfig()).validate()
        # One registry spans the whole session: the engine, the store and
        # the physical pipeline all record into it, so submit() can attach
        # a single cross-subsystem metrics delta to each result.  A
        # borrowed engine brings its own registry (its owner may already
        # be diffing it); the session joins rather than replaces it.
        self.metrics: MetricsRegistry = (
            engine.metrics if engine is not None else MetricsRegistry()
        )
        self._owns_store = store is None and self.config.store is not None
        self.store: Optional[ResultStore] = store
        if self._owns_store:
            self.store = ResultStore(self.config.store, metrics=self.metrics)
        elif store is not None and store.metrics is None:
            store.metrics = self.metrics
        try:
            self.estimator = estimator or ACIMEstimator(
                ModelParameters.calibrated()
                if self.config.calibrated_model else None
            )
            self.engine = engine or EvaluationEngine(
                store=self.store, metrics=self.metrics
            )
        except BaseException:
            # Engine/estimator construction failed: don't leak the SQLite
            # handle we just opened — close() is unreachable on a
            # half-built session.
            if self._owns_store and self.store is not None:
                self.store.close()
            raise
        self._technology = None
        self._library = None
        self._pipeline: Optional[PhysicalPipeline] = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def from_config(
        cls, config: Union[SessionConfig, dict, None]
    ) -> "Session":
        """The canonical constructor: settings in, ready session out.

        Accepts a :class:`SessionConfig` or its dict form (so a JSON job
        description deserializes straight into a session).
        """
        if isinstance(config, dict):
            config = SessionConfig.from_dict(config)
        return cls(config)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (a closed session stays closed)."""
        return self._closed

    def close(self) -> None:
        """Release everything the session owns; idempotent.

        Every computed evaluation and every physical artifact was written
        through when it was produced, so nothing is drained: the owned
        store connection closes.  A second ``close()`` — e.g. a signal
        handler racing a context-manager exit during server shutdown — is
        a no-op rather than a double release.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_store and self.store is not None:
            self.store.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shared substrate -----------------------------------------------------

    @property
    def technology(self):
        """The session's technology (built once, on first physical use)."""
        if self._technology is None:
            self._technology = TECHNOLOGIES[self.config.technology]()
        return self._technology

    @property
    def library(self):
        """The customized cell library on the session technology."""
        if self._library is None:
            self._library = default_cell_library(self.technology)
        return self._library

    @property
    def pipeline(self) -> PhysicalPipeline:
        """The session's shared physical pipeline (built on first use).

        All physical workflows of the session run through it, so solved
        macros are reused across requests; with a store attached, the
        macro cache also persists across sessions and processes
        (``docs/physical.md``).
        """
        if self._pipeline is None:
            self._pipeline = PhysicalPipeline(
                self.library, store=self.store, metrics=self.metrics
            )
        return self._pipeline

    def _require_store(self, kind: str) -> ResultStore:
        if self.store is None:
            raise StoreError(
                f"{kind} requests need a persistent result store; "
                "create the session with SessionConfig(store=...)"
            )
        return self.store

    def _finish(
        self,
        kind: str,
        start: float,
        baseline,
        payload: Dict[str, Any],
        status: str = "ok",
        warnings: Optional[List[str]] = None,
        artifacts: Optional[Dict[str, Any]] = None,
    ) -> ApiResult:
        """Assemble the result envelope with per-call engine-stat deltas."""
        return ApiResult(
            kind=kind,
            status=status,
            payload=payload,
            warnings=warnings or [],
            engine_stats=self.engine.stats.since(baseline).as_dict(),
            runtime_seconds=time.perf_counter() - start,
            artifacts=artifacts or {},
        )

    @staticmethod
    def _merge_physical_stats(result: ApiResult, physical_stats: dict) -> None:
        """Fold per-stage pipeline timings into the envelope's engine stats.

        Scripted consumers read one flat ``engine_stats`` dictionary; the
        pipeline's stage timings and cache hits join it under
        ``stage_<name>_seconds`` / ``stage_<name>_cache_hits`` keys, next
        to the built/reused/derived macro counters (together they account
        for every macro lookup).
        """
        if not physical_stats:
            return
        for name, stage in physical_stats.get("stages", {}).items():
            result.engine_stats[f"stage_{name}_seconds"] = stage["seconds"]
            result.engine_stats[f"stage_{name}_cache_hits"] = stage["cache_hits"]
        result.engine_stats["macros_built"] = physical_stats.get("macros_built", 0)
        result.engine_stats["macros_reused"] = physical_stats.get("macros_reused", 0)
        result.engine_stats["macros_derived"] = physical_stats.get("macros_derived", 0)

    # -- dispatch -------------------------------------------------------------

    def submit(self, request: Union[ApiRequest, dict]) -> ApiResult:
        """Execute any request (typed object or its dict form).

        The result carries a per-request delta of the session metrics
        registry (:attr:`ApiResult.metrics`) and, when tracing is
        enabled, the active trace id — the whole request runs inside an
        ``api.<kind>`` root span.
        """
        if isinstance(request, dict):
            request = request_from_dict(request)
        kind = type(request).kind
        handler = self._HANDLERS.get(kind)
        if handler is None:
            raise RequestError(
                f"session cannot handle request kind "
                f"{getattr(type(request), 'kind', None)!r}"
            )
        tracer = get_tracer()
        before = self.metrics.snapshot()
        with tracer.span(f"api.{kind}"):
            result = handler(self, request)
        result.metrics = self.metrics.since(before)
        if tracer.enabled:
            result.trace_id = tracer.trace_id
        return result

    # -- workflows ------------------------------------------------------------

    def estimate(self, request: EstimateRequest) -> ApiResult:
        """Evaluate the estimation model for one design point (or sweep)."""
        request.validate()
        spec = request.spec()
        start = time.perf_counter()
        baseline = self.engine.stats.snapshot()
        if request.adc_sweep:
            # Highest precision the CDAC grouping supports: H/L >= 2^B_ADC.
            max_feasible_bits = spec.local_arrays_per_column.bit_length() - 1
            specs: Union[SpecBatch, List[ACIMDesignSpec]] = SpecBatch.from_product(
                [spec.height], [spec.local_array_size],
                range(1, max_feasible_bits + 1),
                array_size=spec.array_size,
            )
        else:
            specs = [spec]
        metrics = self.engine.evaluate_specs(self.estimator, specs)
        return self._finish(
            request.kind, start, baseline,
            payload={"metrics": [m.as_dict() for m in metrics]},
            artifacts={"metrics": metrics},
        )

    def explore(self, request: ExploreRequest) -> ApiResult:
        """Design-space exploration (NSGA-II, exhaustive or sensitivity)."""
        request.validate()
        start = time.perf_counter()
        baseline = self.engine.stats.snapshot()
        if request.method == "sensitivity":
            return self._explore_sensitivity(request, start, baseline)
        if request.method == "exhaustive":
            # Build the grid here so the request's height bounds apply
            # (evaluate_all's own enumeration has no height arguments).
            grid = SpecBatch.enumerate(
                request.array_size,
                local_array_sizes=request.local_array_sizes,
                max_adc_bits=request.max_adc_bits,
                min_height=request.min_height,
                max_height=request.max_height,
            )
            designs = evaluate_all(
                request.array_size,
                estimator=self.estimator,
                engine=self.engine,
                batch=grid,
            )
            front = (
                pareto_front([design.objectives for design in designs])
                if designs else []
            )
            pareto_set = sorted(
                (designs[i] for i in front), key=lambda d: d.spec.as_tuple()
            )
            evaluations = len(designs)
            exploration: Optional[ExplorationResult] = None
        else:
            explorer = _ExplorerCore(
                estimator=self.estimator,
                config=NSGA2Config(
                    population_size=request.population,
                    generations=request.generations,
                    seed=request.seed,
                ),
                local_array_sizes=request.local_array_sizes,
                max_adc_bits=request.max_adc_bits,
                engine=self.engine,
            )
            exploration = explorer.explore(
                request.array_size,
                min_height=request.min_height,
                max_height=request.max_height,
            )
            pareto_set = exploration.pareto_set
            evaluations = exploration.evaluations
        criteria = self._criteria_of(request)
        distilled = distill(pareto_set, criteria) if criteria else list(pareto_set)
        payload = {
            "array_size": request.array_size,
            "method": request.method,
            "evaluations": evaluations,
            "pareto_size": len(pareto_set),
            "distilled_size": len(distilled),
            "pareto": [d.metrics.as_dict() for d in pareto_set],
            "distilled": [d.metrics.as_dict() for d in distilled],
        }
        return self._finish(
            request.kind, start, baseline, payload,
            artifacts={
                "pareto_set": pareto_set,
                "distilled": distilled,
                "exploration": exploration,
            },
        )

    def _explore_sensitivity(
        self, request: ExploreRequest, start: float, baseline
    ) -> ApiResult:
        analyzer = SensitivityAnalyzer(
            base=self.estimator.parameters, engine=self.engine
        )
        kwargs: Dict[str, Any] = {
            "relative_change": request.relative_change,
            "local_array_sizes": request.local_array_sizes,
            "max_adc_bits": request.max_adc_bits,
            "min_height": request.min_height,
            "max_height": request.max_height,
        }
        if request.sensitivity_parameters is not None:
            kwargs["parameters"] = request.sensitivity_parameters
        rows = analyzer.frontier_sensitivity(request.array_size, **kwargs)
        return self._finish(
            request.kind, start, baseline,
            payload={
                "array_size": request.array_size,
                "method": request.method,
                "relative_change": request.relative_change,
                "sensitivity": [dataclasses.asdict(row) for row in rows],
            },
            artifacts={"sensitivity": rows},
        )

    def campaign(self, request: CampaignRequest) -> ApiResult:
        """Start or resume a named, checkpointed exploration campaign."""
        request.validate()
        store = self._require_store(request.kind)
        start = time.perf_counter()
        baseline = self.engine.stats.snapshot()
        manager = _CampaignManagerCore(
            store,
            estimator=self.estimator,
            checkpoint_every=request.checkpoint_every,
            engine=self.engine,
        )
        if request.action == "resume":
            outcome = manager.resume(
                request.name, stop_after_generations=request.stop_after
            )
        else:
            outcome = manager.run(
                request.name,
                request.array_size,
                config=NSGA2Config(
                    population_size=request.population,
                    generations=request.generations,
                    seed=request.seed,
                ),
                stop_after_generations=request.stop_after,
            )
        payload = {
            "name": outcome.name,
            "array_size": outcome.array_size,
            "campaign_status": outcome.status,
            "generations_done": outcome.generations_done,
            "total_generations": outcome.total_generations,
            "evaluations": outcome.evaluations,
            "resumed": outcome.resumed,
            "pareto": [d.metrics.as_dict() for d in outcome.pareto_set],
        }
        return self._finish(
            request.kind, start, baseline, payload,
            status="ok" if outcome.status == "completed" else "interrupted",
            artifacts={"result": outcome},
        )

    def flow(self, request: FlowRequest) -> ApiResult:
        """The end-to-end flow: explore, distill, netlists, layouts."""
        request.validate()
        start = time.perf_counter()
        baseline = self.engine.stats.snapshot()
        inputs = FlowInputs(
            array_size=request.array_size,
            technology=self.technology,
            library=self.library,
            criteria=self._criteria_of(request, name="flow"),
            nsga2=NSGA2Config(
                population_size=request.population,
                generations=request.generations,
                seed=request.seed,
            ),
            model=self.estimator.parameters,
            max_layouts=request.max_layouts,
            store=self.store,
            campaign_name=request.campaign_name,
            engine=self.engine,
            pipeline=self.pipeline,
        )
        outcome = _FlowCore(inputs).run(
            generate_netlists=request.generate_netlists,
            generate_layouts=request.generate_layouts,
            route_columns=request.route_columns,
            output_dir=request.output_dir,
        )
        payload = {
            "array_size": request.array_size,
            "pareto_size": len(outcome.exploration.pareto_set),
            "distilled_size": len(outcome.distilled),
            "netlists": len(outcome.netlists),
            "distilled": [d.metrics.as_dict() for d in outcome.distilled],
            "layouts": {
                str(list(key)): report.as_dict()
                for key, report in outcome.layouts.items()
            },
            "layout_files": {
                str(list(key)): {
                    "gds_path": report.gds_path,
                    "def_path": report.def_path,
                }
                for key, report in outcome.layouts.items()
            },
            "physical_stats": outcome.physical_stats,
        }
        result = self._finish(
            request.kind, start, baseline, payload,
            artifacts={"result": outcome},
        )
        self._merge_physical_stats(result, outcome.physical_stats)
        return result

    def query(self, request: QueryRequest) -> ApiResult:
        """Query the persistent store (design points or campaigns)."""
        request.validate()
        store = self._require_store(request.kind)
        start = time.perf_counter()
        baseline = self.engine.stats.snapshot()
        if request.what == "campaigns":
            records = store.list_campaigns()
            payload = {
                "store": store.stats(),
                "campaigns": [record.as_dict() for record in records],
                "run_metrics": store.list_run_metrics(),
            }
            return self._finish(
                request.kind, start, baseline, payload,
                artifacts={"campaigns": records},
            )
        entries, total = store.query_page(
            criteria=self._criteria_of(request, name="api-query"),
            pareto_only=request.pareto_only,
            rank_by=request.rank_by,
            limit=request.limit,
            offset=request.offset,
        )
        payload = {
            "rank_by": request.rank_by,
            "pareto_only": request.pareto_only,
            "count": len(entries),
            "total": total,
            "limit": request.limit,
            "offset": request.offset,
            "designs": [entry.as_dict() for entry in entries],
        }
        return self._finish(
            request.kind, start, baseline, payload,
            artifacts={"entries": entries},
        )

    def layout(self, request: LayoutRequest) -> ApiResult:
        """Netlist + layout (+ optional SPICE/testbench/LEF) for one point."""
        request.validate()
        spec = request.spec()
        start = time.perf_counter()
        baseline = self.engine.stats.snapshot()
        files: Dict[str, str] = {}
        output_dir = None
        if request.output_dir is not None:
            output_dir = Path(request.output_dir)
            output_dir.mkdir(parents=True, exist_ok=True)

        from repro.flow.netlist_gen import TemplateNetlistGenerator
        from repro.flow.layout_gen import LayoutGenerator

        # Both generators run on the session pipeline, so repeated layout
        # requests (and flow runs) share one macro/artifact cache.
        physical_baseline = self.pipeline.stats.snapshot()
        netlist = TemplateNetlistGenerator(
            self.library, pipeline=self.pipeline
        ).generate(spec)
        if request.spice:
            from repro.netlist.spice import write_spice

            spice_path = output_dir / f"{netlist.name}.sp"
            spice_path.write_text(write_spice(netlist))
            files["spice"] = str(spice_path)
        if request.testbench:
            from repro.flow.testbench import TestbenchGenerator

            tb_path = output_dir / f"{netlist.name}_tb.sp"
            TestbenchGenerator().write(spec, netlist, tb_path)
            files["testbench"] = str(tb_path)
        report = LayoutGenerator(self.library, pipeline=self.pipeline).generate(
            spec,
            route_column=request.route_columns,
            export=output_dir is not None,
            output_dir=str(output_dir) if output_dir is not None else None,
        )
        if report.gds_path:
            files["gds"] = report.gds_path
        if report.def_path:
            files["def"] = report.def_path
        if request.lef:
            from repro.layout.lef_export import write_macro_lef, write_tech_lef

            tech_lef = output_dir / f"{self.technology.name}_tech.lef"
            macro_lef = output_dir / f"{report.layout.name}.lef"
            write_tech_lef(self.technology, tech_lef)
            write_macro_lef(report.layout, self.technology, macro_lef)
            files["tech_lef"] = str(tech_lef)
            files["macro_lef"] = str(macro_lef)
        physical_stats = self.pipeline.stats.since(physical_baseline).as_dict()
        payload = {
            "report": report.as_dict(),
            "files": files,
            "physical_stats": physical_stats,
        }
        result = self._finish(
            request.kind, start, baseline, payload,
            artifacts={"report": report, "netlist": netlist},
        )
        self._merge_physical_stats(result, physical_stats)
        return result

    def validate_snr(self, request: ValidateSnrRequest) -> ApiResult:
        """Monte-Carlo validation of the analytic SNR model."""
        request.validate()
        start = time.perf_counter()
        baseline = self.engine.stats.snapshot()
        from repro.sim.montecarlo import MonteCarloSnr

        rows: List[dict] = []
        warnings: List[str] = []
        for bits in request.adc_bits:
            spec = ACIMDesignSpec(
                request.height, 8, request.local_array_size, bits
            )
            if not spec.is_feasible():
                warnings.append(
                    f"skipping infeasible point B_ADC={bits} (H/L too small)"
                )
                continue
            measurement = MonteCarloSnr(spec, seed=request.seed).run(
                trials=request.trials
            )
            n = spec.local_arrays_per_column
            rows.append({
                "B_ADC": bits,
                "N": n,
                "analytic_dB": round(
                    self.estimator.snr_model.design_snr_db(bits, n), 2
                ),
                "measured_dB": round(measurement.snr_db, 2),
            })
        return self._finish(
            request.kind, start, baseline,
            payload={"trials": request.trials, "points": rows},
            warnings=warnings,
        )

    def library_report(self, request: LibraryRequest) -> ApiResult:
        """Consistency check (and optional report) of the cell library."""
        request.validate()
        start = time.perf_counter()
        baseline = self.engine.stats.snapshot()
        library = self.library
        problems = library.check_consistency()
        payload = {
            "technology": self.technology.name,
            "cells": len(library.cell_names),
            "consistent": not problems,
            "problems": list(problems),
        }
        if request.report:
            payload["report"] = library.report()
        if request.macros:
            payload["macros"] = self._macro_listing(
                stage=request.stage, kind=request.macro_kind
            )
        return self._finish(
            request.kind, start, baseline, payload,
            status="ok" if not problems else "failed",
            artifacts={"library": library},
        )

    def _macro_listing(
        self, stage: Optional[str] = None, kind: Optional[str] = None
    ) -> List[dict]:
        """Solved macros of this session plus the persisted artifact cache.

        In-memory records (solved, derived or hydrated during this
        session) are listed with their full summary — the ``source``
        column distinguishes ``built`` / ``memory`` / ``store`` /
        ``derived`` servings; store artifacts not yet touched by this
        session appear as ``source="store"`` rows decoded from their
        keys, so ``repro library macros --store ...`` shows the whole
        warm-start inventory without deserializing every layout.
        ``stage`` filters the persisted inventory by store stage (solved
        macros live under ``"macro"``); ``kind`` filters by macro kind.
        """
        rows: List[dict] = []
        if stage is None or stage == MACRO_STAGE:
            rows = [
                record.summary()
                for record in self.pipeline.macro_library.macros()
            ]
        listed = {row["digest"] for row in rows}
        if self.store is not None:
            for artifact in self.store.list_artifacts(stage=stage or MACRO_STAGE):
                digest = artifact["digest"][:12]
                if digest in listed:
                    continue
                key = artifact["key"]
                # Macro artifacts are stored under a [kind, params] key.
                artifact_kind = "?"
                if isinstance(key, list) and key and isinstance(key[0], str):
                    artifact_kind = key[0]
                rows.append({
                    "kind": artifact_kind,
                    "cell": "",
                    "digest": digest,
                    "pins": "",
                    "routed_nets": "",
                    "failed_nets": "",
                    "area_dbu2": "",
                    "source": "store",
                })
        if kind is not None:
            rows = [row for row in rows if row["kind"] == kind]
        return rows

    #: kind -> bound handler; the single dispatch table behind submit().
    _HANDLERS: Dict[str, Callable[["Session", ApiRequest], ApiResult]] = {
        EstimateRequest.kind: estimate,
        ExploreRequest.kind: explore,
        CampaignRequest.kind: campaign,
        FlowRequest.kind: flow,
        QueryRequest.kind: query,
        LayoutRequest.kind: layout,
        ValidateSnrRequest.kind: validate_snr,
        LibraryRequest.kind: library_report,
    }

    @staticmethod
    def _criteria_of(request, name: str = "api") -> Optional[DistillationCriteria]:
        """Distillation criteria from a request's bound fields (or None)."""
        bounds = {
            "min_snr_db": request.min_snr_db,
            "min_tops": request.min_tops,
            "min_tops_per_watt": request.min_tops_per_watt,
            "max_area_f2_per_bit": request.max_area_f2_per_bit,
        }
        if all(value is None for value in bounds.values()):
            return None
        return DistillationCriteria(name=name, **bounds)
