"""The top flow controller (paper Figure 4).

:class:`_FlowCore` (driven through :meth:`repro.api.Session.flow`) wires
the whole pipeline together, mirroring the paper's Figure-4 narrative
left to right:

1. take the three user inputs — customized cell library, synthesizable
   architecture (implicit in the generators) and technology files — plus
   the user-defined array size,
2. run the MOGA-based design space explorer to get the Pareto-frontier set
   of (H, W, L, B_ADC) solutions,
3. apply the user's distillation criteria to keep only the solutions that
   match the application scenario,
4. generate a netlist and a layout for every distilled solution.

Every evaluation-shaped stage routes through one
:class:`~repro.engine.engine.EvaluationEngine` (see ``docs/engine.md``):
stage 2 evaluates NSGA-II populations as batches against the shared
memoization cache, and stage 4 fans the distilled solutions' netlist and
layout generation out across the engine's worker pool instead of a serial
for-loop — on the ``process`` backend each worker rebuilds its generators
from the (picklable) cell library and ships the finished layout report
back.  The backend and worker count come from :class:`FlowInputs`
(``backend``/``workers``), so the same flow description scales from a
laptop smoke run to a many-core sweep without code changes; the engine's
hit/miss/timing statistics are surfaced on :class:`FlowResult` for the
reporting layer.

The result object keeps every intermediate product so examples, tests and
benchmarks can inspect any stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import FlowError
from repro.arch.spec import ACIMDesignSpec
from repro.cells.library import CellLibrary, default_cell_library
from repro.dse.distill import DistillationCriteria, distill
from repro.dse.explorer import ExplorationResult, _ExplorerCore
from repro.dse.nsga2 import NSGA2Config
from repro.dse.problem import EvaluatedDesign
from repro.engine import EvaluationEngine
from repro.flow.layout_gen import LayoutGenerationReport, LayoutGenerator
from repro.flow.netlist_gen import TemplateNetlistGenerator
from repro.model.estimator import ACIMEstimator, ModelParameters
from repro.netlist.circuit import Circuit
from repro.physical.pipeline import PhysicalPipeline
from repro.store.result_store import ResultStore
from repro.technology.tech import Technology, generic28

#: Valid values of :attr:`FlowInputs.reuse`.
REUSE_MODES = ("auto", "off")


@dataclass
class FlowInputs:
    """The flow's user inputs (paper Figure 4, left).

    Attributes:
        array_size: user-defined H * W in bit cells.
        technology: technology files (defaults to the synthetic generic28).
        library: customized cell library (defaults to the built-in library).
        criteria: user distillation criteria (None keeps the whole frontier).
        nsga2: explorer configuration.
        model: estimation-model parameters.
        max_layouts: cap on how many distilled solutions get full layouts.
        backend: evaluation-engine backend (``serial``/``process``): with
            ``process`` the netlist/layout fan-out runs on a process pool
            (exploration batches are evaluated inline either way).
            When left at ``serial`` while ``nsga2.backend`` requests a
            parallel backend, the optimizer's choice drives the whole flow.
        workers: engine pool size (None: ``nsga2.workers``, else CPU count).
        store: optional persistent result store.  The flow's engine writes
            every computed evaluation through into it, and the finished run
            is recorded as completed campaign metadata plus its Pareto set.
        campaign_name: name the run is recorded under in the store
            (default ``flow-<array_size>``; re-runs replace the record).
        engine: an externally owned :class:`EvaluationEngine` to run the
            whole flow through (the session layer shares its engine this
            way).  A borrowed engine is never closed by the flow; when
            omitted the flow builds and owns one from
            ``backend``/``workers``/``store``.
        reuse: ``"auto"`` runs netlist/layout generation through the
            physical pipeline's macro/artifact cache (every unique
            sub-layout solved once, reused across the distilled designs
            and — with a store — across processes) whenever the flow's
            engine is serial; on an explicitly parallel engine the
            per-solution fan-out is kept, since worker processes cannot
            share one pipeline and serializing a parallel flow would
            regress it.  ``"off"`` always solves every design flat from
            scratch, exactly like the pre-pipeline flow (the regression
            baseline, fanned out across the engine pool).
        pipeline: an externally owned :class:`PhysicalPipeline` whose
            caches the flow should share (the session layer passes its
            own); when omitted and ``reuse="auto"``, the flow builds one
            over its library and store.
    """

    array_size: int
    technology: Optional[Technology] = None
    library: Optional[CellLibrary] = None
    criteria: Optional[DistillationCriteria] = None
    nsga2: NSGA2Config = field(default_factory=NSGA2Config)
    model: Optional[ModelParameters] = None
    max_layouts: int = 3
    backend: str = "serial"
    workers: Optional[int] = None
    store: Optional[ResultStore] = None
    campaign_name: Optional[str] = None
    engine: Optional[EvaluationEngine] = None
    reuse: str = "auto"
    pipeline: Optional[PhysicalPipeline] = None


@dataclass
class FlowResult:
    """Everything the flow produced.

    Attributes:
        inputs: the inputs the flow ran with.
        exploration: the design-space exploration result.
        distilled: the Pareto solutions surviving user distillation.
        netlists: generated macro netlists keyed by design-spec tuple.
        layouts: layout-generation reports keyed by design-spec tuple.
        runtime_seconds: end-to-end wall-clock time (monotonic clock).
        engine_stats: evaluation-engine statistics of this run (backend,
            batches, cache hits, evaluations/sec).
        physical_stats: per-stage physical-pipeline statistics of this
            run (timings, cache hits, macros built/reused); empty when
            the flow ran with ``reuse="off"``.
    """

    inputs: FlowInputs
    exploration: ExplorationResult
    distilled: List[EvaluatedDesign]
    netlists: Dict[tuple, Circuit] = field(default_factory=dict)
    layouts: Dict[tuple, LayoutGenerationReport] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    engine_stats: Dict[str, float] = field(default_factory=dict)
    physical_stats: Dict = field(default_factory=dict)

    def summary(self) -> str:
        """Human-readable multi-line summary of the flow outcome."""
        lines = [
            f"EasyACIM flow for {self.inputs.array_size}-bit array",
            f"  Pareto-frontier solutions : {len(self.exploration.pareto_set)}",
            f"  after user distillation   : {len(self.distilled)}",
            f"  netlists generated        : {len(self.netlists)}",
            f"  layouts generated         : {len(self.layouts)}",
            f"  total runtime             : {self.runtime_seconds:.2f} s",
        ]
        if self.engine_stats:
            lines.append(
                f"  engine                    : "
                f"{self.engine_stats.get('backend')} x "
                f"{self.engine_stats.get('workers')} workers, "
                f"{self.engine_stats.get('cache_hits', 0)} cache hits, "
                f"{self.engine_stats.get('evaluations', 0)} evaluations"
            )
        if self.physical_stats:
            lines.append(
                f"  physical pipeline         : "
                f"{self.physical_stats.get('macros_built', 0)} macros built, "
                f"{self.physical_stats.get('macros_reused', 0)} reused, "
                f"{self.physical_stats.get('macros_derived', 0)} derived"
            )
        for key, report in self.layouts.items():
            lines.append(
                f"    layout {key}: {report.width_um:.0f} x {report.height_um:.0f} um, "
                f"{report.area_f2_per_bit:.0f} F^2/bit"
            )
        return "\n".join(lines)


def _generate_solution_artifacts(task):
    """Fan-out work unit: netlist + layout for one distilled solution.

    Module-level (and argument-picklable) so the ``process`` backend can
    ship it to pool workers; the serial backend runs it as-is.
    Rebuilding the generators from the library is trivial next to the
    layout generation itself.  Returns ``(spec_tuple, netlist | None,
    layout_report | None)``.
    """
    (library, spec_tuple, want_netlist, want_layout,
     route_columns, output_dir) = task
    netlist_generator = TemplateNetlistGenerator(library)
    layout_generator = LayoutGenerator(library)
    spec = ACIMDesignSpec(*spec_tuple)
    netlist = netlist_generator.generate(spec) if want_netlist else None
    report = None
    if want_layout:
        report = layout_generator.generate(
            spec,
            route_column=route_columns,
            export=output_dir is not None,
            output_dir=output_dir,
        )
    return spec_tuple, netlist, report


class _FlowCore:
    """End-to-end automated ACIM generation.

    Internal implementation behind :meth:`repro.api.Session.flow` (and
    direct core-level consumers).  The flow runs on one
    :class:`EvaluationEngine` — either the externally owned one passed via
    ``FlowInputs.engine`` (never closed here) or one it builds
    from the inputs' ``backend``/``workers`` and owns; exploration and the
    netlist/layout fan-out share its pool and cache.  An owned pool is
    released at the end of every :meth:`run` (and respawned lazily on the
    next), so no explicit cleanup is required; long-lived services can
    also use the flow as a context manager or call :meth:`close`.
    """

    def __init__(self, inputs: FlowInputs) -> None:
        if inputs.array_size < 16:
            raise FlowError("array size must be at least 16 bit cells")
        self.inputs = inputs
        self.technology = inputs.technology or generic28()
        self.library = inputs.library or default_cell_library(self.technology)
        problems = self.library.check_consistency()
        if problems:
            raise FlowError("cell library inconsistent: " + "; ".join(problems))
        self.estimator = (
            ACIMEstimator(inputs.model) if inputs.model else ACIMEstimator()
        )
        estimator = self.estimator
        # One backend choice drives the whole flow.  FlowInputs is the
        # source of truth; when it is left at the serial default but the
        # optimizer config asks for a parallel backend, honor the config
        # rather than silently ignoring it.
        backend = inputs.backend
        if backend == "serial" and inputs.nsga2.backend != "serial":
            backend = inputs.nsga2.backend
        workers = inputs.workers if inputs.workers is not None else inputs.nsga2.workers
        self._owns_engine = inputs.engine is None
        self.engine = inputs.engine or EvaluationEngine(
            backend, workers=workers, store=inputs.store
        )
        self.explorer = _ExplorerCore(
            estimator=estimator, config=inputs.nsga2, engine=self.engine
        )
        if inputs.reuse not in REUSE_MODES:
            raise FlowError(
                f"unknown reuse mode {inputs.reuse!r}; "
                f"expected one of {sorted(REUSE_MODES)}"
            )
        self.reuse = inputs.reuse != "off"
        if self.reuse:
            self.pipeline = inputs.pipeline or PhysicalPipeline(
                self.library, store=inputs.store, reuse=True
            )
        else:
            # The regression baseline: a private reuse-off pipeline that
            # reproduces the pre-pipeline flat generators exactly.
            self.pipeline = PhysicalPipeline(self.library, reuse=False)
        self.netlist_generator = TemplateNetlistGenerator(
            self.library, pipeline=self.pipeline if self.reuse else None
        )
        self.layout_generator = LayoutGenerator(
            self.library, pipeline=self.pipeline
        )

    def close(self) -> None:
        """Release an owned engine's worker pool (idempotent).

        A borrowed engine (``FlowInputs.engine``) belongs to its session
        and is left as is.
        """
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "_FlowCore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- individual stages -----------------------------------------------------------

    def explore(self) -> ExplorationResult:
        """Stage 1: MOGA-based design space exploration."""
        return self.explorer.explore(self.inputs.array_size)

    def distill(self, exploration: ExplorationResult) -> List[EvaluatedDesign]:
        """Stage 2: user distillation of the Pareto-frontier set."""
        if self.inputs.criteria is None:
            return list(exploration.pareto_set)
        selected = distill(exploration.pareto_set, self.inputs.criteria)
        return selected or list(exploration.pareto_set)

    def generate_netlist(self, spec: ACIMDesignSpec) -> Circuit:
        """Stage 3: template-based netlist generation for one solution."""
        return self.netlist_generator.generate(spec)

    def generate_layout(
        self, spec: ACIMDesignSpec, **kwargs
    ) -> LayoutGenerationReport:
        """Stage 4: template-based hierarchical placement and routing."""
        return self.layout_generator.generate(spec, **kwargs)

    # -- end-to-end ----------------------------------------------------------------------

    def run(
        self,
        generate_netlists: bool = True,
        generate_layouts: bool = True,
        route_columns: bool = False,
        output_dir: Optional[str] = None,
    ) -> FlowResult:
        """Run the full flow.

        Args:
            generate_netlists: build macro netlists for the distilled set.
            generate_layouts: build macro layouts for (up to ``max_layouts``
                of) the distilled set.
            route_columns: run the maze router inside local arrays/columns
                (slower but produces routed interconnects).
            output_dir: where to export GDS/DEF when layouts are generated.
        """
        start = time.perf_counter()
        stats_baseline = self.engine.stats.snapshot()
        try:
            exploration = self.explore()
            distilled = self.distill(exploration)
            result = FlowResult(
                inputs=self.inputs,
                exploration=exploration,
                distilled=distilled,
            )
            selected = distilled[: self.inputs.max_layouts]
            if selected and (generate_netlists or generate_layouts):
                if self._use_pipeline():
                    # Reuse-aware path: run every solution through the
                    # shared physical pipeline in-process, so identical
                    # sub-macros are solved once and every later design
                    # (and every later flow run on this pipeline/store)
                    # instantiates them from the cache.
                    physical_baseline = self.pipeline.stats.snapshot()
                    for design in selected:
                        spec = design.spec
                        product = self.pipeline.run(
                            spec,
                            generate_netlist=generate_netlists,
                            generate_layout=generate_layouts,
                            route_columns=route_columns,
                            export=generate_layouts and output_dir is not None,
                            output_dir=output_dir,
                        )
                        if product.netlist is not None:
                            result.netlists[spec.as_tuple()] = product.netlist
                        if product.report is not None:
                            result.layouts[spec.as_tuple()] = product.report
                    result.physical_stats = self.pipeline.stats.since(
                        physical_baseline
                    ).as_dict()
                else:
                    tasks = [
                        (
                            self.library,
                            design.spec.as_tuple(),
                            generate_netlists,
                            generate_layouts,
                            route_columns,
                            output_dir,
                        )
                        for design in selected
                    ]
                    # Flat path: fan the per-solution generation out across
                    # the engine, one task per solution so the pool
                    # load-balances the expensive layouts.
                    for spec_tuple, netlist, report in self.engine.map(
                        _generate_solution_artifacts, tasks, chunk_size=1
                    ):
                        if netlist is not None:
                            result.netlists[spec_tuple] = netlist
                        if report is not None:
                            result.layouts[spec_tuple] = report
            if self.inputs.store is not None:
                self._record_campaign(exploration, result.physical_stats)
            result.engine_stats = self.engine.stats.since(stats_baseline).as_dict()
            result.runtime_seconds = time.perf_counter() - start
            return result
        finally:
            # Release owned pool workers between runs; the executor
            # respawns lazily on the next run.
            self.close()

    def _use_pipeline(self) -> bool:
        """Whether generation runs through the reuse pipeline.

        ``reuse="auto"`` picks the better strategy: the in-process reuse
        pipeline (one shared macro/artifact cache) on a serial engine, or
        the per-solution engine fan-out when the user configured a
        parallel pool — worker processes cannot share one pipeline, and
        silently serializing an explicitly parallel flow would trade a
        guaranteed speedup for a speculative one.  ``reuse="off"`` always
        takes the flat fan-out.
        """
        if not self.reuse:
            return False
        return self.engine.backend == "serial" or (self.engine.workers or 1) <= 1

    def _record_campaign(
        self,
        exploration: ExplorationResult,
        physical_stats: Optional[Dict] = None,
    ) -> None:
        """Record the finished exploration in the persistent store.

        When the reuse pipeline generated layouts, a ``run_metrics`` row
        is appended too, carrying the macro-ladder counters (built /
        reused / template-derived) so ``repro metrics`` shows where this
        flow's solves came from.
        """
        from repro.store.campaign import record_exploration

        name = self.inputs.campaign_name or f"flow-{self.inputs.array_size}"
        record_exploration(
            self.inputs.store, name, exploration,
            self.estimator, self.inputs.nsga2,
        )
        if physical_stats:
            self.inputs.store.put_run_metrics(name, {
                "status": "flow",
                "generations": exploration.generations,
                "runtime_seconds": round(exploration.runtime_seconds, 6),
                "evaluations": exploration.evaluations,
                "physical": {
                    "macros_built": physical_stats.get("macros_built", 0),
                    "macros_reused": physical_stats.get("macros_reused", 0),
                    "macros_derived": physical_stats.get("macros_derived", 0),
                },
            })


