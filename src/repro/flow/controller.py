"""The top flow controller (paper Figure 4).

:class:`_FlowCore` (driven through :meth:`repro.api.Session.flow`) wires
the whole pipeline together, mirroring the paper's Figure-4 narrative
left to right:

1. take the three user inputs — customized cell library, synthesizable
   architecture (implicit in the physical pipeline) and technology
   files — plus the user-defined array size,
2. run the MOGA-based design space explorer to get the Pareto-frontier set
   of (H, W, L, B_ADC) solutions,
3. apply the user's distillation criteria to keep only the solutions that
   match the application scenario,
4. generate a netlist and a layout for every distilled solution.

Stage 2 evaluates NSGA-II populations as batches through one
:class:`~repro.engine.engine.EvaluationEngine` (see ``docs/engine.md``)
against the shared memoization cache.  Stage 4 runs every distilled
solution through one :class:`~repro.physical.pipeline.PhysicalPipeline`
(paper section 3.3, Figure 7): each unique local array and column is
placed and routed once and instantiated by transform in every later
design.  The engine's hit/miss/timing statistics and the pipeline's
per-stage statistics are surfaced on :class:`FlowResult` for the
reporting layer.

The result object keeps every intermediate product so examples, tests and
benchmarks can inspect any stage.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import FlowError
from repro.cells.library import CellLibrary, default_cell_library
from repro.dse.distill import DistillationCriteria, distill
from repro.dse.explorer import ExplorationResult, _ExplorerCore
from repro.dse.nsga2 import NSGA2Config
from repro.dse.problem import EvaluatedDesign
from repro.engine import EvaluationEngine
from repro.model.estimator import ACIMEstimator, ModelParameters
from repro.netlist.circuit import Circuit
from repro.physical.pipeline import LayoutGenerationReport, PhysicalPipeline
from repro.store.result_store import ResultStore
from repro.technology.tech import Technology, generic28

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
        store: optional persistent result store.  The flow's engine writes
            every computed evaluation through into it, and the finished run
            is recorded as completed campaign metadata plus its Pareto set.
        campaign_name: name the run is recorded under in the store
            (default ``flow-<array_size>``; re-runs replace the record).
        engine: an externally owned :class:`EvaluationEngine` to run the
            whole flow through (the session layer shares its engine this
            way); when omitted the flow builds one over ``store``.
        pipeline: an externally owned :class:`PhysicalPipeline` whose
            macro/artifact cache the flow should share (the session layer
            passes its own); when omitted, the flow builds one over its
            library and store.  Either way every unique sub-layout is
            solved once and reused across the distilled designs and —
            with a store — across processes.
    """

    array_size: int
    technology: Optional[Technology] = None
    library: Optional[CellLibrary] = None
    criteria: Optional[DistillationCriteria] = None
    nsga2: NSGA2Config = field(default_factory=NSGA2Config)
    model: Optional[ModelParameters] = None
    max_layouts: int = 3
    store: Optional[ResultStore] = None
    campaign_name: Optional[str] = None
    engine: Optional[EvaluationEngine] = None
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
        engine_stats: evaluation-engine statistics of this run (batches,
            cache hits, evaluations/sec).
        physical_stats: per-stage physical-pipeline statistics of this
            run (timings, cache hits, macros built/reused/derived); empty
            when the run generated neither netlists nor layouts.
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


class _FlowCore:
    """End-to-end automated ACIM generation.

    Internal implementation behind :meth:`repro.api.Session.flow` (and
    direct core-level consumers).  The flow runs on one
    :class:`EvaluationEngine` and one :class:`PhysicalPipeline` — the
    externally owned ones passed via ``FlowInputs.engine`` /
    ``FlowInputs.pipeline``, or ones it builds over the inputs' store.
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
        self.engine = inputs.engine or EvaluationEngine(store=inputs.store)
        self.explorer = _ExplorerCore(
            estimator=self.estimator, config=inputs.nsga2, engine=self.engine
        )
        self.pipeline = inputs.pipeline or PhysicalPipeline(
            self.library, store=inputs.store
        )

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
        exploration = self.explore()
        distilled = self.distill(exploration)
        result = FlowResult(
            inputs=self.inputs,
            exploration=exploration,
            distilled=distilled,
        )
        selected = distilled[: self.inputs.max_layouts]
        if selected and (generate_netlists or generate_layouts):
            # Every solution runs through the one pipeline, so identical
            # sub-macros are solved once and every later design (and
            # every later flow run on this pipeline/store) instantiates
            # them from the cache.
            physical_baseline = self.pipeline.stats.snapshot()
            for design in selected:
                spec = design.spec
                product = self.pipeline.run(
                    spec,
                    generate_netlist=generate_netlists,
                    generate_layout=generate_layouts,
                    route_columns=route_columns,
                    output_dir=output_dir,
                )
                if product.netlist is not None:
                    result.netlists[spec.as_tuple()] = product.netlist
                if product.report is not None:
                    result.layouts[spec.as_tuple()] = product.report
            result.physical_stats = self.pipeline.stats.since(
                physical_baseline
            ).as_dict()
        if self.inputs.store is not None:
            self._record_campaign(exploration, result.physical_stats)
        result.engine_stats = self.engine.stats.since(stats_baseline).as_dict()
        result.runtime_seconds = time.perf_counter() - start
        return result

    def _record_campaign(
        self,
        exploration: ExplorationResult,
        physical_stats: Optional[Dict] = None,
    ) -> None:
        """Record the finished exploration in the persistent store.

        When the pipeline generated netlists or layouts, a ``run_metrics`` row
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


