"""EasyACIM reproduction: end-to-end automated analog computing-in-memory.

This library reproduces the system described in *"EasyACIM: An End-to-End
Automated Analog CIM with Synthesizable Architecture and Agile Design Space
Exploration"* (DAC 2024): a synthesizable charge-redistribution ACIM
architecture, an analytical SNR / throughput / energy / area estimation
model, an NSGA-II design-space explorer, and a template-based hierarchical
placement-and-routing flow that generates macro layouts — together with the
behavioral simulation, baselines and benchmarks needed to regenerate the
paper's evaluation.

Quick start — every workflow goes through one typed session
(``docs/api.md``)::

    from repro import ExploreRequest, FlowRequest, Session, SessionConfig

    with Session.from_config(SessionConfig(store="results.sqlite")) as session:
        explored = session.explore(ExploreRequest(array_size=16 * 1024))
        print(explored.payload["pareto_size"], "Pareto solutions")

        flowed = session.flow(FlowRequest(array_size=1024, min_snr_db=10.0))
        print(flowed.artifacts["result"].summary())

Requests and results are JSON-serializable (``to_dict``/``from_dict``), so
the same description runs from Python, the CLI (``python -m repro``) or a
job queue.  The pre-1.1 front doors (``EasyACIMFlow``,
``DesignSpaceExplorer``, ``CampaignManager``) were removed in 1.2.0 after
their one-release deprecation window; the session layer is the single
supported entry point.

Importing is cheap: the names below resolve on first use, so ``import
repro`` loads no subpackage, and a bare ``Session()`` loads the model,
engine and optimiser layers but none of the physical stack (cells,
netlist, placement, routing, layout, the physical pipeline, the flow),
the simulator or the store.  The first request that needs one of them
imports it (``docs/api.md``, "Import cost").

The subpackages are usable on their own:

* :mod:`repro.api` — the typed session layer every consumer goes through,
* :mod:`repro.arch` — the synthesizable architecture and its constraints,
* :mod:`repro.model` — the performance estimation model (Equations 2-11),
* :mod:`repro.dse` — Pareto tools and the NSGA-II explorer (Equation 12),
* :mod:`repro.engine` — the batched, cached evaluation engine every
  evaluation consumer routes through (``docs/engine.md``),
* :mod:`repro.store` — the persistent result store and resumable
  exploration campaigns (``docs/campaigns.md``),
* :mod:`repro.sim` — behavioral QR / SAR ADC simulation and Monte-Carlo SNR,
* :mod:`repro.cells`, :mod:`repro.technology`, :mod:`repro.netlist`,
  :mod:`repro.layout`, :mod:`repro.placement`, :mod:`repro.routing` — the
  physical-design substrate,
* :mod:`repro.physical` — the staged, reuse-aware physical pipeline and
  the content-addressed macro library (``docs/physical.md``);
  ``PhysicalPipeline(library).run(spec, ...)`` is the one way to build a
  design's netlist and layout outside a session,
* :mod:`repro.flow` — the end-to-end flow and the baseline flows,
* :mod:`repro.apps` — application mapping (CNN / transformer / SNN),
* :mod:`repro.sota` — published reference designs for the comparison,
* :mod:`repro.serve` — the multi-tenant HTTP/job-queue server over one
  shared session (``docs/serving.md``),
* :mod:`repro.obs` — tracing spans and the metrics registry
  (``docs/observability.md``),
* :mod:`repro.reporting` — the table, plot and export renderers the CLI
  prints with.
"""

from repro._lazy import lazy_exports

# Public names resolve on first use (PEP 562): ``import repro`` loads no
# subpackage, and a bare Session never imports the physical stack.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.api": (
        "ApiRequest",
        "ApiResult",
        "CampaignRequest",
        "EstimateRequest",
        "ExploreRequest",
        "FlowRequest",
        "LayoutRequest",
        "LibraryRequest",
        "QueryRequest",
        "Session",
        "SessionConfig",
        "ValidateSnrRequest",
        "request_from_dict",
    ),
    "repro.arch.spec": ("ACIMDesignSpec",),
    "repro.arch.architecture": ("SynthesizableACIM",),
    "repro.dse.distill": ("DistillationCriteria",),
    "repro.engine": ("EngineStats", "EvaluationCache", "EvaluationEngine"),
    "repro.dse.explorer": ("ExplorationResult",),
    "repro.dse.nsga2": ("NSGA2Config",),
    "repro.errors": ("ReproError",),
    "repro.flow.controller": ("FlowInputs", "FlowResult"),
    "repro.cells.library": ("CellLibrary", "default_cell_library"),
    "repro.model.estimator": ("ACIMEstimator", "ACIMMetrics", "ModelParameters"),
    "repro.physical": ("MacroLibrary", "PhysicalPipeline", "PipelineStats"),
    "repro.sim.montecarlo": ("MonteCarloSnr",),
    "repro.store": ("CampaignResult", "ResultStore"),
    "repro.technology.tech": ("Technology", "generic28"),
})

__version__ = "1.14.0"

__all__ = [
    # The typed public API (the supported entry point).
    "ApiRequest",
    "ApiResult",
    "CampaignRequest",
    "EstimateRequest",
    "ExploreRequest",
    "FlowRequest",
    "LayoutRequest",
    "LibraryRequest",
    "QueryRequest",
    "Session",
    "SessionConfig",
    "ValidateSnrRequest",
    "request_from_dict",
    # Domain objects and building blocks.
    "ACIMDesignSpec",
    "SynthesizableACIM",
    "DistillationCriteria",
    "EngineStats",
    "EvaluationCache",
    "EvaluationEngine",
    "ExplorationResult",
    "NSGA2Config",
    "FlowInputs",
    "FlowResult",
    "CellLibrary",
    "default_cell_library",
    "ACIMEstimator",
    "ACIMMetrics",
    "ModelParameters",
    "MonteCarloSnr",
    "CampaignResult",
    "MacroLibrary",
    "PhysicalPipeline",
    "PipelineStats",
    "ReproError",
    "ResultStore",
    "Technology",
    "generic28",
    "__version__",
]
