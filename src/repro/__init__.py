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
  shared session (``docs/serving.md``).
"""

from repro.api import (
    ApiRequest,
    ApiResult,
    CampaignRequest,
    EstimateRequest,
    ExploreRequest,
    FlowRequest,
    LayoutRequest,
    LibraryRequest,
    QueryRequest,
    Session,
    SessionConfig,
    ValidateSnrRequest,
    request_from_dict,
)
from repro.arch.spec import ACIMDesignSpec
from repro.arch.architecture import SynthesizableACIM
from repro.dse.distill import DistillationCriteria
from repro.engine import EngineStats, EvaluationCache, EvaluationEngine
from repro.dse.explorer import ExplorationResult
from repro.dse.nsga2 import NSGA2Config
from repro.errors import ReproError
from repro.flow.controller import FlowInputs, FlowResult
from repro.cells.library import CellLibrary, default_cell_library
from repro.model.estimator import ACIMEstimator, ACIMMetrics, ModelParameters
from repro.physical import MacroLibrary, PhysicalPipeline, PipelineStats
from repro.sim.montecarlo import MonteCarloSnr
from repro.store import CampaignResult, ResultStore
from repro.technology.tech import Technology, generic28

__version__ = "1.9.0"

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
