"""The end-to-end EasyACIM flow (paper Figure 4).

* :class:`~repro.flow.controller.FlowInputs` /
  :class:`~repro.flow.controller.FlowResult` — the top flow
  controller's typed inputs and products (driven through
  :meth:`repro.api.Session.flow`): design-space exploration, user
  distillation, netlist and layout generation for every distilled
  solution through one reuse-aware :mod:`repro.physical` pipeline.
  Single designs go straight to
  :meth:`repro.physical.pipeline.PhysicalPipeline.run`, which builds the
  macro netlist and the template-placed, routed layout (GDSII/DEF when
  given an ``output_dir``); its :class:`LayoutGenerationReport` is
  re-exported here.
* :mod:`~repro.flow.baselines` — the traditional manual flow and the
  AutoDCIM-style flow used for the Table-2 comparison.
* :mod:`~repro.flow.report` — human-readable and CSV-style reporting.
"""

from repro.physical.pipeline import LayoutGenerationReport
from repro.flow.controller import FlowInputs, FlowResult
from repro.flow.baselines import (
    AutoDCIMBaselineFlow,
    FlowComparisonEntry,
    TraditionalManualFlow,
    flow_comparison_table,
)
from repro.flow.report import (
    design_table,
    engine_stats_table,
    format_table,
    pareto_summary,
    solution_report,
)
from repro.flow.testbench import TestbenchConfig, TestbenchGenerator
from repro.flow.datasheet import DatasheetWriter

__all__ = [
    "LayoutGenerationReport",
    "FlowInputs",
    "FlowResult",
    "AutoDCIMBaselineFlow",
    "FlowComparisonEntry",
    "TraditionalManualFlow",
    "flow_comparison_table",
    "design_table",
    "engine_stats_table",
    "format_table",
    "pareto_summary",
    "solution_report",
    "TestbenchConfig",
    "TestbenchGenerator",
    "DatasheetWriter",
]
