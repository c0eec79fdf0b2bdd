"""The end-to-end EasyACIM flow (paper Figure 4).

* :class:`~repro.flow.netlist_gen.TemplateNetlistGenerator` — assembles the
  macro netlist for a design spec from the cell library's component
  netlists (local arrays, columns, SAR logic, buffers).
* :class:`~repro.flow.layout_gen.LayoutGenerator` — template-based
  hierarchical placement and routing producing the macro layout, GDSII and
  DEF views.
* :class:`~repro.flow.controller.FlowInputs` /
  :class:`~repro.flow.controller.FlowResult` — the top flow
  controller's typed inputs and products (driven through
  :meth:`repro.api.Session.flow`): design-space exploration, user
  distillation, netlist and layout generation for every distilled
  solution through one reuse-aware :mod:`repro.physical` pipeline.
* :mod:`~repro.flow.baselines` — the traditional manual flow and the
  AutoDCIM-style flow used for the Table-2 comparison.
* :mod:`~repro.flow.report` — human-readable and CSV-style reporting.
"""

from repro.flow.netlist_gen import TemplateNetlistGenerator
from repro.flow.layout_gen import LayoutGenerationReport, LayoutGenerator
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
    "TemplateNetlistGenerator",
    "LayoutGenerationReport",
    "LayoutGenerator",
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
