"""Experiment E1 — Table 2: comparison with other CIM design flows.

Regenerates the qualitative flow-comparison table (traditional manual flow
vs AutoDCIM vs EasyACIM) from the executable flow descriptors, and backs the
"design time: several hours vs 1-2 months" claim with measured runtimes of
the automated stages (exploration + netlist + layout for one solution).
"""

from __future__ import annotations

import pytest

from repro.arch.spec import ACIMDesignSpec
# Benchmarks drive the internal core directly (same implementation the
# session layer uses) so they stay silent under -W error::DeprecationWarning.
from repro.dse.explorer import _ExplorerCore as DesignSpaceExplorer
from repro.dse.nsga2 import NSGA2Config
from repro.flow.baselines import (
    AutoDCIMBaselineFlow,
    TraditionalManualFlow,
    flow_comparison_table,
)
from repro.flow.report import format_table
from repro.physical.pipeline import PhysicalPipeline

from bench_reporting import emit

ARRAY_SIZE = 16 * 1024


def test_table2_rows(benchmark):
    """The Table-2 comparison itself (cheap; benchmarked for completeness)."""
    entries = benchmark(flow_comparison_table)
    rows = [
        {
            "Entry": entry.name,
            "Design type": entry.design_type,
            "Design of layout": entry.layout_design,
            "Design time": entry.design_time,
            "Design space": entry.design_space,
            "Determination of design parameters": entry.parameter_determination,
        }
        for entry in entries
    ]
    emit("Table 2 — Comparison with Other CIM Design Flows", format_table(rows))
    assert len(entries) == 3
    by_name = {entry.name: entry for entry in entries}
    assert by_name["EasyACIM"].design_space == "Pareto frontier"
    assert by_name["AutoDCIM-style"].design_space == "Unoptimized"
    assert by_name["Traditional Flow"].design_space == "Fixed"


def test_easyacim_automated_design_time(benchmark, cell_library):
    """Measured runtime of the automated EasyACIM stages for one solution.

    The paper claims the whole flow finishes in hours (30-minute DSE plus a
    few minutes per layout on their server); the reproduction's stages run
    in seconds at the benchmark's population sizes, supporting the
    several-orders-of-magnitude gap to the 1-2 month manual flow.
    """
    explorer = DesignSpaceExplorer(config=NSGA2Config(
        population_size=40, generations=20, seed=1))
    def automated_flow_once(pipeline):
        result = explorer.explore(ARRAY_SIZE)
        spec = result.pareto_set[len(result.pareto_set) // 2].spec
        product = pipeline.run(spec, generate_netlist=True, route_columns=False)
        return result, product.netlist, product.report

    # A fresh pipeline per round, built outside the timed call, so every
    # round generates the netlist and layout cold.
    result, netlist, layout = benchmark.pedantic(
        automated_flow_once,
        setup=lambda: ((PhysicalPipeline(cell_library),), {}),
        rounds=3,
    )
    emit(
        "Table 2 — measured automated design time (this reproduction)",
        format_table([{
            "stage": "DSE + netlist + layout (one solution)",
            "pareto_solutions": len(result.pareto_set),
            "netlist_instances": len(netlist.instances),
            "layout_um2": round(layout.area_um2, 0),
        }]),
    )
    assert result.pareto_set
    assert layout.failed_nets == 0


def test_autodcim_baseline_covers_less_design_space(benchmark, estimator):
    """Quantifies Table 2's 'Unoptimized design space' row for AutoDCIM.

    The AutoDCIM-style baseline only evaluates a handful of user-picked
    parameter sets; on the energy-efficiency/area plane those points cover a
    strictly smaller hypervolume than the EasyACIM Pareto frontier, which is
    the measurable meaning of "Unoptimized" vs "Pareto frontier" in Table 2.
    """
    baseline = AutoDCIMBaselineFlow(estimator)
    user_designs = benchmark(baseline.run, ARRAY_SIZE)

    from repro.dse.exhaustive import exhaustive_pareto_front
    from repro.dse.pareto import hypervolume_2d

    frontier = exhaustive_pareto_front(ARRAY_SIZE, estimator=estimator)

    def projection(designs):
        return [(d.metrics.energy_per_mac * 1e15, d.metrics.area_f2_per_bit / 1e3)
                for d in designs]

    reference = (50.0, 10.0)
    hv_user = hypervolume_2d(projection(user_designs), reference)
    hv_easyacim = hypervolume_2d(projection(frontier), reference)
    user_best_snr = max(d.metrics.snr_db for d in user_designs)
    frontier_best_snr = max(d.metrics.snr_db for d in frontier)
    rows = [{
        "flow": "AutoDCIM-style (user-defined)",
        "evaluated_points": len(user_designs),
        "hypervolume": round(hv_user, 2),
        "easyacim_frontier_hypervolume": round(hv_easyacim, 2),
        "coverage": round(hv_user / hv_easyacim, 3),
        "best_SNR_dB": round(user_best_snr, 1),
        "easyacim_best_SNR_dB": round(frontier_best_snr, 1),
    }]
    emit("Table 2 — design-space quality of the user-defined baseline",
         format_table(rows))
    # The user-defined set covers strictly less of the efficiency/area plane
    # and misses the high-accuracy end of the space entirely (its fixed
    # B_ADC choices cannot reach the frontier's best SNR).
    assert hv_user < hv_easyacim
    assert frontier_best_snr > user_best_snr + 6.0


def test_traditional_flow_is_single_point(benchmark):
    """The traditional flow's 'Fixed' design space: exactly one design point."""
    flow = TraditionalManualFlow()
    points = benchmark(flow.design_points, ARRAY_SIZE)
    assert len(points) == 1
    assert isinstance(points[0], ACIMDesignSpec)
