"""The staged physical-design pipeline (paper section 3.3, Figure 7).

:class:`PhysicalPipeline` runs the physical implementation of one design
spec through an explicit stage graph::

    netlist -> placement -> routing -> layout -> export

The placement, routing and layout stages produce solved macros that are
content-addressed by the SHA-256 of (sub-spec, technology/library
fingerprint, stage parameters) — see :mod:`repro.physical.artifacts`.
The netlist stage is not memoized: it rebuilds the macro netlist on
every run, one unit of work per column template.
The placement and routing stages run *per macro*, bottom-up (the
paper's Figure-7 strategy): the local SRAM array is placed and routed
once per unique ``L``, the ACIM column once per unique ``(H, L,
B_ADC)``, the top assembly once per spec — and each solved macro is
stored in the :class:`~repro.physical.macro_library.MacroLibrary` and
instantiated by transform everywhere it recurs, within a design, across
the designs of a distill flow, and (through the result store's
``artifacts`` table) across processes and campaigns.

A fresh pipeline has nothing cached and no template to derive from, so
it solves every stage of its first design from scratch: one fresh
pipeline per design is the cold reference the shared-pipeline path is
regression-tested against (GDSII byte-identical).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import FlowError
from repro.arch.spec import ACIMDesignSpec
from repro.cells.library import CellLibrary, sar_controller_for
from repro.layout.def_export import write_def
from repro.layout.drc import check_own_level_shorts
from repro.layout.gdsii import write_gds
from repro.layout.geometry import Rect, Transform
from repro.layout.layout import LayoutCell
from repro.netlist.circuit import Circuit
from repro.obs import MetricsRegistry, get_tracer
from repro.physical.artifacts import PipelineStats
from repro.physical.macro_library import MacroLibrary, MacroRecord
from repro.physical.netlist_builder import NetlistBuilder
from repro.physical.templates import MacroTemplate
from repro.placement.hierarchical import HierarchicalPlacer, MacroPlacement
from repro.placement.template import ColumnStackTemplate
from repro.routing.hier_router import CellRoutePlans, HierarchicalRouter, LogicalNet
from repro.routing.tracks import power_track_plan, sar_control_track_plan
from repro.units import dbu_to_um, um2_to_f2


@dataclass
class LayoutGenerationReport:
    """Result record of one macro layout generation.

    Attributes:
        spec: the generated design point.
        layout: the top-level macro layout cell.
        width_um / height_um: die dimensions.
        area_um2: die area.
        area_f2_per_bit: die area normalised to F^2 per bit cell.
        routed_nets / failed_nets: hierarchical routing statistics.
        total_wirelength_um: routed wirelength across all levels.
        runtime_seconds: wall-clock generation time.
        gds_path / def_path: export locations when exports were requested.
    """

    spec: ACIMDesignSpec
    layout: LayoutCell
    width_um: float
    height_um: float
    area_um2: float
    area_f2_per_bit: float
    routed_nets: int
    failed_nets: int
    total_wirelength_um: float
    runtime_seconds: float
    gds_path: Optional[str] = None
    def_path: Optional[str] = None

    def as_dict(self) -> dict:
        """Flat dictionary for tabular reports."""
        return {
            "H": self.spec.height,
            "W": self.spec.width,
            "L": self.spec.local_array_size,
            "B_ADC": self.spec.adc_bits,
            "width_um": round(self.width_um, 2),
            "height_um": round(self.height_um, 2),
            "area_um2": round(self.area_um2, 1),
            "area_f2_per_bit": round(self.area_f2_per_bit, 1),
            "routed_nets": self.routed_nets,
            "failed_nets": self.failed_nets,
            "runtime_s": round(self.runtime_seconds, 3),
        }


@dataclass
class PipelineResult:
    """Everything one :meth:`PhysicalPipeline.run` produced.

    Attributes:
        spec: the design point the pipeline ran on.
        netlist: the macro netlist (when requested).
        report: the layout-generation report (when requested).
        stats: per-stage timing/cache statistics of this run only (the
            view of the run's ``physical.*`` registry delta).
    """

    spec: ACIMDesignSpec
    netlist: Optional[Circuit]
    report: Optional[LayoutGenerationReport]
    stats: PipelineStats


class PhysicalPipeline:
    """Staged, artifact-cached physical implementation of design specs.

    Args:
        library: customized cell library providing leaf netlist/layout views.
        store: optional persistent result store backing the macro cache.
        metrics: :class:`~repro.obs.MetricsRegistry` stage timings and
            macro-ladder counters are recorded into (``physical.*``
            names); defaults to a private registry.  The pipeline keeps
            no counters of its own: :class:`PipelineStats` is the view of
            a snapshot or delta of these.
    """

    #: Routing layers of the over-cell grid, lowest first.
    ROUTING_LAYERS: Tuple[str, ...] = ("M2", "M3", "M4")
    #: Pitch of the over-cell routing grid in dbu (part of every macro key).
    ROUTING_PITCH: int = 200

    def __init__(self, library: CellLibrary, store=None, metrics=None) -> None:
        self.library = library
        self.technology = library.technology
        self.placer = HierarchicalPlacer()
        self.router = HierarchicalRouter(
            self.technology,
            routing_layers=self.ROUTING_LAYERS,
            pitch=self.ROUTING_PITCH,
        )
        self.macro_library = MacroLibrary(library, store=store)
        self.netlist_builder = NetlistBuilder(library)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- public API --------------------------------------------------------------------

    def run(
        self,
        spec: ACIMDesignSpec,
        generate_netlist: bool = False,
        generate_layout: bool = True,
        route_columns: bool = True,
        output_dir: Optional[str] = None,
    ) -> PipelineResult:
        """Run the stage graph for one design spec.

        Args:
            spec: the design point (validated against Equation 12).
            generate_netlist: run the netlist stage.
            generate_layout: run placement/routing/layout (and export).
            route_columns: route the local-array and column interconnects
                with the maze router (disable for floorplan-only runs).
            output_dir: directory the layout's GDSII and DEF files are
                written to; ``None`` keeps the layout in memory only.
        """
        spec.validate()
        netlist = None
        report = None
        with self.metrics.scope() as scope:
            if generate_netlist:
                netlist = self._netlist_stage(spec)
            if generate_layout:
                report = self._layout_stages(spec, route_columns)
                if output_dir is not None:
                    self._export_stage(report, output_dir)
        return PipelineResult(
            spec=spec,
            netlist=netlist,
            report=report,
            stats=PipelineStats.from_metrics(scope.read()),
        )

    # -- stage: netlist ----------------------------------------------------------------

    def _netlist_stage(self, spec: ACIMDesignSpec) -> Circuit:
        # Not memoized: a rebuild checks each column template's pin set
        # once, so it costs a few milliseconds, while a cache would keep
        # every distinct spec's netlist for the pipeline's lifetime.
        with self._timed("netlist"):
            return self.netlist_builder.build(spec)

    # -- stages: placement -> routing -> layout ----------------------------------------

    def _layout_stages(
        self, spec: ACIMDesignSpec, route: bool
    ) -> LayoutGenerationReport:
        start = time.perf_counter()
        record = self._macro(
            "acim_macro",
            {
                "H": spec.height, "W": spec.width,
                "L": spec.local_array_size, "B": spec.adc_bits,
                "route": route, "pitch": self.ROUTING_PITCH,
                "layers": list(self.ROUTING_LAYERS),
            },
            lambda: self._solve_top(spec, route),
            stages=("layout",),
        )
        macro = record.layout
        bbox = macro.boundary or macro.bounding_box()
        if bbox is None:
            raise FlowError("generated macro layout is empty")
        width_um = dbu_to_um(bbox.width)
        height_um = dbu_to_um(bbox.height)
        area_um2 = width_um * height_um
        return LayoutGenerationReport(
            spec=spec,
            layout=macro,
            width_um=width_um,
            height_um=height_um,
            area_um2=area_um2,
            area_f2_per_bit=um2_to_f2(area_um2, self.technology.feature_size)
            / spec.array_size,
            routed_nets=record.routed_nets,
            failed_nets=record.failed_nets,
            total_wirelength_um=dbu_to_um(record.wirelength_dbu),
            runtime_seconds=time.perf_counter() - start,
        )

    def _solve_top(
        self, spec: ACIMDesignSpec, route: bool
    ) -> Tuple[LayoutCell, Dict[str, int]]:
        """Solve the full macro bottom-up, reusing sub-macros where possible."""
        local_record = self._macro(
            "local_array",
            {
                "L": spec.local_array_size, "route": route,
                "pitch": self.ROUTING_PITCH,
                "layers": list(self.ROUTING_LAYERS),
            },
            lambda: self._build_local_array(spec, route),
            deriver=lambda template: self._derive_macro(
                template,
                lambda plans: self._build_local_array(spec, route, plans=plans),
            ),
        )
        column_record = self._macro(
            "column",
            {
                "H": spec.height, "L": spec.local_array_size,
                "B": spec.adc_bits, "route": route,
                "pitch": self.ROUTING_PITCH,
                "layers": list(self.ROUTING_LAYERS),
            },
            lambda: self._build_column(spec, local_record.layout, route),
            deriver=lambda template: self._derive_macro(
                template,
                lambda plans: self._build_column(
                    spec, local_record.layout, route, plans=plans
                ),
            ),
        )
        with self._timed("layout"):
            macro = self._build_macro(spec, column_record.layout)
        totals = {
            "routed": local_record.routed_nets + column_record.routed_nets,
            "failed": local_record.failed_nets + column_record.failed_nets,
            "wirelength": (
                local_record.wirelength_dbu + column_record.wirelength_dbu
            ),
        }
        return macro, totals

    def _macro(
        self,
        kind: str,
        key,
        builder: Callable[[], Tuple[LayoutCell, Dict[str, int]]],
        stages: Sequence[str] = ("placement", "routing"),
        deriver: Optional[
            Callable[[MacroTemplate], Optional[Tuple[LayoutCell, Dict[str, int]]]]
        ] = None,
    ) -> MacroRecord:
        """One macro through the lookup ladder, counted once by rung.

        The ladder (exact memory hit -> exact store hit -> template derive
        from memory -> template derive from a store neighbour -> cold
        solve) lives in :meth:`MacroLibrary.get_or_build`; the rung it
        served lands in ``physical.macro.<rung>``, and an exact hit also
        counts as a cache (and store) hit of the macro's ``stages``.
        """
        record, rung = self.macro_library.get_or_build(
            kind, key, builder, deriver=deriver
        )
        self.metrics.counter(f"physical.macro.{rung}").inc()
        if rung.startswith("hit."):
            for stage_name in stages:
                self.metrics.counter(
                    f"physical.stage.{stage_name}.cache_hits"
                ).inc()
                if rung == "hit.store":
                    self.metrics.counter(
                        f"physical.stage.{stage_name}.store_hits"
                    ).inc()
        return record

    def _derive_macro(
        self,
        template: MacroTemplate,
        patch_builder: Callable[
            [CellRoutePlans], Tuple[LayoutCell, Dict[str, int]]
        ],
    ) -> Optional[Tuple[LayoutCell, Dict[str, int]]]:
        """Patch a neighbouring template into the requested macro.

        Re-places the full (cheap, deterministic) instance stack and
        replays the template's recorded route plans, so only tree-growth
        steps incident to added/moved instances run a live maze search.
        The patched cell must pass the own-level short check — the one
        rule class an invalid replay could break — or the derivation is
        rejected and the caller falls back to a cold solve.
        """
        def patcher(_spec, bound_template: MacroTemplate):
            with get_tracer().span(
                "physical.template_derive",
                kind=bound_template.kind,
                parent=bound_template.digest[:12],
            ) as span:
                cell, stats = patch_builder(bound_template.record.route_plans)
                span.set("replayed", stats.get("replayed", 0))
                span.set("searched", stats.get("searched", 0))
                if check_own_level_shorts(self.technology, cell):
                    self.metrics.counter("physical.macro.derive.rejected").inc()
                    return None
                return cell, stats

        return template.derive(None, patcher)

    # -- hierarchy-level builders (placement + routing per level) ----------------------

    @staticmethod
    def _promote_pin(
        cell: LayoutCell,
        instance_name: str,
        child_pin: str,
        parent_pin: Optional[str] = None,
        size: int = 100,
    ) -> None:
        """Expose a child instance's pin as a pin of ``cell``.

        The parent pin is a small landing pad centred on the child pin's
        access point, on the child pin's layer, so upper hierarchy levels can
        connect to it without knowing the child's internals.
        """
        instance = cell.instance(instance_name)
        pin = instance.cell.pin(child_pin)
        point = instance.pin_access(child_pin)
        half = size // 2
        cell.add_pin(
            parent_pin or child_pin,
            pin.layer,
            Rect(point.x - half, point.y - half, point.x + half, point.y + half),
            direction=pin.direction,
        )

    def _build_local_array(
        self,
        spec: ACIMDesignSpec,
        route: bool,
        plans: Optional[CellRoutePlans] = None,
    ):
        """Level 1: L SRAM cells plus the shared local computing cell.

        ``plans`` (a neighbouring solve's recorded routing) turns the
        routing stage into an incremental replay-and-patch pass.
        """
        size = spec.local_array_size
        sram = self.library.layout("sram8t")
        local_compute = self.library.layout("local_compute")
        cell = LayoutCell(f"local_array_L{size}")
        order = []
        for row in range(size):
            name = f"CELL{row}"
            cell.add_instance(name, sram)
            order.append(name)
        cell.add_instance("LC", local_compute)
        order.append("LC")
        with self._timed("placement"):
            self.placer.place_with_template(cell, ColumnStackTemplate(order=order))
        stats = {"routed": 0, "failed": 0, "wirelength": 0}
        if route:
            nets = [LogicalNet(
                name="LBL",
                terminals=tuple(
                    [(f"CELL{row}", "LBL") for row in range(size)] + [("LC", "LBL")]
                ),
                critical=True,
            )]
            with self._timed("routing"):
                report = self.router.route_cell(cell, nets, margin=400, plans=plans)
            self._routing_stats(stats, report)
        # Expose the shared computing cell's column-facing pins one level up.
        self._promote_pin(cell, "LC", "RBL")
        for control in ("P", "N", "PB", "PCH", "RST"):
            self._promote_pin(cell, "LC", control)
        cell.set_boundary_from_contents()
        return cell, stats

    @staticmethod
    def _routing_stats(stats: Dict, report) -> None:
        """Fold a hierarchical routing report into builder stats."""
        stats["routed"] = len(report.result.routes)
        stats["failed"] = len(report.result.failed)
        stats["wirelength"] = report.result.total_wirelength
        stats["replayed"] = report.result.replayed_steps
        stats["searched"] = report.result.searched_steps
        stats["route_plans"] = report.plans

    def _build_column(
        self,
        spec: ACIMDesignSpec,
        local_array: LayoutCell,
        route: bool,
        plans: Optional[CellRoutePlans] = None,
    ):
        """Level 2: the full ACIM column."""
        num_local = spec.local_arrays_per_column
        comparator = self.library.layout("comparator")
        switch = self.library.layout("cmos_switch")
        sar = sar_controller_for(self.library, spec.adc_bits).layout(self.technology)
        cell = LayoutCell(
            f"acim_column_H{spec.height}_L{spec.local_array_size}_B{spec.adc_bits}"
        )
        order = []
        for index in range(num_local):
            name = f"LA{index}"
            cell.add_instance(name, local_array)
            order.append(name)
        cell.add_instance("SW_ISO", switch)
        cell.add_instance("COMP", comparator)
        cell.add_instance("SAR", sar)
        order += ["SW_ISO", "COMP", "SAR"]
        with self._timed("placement"):
            self.placer.place_with_template(cell, ColumnStackTemplate(order=order))
        cell.set_boundary_from_contents()
        stats = {"routed": 0, "failed": 0, "wirelength": 0}
        if route:
            rbl_terminals = [(f"LA{i}", "RBL") for i in range(num_local)]
            rbl_terminals += [("SW_ISO", "A"), ("COMP", "INP")]
            nets = [
                LogicalNet(name="RBL", terminals=tuple(rbl_terminals), critical=True),
                LogicalNet(
                    name="COMP_OUT",
                    terminals=(("COMP", "COM"), ("SAR", "COMP")),
                ),
            ]
            with self._timed("routing"):
                report = self.router.route_cell(cell, nets, margin=600, plans=plans)
            self._routing_stats(stats, report)
        return cell, stats

    def _build_macro(self, spec: ACIMDesignSpec, column: LayoutCell) -> LayoutCell:
        """Level 3: W columns, peripheral buffers and pre-defined tracks.

        The column macro is consumed as a solved instance: it is placed
        ``W`` times by transform, never re-routed.
        """
        macro = LayoutCell(
            f"easyacim_{spec.array_size}b_H{spec.height}"
            f"_L{spec.local_array_size}_B{spec.adc_bits}"
        )
        input_buffer = self.library.layout("input_buffer")
        output_buffer = self.library.layout("output_buffer")
        column_bbox = column.boundary or column.bounding_box()
        if column_bbox is None:
            raise FlowError("column layout is empty")
        buffer_column_width = input_buffer.width
        bottom_row_height = output_buffer.height

        # Input buffers: one per row, stacked on the left edge.
        boxes = [
            macro.add_instance(
                f"IBUF{row}", input_buffer,
                Transform(0, bottom_row_height + row * input_buffer.height),
            ).bounding_box()
            for row in range(spec.height)
        ]
        # Columns side by side to the right of the buffer column: the
        # solved column macro consumed as abutted instances (the positions
        # a RowTemplate over equal-width cells produces), with the
        # placer's overlap guard active.
        boxes += self.placer.place_macro_instances(macro, [
            MacroPlacement(
                f"COL{col}", column,
                Transform(
                    buffer_column_width + col * column_bbox.width,
                    bottom_row_height,
                ),
            )
            for col in range(spec.width)
        ]).values()
        # Output buffers under each column.
        boxes += [
            macro.add_instance(
                f"OBUF{col}", output_buffer,
                Transform(buffer_column_width + col * column_bbox.width, 0),
            ).bounding_box()
            for col in range(spec.width)
        ]
        bbox = Rect.bounding(box for box in boxes if box is not None)
        if bbox is None:
            raise FlowError("macro layout is empty")
        # Pre-defined tracks: power stripes and SAR control lines across the
        # full macro width (the paper's critical-net tracks).
        power_plan = power_track_plan(bbox, self.technology, layer="M5")
        tracks = power_plan.realize(macro)
        control_plan = sar_control_track_plan(
            bbox, self.technology, spec.adc_bits, layer="M3",
            start_y=bbox.y_lo + bottom_row_height // 2,
        )
        tracks += control_plan.realize(macro)
        macro.add_shape("PRBOUND", bbox)
        # The placed boxes and the track shapes are the macro's whole
        # content, so their union is its PR boundary.
        macro.boundary = Rect.bounding([bbox, *tracks])
        return macro

    # -- stage: export -----------------------------------------------------------------

    def _export_stage(self, report: LayoutGenerationReport, output_dir: str) -> None:
        with self._timed("export"):
            directory = Path(output_dir)
            directory.mkdir(parents=True, exist_ok=True)
            macro = report.layout
            gds_path = directory / f"{macro.name}.gds"
            def_path = directory / f"{macro.name}.def"
            write_gds(macro, gds_path, self.technology)
            write_def(macro, def_path)
            report.gds_path = str(gds_path)
            report.def_path = str(def_path)

    # -- helpers -----------------------------------------------------------------------

    @contextmanager
    def _timed(self, stage_name: str):
        """Count one run of a stage and its wall-clock, inside a
        ``physical.<stage>`` trace span."""
        self.metrics.counter(f"physical.stage.{stage_name}.runs").inc()
        start = time.perf_counter()
        with get_tracer().span(f"physical.{stage_name}"):
            try:
                yield
            finally:
                self.metrics.counter(
                    f"physical.stage.{stage_name}.seconds"
                ).add(time.perf_counter() - start)
