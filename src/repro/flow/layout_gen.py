"""Flow-facing driver over the physical pipeline's layout stages.

The template-based hierarchical generation strategy (paper section 3.3,
Figure 7) lives in :class:`repro.physical.pipeline.PhysicalPipeline`;
this module keeps the historical :class:`LayoutGenerator` front door as a
thin driver so single-design call sites (tests, benchmarks, the layout
request) keep working unchanged.  A generator built without a shared
pipeline runs on a private fresh one: its first design is solved from
scratch, and later designs reuse the macros it solved.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.spec import ACIMDesignSpec
from repro.cells.dimensions import CellFootprints
from repro.cells.library import CellLibrary
from repro.physical.pipeline import LayoutGenerationReport, PhysicalPipeline

__all__ = ["LayoutGenerationReport", "LayoutGenerator"]


class LayoutGenerator:
    """Generates macro layouts for design specs using the cell library.

    Args:
        library: the customized cell library.
        footprints: cell footprints (defaults to the calibrated area model).
        routing_pitch: routing-grid pitch in dbu.
        pipeline: an externally owned :class:`PhysicalPipeline` to run on
            (the session layer shares its macro cache this way); when
            omitted, the generator builds a private fresh one.
    """

    def __init__(
        self,
        library: CellLibrary,
        footprints: Optional[CellFootprints] = None,
        routing_pitch: int = 200,
        pipeline: Optional[PhysicalPipeline] = None,
    ) -> None:
        self.pipeline = pipeline or PhysicalPipeline(
            library, footprints=footprints, routing_pitch=routing_pitch,
        )
        self.library = self.pipeline.library
        self.technology = self.pipeline.technology
        self.footprints = self.pipeline.footprints
        self.routing_pitch = self.pipeline.routing_pitch
        self.placer = self.pipeline.placer
        self.router = self.pipeline.router

    # -- public API --------------------------------------------------------------------

    def generate(
        self,
        spec: ACIMDesignSpec,
        output_dir: Optional[str] = None,
        route_column: bool = True,
        export: bool = False,
    ) -> LayoutGenerationReport:
        """Generate the macro layout for ``spec``.

        Args:
            spec: the design point (validated against Equation 12).
            output_dir: directory for GDS/DEF exports.
            route_column: route the local-array and column interconnects with
                the maze router (disable for very fast floorplan-only runs).
            export: write GDSII and DEF files when True.
        """
        result = self.pipeline.run(
            spec,
            generate_netlist=False,
            generate_layout=True,
            route_columns=route_column,
            export=export,
            output_dir=output_dir,
        )
        return result.report
