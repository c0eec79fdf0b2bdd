"""Flow-facing driver over the physical pipeline's netlist stage.

The hierarchical netlist construction (paper Figure 4, middle) lives in
:class:`repro.physical.netlist_builder.NetlistBuilder`; this module keeps
the historical :class:`TemplateNetlistGenerator` front door as a thin
driver for single-design call sites.  Generation runs through a
:class:`~repro.physical.pipeline.PhysicalPipeline` — a shared one, or a
private fresh one.  The netlist stage is not memoized: every call builds
a fresh netlist.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.arch.architecture import SynthesizableACIM
from repro.arch.spec import ACIMDesignSpec
from repro.cells.library import CellLibrary
from repro.netlist.circuit import Circuit
from repro.physical.pipeline import PhysicalPipeline


class TemplateNetlistGenerator:
    """Builds macro netlists from the cell library for given design specs.

    Args:
        library: the customized cell library (must provide every required
            leaf cell).
        pipeline: an externally owned :class:`PhysicalPipeline` to run on;
            when omitted, the generator builds a private fresh one.
    """

    def __init__(
        self,
        library: CellLibrary,
        pipeline: Optional[PhysicalPipeline] = None,
    ) -> None:
        self.pipeline = pipeline or PhysicalPipeline(library)
        self.library = self.pipeline.library

    # -- public API -----------------------------------------------------------------

    def generate(self, spec: ACIMDesignSpec) -> Circuit:
        """Generate the macro netlist for ``spec``."""
        return self.pipeline.run(
            spec, generate_netlist=True, generate_layout=False,
        ).netlist

    # -- statistics ----------------------------------------------------------------------

    def expected_instance_counts(self, spec: ACIMDesignSpec) -> Dict[str, int]:
        """Leaf-cell counts implied by the architecture (for verification)."""
        return SynthesizableACIM(spec).component_counts()
