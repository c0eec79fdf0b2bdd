"""The staged, reuse-aware physical-design pipeline.

The package turns the flat per-design generators into an explicit stage
graph (netlist -> placement -> routing -> layout -> export) over typed,
content-addressed artifacts:

* :class:`~repro.physical.pipeline.PhysicalPipeline` — runs the stage
  graph for a design spec and reports per-stage timing/cache statistics.
* :class:`~repro.physical.macro_library.MacroLibrary` — the library of
  solved macros (placed + routed sub-layouts), keyed by content address
  and instantiated by transform wherever they recur.
* :mod:`~repro.physical.artifacts` — stage keys, digests and statistics.
* :mod:`~repro.physical.templates` — parametric macro templates: the
  nearest-neighbour index and incremental-patch derivation that extend
  exact-match reuse to *neighbouring* configurations.
* :mod:`~repro.physical.serialize` — exact JSON round-trip of layout
  hierarchies (and their replayable route plans), which is what lets
  macros persist in the result store's ``artifacts`` table and
  warm-start later processes byte-identically.

See ``docs/physical.md`` for the architecture and the reuse knobs.
"""

from repro.physical.artifacts import (
    PIPELINE_STAGES,
    PipelineStats,
    StageStats,
    artifact_digest,
    canonical_artifact_key,
)
from repro.physical.macro_library import MACRO_STAGE, MacroLibrary, MacroRecord
from repro.physical.netlist_builder import NetlistBuilder
from repro.physical.pipeline import (
    LayoutGenerationReport,
    PhysicalPipeline,
    PipelineResult,
)
from repro.physical.serialize import (
    layout_from_dict,
    layout_to_dict,
    plans_from_dict,
    plans_to_dict,
)
from repro.physical.templates import (
    MacroTemplate,
    STRUCTURAL_PARAMS,
    TemplateIndex,
    edit_cost,
    family_digest,
    family_key,
    template_for,
    template_params,
)

__all__ = [
    "PIPELINE_STAGES",
    "PipelineStats",
    "StageStats",
    "artifact_digest",
    "canonical_artifact_key",
    "MACRO_STAGE",
    "MacroLibrary",
    "MacroRecord",
    "NetlistBuilder",
    "LayoutGenerationReport",
    "PhysicalPipeline",
    "PipelineResult",
    "layout_from_dict",
    "layout_to_dict",
    "plans_from_dict",
    "plans_to_dict",
    "MacroTemplate",
    "STRUCTURAL_PARAMS",
    "TemplateIndex",
    "edit_cost",
    "family_digest",
    "family_key",
    "template_for",
    "template_params",
]
