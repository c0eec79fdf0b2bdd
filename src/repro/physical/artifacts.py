"""Content addressing and statistics of physical-pipeline artifacts.

Every product of a pipeline stage — a solved macro, a generated netlist,
a finished top-level layout — is identified by the SHA-256 digest of a
canonical JSON document naming the *function application* that produced
it: the stage, the sub-spec parameters, the technology/library
fingerprint and the stage parameters (routing pitch, layers, margins,
format versions).  Two runs that would produce identical geometry
therefore compute identical digests, which is what lets the pipeline
serve the second run from the cache — in memory within a process, and
through the result store's ``artifacts`` table across processes and
campaigns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict

#: Stage names of the physical pipeline, in execution order.
PIPELINE_STAGES = ("netlist", "placement", "routing", "layout", "export")


def canonical_artifact_key(stage: str, key) -> str:
    """Canonical JSON text of one artifact identity.

    ``key`` may be any JSON-serializable structure (tuples become lists);
    sorting object keys makes the text independent of construction order.
    """
    return json.dumps([stage, key], separators=(",", ":"), sort_keys=True)


def artifact_digest(stage: str, key) -> str:
    """Content address of one stage artifact: SHA-256 of the canonical key."""
    return hashlib.sha256(
        canonical_artifact_key(stage, key).encode("utf-8")
    ).hexdigest()


@dataclass
class StageStats:
    """Counters of one pipeline stage.

    Attributes:
        runs: times the stage executed (including cache-served runs).
        seconds: wall-clock spent inside the stage.
        cache_hits: runs served from the in-memory or persistent cache.
        store_hits: the subset of ``cache_hits`` served by the result store.
    """

    runs: int = 0
    seconds: float = 0.0
    cache_hits: int = 0
    store_hits: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "runs": self.runs,
            "seconds": round(self.seconds, 6),
            "cache_hits": self.cache_hits,
            "store_hits": self.store_hits,
        }


@dataclass
class PipelineStats:
    """Accumulated per-stage statistics of a :class:`PhysicalPipeline`.

    Mirrors the engine's ``EngineStats`` discipline: long-lived pipelines
    accumulate forever and callers take :meth:`snapshot` / :meth:`since`
    deltas per run.
    """

    stages: Dict[str, StageStats] = field(
        default_factory=lambda: {name: StageStats() for name in PIPELINE_STAGES}
    )
    macros_built: int = 0
    macros_reused: int = 0
    macros_derived: int = 0

    def stage(self, name: str) -> StageStats:
        """The (auto-created) counters of one stage."""
        if name not in self.stages:
            self.stages[name] = StageStats()
        return self.stages[name]

    def snapshot(self) -> "PipelineStats":
        """An immutable copy to diff against later with :meth:`since`."""
        return PipelineStats(
            stages={
                name: StageStats(s.runs, s.seconds, s.cache_hits, s.store_hits)
                for name, s in self.stages.items()
            },
            macros_built=self.macros_built,
            macros_reused=self.macros_reused,
            macros_derived=self.macros_derived,
        )

    def since(self, baseline: "PipelineStats") -> "PipelineStats":
        """The delta accumulated after ``baseline`` was snapshotted."""
        delta = PipelineStats(
            stages={}, macros_built=self.macros_built - baseline.macros_built,
            macros_reused=self.macros_reused - baseline.macros_reused,
            macros_derived=self.macros_derived - baseline.macros_derived,
        )
        for name, current in self.stages.items():
            base = baseline.stages.get(name, StageStats())
            delta.stages[name] = StageStats(
                runs=current.runs - base.runs,
                seconds=current.seconds - base.seconds,
                cache_hits=current.cache_hits - base.cache_hits,
                store_hits=current.store_hits - base.store_hits,
            )
        return delta

    def as_dict(self) -> dict:
        """Serializable record (the ``physical_stats`` payload section)."""
        return {
            "stages": {
                name: self.stages[name].as_dict()
                for name in self.stages
            },
            "macros_built": self.macros_built,
            "macros_reused": self.macros_reused,
            "macros_derived": self.macros_derived,
        }

    @property
    def cache_hits(self) -> int:
        """Total cache-served stage runs across all stages."""
        return sum(stage.cache_hits for stage in self.stages.values())

