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
from typing import Dict, Mapping

from repro.names import PIPELINE_STAGES


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


@dataclass(frozen=True)
class StageStats:
    """Counters of one pipeline stage (a read-only view).

    Attributes:
        runs: times the stage executed (cache-served lookups run nothing).
        seconds: wall-clock spent inside the stage.
        cache_hits: macro lookups of the stage served from the in-memory
            or persistent cache.
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


@dataclass(frozen=True)
class PipelineStats:
    """Per-stage statistics of a :class:`PhysicalPipeline` (a read-only view).

    Built by :meth:`from_metrics` from the ``physical.*`` counters of a
    metrics-registry snapshot or scope, so a run, a flow and a request
    all read the one set of counters the pipeline records.
    """

    stages: Mapping[str, StageStats] = field(
        default_factory=lambda: {name: StageStats() for name in PIPELINE_STAGES}
    )
    macros_built: int = 0
    macros_reused: int = 0
    macros_derived: int = 0

    @classmethod
    def from_metrics(cls, values: Mapping[str, object]) -> "PipelineStats":
        """The view of a registry snapshot or scope."""
        def count(name: str) -> int:
            return int(values.get(name, 0))

        return cls(
            stages={
                name: StageStats(
                    runs=count(f"physical.stage.{name}.runs"),
                    seconds=float(values.get(f"physical.stage.{name}.seconds", 0)),
                    cache_hits=count(f"physical.stage.{name}.cache_hits"),
                    store_hits=count(f"physical.stage.{name}.store_hits"),
                )
                for name in PIPELINE_STAGES
            },
            macros_built=count("physical.macro.built"),
            macros_reused=(
                count("physical.macro.hit.memory")
                + count("physical.macro.hit.store")
            ),
            macros_derived=(
                count("physical.macro.derive.memory")
                + count("physical.macro.derive.store")
            ),
        )

    def stage(self, name: str) -> StageStats:
        """The counters of one stage (zeros for an unknown name)."""
        return self.stages.get(name, StageStats())

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
