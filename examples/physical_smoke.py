"""Physical-pipeline smoke test: two-design flow with macro reuse.

Exercises the reuse-aware physical pipeline end to end through the typed
session API (the CI ``make physical-smoke`` target):

1. run a tiny flow with a persistent store, exporting GDSII for two
   distilled designs;
2. assert at least one macro was served from the cache (designs of one
   distill set share sub-macros);
3. solve every exported design cold — one fresh
   :class:`~repro.physical.pipeline.PhysicalPipeline` per design, with
   nothing cached and no template to derive from — and assert the
   exported GDSII streams are byte-identical;
4. run the flow again through a *fresh* session on the same store
   (as a new process would) and assert it warm-starts from the
   persisted artifact cache.

Exit code 0 means the reuse path is both effective and exact.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.api import FlowRequest, Session, SessionConfig
from repro.arch.spec import ACIMDesignSpec
from repro.physical import PhysicalPipeline

ARRAY_SIZE = 256
POPULATION = 16
GENERATIONS = 6
SEED = 1


def flow_request(output_dir: str) -> FlowRequest:
    return FlowRequest(
        array_size=ARRAY_SIZE, population=POPULATION,
        generations=GENERATIONS, seed=SEED, max_layouts=2,
        route_columns=True, output_dir=output_dir,
    )


def gds_streams(directory: Path) -> dict:
    return {path.name: path.read_bytes()
            for path in sorted(directory.glob("*.gds"))}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="easyacim-physical-") as tmp:
        tmp_path = Path(tmp)
        store_path = str(tmp_path / "store.sqlite")

        # 1. Flow with a persistent store.
        with Session.from_config(SessionConfig(store=store_path)) as session:
            reused = session.flow(flow_request(str(tmp_path / "on")))
            library = session.library
        stats = reused.payload["physical_stats"]
        print(f"flow     : {stats['macros_built']} macros built, "
              f"{stats['macros_reused']} reused")
        # 2. Designs of one distill set must share at least one macro.
        assert stats["macros_reused"] >= 1, "expected >= 1 macro cache hit"

        # 3. Cold reference: a fresh pipeline per design, byte-identical.
        for key in reused.payload["layouts"]:
            spec = ACIMDesignSpec(*json.loads(key))
            cold = PhysicalPipeline(library).run(
                spec, route_columns=True,
                output_dir=str(tmp_path / "cold"),
            )
            assert cold.stats.macros_built == 3 and not (
                cold.stats.macros_reused or cold.stats.macros_derived
            ), "a fresh pipeline must solve every macro cold"
        on_streams = gds_streams(tmp_path / "on")
        cold_streams = gds_streams(tmp_path / "cold")
        assert on_streams, "flow exported no GDSII"
        assert set(on_streams) == set(cold_streams), \
            "flow and cold reference exported different design sets"
        for name in on_streams:
            assert on_streams[name] == cold_streams[name], \
                f"{name}: flow GDSII differs from the cold reference"
        print(f"byte-identity: {len(on_streams)} GDSII streams identical "
              "(flow vs fresh pipeline per design)")

        # 4. A fresh session on the same store warm-starts from artifacts.
        with Session.from_config(SessionConfig(store=store_path)) as session:
            warm = session.flow(flow_request(str(tmp_path / "warm")))
        warm_stats = warm.payload["physical_stats"]
        assert warm_stats["macros_built"] == 0, \
            "warm session should build nothing"
        store_hits = sum(
            stage["store_hits"]
            for stage in warm_stats["stages"].values()
        )
        assert store_hits >= 1, "expected store-served macro artifacts"
        print(f"warm start: {warm_stats['macros_reused']} macros reused, "
              f"{store_hits} store hits, 0 built")

        assert gds_streams(tmp_path / "warm") == on_streams
    print("physical smoke OK: reuse effective, geometry exact, "
          "artifacts durable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
