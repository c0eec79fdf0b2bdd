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
4. read every exported GDSII stream back and assert its top structure
   references the same (child, dx, dy, orientation) multiset as the
   in-memory macro, and that the DEF lists as many components — also
   for the benchmark flow's widest macro (H16/W1024, 2,064 references);
5. run the flow again through a *fresh* session on the same store
   (as a new process would) and assert it warm-starts from the
   persisted artifact cache.

Exit code 0 means the reuse path is both effective and exact.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

from repro.api import FlowRequest, Session, SessionConfig
from repro.arch.spec import ACIMDesignSpec
from repro.layout.gdsii import read_gds
from repro.physical import PhysicalPipeline

ARRAY_SIZE = 256
POPULATION = 16
GENERATIONS = 6
SEED = 1
#: The widest macro of the benchmark's distilled flow.
WIDE_SPEC = ACIMDesignSpec(16, 1024, 2, 3)


def flow_request(output_dir: str) -> FlowRequest:
    return FlowRequest(
        array_size=ARRAY_SIZE, population=POPULATION,
        generations=GENERATIONS, seed=SEED, max_layouts=2,
        route_columns=True, output_dir=output_dir,
    )


def gds_streams(directory: Path) -> dict:
    return {path.name: path.read_bytes()
            for path in sorted(directory.glob("*.gds"))}


def references(cell) -> Counter:
    """The (child, dx, dy, orientation) multiset of a cell's instances."""
    return Counter(
        (inst.cell.name, inst.transform.dx, inst.transform.dy,
         inst.transform.orientation)
        for inst in cell.instances
    )


def check_round_trip(macro, directory: Path, technology) -> int:
    """Read ``macro``'s exported GDSII/DEF back and compare with memory."""
    cells = read_gds(directory / f"{macro.name}.gds", technology)
    assert references(cells[macro.name]) == references(macro), \
        f"{macro.name}: GDSII references differ from the in-memory macro"
    text = (directory / f"{macro.name}.def").read_text()
    declared = int(re.search(r"^COMPONENTS (\d+) ;$", text, re.M).group(1))
    listed = sum(1 for line in text.splitlines() if line.startswith("- "))
    assert declared == listed == macro.instance_count(), \
        f"{macro.name}: DEF components differ from the in-memory macro"
    return macro.instance_count()


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
        cold_macros = []
        for key in reused.payload["layouts"]:
            spec = ACIMDesignSpec(*json.loads(key))
            cold = PhysicalPipeline(library).run(
                spec, route_columns=True,
                output_dir=str(tmp_path / "cold"),
            )
            assert cold.stats.macros_built == 3 and not (
                cold.stats.macros_reused or cold.stats.macros_derived
            ), "a fresh pipeline must solve every macro cold"
            cold_macros.append(cold.report.layout)
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

        # 4. The exported streams read back to the in-memory macros.
        wide = PhysicalPipeline(library).run(
            WIDE_SPEC, route_columns=True, output_dir=str(tmp_path / "wide"),
        ).report.layout
        counts = [check_round_trip(macro, tmp_path / "on", library.technology)
                  for macro in cold_macros]
        counts.append(
            check_round_trip(wide, tmp_path / "wide", library.technology)
        )
        print(f"round trip: GDSII references and DEF components match "
              f"memory for {len(counts)} macros ({max(counts)} instances "
              "in the widest)")

        # 5. A fresh session on the same store warm-starts from artifacts.
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
