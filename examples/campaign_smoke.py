"""Campaign smoke test: tiny campaign -> kill -> resume -> query.

Exercises the persistent-store durability path end to end through the
typed session API (the CI ``make campaign-smoke`` target):

1. start a small named campaign and stop it after two generations — the
   programmatic equivalent of ``kill -9`` between checkpoint commits;
2. resume it from the SQLite store (through a fresh session, as a new
   process would) and run it to completion;
3. assert the resumed Pareto front is bit-identical to an uninterrupted
   exploration with the same configuration;
4. run a second, overlapping campaign and assert the store holds each
   distinct evaluated design exactly once (no duplicate ``key_digest``)
   — every evaluation is written through, and overlap adds no rows;
5. query the store across both campaigns.

Exit code 0 means every durability guarantee held.
"""

from __future__ import annotations

import sqlite3
import sys
import tempfile
from pathlib import Path

from repro.api import (
    CampaignRequest,
    ExploreRequest,
    QueryRequest,
    Session,
    SessionConfig,
)
from repro.flow.report import format_table

ARRAY_SIZE = 1024
POPULATION = 16
GENERATIONS = 6
SEED = 3


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="easyacim-smoke-") as tmp:
        store_path = str(Path(tmp) / "store.sqlite")
        config = SessionConfig(store=store_path)

        # 1. Start, then "kill" after two generations.
        with Session.from_config(config) as session:
            interrupted = session.campaign(CampaignRequest(
                name="smoke", array_size=ARRAY_SIZE, population=POPULATION,
                generations=GENERATIONS, seed=SEED, stop_after=2,
            ))
            assert interrupted.status == "interrupted", interrupted.status
            checkpoints = session.store.checkpoint_count("smoke")
            print(f"interrupted at generation "
                  f"{interrupted.payload['generations_done']}/{GENERATIONS} "
                  f"({checkpoints} checkpoints committed)")

        # 2. Resume from the store file alone (a fresh session, as a new
        #    process would) and run to completion.
        with Session.from_config(config) as session:
            resumed = session.campaign(
                CampaignRequest(name="smoke", action="resume"))
            assert resumed.status == "ok", resumed.status
            print(f"resumed to completion: {len(resumed.payload['pareto'])} "
                  f"Pareto solutions, {resumed.payload['evaluations']} "
                  f"evaluations")

            # 3. Bit-identity against an uninterrupted exploration (same
            #    seed, store-less session so nothing is served stale).
            with Session.from_config(SessionConfig()) as reference_session:
                reference = reference_session.explore(ExploreRequest(
                    array_size=ARRAY_SIZE, population=POPULATION,
                    generations=GENERATIONS, seed=SEED,
                ))
            if resumed.payload["pareto"] != reference.payload["pareto"]:
                print("FAIL: resumed Pareto front differs from the "
                      "uninterrupted run")
                return 1
            print("kill -> resume Pareto front is bit-identical to the "
                  "uninterrupted run")

        # 4. Overlapping second campaign: each design stored once.
        with Session.from_config(config) as session:
            second = session.campaign(CampaignRequest(
                name="smoke-overlap", array_size=ARRAY_SIZE,
                population=POPULATION, generations=3, seed=9,
            ))
            conn = sqlite3.connect(store_path)
            rows, digests = conn.execute(
                "SELECT COUNT(*), COUNT(DISTINCT key_digest) FROM evaluations"
            ).fetchone()
            designs, = conn.execute(
                "SELECT COUNT(*) FROM (SELECT DISTINCT height, width, local, "
                "adc_bits, params_digest, technology FROM evaluations)"
            ).fetchone()
            conn.close()
            computed = second.engine_stats["evaluations"]
            if not rows == digests == designs >= computed > 0:
                print(f"FAIL: store holds {rows} rows, {digests} distinct "
                      f"digests and {designs} distinct designs; the "
                      f"overlapping campaign computed {computed}")
                return 1
            print(f"store holds each of its {designs} evaluated designs "
                  f"exactly once ({computed} computed by the overlapping "
                  f"campaign)")

            # 5. Cross-campaign query.
            query = session.query(QueryRequest(
                min_snr_db=0.0, rank_by="tops_per_watt", limit=5,
            ))
            print()
            print(f"store holds {query.payload['count']} ranked points "
                  f"across {len(session.store.list_campaigns())} campaigns:")
            print(format_table(query.payload["designs"]))
        print("\ncampaign smoke: OK")
        return 0


if __name__ == "__main__":
    sys.exit(main())
