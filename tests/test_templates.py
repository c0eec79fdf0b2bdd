"""Tests of parametric macro templates: the edit-cost metric and index,
route-plan serialization, the lookup ladder's per-rung accounting, the
store's ``template_index`` table (schema v2), and — the exactness
contract — byte-identical GDSII between template-derived and cold solves."""

import json
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arch.spec import ACIMDesignSpec
from repro.errors import StoreError
from repro.layout.drc import check_own_level_shorts
from repro.layout.gdsii import write_gds
from repro.layout.grid import GridNode
from repro.obs import MetricsRegistry, configure_tracing, get_tracer
from repro.physical import (
    MACRO_STAGE,
    PhysicalPipeline,
    plans_from_dict,
    plans_to_dict,
    edit_cost,
    family_digest,
    family_key,
    template_params,
)
from repro.physical.templates import SAR_SWAP_COST, TemplateIndex, template_for
from repro.routing.hier_router import CellRoutePlans
from repro.routing.router import NetPlan, RouteStep
from repro.store.result_store import SCHEMA_VERSION, ResultStore

#: BASE solves cold; H_NEIGHBOR derives the column by row growth,
#: B_NEIGHBOR by SAR-stack swap, L_NEIGHBOR the local array by row count.
BASE = ACIMDesignSpec(16, 4, 4, 2)
H_NEIGHBOR = ACIMDesignSpec(32, 4, 4, 2)
B_NEIGHBOR = ACIMDesignSpec(16, 4, 4, 1)
L_NEIGHBOR = ACIMDesignSpec(16, 4, 2, 2)


def _gds_bytes(cell, technology, tmp_path, tag):
    path = tmp_path / f"{tag}.gds"
    write_gds(cell, path, technology)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# The template math: parameter extraction, families, edit cost
# ---------------------------------------------------------------------------


class TestTemplateMath:
    def test_structural_params_extracted_per_kind(self):
        key = {"H": 64, "L": 4, "B": 3, "route": True, "pitch": 200}
        assert template_params("column", key) == {"H": 64, "B": 3}
        assert template_params("local_array", {"L": 4, "pitch": 200}) == {"L": 4}
        assert template_params("acim_macro", key) is None
        assert template_params("column", {"H": 64}) is None  # incomplete
        assert template_params("column", ["not", "a", "mapping"]) is None

    def test_family_is_the_non_structural_remainder(self):
        key = {"H": 64, "L": 4, "B": 3, "route": True}
        assert family_key("column", key) == {"L": 4, "route": True}
        digest_a = family_digest("column", "fp", family_key("column", key))
        same = {"H": 128, "L": 4, "B": 2, "route": True}
        digest_b = family_digest("column", "fp", family_key("column", same))
        assert digest_a == digest_b  # H/B changes stay in-family
        other = family_digest("column", "fp", {"L": 8, "route": True})
        assert other != digest_a

    def test_edit_cost_counts_rows_and_sar_swaps(self):
        assert edit_cost("local_array", {"L": 4}, {"L": 6}) == 2
        family = {"L": 4}
        assert edit_cost("column", {"H": 64, "B": 3}, {"H": 96, "B": 3},
                         family) == 8
        assert edit_cost("column", {"H": 64, "B": 3}, {"H": 64, "B": 4},
                         family) == SAR_SWAP_COST
        assert edit_cost("column", {"H": 64, "B": 3}, {"H": 96, "B": 4},
                         family) == 8 + SAR_SWAP_COST
        with pytest.raises(KeyError):
            edit_cost("acim_macro", {}, {})

    def test_nearest_ranks_by_cost_then_digest(self, cell_library):
        pipeline = PhysicalPipeline(cell_library)
        pipeline.run(BASE, route_columns=True)
        pipeline.run(H_NEIGHBOR, route_columns=True)
        index = pipeline.macro_library.templates
        assert len(index) >= 3  # two columns + at least one local array
        templates = [t for t in index.templates() if t.kind == "column"]
        family = templates[0].family_digest
        # Equidistant query (H=24 between 16 and 32): the tie must break
        # on digest, identically in any process.
        nearest = index.nearest("column", family, {"H": 24, "B": 2})
        assert nearest.digest == min(t.digest for t in templates)
        # A closer H wins outright.
        assert index.nearest(
            "column", family, {"H": 30, "B": 2}).params["H"] == 32
        assert index.nearest("column", "unknown-family", {"H": 16, "B": 2}) \
            is None

    def test_records_without_plans_are_not_templatable(self, cell_library):
        pipeline = PhysicalPipeline(cell_library)
        record = pipeline.run(BASE, route_columns=True)
        library = pipeline.macro_library
        solved = next(r for r in library.macros() if r.kind == "column")
        import dataclasses
        stripped = dataclasses.replace(solved, route_plans=None)
        assert template_for(
            "column", {"H": 16, "L": 4, "B": 2}, "fp", stripped) is None


# ---------------------------------------------------------------------------
# Route-plan serialization (the store leg of the template index)
# ---------------------------------------------------------------------------


class TestPlanSerialization:
    def _plans(self):
        return CellRoutePlans(
            origin=(-200, -400),
            pitch=200,
            nets={
                "RBL": NetPlan(
                    root=GridNode(0, 0, 1),
                    steps=(
                        RouteStep(target=GridNode(0, 3, 1),
                                  path=(GridNode(0, 0, 1), GridNode(0, 1, 1),
                                        GridNode(0, 2, 1), GridNode(0, 3, 1))),
                        RouteStep(target=GridNode(0, 2, 1)),  # already in tree
                    ),
                ),
                "LBL0": NetPlan(root=GridNode(2, 0, 1)),
            },
        )

    def test_json_round_trip_is_exact(self):
        plans = self._plans()
        document = json.loads(json.dumps(plans_to_dict(plans)))
        restored = plans_from_dict(document)
        assert restored == plans

    def test_absent_and_unsupported_payloads_return_none(self):
        assert plans_from_dict(None) is None
        assert plans_from_dict({"format": 999, "nets": {}}) is None

    def test_macro_payload_round_trips_plans_through_store(
        self, cell_library, tmp_path
    ):
        with ResultStore(tmp_path / "store.sqlite") as store:
            warm = PhysicalPipeline(cell_library, store=store)
            warm.run(BASE, route_columns=True)
            original = next(r for r in warm.macro_library.macros()
                            if r.kind == "column")
            cold = PhysicalPipeline(cell_library, store=store)
            hydrated = cold.macro_library._load("column", original.digest)
            assert hydrated is not None
            assert hydrated.route_plans == original.route_plans


# ---------------------------------------------------------------------------
# Exactness: derived macros are byte-identical to cold solves
# ---------------------------------------------------------------------------


class TestDerivedByteIdentity:
    @pytest.mark.parametrize("neighbor", [H_NEIGHBOR, B_NEIGHBOR, L_NEIGHBOR],
                             ids=["h-change", "b-change", "l-change"])
    def test_derived_solve_matches_cold_gds(
        self, cell_library, technology, tmp_path, neighbor
    ):
        warm = PhysicalPipeline(cell_library)
        warm.run(BASE, route_columns=True)
        derived = warm.run(neighbor, route_columns=True)
        assert derived.stats.macros_derived >= 1
        # The cold reference: a fresh pipeline has no template to derive
        # from, so it solves every macro of the neighbour from scratch.
        cold = PhysicalPipeline(cell_library)
        reference = cold.run(neighbor, route_columns=True)
        assert reference.stats.macros_built == 3
        assert reference.stats.macros_derived == 0
        assert _gds_bytes(derived.report.layout, technology, tmp_path, "d") \
            == _gds_bytes(reference.report.layout, technology, tmp_path, "c")

    def test_derived_record_is_marked_and_clean(self, cell_library):
        pipeline = PhysicalPipeline(cell_library)
        pipeline.run(BASE, route_columns=True)
        pipeline.run(H_NEIGHBOR, route_columns=True)
        derived = [r for r in pipeline.macro_library.macros()
                   if r.source == "derived"]
        assert derived
        for record in derived:
            assert not check_own_level_shorts(
                pipeline.technology, record.layout)

    def test_short_check_catches_planted_violation(
        self, cell_library, technology
    ):
        pipeline = PhysicalPipeline(cell_library)
        cell = pipeline.run(BASE, route_columns=True).report.layout
        assert check_own_level_shorts(technology, cell) == []
        # Plant two overlapping same-layer shapes on different nets.
        metal = next(l.name for l in technology.layers if l.min_spacing > 0)
        from repro.layout.geometry import Rect
        cell.add_shape(metal, Rect(0, 0, 400, 400), net="NET_A")
        cell.add_shape(metal, Rect(200, 200, 600, 600), net="NET_B")
        violations = check_own_level_shorts(technology, cell)
        assert violations and all(v.rule == "min_spacing" for v in violations)


# ---------------------------------------------------------------------------
# The lookup ladder: per-rung counters and trace spans
# ---------------------------------------------------------------------------


class TestLookupLadder:
    def test_rung_counters_across_memory_and_store(
        self, cell_library, tmp_path
    ):
        metrics = MetricsRegistry()
        with ResultStore(tmp_path / "store.sqlite") as store:
            pipeline = PhysicalPipeline(
                cell_library, store=store, metrics=metrics)
            pipeline.run(BASE, route_columns=True)
            snapshot = metrics.snapshot()
            assert snapshot["physical.macro.built"] == 3
            # Exact repeat: memory hit.
            pipeline.run(BASE, route_columns=True)
            assert metrics.snapshot()["physical.macro.hit.memory"] == 1
            # Neighbouring config: the column derives from the in-memory
            # template (top macro re-solves: its key embeds W/H).
            result = pipeline.run(H_NEIGHBOR, route_columns=True)
            assert result.stats.macros_derived == 1
            assert metrics.snapshot()["physical.macro.derive.memory"] == 1
            assert metrics.value("physical.macro.derive.store") == 0

            # A cold process on the same store: exact artifacts hit the
            # store rung; a *new* neighbour hydrates the nearest template
            # from the template_index table and patches from it.
            fresh_metrics = MetricsRegistry()
            fresh = PhysicalPipeline(
                cell_library, store=store, metrics=fresh_metrics)
            fresh.run(B_NEIGHBOR, route_columns=True)
            fresh_snapshot = fresh_metrics.snapshot()
            assert fresh_snapshot["physical.macro.derive.store"] >= 1

            exact = MetricsRegistry()
            replayer = PhysicalPipeline(
                cell_library, store=store, metrics=exact)
            replayer.run(BASE, route_columns=True)
            # The top acim_macro is an exact store hit, which
            # short-circuits its sub-macro requests entirely.
            assert exact.snapshot()["physical.macro.hit.store"] == 1

    def test_derive_emits_template_derive_span(self, cell_library):
        configure_tracing(enabled=True)
        try:
            pipeline = PhysicalPipeline(cell_library)
            pipeline.run(BASE, route_columns=True)
            pipeline.run(H_NEIGHBOR, route_columns=True)
            spans = [s for s in get_tracer().finished_spans()
                     if s.name == "physical.template_derive"]
            assert spans
            assert spans[0].attrs["kind"] == "column"
            assert spans[0].attrs["replayed"] >= 1
        finally:
            configure_tracing(enabled=False)

    def test_derived_macros_route_stages_actually_ran(self, cell_library):
        pipeline = PhysicalPipeline(cell_library)
        pipeline.run(BASE, route_columns=True)
        result = pipeline.run(H_NEIGHBOR, route_columns=True)
        # A derive is not a cache hit: placement/routing ran for the
        # patched macro, so stage cache_hits only reflect the true reuse.
        assert result.stats.stage("routing").runs >= 1
        assert result.stats.macros_reused == 1  # the shared local array


# ---------------------------------------------------------------------------
# Store schema v2: template_index, ordering bugfix, migration
# ---------------------------------------------------------------------------


class TestStoreTemplateIndex:
    def test_put_is_first_write_wins(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            assert store.put_template_entry(
                "column", "fam", {"H": 16, "B": 2}, "d" * 64) == 1
            assert store.put_template_entry(
                "column", "fam", {"H": 16, "B": 2}, "e" * 64) == 0
            entries = store.list_template_entries()
            assert len(entries) == 1
            assert entries[0]["artifact_digest"] == "d" * 64
            assert entries[0]["params"] == {"H": 16, "B": 2}
            assert store.template_entry_count() == 1
            assert store.stats()["templates"] == 1

    def test_listing_filters_by_kind_and_family(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put_template_entry("column", "f1", {"H": 16, "B": 2}, "a" * 64)
            store.put_template_entry("column", "f2", {"H": 32, "B": 2}, "b" * 64)
            store.put_template_entry("local_array", "f3", {"L": 4}, "c" * 64)
            assert len(store.list_template_entries(kind="column")) == 2
            assert len(store.list_template_entries(family_digest="f3")) == 1

    def test_list_artifacts_insertion_order_with_stage_filter(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            # Digest order deliberately disagrees with insertion order;
            # same-second created_at timestamps used to fall back to it.
            for digest in ("b" * 64, "a" * 64, "c" * 64):
                store.put_artifact(digest, "macro", ["k", digest[:1]],
                                   payload={})
            store.put_artifact("d" * 64, "layout", ["k", "d"], payload={})
            digests = [row["digest"]
                       for row in store.list_artifacts(stage="macro")]
            assert digests == ["b" * 64, "a" * 64, "c" * 64]
            assert all("created_at" in row
                       for row in store.list_artifacts())

    def test_v1_file_migrates_in_place(self, tmp_path):
        path = tmp_path / "v1.sqlite"
        with ResultStore(path) as store:
            store.put_artifact("a" * 64, "macro", ["k"], payload={})
        # Rewind the file to schema v1: drop every v2 object, re-stamp.
        conn = sqlite3.connect(path)
        conn.executescript(
            "DROP TABLE template_index;"
            "DROP INDEX idx_artifacts_stage_created;"
            "UPDATE store_meta SET value = '1' "
            "WHERE key = 'schema_version';"
        )
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            assert store.artifact_count("macro") == 1  # data survived
            assert store.put_template_entry(
                "column", "fam", {"H": 16, "B": 2}, "a" * 64) == 1
        conn = sqlite3.connect(path)
        stamped = conn.execute(
            "SELECT value FROM store_meta WHERE key = 'schema_version'"
        ).fetchone()[0]
        conn.close()
        assert int(stamped) == SCHEMA_VERSION

    def test_unknown_schema_version_still_refused(self, tmp_path):
        path = tmp_path / "future.sqlite"
        with ResultStore(path):
            pass
        conn = sqlite3.connect(path)
        conn.execute("UPDATE store_meta SET value = '999' "
                     "WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError):
            ResultStore(path)


class TestConcurrentTemplateWriters:
    def test_two_processes_solve_the_same_macros(self, tmp_path):
        path = tmp_path / "store.sqlite"
        script = (
            "import sys\n"
            "from repro.arch.spec import ACIMDesignSpec\n"
            "from repro.cells.library import default_cell_library\n"
            "from repro.physical import PhysicalPipeline\n"
            "from repro.store.result_store import ResultStore\n"
            "from repro.technology.tech import generic28\n"
            "library = default_cell_library(generic28())\n"
            "with ResultStore(sys.argv[1]) as store:\n"
            "    pipeline = PhysicalPipeline(library, store=store)\n"
            "    pipeline.run(ACIMDesignSpec(16, 4, 4, 2),"
            " route_columns=True)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path)],
                env=env, stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        for worker in workers:
            _stdout, stderr = worker.communicate(timeout=120)
            assert worker.returncode == 0, stderr.decode()
        with ResultStore(path) as store:
            # Both processes solved the same three macros and registered
            # the same two templatable ones; first write won everywhere.
            assert store.artifact_count(MACRO_STAGE) == 3
            assert store.template_entry_count() == 2
            digests = [row["artifact_digest"]
                       for row in store.list_template_entries()]
            assert len(digests) == len(set(digests))
