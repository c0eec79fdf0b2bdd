"""Tests of resumable campaigns: checkpointing, kill/resume bit-identity,
write-through into the persistent store, flow recording and the CLI."""

import json
import sqlite3

import pytest

from repro.cli import main
from repro.dse.distill import DistillationCriteria
from repro.dse.explorer import _ExplorerCore
from repro.dse.nsga2 import NSGA2, NSGA2Config
from repro.dse.problem import ACIMDesignProblem
from repro.engine import EvaluationEngine, reset_shared_cache
from repro.errors import OptimizationError, StoreError
from repro.flow.controller import FlowInputs, _FlowCore
from repro.model.estimator import ACIMEstimator, ModelParameters
from repro.store import ResultStore, key_digest
from repro.store.campaign import _CampaignManagerCore

#: Small-but-real exploration: a few generations over the 1 kb space.
CONFIG = NSGA2Config(population_size=16, generations=6, seed=3)

ARRAY_SIZE = 1024


def _pareto_signature(designs):
    return [(design.spec.as_tuple(), design.objectives) for design in designs]


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "store.sqlite") as store:
        yield store


@pytest.fixture(scope="module")
def reference_pareto():
    """The uninterrupted exploration every resume variant must reproduce."""
    result = _ExplorerCore(config=CONFIG).explore(ARRAY_SIZE)
    return _pareto_signature(result.pareto_set)


class TestStepwiseNSGA2:
    def test_run_equals_manual_stepping(self):
        monolithic = NSGA2(ACIMDesignProblem(ARRAY_SIZE), CONFIG).run()
        stepped = NSGA2(ACIMDesignProblem(ARRAY_SIZE), CONFIG)
        stepped.initialize()
        while not stepped.done:
            stepped.step()
        assert _population_signature(monolithic) == _population_signature(
            stepped.result()
        )

    def test_state_round_trips_through_json(self):
        optimizer = NSGA2(ACIMDesignProblem(ARRAY_SIZE), CONFIG)
        optimizer.initialize()
        optimizer.step()
        snapshot = json.loads(json.dumps(optimizer.state()))
        restored = NSGA2(ACIMDesignProblem(ARRAY_SIZE), CONFIG)
        restored.restore_state(snapshot)
        while not optimizer.done:
            optimizer.step()
        while not restored.done:
            restored.step()
        assert _population_signature(optimizer.result()) == (
            _population_signature(restored.result())
        )

    def test_step_before_initialize_rejected(self):
        optimizer = NSGA2(ACIMDesignProblem(ARRAY_SIZE), CONFIG)
        with pytest.raises(OptimizationError):
            optimizer.step()
        with pytest.raises(OptimizationError):
            optimizer.state()

    def test_corrupt_state_rejected(self):
        optimizer = NSGA2(ACIMDesignProblem(ARRAY_SIZE), CONFIG)
        with pytest.raises(OptimizationError):
            optimizer.restore_state({"generation": 1})


def _population_signature(population):
    return sorted(
        (individual.genome, individual.objectives, individual.violation)
        for individual in population
    )


class TestCampaignResume:
    def test_interrupted_resume_is_bit_identical(self, store, reference_pareto):
        manager = _CampaignManagerCore(store)
        first = manager.run(
            "camp", ARRAY_SIZE, config=CONFIG, stop_after_generations=2
        )
        assert first.status == "interrupted"
        assert first.generations_done == 2
        assert store.get_campaign("camp").status == "interrupted"
        second = manager.resume("camp")
        assert second.status == "completed"
        assert second.resumed
        assert _pareto_signature(second.pareto_set) == reference_pareto
        # The recorded Pareto set reads back identically.
        stored = store.load_pareto("camp")
        assert [
            (e.spec.as_tuple(), e.metrics.objectives()) for e in stored
        ] == reference_pareto

    def test_kill_mid_generation_resumes_identically(
        self, store, reference_pareto, monkeypatch
    ):
        # A cold shared cache so the estimator actually runs (the kill is
        # injected into its batch evaluation path).
        reset_shared_cache()
        manager = _CampaignManagerCore(store)
        calls = {"count": 0}
        original = ACIMEstimator.evaluate_batch

        def dying_evaluate_batch(self, specs):
            calls["count"] += 1
            if calls["count"] == 4:  # partway through a later generation
                raise KeyboardInterrupt("simulated kill -9")
            return original(self, specs)

        monkeypatch.setattr(
            ACIMEstimator, "evaluate_batch", dying_evaluate_batch
        )
        with pytest.raises(KeyboardInterrupt):
            manager.run("killed", ARRAY_SIZE, config=CONFIG)
        monkeypatch.setattr(ACIMEstimator, "evaluate_batch", original)
        # The partial generation was never committed; resume replays from
        # the last durable checkpoint and lands on the identical front.
        assert store.latest_checkpoint("killed") is not None
        result = _CampaignManagerCore(store).resume("killed")
        assert result.status == "completed"
        assert _pareto_signature(result.pareto_set) == reference_pareto

    def test_checkpoint_cadence(self, store):
        manager = _CampaignManagerCore(store, checkpoint_every=3)
        manager.run("sparse", ARRAY_SIZE, config=CONFIG)
        # Generation 0 (initialization), 3 and 6 (final, forced).
        assert store.checkpoint_count("sparse") == 3
        with pytest.raises(StoreError):
            _CampaignManagerCore(store, checkpoint_every=0)

    def test_stop_commits_checkpoint_and_cadence_survives_resume(self, store):
        manager = _CampaignManagerCore(store, checkpoint_every=3)
        manager.run(
            "sparse", ARRAY_SIZE, config=CONFIG, stop_after_generations=2
        )
        # The stop itself is durable even though 2 is off-cadence.
        assert store.latest_checkpoint("sparse")[0] == 2
        # A resume through a default-cadence manager keeps the campaign's
        # recorded checkpoint_every=3: generations 0, 2 (stop), 3 and 6.
        result = _CampaignManagerCore(store).resume("sparse")
        assert result.status == "completed"
        assert store.checkpoint_count("sparse") == 4

    def test_overlapping_campaign_stores_each_design_once(self, tmp_path):
        path = tmp_path / "store.sqlite"
        evaluated = set()
        runs = (("first", CONFIG),
                ("second", NSGA2Config(population_size=16, generations=3, seed=9)))
        for name, config in runs:
            # A separate store handle per campaign: a fresh process's view.
            with ResultStore(path) as store:
                engine = EvaluationEngine(store=store)
                _CampaignManagerCore(store, engine=engine).run(
                    name, ARRAY_SIZE, config=config
                )
                # The private cache holds exactly what the campaign computed.
                evaluated |= set(engine.cache._entries)
        assert len(evaluated) > 0
        with ResultStore(path) as store:
            digests = [
                row["key_digest"]
                for row in store._read().execute(
                    "SELECT key_digest FROM evaluations"
                )
            ]
        # key_digest is the primary key, so equal sets mean each design
        # both campaigns evaluated is stored exactly once.
        assert set(digests) == {key_digest(key) for key in evaluated}

    def test_duplicate_name_rejected(self, store):
        manager = _CampaignManagerCore(store)
        manager.run("camp", ARRAY_SIZE, config=CONFIG)
        with pytest.raises(StoreError, match="already exists"):
            manager.run("camp", ARRAY_SIZE, config=CONFIG)

    def test_resume_of_completed_campaign_rejected(self, store):
        manager = _CampaignManagerCore(store)
        manager.run("camp", ARRAY_SIZE, config=CONFIG)
        with pytest.raises(StoreError, match="already completed"):
            manager.resume("camp")

    def test_resume_unknown_campaign_rejected(self, store):
        with pytest.raises(StoreError, match="no campaign"):
            _CampaignManagerCore(store).resume("ghost")

    def test_resume_with_different_model_parameters_rejected(self, store):
        _CampaignManagerCore(store).run(
            "camp", ARRAY_SIZE, config=CONFIG, stop_after_generations=1
        )
        other = _CampaignManagerCore(
            store, estimator=ACIMEstimator(ModelParameters.calibrated())
        )
        with pytest.raises(StoreError, match="different model parameters"):
            other.resume("camp")

    def test_query_across_campaigns(self, store):
        manager = _CampaignManagerCore(store)
        manager.run("camp", ARRAY_SIZE, config=CONFIG)
        entries = manager.query(
            criteria=DistillationCriteria(min_snr_db=0.0),
            rank_by="snr_db",
        )
        assert entries
        assert all(e.metrics.snr_db >= 0.0 for e in entries)
        values = [e.metrics.snr_db for e in entries]
        assert values == sorted(values, reverse=True)


class TestLegacyCampaignRows:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", None), ("process", 2), ("thread", 4),
    ])
    def test_backend_and_workers_row_resumes_bit_identically(
        self, tmp_path, reference_pareto, backend, workers
    ):
        # Rows stored by 1.6.0 (and "thread" rows from before it) carry
        # the engine knobs removed in 1.7.0; an interrupted one resumes
        # from its checkpoint with the keys ignored.
        path = tmp_path / "v160.sqlite"
        with ResultStore(path) as store:
            _CampaignManagerCore(store).run(
                "v160", ARRAY_SIZE, config=CONFIG, stop_after_generations=2
            )
            uninterrupted = _CampaignManagerCore(store).run(
                "fresh", ARRAY_SIZE, config=CONFIG
            )
        with sqlite3.connect(path) as conn:
            (config_json,) = conn.execute(
                "SELECT config_json FROM campaigns WHERE name = 'v160'"
            ).fetchone()
            config = json.loads(config_json)
            assert "backend" not in config and "workers" not in config
            config.update(backend=backend, workers=workers)
            conn.execute(
                "UPDATE campaigns SET config_json = ? WHERE name = 'v160'",
                (json.dumps(config),),
            )
        reset_shared_cache()
        with ResultStore(path) as store:
            assert store.latest_checkpoint("v160")[0] == 2
            result = _CampaignManagerCore(store).resume("v160")
            assert store.require_campaign("v160").config["backend"] == backend
            stored = store.load_pareto("v160")
        assert result.status == "completed" and result.resumed
        assert not {"backend", "workers"} & set(result.engine_stats)
        assert _pareto_signature(result.pareto_set) == reference_pareto
        assert _pareto_signature(result.pareto_set) == _pareto_signature(
            uninterrupted.pareto_set
        )
        assert [
            (e.spec.as_tuple(), e.metrics.objectives()) for e in stored
        ] == reference_pareto

    def test_legacy_thread_and_shards_row_resumes_bit_identically(
        self, tmp_path, reference_pareto
    ):
        # A row persisted before the thread backend, sharding and
        # screening were removed: its backend, workers and shards keys
        # and plain (surrogate="off") screening knobs must be ignored,
        # landing on the same front.
        path = tmp_path / "legacy.sqlite"
        with ResultStore(path) as store:
            _CampaignManagerCore(store).run(
                "legacy", ARRAY_SIZE, config=CONFIG, stop_after_generations=2
            )
        with sqlite3.connect(path) as conn:
            (config_json,) = conn.execute(
                "SELECT config_json FROM campaigns WHERE name = 'legacy'"
            ).fetchone()
            config = json.loads(config_json)
            config.update(
                backend="thread", workers=2, shards=2,
                surrogate="off", screen_fraction=0.25,
            )
            conn.execute(
                "UPDATE campaigns SET config_json = ? WHERE name = 'legacy'",
                (json.dumps(config),),
            )
        reset_shared_cache()
        with ResultStore(path) as store:
            result = _CampaignManagerCore(store).resume("legacy")
        assert result.status == "completed"
        assert _pareto_signature(result.pareto_set) == reference_pareto

    def _interrupted(self, path):
        with ResultStore(path) as store:
            _CampaignManagerCore(store).run(
                "old", ARRAY_SIZE, config=CONFIG, stop_after_generations=2
            )

    @pytest.mark.parametrize("mode", ["screen", "refine"])
    def test_screened_config_refuses_to_resume(self, tmp_path, mode):
        # Surrogate screening was removed in 1.5.0; replaying a screened
        # campaign unscreened would diverge from its checkpoint.
        path = tmp_path / "screened.sqlite"
        self._interrupted(path)
        with sqlite3.connect(path) as conn:
            (config_json,) = conn.execute(
                "SELECT config_json FROM campaigns WHERE name = 'old'"
            ).fetchone()
            config = json.loads(config_json)
            config.update(surrogate=mode, screen_fraction=0.25)
            conn.execute(
                "UPDATE campaigns SET config_json = ? WHERE name = 'old'",
                (json.dumps(config),),
            )
        with ResultStore(path) as store:
            with pytest.raises(StoreError, match="removed in 1.5.0"):
                _CampaignManagerCore(store).resume("old")

    def test_screener_checkpoint_refuses_to_resume(self, tmp_path):
        path = tmp_path / "screened.sqlite"
        self._interrupted(path)
        with ResultStore(path) as store:
            generation, state = store.latest_checkpoint("old")
            store.save_checkpoint(
                "old", generation, {**state, "screener": {"rows": []}}
            )
        with ResultStore(path) as store:
            with pytest.raises(StoreError, match="removed in 1.5.0"):
                _CampaignManagerCore(store).resume("old")


class TestFlowRecording:
    def test_flow_records_campaign_and_pareto(self, store):
        inputs = FlowInputs(
            array_size=ARRAY_SIZE, nsga2=CONFIG, store=store,
            campaign_name="flow-camp",
        )
        result = _FlowCore(inputs).run(
            generate_netlists=False, generate_layouts=False
        )
        record = store.get_campaign("flow-camp")
        assert record is not None and record.status == "completed"
        assert record.evaluations == result.exploration.evaluations
        # Every evaluation the flow computed was written through.
        assert len(store) == result.engine_stats["evaluations"] > 0
        stored = store.load_pareto("flow-camp")
        assert [
            (e.spec.as_tuple(), e.metrics.objectives()) for e in stored
        ] == _pareto_signature(result.exploration.pareto_set)
        # Re-running the same flow upserts instead of failing.
        _FlowCore(inputs).run(
            generate_netlists=False, generate_layouts=False
        )
        assert len(store.list_campaigns()) == 1

    def test_flow_rerun_recomputes_without_duplicate_rows(self, store):
        def run():
            return _FlowCore(
                FlowInputs(array_size=ARRAY_SIZE, nsga2=CONFIG, store=store)
            ).run(generate_netlists=False, generate_layouts=False)

        first = run()
        rows = len(store)
        # The second flow builds a fresh engine that recomputes rather
        # than reading the store back; the same fixed-seed designs add no
        # rows.
        second = run()
        assert second.engine_stats["evaluations"] == (
            first.engine_stats["evaluations"]
        )
        assert len(store) == rows


class TestCampaignCli:
    def _args(self, tmp_path, *extra):
        return list(extra) + ["--store", str(tmp_path / "store.sqlite")]

    def test_run_interrupt_resume_query(self, tmp_path, capsys):
        base = [
            "campaign", "run", "demo",
            "--array-size", str(ARRAY_SIZE),
            "--population", "16", "--generations", "5", "--seed", "3",
            "--stop-after", "2", "--engine-stats",
        ]
        assert main(self._args(tmp_path, *base)) == 0
        output = capsys.readouterr().out
        assert "interrupted" in output
        assert "campaign resume demo" in output

        assert main(self._args(tmp_path, "campaign", "resume", "demo")) == 0
        output = capsys.readouterr().out
        assert "completed" in output

        assert main(self._args(tmp_path, "campaign", "list")) == 0
        output = capsys.readouterr().out
        assert "demo" in output and "completed" in output

        assert main(self._args(
            tmp_path, "campaign", "query", "--rank-by", "snr_db", "--limit", "3"
        )) == 0
        output = capsys.readouterr().out
        assert "ranked by snr_db" in output

    def test_query_empty_store_fails_loudly(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "campaign", "query")) == 1
        assert "no stored design points" in capsys.readouterr().out

    def test_query_exports(self, tmp_path, capsys):
        main(self._args(
            tmp_path, "campaign", "run", "demo",
            "--array-size", str(ARRAY_SIZE),
            "--population", "16", "--generations", "2",
        ))
        json_path = tmp_path / "query.json"
        assert main(self._args(
            tmp_path, "campaign", "query", "--json", str(json_path)
        )) == 0
        capsys.readouterr()
        # The uniform --json flag emits the repro.api result envelope
        # (ranked records under payload.designs) for every subcommand.
        document = json.loads(json_path.read_text())
        assert document["kind"] == "query"
        assert document["payload"]["designs"]
        assert document["payload"]["rank_by"] == "tops_per_watt"
