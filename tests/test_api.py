"""Tests of the typed ``repro.api`` session layer.

Covers the request/result dict round-trips (property-tested), the
structured validation errors and their machine-readable codes, the
session workflows themselves — including the fixed-seed parity regression
between ``Session.explore`` and the legacy ``DesignSpaceExplorer`` path —
the deprecation shims over the legacy front doors, and the CLI adapters'
shared flags and uniform ``--json`` output.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import repro.errors as errors_module
from repro.api import (
    REQUEST_TYPES,
    ApiResult,
    CampaignRequest,
    EstimateRequest,
    ExploreRequest,
    FlowRequest,
    LayoutRequest,
    LibraryRequest,
    QueryRequest,
    Session,
    SessionConfig,
    ValidateSnrRequest,
    request_from_dict,
)
from repro.cli import main
from repro.dse.exhaustive import exhaustive_pareto_front
from repro.errors import (
    EngineError,
    FlowError,
    OptimizationError,
    ReproError,
    RequestError,
    SpecificationError,
    StoreError,
    TechnologyError,
)

FAST = dict(population=16, generations=4, seed=3)


def _signature(rows):
    """Order-preserving identity of a Pareto payload (spec + metrics)."""
    return [tuple(sorted(row.items())) for row in rows]


# ---------------------------------------------------------------------------
# Requests: round-trips and validation
# ---------------------------------------------------------------------------


class TestRequestRoundTrip:
    @pytest.mark.parametrize("kind", sorted(REQUEST_TYPES))
    def test_defaults_round_trip_through_json(self, kind):
        cls = REQUEST_TYPES[kind]
        request = cls(name="x") if kind == "campaign" else cls()
        wire = json.loads(json.dumps(request.to_dict()))
        assert request_from_dict(wire) == request
        assert request_from_dict(wire).to_dict() == request.to_dict()

    def test_kind_discriminator_dispatches(self):
        request = request_from_dict({"kind": "estimate", "height": 16,
                                     "width": 4, "local_array_size": 4,
                                     "adc_bits": 2})
        assert isinstance(request, EstimateRequest)
        assert request.height == 16

    @settings(max_examples=40, deadline=None)
    @given(
        local=st.sampled_from([1, 2, 4, 8]),
        bits=st.integers(min_value=1, max_value=4),
        multiplier=st.integers(min_value=1, max_value=4),
        width=st.integers(min_value=1, max_value=64),
        sweep=st.booleans(),
    )
    def test_estimate_round_trip_property(self, local, bits, multiplier,
                                          width, sweep):
        request = EstimateRequest(
            height=local * (2 ** bits) * multiplier,
            width=width,
            local_array_size=local,
            adc_bits=bits,
            adc_sweep=sweep,
        )
        wire = json.loads(json.dumps(request.to_dict()))
        assert EstimateRequest.from_dict(wire) == request

    @settings(max_examples=40, deadline=None)
    @given(
        array_size=st.sampled_from([256, 1024, 4096]),
        population=st.integers(min_value=4, max_value=60),
        generations=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2 ** 31),
        min_snr=st.one_of(
            st.none(),
            st.floats(min_value=-50, max_value=50, allow_nan=False),
        ),
        sizes=st.lists(
            st.sampled_from([2, 4, 8, 16, 32]), min_size=1, max_size=5,
            unique=True,
        ),
    )
    def test_explore_round_trip_property(self, array_size, population,
                                         generations, seed, min_snr, sizes):
        request = ExploreRequest(
            array_size=array_size,
            population=population,
            generations=generations,
            seed=seed,
            min_snr_db=min_snr,
            local_array_sizes=tuple(sizes),
        )
        wire = json.loads(json.dumps(request.to_dict()))
        rebuilt = request_from_dict(wire)
        assert rebuilt == request
        # Tuples must come back as tuples, not lists.
        assert isinstance(rebuilt.local_array_sizes, tuple)


class TestRequestValidation:
    def test_unknown_kind_raises_request_error(self):
        with pytest.raises(RequestError) as excinfo:
            request_from_dict({"kind": "teleport"})
        assert excinfo.value.code == "request"

    def test_unknown_field_raises_request_error(self):
        with pytest.raises(RequestError, match="unknown field"):
            request_from_dict({"kind": "estimate", "heigth": 128})

    def test_kind_mismatch_raises(self):
        with pytest.raises(RequestError, match="does not match"):
            EstimateRequest.from_dict({"kind": "explore"})

    def test_infeasible_spec_raises_specification_error(self):
        with pytest.raises(SpecificationError) as excinfo:
            EstimateRequest(height=8, width=8, local_array_size=8,
                            adc_bits=4).validate()
        assert excinfo.value.code == "specification"

    def test_bad_population_raises_optimization_error(self):
        with pytest.raises(OptimizationError):
            ExploreRequest(array_size=1024, population=2).validate()

    def test_bad_explore_method_raises(self):
        with pytest.raises(RequestError, match="unknown explore method"):
            ExploreRequest(array_size=1024, method="random").validate()

    def test_campaign_needs_name_and_known_action(self):
        with pytest.raises(RequestError, match="name"):
            CampaignRequest(name="").validate()
        with pytest.raises(RequestError, match="action"):
            CampaignRequest(name="x", action="pause").validate()
        with pytest.raises(StoreError):
            CampaignRequest(name="x", checkpoint_every=0).validate()

    def test_campaign_shards_is_an_unknown_field(self):
        # Sharded campaigns were removed: the old field now gets the
        # standard unknown-field rejection, like any other typo.
        with pytest.raises(RequestError, match="shards"):
            request_from_dict({"kind": "campaign", "name": "x", "shards": 2})
        with pytest.raises(TypeError):
            CampaignRequest(name="x", shards=2)

    def test_small_flow_array_raises_flow_error(self):
        with pytest.raises(FlowError):
            FlowRequest(array_size=8).validate()

    def test_bad_rank_metric_raises_store_error(self):
        with pytest.raises(StoreError, match="rank metric"):
            QueryRequest(rank_by="speed").validate()

    def test_layout_views_need_output_dir(self):
        with pytest.raises(RequestError, match="output_dir"):
            LayoutRequest(spice=True).validate()


class TestErrorCodes:
    def test_every_error_class_has_a_distinct_code(self):
        classes = [
            value for value in vars(errors_module).values()
            if isinstance(value, type) and issubclass(value, ReproError)
        ]
        codes = [cls.code for cls in classes]
        assert len(classes) > 10
        assert len(set(codes)) == len(codes)

    def test_as_dict_is_machine_readable(self):
        record = SpecificationError("H too small").as_dict()
        assert record == {
            "code": "specification",
            "error": "SpecificationError",
            "message": "H too small",
        }


# ---------------------------------------------------------------------------
# Result envelope and session config
# ---------------------------------------------------------------------------


class TestApiResult:
    def test_round_trip_excludes_artifacts(self):
        result = ApiResult(
            kind="explore", status="ok", payload={"pareto_size": 3},
            warnings=["w"], engine_stats={"evaluations": 5},
            runtime_seconds=0.25, artifacts={"rich": object()},
        )
        rebuilt = ApiResult.from_dict(json.loads(result.to_json()))
        assert rebuilt == result  # artifacts excluded from equality
        assert rebuilt.artifacts == {}
        assert "artifacts" not in result.to_dict()

    def test_unknown_field_and_status_rejected(self):
        with pytest.raises(RequestError):
            ApiResult.from_dict({"kind": "x", "status": "ok", "extra": 1})
        with pytest.raises(RequestError, match="status"):
            ApiResult.from_dict({"kind": "x", "status": "great"})


class TestSessionConfig:
    def test_round_trip(self):
        config = SessionConfig(backend="process", workers=2,
                               store="s.sqlite", cache_size=128)
        assert SessionConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))) == config

    def test_bad_backend_raises_engine_error(self):
        with pytest.raises(EngineError):
            SessionConfig(backend="gpu").validate()

    def test_bad_technology_raises_technology_error(self):
        with pytest.raises(TechnologyError):
            SessionConfig(technology="tsmc5").validate()

    def test_unknown_field_raises_request_error(self):
        with pytest.raises(RequestError):
            SessionConfig.from_dict({"backend": "serial", "wokers": 2})


# ---------------------------------------------------------------------------
# Session workflows
# ---------------------------------------------------------------------------


class TestSessionWorkflows:
    def test_estimate_matches_direct_estimator(self, estimator, small_spec):
        with Session() as session:
            result = session.estimate(EstimateRequest(
                height=small_spec.height, width=small_spec.width,
                local_array_size=small_spec.local_array_size,
                adc_bits=small_spec.adc_bits,
            ))
        assert result.ok
        assert result.payload["metrics"] == [
            estimator.evaluate(small_spec).as_dict()
        ]

    def test_estimate_sweep_covers_every_feasible_precision(self):
        with Session() as session:
            result = session.estimate(EstimateRequest(
                height=128, width=8, local_array_size=4, adc_bits=3,
                adc_sweep=True,
            ))
        # H/L = 32 local arrays support B_ADC in 1..5.
        assert [row["B_ADC"] for row in result.payload["metrics"]] == [1, 2, 3, 4, 5]

    def test_explore_parity_with_core_explorer(self):
        """Fixed-seed Session exploration == the direct explorer core."""
        from repro.dse.explorer import _ExplorerCore
        from repro.dse.nsga2 import NSGA2Config

        with Session() as session:
            result = session.explore(ExploreRequest(array_size=1024, **FAST))
        explorer = _ExplorerCore(config=NSGA2Config(
            population_size=FAST["population"],
            generations=FAST["generations"],
            seed=FAST["seed"],
        ))
        legacy = explorer.explore(1024)
        assert [d.spec.as_tuple() for d in result.artifacts["pareto_set"]] == [
            d.spec.as_tuple() for d in legacy.pareto_set
        ]
        assert [d.objectives for d in result.artifacts["pareto_set"]] == [
            d.objectives for d in legacy.pareto_set
        ]
        assert result.payload["pareto"] == [
            d.metrics.as_dict() for d in legacy.pareto_set
        ]

    def test_explore_distillation_bounds_apply(self):
        with Session() as session:
            everything = session.explore(ExploreRequest(array_size=1024, **FAST))
            bounded = session.explore(ExploreRequest(
                array_size=1024, min_snr_db=10.0, **FAST))
        assert bounded.payload["pareto"] == everything.payload["pareto"]
        assert bounded.payload["distilled_size"] <= bounded.payload["pareto_size"]
        assert all(row["snr_db"] >= 10.0 for row in bounded.payload["distilled"])

    def test_explore_exhaustive_matches_baseline(self, estimator):
        with Session() as session:
            result = session.explore(ExploreRequest(
                array_size=256, method="exhaustive"))
        baseline = sorted(
            exhaustive_pareto_front(256, estimator=estimator),
            key=lambda d: d.spec.as_tuple(),
        )
        assert result.payload["pareto"] == [
            d.metrics.as_dict() for d in baseline
        ]

    def test_explore_height_bounds_apply_to_every_method(self):
        with Session() as session:
            exhaustive = session.explore(ExploreRequest(
                array_size=256, method="exhaustive", min_height=64))
            heights = {row["H"] for row in exhaustive.payload["pareto"]}
            assert heights and all(h >= 64 for h in heights)
            # The sensitivity grid honors the same bounds (a grid emptied
            # by impossible bounds fails loudly instead of silently
            # analyzing the unrestricted space).
            with pytest.raises(OptimizationError):
                session.explore(ExploreRequest(
                    array_size=256, method="sensitivity",
                    sensitivity_parameters=("k1",), min_height=10_000))

    def test_explore_sensitivity_reports_each_parameter(self):
        with Session() as session:
            result = session.explore(ExploreRequest(
                array_size=256, method="sensitivity",
                sensitivity_parameters=("k1", "a_sram"),
            ))
        rows = result.payload["sensitivity"]
        assert [row["parameter"] for row in rows] == ["k1", "a_sram"]
        assert all(0.0 <= row["jaccard_similarity"] <= 1.0 for row in rows)

    def test_campaign_interrupt_resume_matches_uninterrupted(self, tmp_path):
        config = SessionConfig(store=str(tmp_path / "store.sqlite"))
        with Session.from_config(config) as session:
            first = session.campaign(CampaignRequest(
                name="t", array_size=1024, stop_after=2, **FAST))
            assert first.status == "interrupted"
            assert not first.ok
        with Session.from_config(config) as session:
            resumed = session.campaign(
                CampaignRequest(name="t", action="resume"))
            assert resumed.ok
            assert resumed.payload["resumed"] is True
        with Session() as session:
            reference = session.explore(ExploreRequest(array_size=1024, **FAST))
        assert _signature(resumed.payload["pareto"]) == _signature(
            reference.payload["pareto"])

    def test_campaign_without_store_raises(self):
        with Session() as session:
            with pytest.raises(StoreError, match="store"):
                session.campaign(CampaignRequest(name="x", array_size=1024))

    def test_query_designs_and_campaigns(self, tmp_path):
        config = SessionConfig(store=str(tmp_path / "store.sqlite"))
        with Session.from_config(config) as session:
            session.campaign(CampaignRequest(name="q", array_size=1024, **FAST))
            designs = session.query(QueryRequest(limit=4))
            campaigns = session.query(QueryRequest(what="campaigns"))
        assert designs.payload["count"] == len(designs.payload["designs"]) <= 4
        assert [c["name"] for c in campaigns.payload["campaigns"]] == ["q"]
        assert campaigns.payload["store"]["campaigns"] == 1

    def test_flow_records_campaign_and_serializes(self, tmp_path):
        config = SessionConfig(store=str(tmp_path / "store.sqlite"))
        with Session.from_config(config) as session:
            result = session.flow(FlowRequest(
                array_size=256, population=16, generations=3, seed=1,
                max_layouts=1, generate_layouts=False,
                campaign_name="flow-rec",
            ))
            assert result.ok
            # Netlist generation is capped by max_layouts.
            assert result.payload["netlists"] == 1
            assert result.payload["distilled_size"] >= 1
            json.loads(result.to_json())  # payload is pure JSON
            campaigns = session.query(QueryRequest(what="campaigns"))
        assert "flow-rec" in [
            c["name"] for c in campaigns.payload["campaigns"]
        ]

    def test_flow_reuse_surfaces_physical_stats(self):
        with Session() as session:
            result = session.flow(FlowRequest(
                array_size=256, population=16, generations=3, seed=1,
                max_layouts=2))
        stats = result.payload["physical_stats"]
        assert result.payload["reuse"] == "auto"
        assert stats["macros_built"] >= 1
        assert set(stats["stages"]) >= {"netlist", "placement", "routing",
                                        "layout", "export"}
        # Stage timings/hit counters are folded into the flat engine stats.
        assert "stage_routing_seconds" in result.engine_stats
        assert "macros_reused" in result.engine_stats
        json.loads(result.to_json())

    def test_flow_reuse_off_is_the_flat_baseline(self):
        with Session() as session:
            flat = session.flow(FlowRequest(
                array_size=256, population=16, generations=3, seed=1,
                max_layouts=1, reuse="off"))
            auto = session.flow(FlowRequest(
                array_size=256, population=16, generations=3, seed=1,
                max_layouts=1))
        assert flat.payload["physical_stats"] == {}

        def geometry(payload):
            return {
                key: {k: v for k, v in report.items() if k != "runtime_s"}
                for key, report in payload["layouts"].items()
            }

        assert geometry(flat.payload) == geometry(auto.payload)

    def test_flow_rejects_unknown_reuse_mode(self):
        with pytest.raises(FlowError):
            FlowRequest(array_size=256, reuse="sometimes").validate()

    def test_session_layout_requests_share_the_macro_cache(self):
        request = LayoutRequest(height=16, width=4, local_array_size=4,
                                adc_bits=2, route_columns=True)
        with Session() as session:
            first = session.layout(request)
            second = session.layout(request)
        first_report = dict(first.payload["report"])
        second_report = dict(second.payload["report"])
        first_report.pop("runtime_s"), second_report.pop("runtime_s")
        assert first_report == second_report
        assert first.payload["physical_stats"]["macros_built"] == 3
        assert second.payload["physical_stats"]["macros_built"] == 0
        assert second.payload["physical_stats"]["macros_reused"] == 1
        assert second.engine_stats["stage_layout_cache_hits"] == 1

    def test_library_macros_listing(self, tmp_path):
        config = SessionConfig(store=str(tmp_path / "store.sqlite"))
        with Session.from_config(config) as session:
            session.layout(LayoutRequest(height=16, width=4,
                                         local_array_size=4, adc_bits=2))
            listing = session.library_report(LibraryRequest(macros=True))
        macros = listing.payload["macros"]
        assert {row["kind"] for row in macros} >= {
            "local_array", "column", "acim_macro"}
        # A fresh session on the same store sees the persisted inventory.
        with Session.from_config(config) as session:
            cold = session.library_report(LibraryRequest(macros=True))
        assert all(row["source"] == "store"
                   for row in cold.payload["macros"])
        assert len(cold.payload["macros"]) == len(macros)

    def test_submit_dispatches_dicts_and_rejects_unknown(self):
        with Session() as session:
            result = session.submit({
                "kind": "estimate", "height": 16, "width": 4,
                "local_array_size": 4, "adc_bits": 2,
            })
            assert result.kind == "estimate" and result.ok
            with pytest.raises(RequestError):
                session.submit({"kind": "nope"})

    def test_validate_snr_skips_infeasible_with_warning(self):
        with Session() as session:
            result = session.validate_snr(ValidateSnrRequest(
                adc_bits=(3, 9), height=64, local_array_size=4, trials=50))
        assert [row["B_ADC"] for row in result.payload["points"]] == [3]
        assert any("B_ADC=9" in warning for warning in result.warnings)

    def test_library_report(self):
        with Session() as session:
            result = session.library_report(LibraryRequest(report=True))
        assert result.ok
        assert result.payload["consistent"] is True
        assert "sram8t" in result.payload["report"]

    def test_session_reuses_one_engine_across_requests(self):
        with Session() as session:
            session.estimate(EstimateRequest(height=16, width=4,
                                             local_array_size=4, adc_bits=2))
            again = session.estimate(EstimateRequest(
                height=16, width=4, local_array_size=4, adc_bits=2))
        # Second call is a pure cache hit on the session engine.
        assert again.engine_stats["evaluations"] == 0
        assert again.engine_stats["cache_hits"] == 1


# ---------------------------------------------------------------------------
# Legacy front doors (removed in 1.2.0)
# ---------------------------------------------------------------------------


class TestLegacyFrontDoorsRemoved:
    def test_legacy_front_doors_are_gone(self):
        """The one-release deprecation window has closed."""
        import repro

        for name in ("DesignSpaceExplorer", "EasyACIMFlow", "CampaignManager"):
            assert not hasattr(repro, name)
            assert name not in repro.__all__

    def test_session_paths_emit_no_deprecation_warnings(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = SessionConfig(store=str(tmp_path / "store.sqlite"))
            with Session.from_config(config) as session:
                session.explore(ExploreRequest(array_size=256, population=8,
                                               generations=2, seed=1))
                session.campaign(CampaignRequest(
                    name="clean", array_size=256, population=8,
                    generations=2, seed=1))
                session.flow(FlowRequest(
                    array_size=256, population=8, generations=2, seed=1,
                    generate_netlists=False, generate_layouts=False))

# ---------------------------------------------------------------------------
# CLI adapters
# ---------------------------------------------------------------------------


class TestCliThroughApi:
    def test_every_subcommand_has_shared_session_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["estimate", "--height", "16", "--width",
                                  "4", "--local", "4", "--adc-bits", "2",
                                  "--backend", "process", "--workers", "2"])
        assert args.backend == "process" and args.workers == 2
        for argv in (
            ["explore", "--json"],
            ["flow", "--json"],
            ["layout", "--height", "16", "--width", "4", "--local", "4",
             "--adc-bits", "2", "--json"],
            ["library", "--json"],
            ["validate-snr", "--json"],
            ["campaign", "run", "x", "--json"],
            ["campaign", "list", "--json"],
            ["campaign", "query", "--json"],
        ):
            parsed = parser.parse_args(argv)
            assert parsed.json_out == "-"
            assert hasattr(parsed, "backend")
            assert hasattr(parsed, "store")

    def test_estimate_json_stdout_is_an_api_result(self, capsys):
        exit_code = main(["estimate", "--height", "16", "--width", "4",
                          "--local", "4", "--adc-bits", "2", "--json"])
        assert exit_code == 0
        document = json.loads(capsys.readouterr().out)
        rebuilt = ApiResult.from_dict(document)
        assert rebuilt.kind == "estimate" and rebuilt.ok
        assert rebuilt.payload["metrics"][0]["H"] == 16

    def test_explore_json_file_alongside_tables(self, tmp_path, capsys):
        json_path = tmp_path / "result.json"
        exit_code = main(["explore", "--array-size", "256", "--population",
                          "8", "--generations", "2", "--seed", "1",
                          "--json", str(json_path)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Pareto solutions" in captured  # human tables kept
        document = json.loads(json_path.read_text())
        assert document["kind"] == "explore"
        assert document["payload"]["pareto"]

    def test_campaign_cli_run_list_query(self, tmp_path, capsys):
        store = str(tmp_path / "store.sqlite")
        assert main(["campaign", "run", "cli-camp", "--store", store,
                     "--array-size", "256", "--population", "8",
                     "--generations", "2", "--seed", "1"]) == 0
        assert main(["campaign", "list", "--store", store]) == 0
        assert "cli-camp" in capsys.readouterr().out
        assert main(["campaign", "query", "--store", store, "--limit",
                     "3"]) == 0
        assert "tops_per_watt" in capsys.readouterr().out

    def test_flow_subcommand_smoke(self, capsys):
        exit_code = main(["flow", "--array-size", "256", "--population",
                          "8", "--generations", "2", "--seed", "1",
                          "--no-layouts", "--no-netlists"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "EasyACIM flow for 256-bit array" in captured

    def test_explore_sensitivity_via_cli(self, capsys):
        exit_code = main(["explore", "--array-size", "256", "--method",
                          "sensitivity"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "jaccard_similarity" in captured

    def test_invalid_request_surfaces_structured_error(self):
        with pytest.raises(SpecificationError):
            main(["estimate", "--height", "8", "--width", "8", "--local",
                  "8", "--adc-bits", "4"])

    def test_json_mode_emits_error_envelope_instead_of_traceback(self, capsys):
        exit_code = main(["estimate", "--height", "8", "--width", "8",
                          "--local", "8", "--adc-bits", "4", "--json"])
        assert exit_code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["status"] == "error"
        assert document["payload"]["error"]["code"] == "specification"
        assert document["payload"]["error"]["error"] == "SpecificationError"

    def test_bare_json_still_writes_requested_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "pareto.csv"
        exit_code = main(["explore", "--array-size", "256", "--population",
                          "8", "--generations", "2", "--seed", "1",
                          "--csv", str(csv_path), "--json"])
        assert exit_code == 0
        # stdout is pure JSON; the explicitly requested export still lands.
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "explore"
        assert csv_path.read_text().startswith("H,W,L,B_ADC")
