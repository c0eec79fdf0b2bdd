"""Unit tests for the reporting utilities (ASCII plots, exports) and the CLI."""

import json

import pytest

from repro import __version__
from repro.errors import ReproError
from repro.cli import build_parser, main
from repro.dse.exhaustive import exhaustive_pareto_front
from repro.reporting import AsciiScatter, export_csv, export_json, render_pareto_front
from repro.reporting.export import load_json


class TestAsciiScatter:
    def test_render_contains_all_markers(self):
        plot = AsciiScatter("demo", "x", "y", width=32, height=10)
        plot.add_series("a", [(1, 1), (2, 2)])
        plot.add_series("b", [(3, 1), (4, 4)])
        text = plot.render()
        assert "o" in text and "x" in text
        assert "legend: o=a  x=b" in text

    def test_render_dimensions(self):
        plot = AsciiScatter("demo", "x", "y", width=40, height=12)
        plot.add_series("a", [(0, 0), (10, 5)])
        lines = plot.render().splitlines()
        data_rows = [line for line in lines if line.startswith("|")]
        assert len(data_rows) == 12
        assert all(len(line) == 42 for line in data_rows)

    def test_log_axis_requires_positive_values(self):
        plot = AsciiScatter("demo", "x", "y", log_x=True)
        with pytest.raises(ReproError):
            plot.add_series("a", [(0.0, 1.0)])

    def test_empty_plot_rejected(self):
        with pytest.raises(ReproError):
            AsciiScatter("demo", "x", "y").render()

    def test_too_small_plot_rejected(self):
        with pytest.raises(ReproError):
            AsciiScatter("demo", "x", "y", width=4, height=4)

    def test_render_pareto_front_with_categories(self):
        designs = exhaustive_pareto_front(1024)
        text = render_pareto_front(
            designs, category=lambda d: f"B={d.spec.adc_bits}")
        assert "legend:" in text
        assert "area_f2_per_bit" in text

    def test_render_pareto_front_single_series(self):
        designs = exhaustive_pareto_front(1024)[:10]
        text = render_pareto_front(designs)
        assert "designs" in text

    def test_render_pareto_front_empty(self):
        with pytest.raises(ReproError):
            render_pareto_front([])


class TestExports:
    def test_csv_roundtrip_columns(self, tmp_path):
        designs = exhaustive_pareto_front(1024)[:5]
        path = export_csv(designs, tmp_path / "out.csv")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("H,W,L,B_ADC")
        assert len(lines) == 6

    def test_csv_with_dicts_and_column_selection(self, tmp_path):
        rows = [{"a": 1, "b": 2}, {"a": 3, "b": 4}]
        path = export_csv(rows, tmp_path / "d.csv", columns=["b"])
        assert path.read_text().splitlines()[0] == "b"

    def test_json_roundtrip_with_metadata(self, tmp_path):
        designs = exhaustive_pareto_front(1024)[:3]
        path = export_json(designs, tmp_path / "out.json", metadata={"array": 1024})
        data = load_json(path)
        assert data["metadata"]["array"] == 1024
        assert len(data["records"]) == 3

    def test_empty_export_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            export_csv([], tmp_path / "x.csv")
        with pytest.raises(ReproError):
            export_json([], tmp_path / "x.json")

    def test_unknown_record_type_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            export_csv([object()], tmp_path / "x.csv")

    def test_load_json_rejects_other_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"foo": 1}))
        with pytest.raises(ReproError):
            load_json(path)


class TestCli:
    def test_parser_knows_all_subcommands(self):
        parser = build_parser()
        for command in ("explore", "layout", "estimate", "library", "validate-snr"):
            args = parser.parse_args(_minimal_args(command))
            assert args.command == command
        args = parser.parse_args(["campaign", "list"])
        assert args.command == "campaign"
        assert args.campaign_command == "list"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_pyproject_version_matches_package(self):
        import tomllib
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            project = tomllib.load(handle)["project"]
        assert project["version"] == __version__

    def test_estimate_command(self, capsys):
        exit_code = main(["estimate", "--height", "128", "--width", "128",
                          "--local", "8", "--adc-bits", "3"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "2.61e+03" in captured or "2610" in captured

    def test_explore_command_with_exports(self, tmp_path, capsys):
        csv_path = tmp_path / "pareto.csv"
        json_path = tmp_path / "pareto.json"
        exit_code = main([
            "explore", "--array-size", "1024", "--population", "20",
            "--generations", "6", "--seed", "3",
            "--csv", str(csv_path), "--json", str(json_path), "--plot",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Pareto solutions" in captured
        assert csv_path.exists() and json_path.exists()

    def test_explore_command_with_engine_backend(self, capsys):
        # Evaluation always runs inline: --engine-stats reports it, and
        # the removed --backend flag is rejected.
        exit_code = main([
            "explore", "--array-size", "1024", "--population", "20",
            "--generations", "6", "--seed", "3", "--engine-stats",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Pareto solutions" in captured
        assert "evals_per_s" in captured
        assert "backend" not in captured
        with pytest.raises(SystemExit):
            main(["explore", "--backend", "process"])

    def test_layout_command(self, tmp_path, capsys):
        exit_code = main([
            "layout", "--height", "16", "--width", "4", "--local", "4",
            "--adc-bits", "2", "--out", str(tmp_path), "--no-route",
            "--spice", "--lef",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "GDS written" in captured
        assert list(tmp_path.glob("*.gds"))
        assert list(tmp_path.glob("*.lef"))
        assert list(tmp_path.glob("*.sp"))

    def test_library_command(self, capsys):
        exit_code = main(["library", "--report"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "sram8t" in captured
        assert "consistent" in captured

    def test_validate_snr_command(self, capsys):
        exit_code = main(["validate-snr", "--adc-bits", "3",
                          "--height", "64", "--local", "4", "--trials", "100"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "analytic_dB" in captured

    def test_infeasible_layout_request_fails_loudly(self):
        with pytest.raises(Exception):
            main(["layout", "--height", "8", "--width", "8", "--local", "8",
                  "--adc-bits", "4", "--no-route"])


def _minimal_args(command):
    if command == "explore":
        return ["explore"]
    if command == "layout":
        return ["layout", "--height", "16", "--width", "4", "--local", "4",
                "--adc-bits", "2"]
    if command == "estimate":
        return ["estimate", "--height", "16", "--width", "4", "--local", "4",
                "--adc-bits", "2"]
    if command == "library":
        return ["library"]
    return ["validate-snr"]
