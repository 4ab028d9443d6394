import csv
import importlib.metadata
import importlib.resources
import io
import json
import shutil

import jsonschema
import pytest
from click.testing import CliRunner

from carbondef import __version__
from carbondef.cli import main

from support import FIXTURES

CLI = FIXTURES / "cli"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def report_schema():
    schema_text = (
        importlib.resources.files("carbondef")
        .joinpath("schemas/report.schema.json")
        .read_text("utf-8")
    )
    return json.loads(schema_text)


def validate(report, schema):
    jsonschema.validate(report, schema)


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_version_from_source_checkout(runner, monkeypatch):
    # a source checkout on PYTHONPATH has no installed package metadata
    def not_installed(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(importlib.metadata, "version", not_installed)
    result = invoke(runner, ["--version"])
    assert result.exit_code == 0
    assert result.output.rstrip().endswith(f"version {__version__}")


class TestEstimate:
    def test_full_load_hour_is_one_kwh(self, runner, report_schema):
        result = invoke(
            runner,
            ["estimate", "--config", str(CLI / "config.json"), "--trace", str(CLI / "trace_full_load.csv")],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        validate(report, report_schema)
        assert report["energy"]["kwh_total"] == pytest.approx(1.0, rel=1e-9)
        assert report["energy"]["kwh_by_component"]["cpu"] == pytest.approx(0.4, rel=1e-9)

    def test_empty_trace_zero_totals(self, runner, report_schema):
        result = invoke(
            runner,
            ["estimate", "--config", str(CLI / "config.json"), "--trace", str(CLI / "trace_empty.csv")],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        validate(report, report_schema)
        assert report["energy"]["kwh_total"] == 0.0
        assert report["energy"]["interval_count"] == 0
        assert report["meta"]["window"] is None

    def test_malformed_trace_exit_2_no_partial_output(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = invoke(
            runner,
            [
                "estimate",
                "--config", str(CLI / "config.json"),
                "--trace", str(CLI / "trace_malformed.csv"),
                "--out", str(out),
            ],
        )
        assert result.exit_code == 2
        assert "row 2" in result.stderr
        assert not out.exists()

    def test_missing_trace_file_exit_3(self, runner):
        result = invoke(
            runner,
            ["estimate", "--config", str(CLI / "config.json"), "--trace", str(CLI / "nope.csv")],
        )
        assert result.exit_code == 3

    def test_over_max_rejected_then_clamped(self, runner):
        args = [
            "estimate",
            "--config", str(CLI / "config.json"),
            "--trace", str(CLI / "trace_over_max.csv"),
        ]
        rejected = invoke(runner, args)
        assert rejected.exit_code == 2
        assert "u_cpu" in rejected.stderr

        clamped = invoke(runner, args + ["--clamp-usage"])
        assert clamped.exit_code == 0
        report = json.loads(clamped.stdout)
        assert report["diagnostics"]["clamped_samples"] == [{"index": 0, "row": 2}]
        assert report["energy"]["kwh_total"] == pytest.approx(1.0, rel=1e-9)

    def test_csv_output(self, runner):
        result = invoke(
            runner,
            [
                "estimate",
                "--config", str(CLI / "config.json"),
                "--trace", str(CLI / "trace_full_load.csv"),
                "--format", "csv",
            ],
        )
        rows = list(csv.DictReader(io.StringIO(result.stdout)))
        assert len(rows) == 1
        assert float(rows[0]["kwh_total"]) == pytest.approx(1.0, rel=1e-9)


class TestEmissions:
    def test_split_intensity_fixture(self, runner, report_schema):
        result = invoke(
            runner,
            ["emissions", "--config", str(CLI / "config.json"), "--trace", str(CLI / "trace_full_load.csv")],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        validate(report, report_schema)
        assert report["operational"]["total_kg_co2e"] == pytest.approx(0.45, rel=1e-9)
        assert report["operational"]["software_kwh"] == pytest.approx(1.0, rel=1e-9)
        assert report["operational"]["overhead_kwh"] == pytest.approx(0.5, rel=1e-9)

    def test_strict_gap_exit_2_names_interval(self, runner):
        result = invoke(
            runner,
            [
                "emissions",
                "--config", str(CLI / "config_gap_strict.json"),
                "--trace", str(CLI / "trace_full_load.csv"),
            ],
        )
        assert result.exit_code == 2
        assert "[1800" in result.stderr and "3600" in result.stderr

    def test_skip_gap_reports_uncovered(self, runner, report_schema):
        result = invoke(
            runner,
            [
                "emissions",
                "--config", str(CLI / "config_skip.json"),
                "--trace", str(CLI / "trace_full_load.csv"),
            ],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        validate(report, report_schema)
        uncovered = report["diagnostics"]["uncovered_intervals"]
        assert len(uncovered) == 1
        assert uncovered[0]["start"] == 1800
        assert uncovered[0]["kwh"] == pytest.approx(0.5, rel=1e-9)
        assert report["operational"]["total_kg_co2e"] == pytest.approx(0.3, rel=1e-9)

    def test_strict_flag_overrides_skip_config(self, runner):
        result = invoke(
            runner,
            [
                "emissions",
                "--config", str(CLI / "config_skip.json"),
                "--trace", str(CLI / "trace_full_load.csv"),
                "--strict-coverage",
            ],
        )
        assert result.exit_code == 2

    def test_endpoint_unreachable_exit_3(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("CARBONDEF_CACHE_DIR", str(tmp_path / "cache"))
        config = json.loads((CLI / "config.json").read_text())
        config["intensity"] = {"endpoint": "http://127.0.0.1:9/feed", "region": "NL"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        result = invoke(
            runner,
            ["emissions", "--config", str(config_path), "--trace", str(CLI / "trace_full_load.csv")],
        )
        assert result.exit_code == 3

    def test_endpoint_source_with_cache(self, runner, feed_server, tmp_path, monkeypatch):
        monkeypatch.setenv("CARBONDEF_CACHE_DIR", str(tmp_path / "cache"))
        config = json.loads((CLI / "config.json").read_text())
        config["intensity"] = {"endpoint": feed_server.endpoint, "region": "NL"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))

        args = [
            "emissions",
            "--config", str(config_path),
            "--trace", str(CLI / "trace_full_load.csv"),
        ]
        first = invoke(runner, args)
        assert first.exit_code == 0
        assert json.loads(first.stdout)["operational"]["total_kg_co2e"] == pytest.approx(0.45, rel=1e-9)
        second = invoke(runner, args)
        assert second.exit_code == 0
        assert feed_server.hits == 1  # second run hit the cache
        assert first.stdout == second.stdout


class TestEmbodied:
    def test_consumer_attribution(self, runner, report_schema):
        result = invoke(
            runner,
            ["embodied", "--ledger", str(CLI / "ledger.json"), "--consumer", "svc-a"],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        validate(report, report_schema)
        assert report["embodied"]["total_attributed_kg_co2e"] == pytest.approx(100.0, rel=1e-9)

    def test_all_consumers_and_conservation(self, runner, report_schema):
        result = invoke(runner, ["embodied", "--ledger", str(CLI / "ledger.json")])
        report = json.loads(result.stdout)
        validate(report, report_schema)
        assert [c["consumer_id"] for c in report["embodied"]["consumers"]] == ["svc-a"]
        objects = report["embodied"]["objects"]
        assert objects[0]["idle_residual_kg_co2e"] == pytest.approx(900.0, rel=1e-9)
        conservation = report["embodied"]["conservation"]
        assert conservation["attributed_plus_residual_kg_co2e"] == pytest.approx(
            conservation["lifecycle_total_kg_co2e"], rel=1e-9
        )

    def test_unknown_consumer_warns_and_reports_zero(self, runner):
        result = invoke(
            runner,
            ["embodied", "--ledger", str(CLI / "ledger.json"), "--consumer", "ghost"],
        )
        assert result.exit_code == 0
        assert "warning" in result.stderr
        report = json.loads(result.stdout)
        assert report["embodied"]["total_attributed_kg_co2e"] == 0.0

    def test_csv_output_has_conservation_row(self, runner):
        result = invoke(
            runner,
            ["embodied", "--ledger", str(CLI / "ledger.json"), "--format", "csv"],
        )
        rows = list(csv.DictReader(io.StringIO(result.stdout)))
        kinds = [row["record_type"] for row in rows]
        assert "attribution" in kinds and "idle_residual" in kinds and "conservation" in kinds


class TestFullReport:
    def test_composed_fixture_sci(self, runner, report_schema, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = [
            "report",
            "--config", str(CLI / "config.json"),
            "--trace", str(CLI / "trace_full_load.csv"),
            "--ledger", str(CLI / "ledger.json"),
        ]
        assert invoke(runner, args + ["--out", str(out1)]).exit_code == 0
        assert invoke(runner, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

        report = json.loads(out1.read_text())
        validate(report, report_schema)
        sci = report["sci"]
        assert sci["operational_kg_co2e"] == pytest.approx(0.45, rel=1e-9)
        assert sci["embodied_kg_co2e"] == pytest.approx(100.0, rel=1e-9)
        assert sci["total_kg_co2e"] == pytest.approx(100.45, rel=1e-9)
        assert sci["sci_kg_co2e_per_unit"] == pytest.approx(0.10045, rel=1e-9)
        assert sci["total_kg_co2e"] == pytest.approx(
            sci["operational_kg_co2e"] + sci["embodied_kg_co2e"], rel=1e-12
        )

    def test_zero_everything(self, runner, report_schema, tmp_path):
        config = json.loads((CLI / "config.json").read_text())
        config["pue"] = 1.0
        config["intensity"] = {"file": "intensity_zero.json"}
        (tmp_path / "intensity_zero.json").write_text(
            json.dumps({"region": "NL", "entries": [
                {"start": 0, "end": 3600, "intensity_kg_per_kwh": 0.0}
            ]})
        )
        (tmp_path / "ledger_empty.json").write_text(
            json.dumps({"objects": [], "records": []})
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        result = invoke(
            runner,
            [
                "report",
                "--config", str(config_path),
                "--trace", str(CLI / "trace_full_load.csv"),
                "--ledger", str(tmp_path / "ledger_empty.json"),
            ],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        validate(report, report_schema)
        assert report["sci"]["total_kg_co2e"] == 0.0

    def test_missing_functional_unit_exit_2(self, runner, tmp_path):
        config = json.loads((CLI / "config.json").read_text())
        del config["functional_unit"]
        shutil.copy(CLI / "intensity.json", tmp_path / "intensity.json")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        result = invoke(
            runner,
            [
                "report",
                "--config", str(config_path),
                "--trace", str(CLI / "trace_full_load.csv"),
                "--ledger", str(CLI / "ledger.json"),
            ],
        )
        assert result.exit_code == 2
        assert "functional_unit" in result.stderr

    def test_csv_long_format(self, runner):
        result = invoke(
            runner,
            [
                "report",
                "--config", str(CLI / "config.json"),
                "--trace", str(CLI / "trace_full_load.csv"),
                "--ledger", str(CLI / "ledger.json"),
                "--format", "csv",
            ],
        )
        rows = list(csv.DictReader(io.StringIO(result.stdout)))
        sections = {row["section"] for row in rows}
        assert sections == {"energy", "operational", "embodied", "sci"}
        sci_rows = {r["metric"]: r["value"] for r in rows if r["section"] == "sci"}
        assert float(sci_rows["sci_kg_co2e_per_unit"]) == pytest.approx(0.10045, rel=1e-9)
