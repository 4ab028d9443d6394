import csv
import gc
import importlib.metadata
import importlib.resources
import io
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import jsonschema
import pytest

from carbondef import UsageSample, __version__, cli, grid
from carbondef import report as report_module
from carbondef.ingest import TRACE_CSV_HEADER, parse_usage_trace

from support import FIXTURES, invoke, serialize_usage_trace

CLI = FIXTURES / "cli"
SRC = Path(cli.__file__).parents[1]


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


def test_schema_version_matches_the_reports(report_schema):
    # a report shape change bumps both, or this fails
    assert report_schema["properties"]["schema_version"] == {"const": report_module.SCHEMA_VERSION}


def test_cold_start_imports_no_network_modules():
    # only an endpoint fetch needs the network modules, and the CLI parses its flags with argparse:
    # every run would pay for importing them
    code = "import sys, carbondef.cli; print(sorted({'click', 'http.client', 'urllib.request'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_report_cut_short_by_a_closed_pipe_exits_3(tmp_path):
    # as ``carbondef estimate ... | head -c 20``: the reader leaves while the report's one
    # write of ~125 kB waits on the full pipe, which then takes part of it
    trace = tmp_path / "trace.csv"
    trace.write_text(TRACE_CSV_HEADER + "\n" + "".join(f"{60 * i},60,1.0,1e9,1e6,1e6\n" for i in range(1000)))
    args = [sys.executable, "-m", "carbondef.cli", "estimate", "--config", str(CLI / "config.json"),
            "--trace", str(trace), "--format", "csv"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen(args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
        assert os.read(process.stdout.fileno(), 20)
        process.stdout.close()
        stderr = process.stderr.read()
        process.wait(timeout=60)
    assert process.returncode == 3
    assert stderr.decode().splitlines() == ["error: [Errno 32] Broken pipe"]


def test_version_from_source_checkout(monkeypatch):
    # a source checkout on PYTHONPATH has no installed package metadata
    def not_installed(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(importlib.metadata, "version", not_installed)
    result = invoke(["--version"])
    assert result.exit_code == 0
    assert (result.stdout, result.stderr) == (f"carbondef, version {__version__}\n", "")


class TestArgumentSurface:
    FLAGS = {
        "estimate": {"--config", "--trace", "--format", "--out", "--clamp-usage"},
        "emissions": {"--config", "--trace", "--format", "--out", "--clamp-usage", "--strict-coverage"},
        "embodied": {"--ledger", "--consumer", "--format", "--out"},
        "report": {"--config", "--trace", "--ledger", "--consumer", "--format", "--out", "--clamp-usage",
                   "--strict-coverage"},
    }

    @pytest.mark.parametrize("argv, named", [
        (["estimate", "--config", str(CLI / "config.json")], "--trace"),
        (["estimate", "--config", str(CLI / "config.json"), "--trace", str(CLI / "trace_full_load.csv"),
          "--format", "xml"], "'xml'"),
        (["forecast", "--config", str(CLI / "config.json")], "'forecast'"),
        ([], "COMMAND"),
        # a run with --config spelled out would succeed: no prefix stands for a flag
        (["estimate", "--conf", str(CLI / "config.json"), "--trace", str(CLI / "trace_full_load.csv")], "--config"),
    ], ids=["missing option", "format xml", "unknown command", "no command", "abbreviated flag"])
    def test_usage_error_exit_2(self, argv, named):
        result = invoke(argv)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: carbondef")
        assert "error: " in result.stderr and named in result.stderr

    def test_a_flag_takes_the_next_token_even_one_starting_with_a_dash(self):
        result = invoke(["embodied", "--ledger", str(CLI / "ledger.json"), "--consumer", "-svc"])
        assert result.exit_code == 0
        assert result.stderr == "warning: consumer '-svc' has no records; reporting 0 kg\n"
        assert json.loads(result.stdout)["embodied"]["total_attributed_kg_co2e"] == 0.0

    def test_an_out_path_starting_with_a_dash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = invoke(["embodied", "--ledger", str(CLI / "ledger.json"), "--out", "-report.json"])
        assert (result.exit_code, result.stdout, result.stderr) == (0, "", "")
        expected = invoke(["embodied", "--ledger", str(CLI / "ledger.json")]).stdout_bytes
        assert (tmp_path / "-report.json").read_bytes() == expected

    def test_a_flag_without_its_value_is_a_usage_error(self):
        result = invoke(["embodied", "--ledger", str(CLI / "ledger.json"), "--consumer"])
        assert result.exit_code == 2
        assert "argument --consumer: expected one argument" in result.stderr

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_exactly_the_commands_flags(self, command):
        result = invoke([command, "--help"])
        assert result.exit_code == 0
        assert set(re.findall(r"--[a-z-]+", result.stdout)) == self.FLAGS[command] | {"--help"}


class TestFiniteReports:
    """Finite inputs whose arithmetic overflows: exit 2 naming the report
    field, never a report holding NaN or Infinity."""

    @staticmethod
    def write_config(tmp_path, server=None, functional_unit_count=None):
        config = json.loads((CLI / "config.json").read_text())
        config["server"].update(server or {})
        if functional_unit_count is not None:
            config["functional_unit"]["count"] = functional_unit_count
        shutil.copy(CLI / "intensity.json", tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    @staticmethod
    def write_trace(tmp_path, row):
        path = tmp_path / "trace.csv"
        path.write_text(f"timestamp_utc,duration_s,u_cpu_cores,u_mem_bytes,u_io_bytes,u_net_bytes\n{row}\n")
        return str(path)

    def assert_rejected(self, result, field):
        assert result.exit_code == 2
        assert f"report field {field} is " in result.stderr
        assert result.stdout == ""

    def test_anchor_overflow_times_zero_usage(self, tmp_path):
        config = self.write_config(tmp_path, {"tdp_watts": 1e308, "n_cpu": 4})
        trace = self.write_trace(tmp_path, "0,3600,0,0,0,0")
        result = invoke(["estimate", "--config", config, "--trace", trace])
        self.assert_rejected(result, "energy.kwh_total")

    def test_power_times_duration_overflow(self, tmp_path):
        config = self.write_config(tmp_path, {"tdp_watts": 1e300})
        trace = self.write_trace(tmp_path, "0,1e300,4.0,0,0,0")
        result = invoke(["estimate", "--config", config, "--trace", trace])
        self.assert_rejected(result, "energy.kwh_total")

    def test_ledger_lifecycle_overflow(self, tmp_path):
        ledger = json.loads((CLI / "ledger.json").read_text())
        ledger["objects"][0].update(m_kg=1.7e308, r_kg=1.7e308)
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(ledger))
        result = invoke(["embodied", "--ledger", str(path)])
        self.assert_rejected(result, "embodied.total_attributed_kg_co2e")

    def test_subnormal_functional_unit_count(self, tmp_path):
        config = self.write_config(tmp_path, functional_unit_count=1e-320)
        result = invoke([
            "report", "--config", config, "--trace", str(CLI / "trace_full_load.csv"),
            "--ledger", str(CLI / "ledger.json"),
        ])
        self.assert_rejected(result, "sci.sci_kg_co2e_per_unit")


class TestEstimate:
    def test_full_load_hour_is_one_kwh(self, report_schema):
        result = invoke(
            ["estimate", "--config", str(CLI / "config.json"), "--trace", str(CLI / "trace_full_load.csv")],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        validate(report, report_schema)
        assert report["energy"]["kwh_total"] == pytest.approx(1.0, rel=1e-9)
        assert report["energy"]["kwh_by_component"]["cpu"] == pytest.approx(0.4, rel=1e-9)

    def test_empty_trace_zero_totals(self, report_schema):
        result = invoke(
            ["estimate", "--config", str(CLI / "config.json"), "--trace", str(CLI / "trace_empty.csv")],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        validate(report, report_schema)
        assert report["energy"]["kwh_total"] == 0.0
        assert report["energy"]["interval_count"] == 0
        assert report["meta"]["window"] is None

    def test_malformed_trace_exit_2_no_partial_output(self, tmp_path):
        out = tmp_path / "report.json"
        result = invoke(
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

    def test_sample_lost_in_rounding_exit_2(self, tmp_path):
        # at 2**52 a 0.25 s sample ends where it starts: its energy would reach no segment
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{TRACE_CSV_HEADER}\n{2**52},0.25,4.0,0,0,0\n{2**52 + 1},0.25,4.0,0,0,0\n")
        (tmp_path / "intensity.json").write_text(json.dumps(
            {"region": "NL", "entries": [{"start": 2**52 - 1800, "end": 2**52 + 1800, "intensity_kg_per_kwh": 0.4}]}))
        shutil.copy(CLI / "config.json", tmp_path / "config.json")
        out = tmp_path / "report.json"
        args = ["emissions", "--config", str(tmp_path / "config.json"), "--trace", str(trace), "--out", str(out)]
        result = invoke(args)
        assert result.exit_code == 2
        assert "sample 0 (row 2) ends where it starts" in result.stderr
        assert not out.exists()

    def test_missing_trace_file_exit_3(self):
        result = invoke(
            ["estimate", "--config", str(CLI / "config.json"), "--trace", str(CLI / "nope.csv")],
        )
        assert result.exit_code == 3

    def test_over_max_rejected_then_clamped(self):
        args = [
            "estimate",
            "--config", str(CLI / "config.json"),
            "--trace", str(CLI / "trace_over_max.csv"),
        ]
        rejected = invoke(args)
        assert rejected.exit_code == 2
        assert "u_cpu" in rejected.stderr

        clamped = invoke(args + ["--clamp-usage"])
        assert clamped.exit_code == 0
        report = json.loads(clamped.stdout)
        assert report["diagnostics"]["clamped_samples"] == [{"index": 0, "row": 2}]
        assert report["energy"]["kwh_total"] == pytest.approx(1.0, rel=1e-9)

    def test_json_trace_clamped_sample_has_no_row(self, tmp_path):
        # trace_over_max.csv as JSON: a JSON trace has sample indices, no input rows
        sample = {
            "start": 0, "duration_s": 3600.0, "u_cpu_cores": 6.0,
            "u_mem_bytes": 64e9, "u_io_bytes": 1e12, "u_net_bytes": 1e12,
        }
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"samples": [sample]}))
        result = invoke(
            ["estimate", "--config", str(CLI / "config.json"), "--trace", str(trace), "--clamp-usage"],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["diagnostics"]["clamped_samples"] == [{"index": 0, "row": None}]

    def test_csv_output(self):
        result = invoke(
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
    def test_split_intensity_fixture(self, report_schema):
        result = invoke(
            ["emissions", "--config", str(CLI / "config.json"), "--trace", str(CLI / "trace_full_load.csv")],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        validate(report, report_schema)
        assert report["operational"]["total_kg_co2e"] == pytest.approx(0.45, rel=1e-9)
        assert report["operational"]["software_kwh"] == pytest.approx(1.0, rel=1e-9)
        assert report["operational"]["overhead_kwh"] == pytest.approx(0.5, rel=1e-9)

    def test_strict_gap_exit_2_names_interval(self):
        result = invoke(
            [
                "emissions",
                "--config", str(CLI / "config_gap_strict.json"),
                "--trace", str(CLI / "trace_full_load.csv"),
            ],
        )
        assert result.exit_code == 2
        assert "[1800" in result.stderr and "3600" in result.stderr

    def test_skip_gap_reports_uncovered(self, report_schema):
        result = invoke(
            [
                "emissions",
                "--config", str(CLI / "config_skip.json"),
                "--trace", str(CLI / "trace_full_load.csv"),
            ],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        validate(report, report_schema)
        uncovered = report["operational"]["uncovered"]
        assert len(uncovered) == 1
        assert uncovered[0]["start"] == 1800
        assert uncovered[0]["kwh"] == pytest.approx(0.5, rel=1e-9)
        assert report["operational"]["total_kg_co2e"] == pytest.approx(0.3, rel=1e-9)

    def test_strict_flag_overrides_skip_config(self):
        result = invoke(
            [
                "emissions",
                "--config", str(CLI / "config_skip.json"),
                "--trace", str(CLI / "trace_full_load.csv"),
                "--strict-coverage",
            ],
        )
        assert result.exit_code == 2

    def test_rounded_sample_end_prorates_by_covered_span(self, tmp_path):
        # 2**52 + 1 + 1.5 rounds to 2**52 + 2: the one segment spans 1.0 s and must carry
        # all the sample's energy, not 1.0 / 1.5 of it
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{TRACE_CSV_HEADER}\n{2**52 + 1},1.5,4.0,0,0,0\n")
        (tmp_path / "intensity.json").write_text(json.dumps(
            {"region": "NL", "entries": [{"start": 2**52 - 1800, "end": 2**52 + 1800, "intensity_kg_per_kwh": 0.4}]}))
        shutil.copy(CLI / "config.json", tmp_path / "config.json")
        result = invoke(["emissions", "--config", str(tmp_path / "config.json"), "--trace", str(trace),
                         "--strict-coverage"])
        assert result.exit_code == 0, result.stderr
        operational = json.loads(result.stdout)["operational"]
        assert [(row["duration_s"], row["kwh"]) for row in operational["segments"]] == [
            (1.0, operational["software_kwh"])
        ]
        assert operational["uncovered"] == []

    def test_endpoint_unreachable_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CARBONDEF_CACHE_DIR", str(tmp_path / "cache"))
        config = json.loads((CLI / "config.json").read_text())
        config["intensity"] = {"endpoint": "http://127.0.0.1:9/feed", "region": "NL"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        result = invoke(
            ["emissions", "--config", str(config_path), "--trace", str(CLI / "trace_full_load.csv")],
        )
        assert result.exit_code == 3

    def test_endpoint_source_with_cache(self, feed_server, tmp_path, monkeypatch):
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
        first = invoke(args)
        assert first.exit_code == 0
        assert json.loads(first.stdout)["operational"]["total_kg_co2e"] == pytest.approx(0.45, rel=1e-9)
        second = invoke(args)
        assert second.exit_code == 0
        assert feed_server.hits == 1  # second run hit the cache
        assert first.stdout == second.stdout

    def test_endpoint_source_with_empty_trace_fetches_nothing(self, feed_server, tmp_path, monkeypatch):
        # no samples, no window: nothing to fetch for, and strict coverage of zero energy is vacuous
        monkeypatch.setenv("CARBONDEF_CACHE_DIR", str(tmp_path / "cache"))
        config = json.loads((CLI / "config.json").read_text())
        config["intensity"] = {"endpoint": feed_server.endpoint, "region": "XX"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        result = invoke(["emissions", "--config", str(config_path), "--trace", str(CLI / "trace_empty.csv")])
        assert result.exit_code == 0
        assert feed_server.hits == 0
        report = json.loads(result.stdout)
        assert report["meta"]["window"] is None
        assert report["operational"]["region"] == "XX"
        assert report["operational"]["total_kg_co2e"] == 0.0


class TestEmbodied:
    def test_consumer_attribution(self, report_schema):
        result = invoke(
            ["embodied", "--ledger", str(CLI / "ledger.json"), "--consumer", "svc-a"],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        validate(report, report_schema)
        assert report["embodied"]["total_attributed_kg_co2e"] == pytest.approx(100.0, rel=1e-9)

    def test_all_consumers_and_conservation(self, report_schema):
        result = invoke(["embodied", "--ledger", str(CLI / "ledger.json")])
        report = json.loads(result.stdout)
        validate(report, report_schema)
        assert [c["consumer_id"] for c in report["embodied"]["consumers"]] == ["svc-a"]
        objects = report["embodied"]["objects"]
        assert objects[0]["idle_residual_kg_co2e"] == pytest.approx(900.0, rel=1e-9)
        conservation = report["embodied"]["conservation"]
        assert conservation["attributed_plus_residual_kg_co2e"] == pytest.approx(
            conservation["lifecycle_total_kg_co2e"], rel=1e-9
        )

    def test_unknown_consumer_warns_and_reports_zero(self):
        result = invoke(
            ["embodied", "--ledger", str(CLI / "ledger.json"), "--consumer", "ghost"],
        )
        assert result.exit_code == 0
        assert "warning" in result.stderr
        report = json.loads(result.stdout)
        assert report["embodied"]["total_attributed_kg_co2e"] == 0.0

    def test_csv_output_has_conservation_row(self):
        result = invoke(
            ["embodied", "--ledger", str(CLI / "ledger.json"), "--format", "csv"],
        )
        rows = list(csv.DictReader(io.StringIO(result.stdout)))
        kinds = [row["record_type"] for row in rows]
        assert "attribution" in kinds and "idle_residual" in kinds and "conservation" in kinds


class TestFullReport:
    def test_composed_fixture_sci(self, report_schema, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = [
            "report",
            "--config", str(CLI / "config.json"),
            "--trace", str(CLI / "trace_full_load.csv"),
            "--ledger", str(CLI / "ledger.json"),
        ]
        assert invoke(args + ["--out", str(out1)]).exit_code == 0
        assert invoke(args + ["--out", str(out2)]).exit_code == 0
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

    def test_zero_everything(self, report_schema, tmp_path):
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

    def test_missing_functional_unit_exit_2(self, tmp_path):
        config = json.loads((CLI / "config.json").read_text())
        del config["functional_unit"]
        shutil.copy(CLI / "intensity.json", tmp_path / "intensity.json")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        result = invoke(
            [
                "report",
                "--config", str(config_path),
                "--trace", str(CLI / "trace_full_load.csv"),
                "--ledger", str(CLI / "ledger.json"),
            ],
        )
        assert result.exit_code == 2
        assert "functional_unit" in result.stderr

    def test_csv_long_format(self):
        result = invoke(
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

    @pytest.mark.parametrize("consumer", ["svc-a", "ghost"])
    def test_consumer_section_matches_embodied_command(self, consumer):
        full = invoke(TRACE_COMMANDS["report"] + [
            "--trace", str(CLI / "trace_full_load.csv"), "--consumer", consumer,
        ])
        alone = invoke(["embodied", "--ledger", str(CLI / "ledger.json"), "--consumer", consumer])
        assert full.exit_code == alone.exit_code == 0
        assert json.loads(full.stdout)["embodied"] == json.loads(alone.stdout)["embodied"]
        warnings = [line for line in full.stderr.splitlines() if line.startswith("warning:")]
        assert warnings == ([f"warning: consumer {consumer!r} has no records; reporting 0 kg"]
                            if consumer == "ghost" else [])


TRACE_COMMANDS = {
    "estimate": ["estimate", "--config", str(CLI / "config.json")],
    "emissions": ["emissions", "--config", str(CLI / "config.json")],
    "report": ["report", "--config", str(CLI / "config.json"), "--ledger", str(CLI / "ledger.json")],
}


class TestCommandLifecycle:
    @pytest.mark.parametrize("enabled_before", [True, False])
    @pytest.mark.parametrize("trace, code", [("trace_full_load.csv", 0), ("trace_malformed.csv", 2)])
    def test_cyclic_gc_off_during_command_and_restored(
        self, monkeypatch, enabled_before, trace, code
    ):
        during = []
        real_parse = cli.parse_usage_trace

        def parse(*args, **kwargs):
            during.append(gc.isenabled())
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(cli, "parse_usage_trace", parse)
        (gc.enable if enabled_before else gc.disable)()
        try:
            result = invoke(TRACE_COMMANDS["estimate"] + ["--trace", str(CLI / trace)])
            after = gc.isenabled()
        finally:
            gc.enable()
        assert result.exit_code == code
        assert during == [False]
        assert after is enabled_before

    @pytest.mark.parametrize("trace", ["trace_full_load.csv", "trace_over_max.csv", "trace_over_max.json"])
    def test_report_path_builds_no_usage_sample(self, monkeypatch, tmp_path, trace):
        # the trace stays six columns from parse to report: no per-sample object
        if trace.endswith(".json"):
            (tmp_path / trace).write_bytes(
                serialize_usage_trace(parse_usage_trace((CLI / "trace_over_max.csv").read_bytes()), "json")
            )
        calls = []
        real_post_init = UsageSample.__post_init__

        def post_init(self):
            calls.append(self)
            real_post_init(self)

        monkeypatch.setattr(UsageSample, "__post_init__", post_init)
        path = tmp_path / trace if trace.endswith(".json") else CLI / trace
        result = invoke(TRACE_COMMANDS["report"] + ["--trace", str(path), "--clamp-usage"])
        assert result.exit_code == 0
        assert calls == []
        UsageSample(0, 1.0, 0, 0, 0, 0)  # and the counter does see a sample built
        assert len(calls) == 1

    @pytest.mark.parametrize("command", [*sorted(TRACE_COMMANDS), "embodied"])
    def test_inputs_released_before_rendering(self, monkeypatch, command):
        parsed, alive_at_render = [], []
        real_parse_trace, real_parse_ledger = cli.parse_usage_trace, cli.parse_ledger
        real_render = cli.render_report

        def parse_trace(*args, **kwargs):
            trace = real_parse_trace(*args, **kwargs)
            parsed.append(weakref.ref(trace))
            return trace

        def parse_ledger(*args, **kwargs):
            ledger = real_parse_ledger(*args, **kwargs)
            parsed.append(weakref.ref(ledger))
            return ledger

        def render(*args, **kwargs):
            alive_at_render.extend(ref() is not None for ref in parsed)
            return real_render(*args, **kwargs)

        monkeypatch.setattr(cli, "parse_usage_trace", parse_trace)
        monkeypatch.setattr(cli, "parse_ledger", parse_ledger)
        monkeypatch.setattr(cli, "render_report", render)
        if command == "embodied":
            args = ["embodied", "--ledger", str(CLI / "ledger.json")]
        else:
            args = TRACE_COMMANDS[command] + ["--trace", str(CLI / "trace_full_load.csv")]
        assert invoke(args).exit_code == 0
        assert alive_at_render == [False] * (2 if command == "report" else 1)

    def test_every_benchmark_span_target_is_called(self, monkeypatch, tmp_path):
        # bench/spans.py wraps these module globals by name and silently skips
        # one the package no longer has, so its metrics would read 0
        targets = {
            cli: ("load_config", "parse_usage_trace", "parse_ledger", "build_full_report", "render_report"),
            report_module: (
                "trace_to_energy_series", "clamped_sample_indices", "resolve_intensity",
                "operational_emissions", "consumer_embodied", "idle_residual",
            ),
            grid: ("align_segments",),
        }
        calls, rendered = {}, []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                result = real(*args, **kwargs)
                if name == "render_report":
                    rendered.append(len(result))
                return result
            return wrapper

        for module, names in targets.items():
            for name in names:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        out = tmp_path / "report.json"
        args = TRACE_COMMANDS["report"] + [
            "--trace", str(CLI / "trace_full_load.csv"), "--clamp-usage", "--out", str(out),
        ]
        assert invoke(args).exit_code == 0
        assert sorted(calls) == sorted(name for names in targets.values() for name in names)
        assert rendered == [out.stat().st_size]

    @pytest.mark.parametrize("mode", [0o644, 0o600, 0o640])
    def test_out_file_keeps_its_mode(self, tmp_path, mode):
        out = tmp_path / "report.json"
        out.write_bytes(b"")
        out.chmod(mode)
        args = TRACE_COMMANDS["estimate"] + ["--trace", str(CLI / "trace_full_load.csv")]
        assert invoke(args + ["--out", str(out)]).exit_code == 0
        assert out.stat().st_mode & 0o777 == mode
        assert out.read_bytes() == invoke(args).stdout_bytes

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o027])
    def test_new_out_file_follows_umask(self, tmp_path, umask):
        out = tmp_path / "report.json"
        args = TRACE_COMMANDS["estimate"] + ["--trace", str(CLI / "trace_full_load.csv")]
        previous = os.umask(umask)
        try:
            assert invoke(args + ["--out", str(out)]).exit_code == 0
            assert os.umask(umask) == umask  # the run restored it
        finally:
            os.umask(previous)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_out_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"previous report\n")
        link.symlink_to(target)
        args = TRACE_COMMANDS["estimate"] + ["--trace", str(CLI / "trace_full_load.csv")]
        assert invoke(args + ["--out", str(link)]).exit_code == 0
        assert link.is_symlink()
        assert target.read_bytes() == invoke(args).stdout_bytes

    def test_out_fifo_is_written_through(self, tmp_path):
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        args = TRACE_COMMANDS["estimate"] + ["--trace", str(CLI / "trace_full_load.csv")]
        try:
            result = invoke(args + ["--out", str(fifo)])
        finally:
            try:  # a run that never opened the FIFO leaves the reader blocked: release it
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # ENXIO: the reader is gone already
                pass
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert result.exit_code == 0
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert received == [invoke(args).stdout_bytes]

    def test_failed_out_write_keeps_old_file(self, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        out.write_bytes(b"previous report\n")
        real_fdopen = os.fdopen

        class HalfWrite:
            """Writes half the bytes, then fails like a full disk."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, data):
                self.handle.write(data[: len(data) // 2])
                self.handle.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs: HalfWrite(real_fdopen(*args, **kwargs)))
        args = TRACE_COMMANDS["estimate"] + ["--trace", str(CLI / "trace_full_load.csv")]
        result = invoke(args + ["--out", str(out)])
        assert result.exit_code == 3
        assert "No space left on device" in result.stderr
        assert out.read_bytes() == b"previous report\n"
        assert not list(tmp_path.glob(".tmp-*"))

    @pytest.mark.parametrize("block, blocks, failing_write", [
        # over two blocks of intervals: the report reaches the temporary file in three writes
        pytest.param(report_module._BLOCK, 2, 2, id="2"),
        pytest.param(report_module._BLOCK, 2, 3, id="3"),
        # over four: a forked child formats the second half of the rows, and write 1 fails
        # while it runs, write 3 as its spill is copied (conftest checks that no child is left)
        pytest.param(16, 4, 1, id="child-running"),
        pytest.param(16, 4, 3, id="spill-copy"),
    ])
    def test_out_write_failing_after_blocks_keeps_old_file(self, tmp_path, monkeypatch, block, blocks, failing_write):
        monkeypatch.setattr(report_module, "_BLOCK", block)
        trace = tmp_path / "trace.csv"
        rows = (f"{10 * i},10,1.0,1e9,1e6,1e6\n" for i in range(blocks * block + 1))
        trace.write_text(TRACE_CSV_HEADER + "\n" + "".join(rows))
        out = tmp_path / "report.json"
        out.write_bytes(b"previous report\n")
        real_fdopen = os.fdopen
        writes = []

        class FailingWrite:
            """Writes through until write number ``failing_write``, which fails like a full disk."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, data):
                writes.append(len(data))
                if len(writes) == failing_write:
                    raise OSError(28, "No space left on device")
                return self.handle.write(data)

        monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs: FailingWrite(real_fdopen(*args, **kwargs)))
        args = ["estimate", "--config", str(CLI / "config.json"), "--trace", str(trace), "--out", str(out)]
        result = invoke(args)
        assert result.exit_code == 3
        assert "No space left on device" in result.stderr
        assert len(writes) == failing_write and min(writes) > 0
        assert out.read_bytes() == b"previous report\n"
        assert not list(tmp_path.glob(".tmp-*"))
