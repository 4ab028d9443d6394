"""Tests of the benchmark itself: generator, output checks, spans.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import jsonschema
import pytest

import gen
import reference
import run
import spans

sys.path.insert(0, str(run.SRC))

SCHEMA = json.loads(run.SCHEMA.read_text("utf-8"))
BENCHMARK = json.loads(run.BENCHMARK.read_text("utf-8"))


@pytest.fixture(scope="module")
def stub():
    with run.FeedStub() as server:
        yield server


JSON_WORKLOADS = ["trace_heavy", "ledger_heavy"]


@pytest.fixture(scope="module", params=list(gen.WORKLOADS))
def report(request, stub, tmp_path_factory):
    """A real report of a workload scaled down 40 times, written in-process."""
    inputs = run.prepare(request.param, 7, 40, stub, tmp_path_factory.mktemp(request.param))
    saved = os.environ.get("CARBONDEF_CACHE_DIR")
    os.environ["CARBONDEF_CACHE_DIR"] = str(inputs.cache_dir)
    try:
        assert run.call_cli(inputs.argv()) == 0
    finally:
        if saved is None:
            del os.environ["CARBONDEF_CACHE_DIR"]
        else:
            os.environ["CARBONDEF_CACHE_DIR"] = saved
    return inputs, inputs.out.read_bytes()


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in gen.WORKLOADS:
        assert gen.generate(name, 3, 4) == gen.generate(name, 3, 4)
        assert gen.generate(name, 3, 4).samples != gen.generate(name, 4, 4).samples


def test_full_size_workloads_have_the_stated_sizes():
    assert len(gen.generate("trace_heavy", 1).samples) == 100_000
    ledger = gen.generate("ledger_heavy", 1)
    assert (len(ledger.objects), len(ledger.records), len(ledger.samples)) == (1600, 16_000, 96)
    assert len({r["consumer_id"] for r in ledger.records}) == 50
    assert len(gen.generate("misaligned_csv", 1).samples) == 50_000


def test_benchmark_file_names_the_generated_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.WORKLOADS)


def test_correct_report_passes(report):
    inputs, data = report
    check = reference.compile_schema(SCHEMA)
    assert reference.check_report(data, inputs.workload.output, inputs.expected, check) == []


def _corruptions(doc: dict):
    """Each yields (label, corrupted JSON bytes) of a valid full report."""
    scaled = copy.deepcopy(doc)
    scaled["operational"]["total_kg_co2e"] *= 1 + 1e-6
    yield "operational total", scaled
    energy = copy.deepcopy(doc)
    energy["energy"]["kwh_total"] += 1e-3
    yield "energy total", energy
    conservation = copy.deepcopy(doc)
    conservation["embodied"]["conservation"]["attributed_plus_residual_kg_co2e"] *= 0.5
    yield "conservation", conservation
    missing = copy.deepcopy(doc)
    del missing["sci"]
    yield "missing section", missing
    negative = copy.deepcopy(doc)
    negative["energy"]["intervals"][-1]["kwh_total"] = -1.0
    yield "negative interval", negative
    extra = copy.deepcopy(doc)
    extra["operational"]["segments"][0]["note"] = "x"
    yield "extra key", extra


@pytest.mark.parametrize("report", JSON_WORKLOADS, indirect=True)
def test_checks_reject_corrupted_json_report(report):
    inputs, data = report
    check = reference.compile_schema(SCHEMA)
    doc = json.loads(data)
    for label, corrupted in _corruptions(doc):
        problems = reference.check_report(
            json.dumps(corrupted).encode(), "json", inputs.expected, check
        )
        assert problems, label
    nan = data.replace(b'"kwh_total": ', b'"kwh_total": NaN, "x": ', 1)
    assert reference.check_report(nan, "json", inputs.expected, check)
    assert reference.check_report(data[: len(data) // 2], "json", inputs.expected, check)


@pytest.mark.parametrize("report", ["misaligned_csv"], indirect=True)
def test_checks_reject_corrupted_csv_report(report):
    inputs, data = report
    lines = data.decode().splitlines()
    for index, line in enumerate(lines):
        if ",kg_co2e," in line and line.startswith("operational"):
            head, value = line.rsplit(",", 1)
            lines[index] = f"{head},{float(value) * 1.001!r}"
            break
    corrupted = ("\n".join(lines) + "\n").encode()
    assert reference.check_report(corrupted, "csv", inputs.expected, None)
    truncated = b"\n".join(data.split(b"\n")[:-100]) + b"\n"
    assert reference.check_report(truncated, "csv", inputs.expected, None)


@pytest.mark.parametrize("report", JSON_WORKLOADS, indirect=True)
def test_compiled_schema_agrees_with_jsonschema(report):
    inputs, data = report
    doc = json.loads(data)
    check = reference.compile_schema(SCHEMA)
    validator = jsonschema.Draft202012Validator(SCHEMA)
    cases = [doc, *[corrupted for _, corrupted in _corruptions(doc)]]
    wrong_type = copy.deepcopy(doc)
    wrong_type["meta"]["window"] = {"start": "0", "end": 1}
    cases.append(wrong_type)
    for case in cases:
        assert (check(case) is None) == validator.is_valid(case)


def test_compiled_schema_refuses_unknown_keywords():
    with pytest.raises(ValueError):
        reference.compile_schema({"type": "string", "pattern": "^a"})


def test_traced_run_emits_every_per_layer_metric(stub, tmp_path):
    full = run.prepare("ledger_heavy", 5, 4, stub, tmp_path / "full")
    quarter = run.prepare("ledger_heavy", 5, 16, stub, tmp_path / "quarter")
    check = reference.compile_schema(SCHEMA)
    metrics, runs, problems = run.measure_layers(full, quarter, 0, stub, check, tmp_path / "spans.json")
    assert problems == []
    assert all(r["ok"] for r in runs) and len(runs) == 3
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["embodied.idle_residual_calls"] == 1600 // 4
    assert metrics["ingest.ledger_records"] == 16_000 // 4
    assert metrics["trace.overhead_ratio"] > 0
    for name, value in metrics.items():
        assert math.isfinite(value) and value >= 0, name


def test_self_time_subtracts_children_and_flags_overflow():
    spans_list = [
        {"run": 0, "id": 0, "name": "report.build_full_report", "parent": None, "start": 0.0, "end": 4.0},
        {"run": 0, "id": 1, "name": "power.trace_to_energy_series", "parent": 0, "start": 0.5, "end": 1.5},
        {"run": 0, "id": 2, "name": "grid.operational_emissions", "parent": 0, "start": 2.0, "end": 3.5},
        {"run": 0, "id": 3, "name": "grid.align_segments", "parent": 2, "start": 2.0, "end": 3.0},
    ]
    summary = spans._run_summary(5.0, spans_list)
    assert summary["self_s"]["report.build_full_report"] == pytest.approx(1.5)
    assert summary["self_s"]["grid.operational_emissions"] == pytest.approx(0.5)
    assert summary["self_s"]["cli.self"] == pytest.approx(1.0)
    assert summary["overflows"] == []
    spans_list[3]["end"] = 4.0
    assert spans._run_summary(5.0, spans_list)["overflows"] == ["grid.operational_emissions"]


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = bytearray(300 * 1024 * 1024)
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])  # touch every page
    with run.Launcher() as launcher:
        _, rss_mb, code = launcher.run(
            run.cli_argv("--version"), dict(os.environ, PYTHONPATH=str(run.SRC)), tmp_path / "err"
        )
    assert code == 0
    assert rss_mb < 150, rss_mb
    del ballast


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.BENCHMARK, tmp_path)
    result = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "ledger_heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
