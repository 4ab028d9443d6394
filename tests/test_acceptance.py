"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Randomized criteria use fixed seeds so runs are reproducible.
"""

import dataclasses
import json
import os
import random
import time
from pathlib import Path

import pytest

from carbondef import (
    PueFactor,
    UsageSample,
    attribute_shared,
    attribute_simple,
    component_power,
    consumer_embodied,
    idle_residual,
    lifecycle_total,
    marginal_power,
    operational_emissions,
)
from carbondef.embodied import ConsumptionRecord, full_use_profile
from carbondef.grid import JOULES_PER_KWH, IntensityEntry, IntensitySeries
from carbondef.ingest import fetch_intensity
from carbondef.power import COMPONENTS

from support import (
    FIXTURES,
    MALFORMED,
    full_load_sample,
    gen_ledger,
    gen_series_pair,
    gen_spec,
    gen_usage,
    invoke,
    oracle_emissions,
    parse_malformed,
    rel_close,
    serialize_ledger,
    serialize_usage_trace,
)

CLI = FIXTURES / "cli"


def _finish(number: int, name: str, ok: bool, failures: list):
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed: {failures[:5]}"


def test_criterion_1_full_load_anchor():
    ok, failures = False, []
    try:
        rng = random.Random(101)
        started = time.perf_counter()
        for case in range(100):
            spec = gen_spec(rng)
            total = sum(component_power(spec, full_load_sample(spec)).values())
            anchor = spec.tdp_watts * spec.n_cpu / spec.alpha.cpu
            if not rel_close(total, anchor, 1e-9):
                failures.append((case, total, anchor))
        elapsed = time.perf_counter() - started
        if elapsed >= 1.0:
            failures.append(f"runtime {elapsed:.2f}s >= 1s")
        ok = not failures
    finally:
        _finish(1, "full-load anchor", ok, failures)


def test_criterion_2_linearity():
    ok, failures = False, []
    try:
        rng = random.Random(202)
        started = time.perf_counter()
        for case in range(1000):
            spec = gen_spec(rng)
            sample = gen_usage(rng, spec)
            lam = rng.uniform(0.0, 1.0)
            scaled = UsageSample(
                sample.start,
                sample.duration_s,
                lam * sample.u_cpu,
                lam * sample.u_mem,
                lam * sample.u_io,
                lam * sample.u_net,
            )
            base = component_power(spec, sample)
            shrunk = component_power(spec, scaled)
            for source in COMPONENTS:
                if not rel_close(shrunk.get(source), lam * base.get(source), 1e-12):
                    failures.append((case, source))
        elapsed = time.perf_counter() - started
        if elapsed >= 1.0:
            failures.append(f"runtime {elapsed:.2f}s >= 1s")
        ok = not failures
    finally:
        _finish(2, "linearity", ok, failures)


def test_criterion_3_marginal_consistency():
    ok, failures = False, []
    try:
        rng = random.Random(303)
        for case in range(100):
            spec = gen_spec(rng)
            component = rng.choice(COMPONENTS)
            limit = spec.u_max.get(component)
            delta = limit / 65536.0
            u = rng.uniform(0.05, 0.95) * limit
            zero = UsageSample(0, 1.0, 0, 0, 0, 0)
            p0 = component_power(
                spec, dataclasses.replace(zero, **{f"u_{component}": u})
            ).get(component)
            p1 = component_power(
                spec, dataclasses.replace(zero, **{f"u_{component}": u + delta})
            ).get(component)
            difference = (p1 - p0) / delta
            if not rel_close(difference, marginal_power(spec, component), 1e-9):
                failures.append((case, component, difference))
        ok = not failures
    finally:
        _finish(3, "marginal consistency", ok, failures)


def test_criterion_4_riemann_oracle_equivalence():
    ok, failures = False, []
    try:
        rng = random.Random(404)
        started = time.perf_counter()
        for case in range(1000):
            energy, intensity = gen_series_pair(rng)
            pue = PueFactor(rng.uniform(1.0, 2.2))
            report = operational_emissions(energy, intensity, pue, "skip_uncovered")
            expected = oracle_emissions(energy, intensity, pue)
            if not rel_close(report.total_kg_co2e, expected, 1e-9):
                failures.append((case, report.total_kg_co2e, expected))
        elapsed = time.perf_counter() - started
        if elapsed >= 30.0:
            failures.append(f"runtime {elapsed:.2f}s >= 30s")
        ok = not failures
    finally:
        _finish(4, "Riemann-sum oracle equivalence", ok, failures)


def test_criterion_5_constant_intensity_collapse():
    ok, failures = False, []
    try:
        rng = random.Random(505)
        for case in range(100):
            energy, _ = gen_series_pair(rng, allow_gaps=False)
            window = energy.window()
            value = rng.uniform(0.0, 2.0)
            pue = rng.uniform(1.0, 2.5)
            intensity = IntensitySeries(
                region="ZZ",
                entries=(IntensityEntry(int(window[0]) - 1, int(window[1]) + 1, value),),
            )
            report = operational_emissions(energy, intensity, PueFactor(pue), "strict")
            expected = pue * value * energy.total_joules() / JOULES_PER_KWH
            if not rel_close(report.total_kg_co2e, expected, 1e-12):
                failures.append((case, report.total_kg_co2e, expected))
        ok = not failures
    finally:
        _finish(5, "constant-intensity collapse", ok, failures)


def test_criterion_6_embodied_conservation():
    ok, failures = False, []
    try:
        rng = random.Random(606)
        for case in range(500):
            ledger = gen_ledger(rng)
            for object_id, obj in ledger.objects.items():
                attributed = sum(
                    attribute_shared(obj, record)
                    for record in ledger.records_for_object(object_id)
                )
                total = lifecycle_total(obj)
                residual = idle_residual(ledger, object_id)
                if total != 0.0 and not rel_close(attributed + residual, total, 1e-9):
                    failures.append((case, object_id))
                # a fraction-1 full-lifespan profile is plain proportional use
                full = ConsumptionRecord("probe", object_id, full_use_profile(obj))
                if attribute_shared(obj, full) != attribute_simple(obj, obj.lifespan_s):
                    failures.append((case, object_id, "reduction"))
        ok = not failures
    finally:
        _finish(6, "embodied conservation", ok, failures)


def test_criterion_7_end_to_end_fixture(tmp_path):
    ok, failures = False, []
    try:
        outputs = []
        for run in range(2):
            out = tmp_path / f"run{run}.json"
            result = invoke([
                "report",
                "--config", str(CLI / "config.json"),
                "--trace", str(CLI / "trace_full_load.csv"),
                "--ledger", str(CLI / "ledger.json"),
                "--out", str(out),
            ])
            if result.exit_code != 0:
                failures.append(f"exit {result.exit_code}: {result.stderr}")
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            failures.append("runs not byte-identical")
        report = json.loads(outputs[0])
        sci = report["sci"]
        if not rel_close(sci["operational_kg_co2e"], 0.45, 1e-9):
            failures.append(("operational", sci["operational_kg_co2e"]))
        if not rel_close(sci["embodied_kg_co2e"], 100.0, 1e-9):
            failures.append(("embodied", sci["embodied_kg_co2e"]))
        if not rel_close(sci["sci_kg_co2e_per_unit"], 0.10045, 1e-9):
            failures.append(("sci", sci["sci_kg_co2e_per_unit"]))
        ok = not failures
    finally:
        _finish(7, "end-to-end fixture", ok, failures)


def test_criterion_8_ingestion_corpus():
    ok, failures = False, []
    try:
        if len(MALFORMED) < 20:
            failures.append(f"corpus has only {len(MALFORMED)} fixtures")
        for filename, kind, error_class, marker in MALFORMED:
            data = (FIXTURES / "malformed" / filename).read_bytes()
            try:
                parse_malformed(kind, data)
                failures.append((filename, "no error raised"))
            except error_class as exc:
                if type(exc) is not error_class:
                    failures.append((filename, f"got subclass {type(exc).__name__}"))
                elif marker not in str(exc):
                    failures.append((filename, f"location {marker!r} missing"))
            except Exception as exc:  # wrong class entirely
                failures.append((filename, f"got {type(exc).__name__}"))

        from carbondef.ingest import (
            parse_intensity_feed,
            parse_ledger,
            parse_usage_trace,
            serialize_intensity_feed,
        )

        canonical = FIXTURES / "canonical"
        round_trips = [
            ("trace.csv", lambda d: serialize_usage_trace(parse_usage_trace(d, "csv"), "csv")),
            ("trace.json", lambda d: serialize_usage_trace(parse_usage_trace(d, "json"), "json")),
            ("intensity.json", lambda d: serialize_intensity_feed(parse_intensity_feed(d))),
            ("ledger.json", lambda d: serialize_ledger(parse_ledger(d))),
        ]
        for filename, round_trip in round_trips:
            data = (canonical / filename).read_bytes()
            if round_trip(data) != data:
                failures.append((filename, "round-trip not byte-identical"))
        ok = not failures
    finally:
        _finish(8, "ingestion corpus", ok, failures)


def test_criterion_9_feed_client(feed_server, tmp_path, monkeypatch):
    ok, failures = False, []
    try:
        replaced = []
        real_replace = os.replace

        def spying_replace(src, dst):
            replaced.append((Path(src).name, Path(dst).name, Path(src).read_bytes()))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spying_replace)

        first = fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        second = fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        if feed_server.hits != 1:
            failures.append(f"{feed_server.hits} network calls within freshness window")
        if first != second:
            failures.append("cache hit returned a different series")

        if len(replaced) != 1:
            failures.append(f"{len(replaced)} cache writes observed")
        else:
            temp_name, final_name, temp_bytes = replaced[0]
            if temp_name == final_name:
                failures.append("cache write not staged through a temp file")
            try:
                json.loads(temp_bytes)  # complete entry at rename time
            except ValueError:
                failures.append("temp file incomplete at rename time")
        if list(tmp_path.glob(".tmp-*")):
            failures.append("temp files left behind")
        ok = not failures
    finally:
        _finish(9, "feed client cache semantics", ok, failures)
