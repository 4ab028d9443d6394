"""Shared helpers: relative-error checks, seeded random generators for
specs/series/ledgers, naive reference implementations, and the
malformed-fixture manifest."""

from __future__ import annotations

import csv
import io
import math
import random
from pathlib import Path
from typing import Any

from carbondef import (
    ConsumptionRecord,
    EmbodiedObject,
    EnergyEntry,
    EnergySeries,
    IntensityEntry,
    IntensitySeries,
    Ledger,
    ProfileStep,
    PerComponent,
    PueFactor,
    ServerSpec,
    SharingProfile,
    UsageSample,
)
from carbondef.errors import (
    AllocationError,
    FractionError,
    LedgerReferenceError,
    NegativeIntensityError,
    OverlapError,
    OversubscriptionError,
    ParseError,
    ProfileOutOfLifespan,
    SchemaError,
    SpecError,
    TraceOrderError,
    ValidationError,
)
from carbondef.embodied import OVERSUBSCRIPTION_TOL
from carbondef.grid import JOULES_PER_KWH
from carbondef.power import ENERGY_SOURCES

FIXTURES = Path(__file__).parent / "fixtures"


def rel_close(a: float, b: float, tol: float) -> bool:
    """abs_tol deliberately zero: exact zeros must match exactly."""
    return math.isclose(a, b, rel_tol=tol, abs_tol=0.0)


def gen_spec(rng: random.Random, idle_max: float = 0.0) -> ServerSpec:
    weights = [rng.uniform(0.05, 1.0) for _ in range(4)]
    total = sum(weights)
    return ServerSpec(
        tdp_watts=rng.uniform(10.0, 500.0),
        n_cpu=rng.randint(1, 64),
        alpha=PerComponent(*(w / total for w in weights)),
        u_max=PerComponent(
            cpu=rng.uniform(1.0, 256.0),
            mem=rng.uniform(1e6, 1e12),
            io=rng.uniform(1e6, 1e12),
            net=rng.uniform(1e6, 1e12),
        ),
        idle_watts=rng.uniform(0.0, idle_max) if idle_max > 0 else 0.0,
    )


def full_load_sample(spec: ServerSpec, start: int = 0, duration_s: float = 3600.0) -> UsageSample:
    return UsageSample(
        start, duration_s, spec.u_max.cpu, spec.u_max.mem, spec.u_max.io, spec.u_max.net
    )


def gen_usage(rng: random.Random, spec: ServerSpec, start: int = 0) -> UsageSample:
    return UsageSample(
        start,
        rng.uniform(1.0, 3600.0),
        rng.uniform(0.0, spec.u_max.cpu),
        rng.uniform(0.0, spec.u_max.mem),
        rng.uniform(0.0, spec.u_max.io),
        rng.uniform(0.0, spec.u_max.net),
    )


def energy_entry(start: int, duration_s: float, joules: float) -> EnergyEntry:
    return EnergyEntry(
        start=start,
        duration_s=duration_s,
        joules_total=joules,
        joules_by_component={"cpu": joules, "mem": 0.0, "io": 0.0, "net": 0.0, "idle": 0.0},
    )


def gen_series_pair(
    rng: random.Random, allow_gaps: bool = True
) -> tuple[EnergySeries, IntensitySeries]:
    """A whole-second energy series plus an intensity series roughly
    covering it, with optional gaps on both sides."""
    t = rng.randrange(0, 1_000_000)
    entries = []
    for _ in range(rng.randint(1, 5)):
        if allow_gaps and rng.random() < 0.3:
            t += rng.randrange(1, 120)
        duration = rng.randrange(10, 600)
        joules = rng.uniform(0.0, 5e8) if rng.random() > 0.1 else 0.0
        entries.append(energy_entry(t, float(duration), joules))
        t += duration
    energy = EnergySeries(entries=tuple(entries))
    window_start, window_end = energy.window()

    cursor = int(window_start) - rng.randrange(0, 300)
    end_target = int(window_end) + rng.randrange(0, 300)
    intensity_entries = []
    while cursor < end_target:
        if allow_gaps and rng.random() < 0.2:
            cursor += rng.randrange(1, 200)
        width = rng.randrange(60, 1800)
        intensity_entries.append(
            IntensityEntry(cursor, cursor + width, rng.uniform(0.0, 1.2))
        )
        cursor += width
    return energy, IntensitySeries(region="ZZ", entries=tuple(intensity_entries))


def gen_ledger(rng: random.Random) -> Ledger:
    """Random multi-object, multi-consumer ledger with sharing fractions
    capped so no instant is oversubscribed."""
    objects = []
    records = []
    for object_index in range(rng.randint(1, 4)):
        start = rng.randrange(1_500_000_000, 1_600_000_000)
        lifespan = rng.randrange(10_000, 100_000_000)
        obj = EmbodiedObject(
            id=f"obj-{object_index}",
            m_kg=rng.uniform(0.0, 2000.0),
            r_kg=rng.uniform(0.0, 500.0),
            eol_kg=rng.uniform(0.0, 300.0),
            lifespan_start=start,
            lifespan_s=float(lifespan),
        )
        objects.append(obj)
        consumer_count = rng.randint(0, 4)
        if consumer_count == 0:
            continue
        raw = [rng.random() + 1e-9 for _ in range(consumer_count)]
        scale = rng.uniform(0.1, 1.0) / sum(raw)
        for consumer_index in range(consumer_count):
            cap = raw[consumer_index] * scale
            a = rng.randrange(start, start + lifespan)
            b = rng.randrange(a + 1, start + lifespan + 1)
            cut_count = min(rng.randint(0, 2), max(0, b - a - 1))
            cuts = sorted(rng.sample(range(a + 1, b), cut_count))
            bounds = [a, *cuts, b]
            steps = tuple(
                ProfileStep(lo, hi, rng.uniform(0.0, cap))
                for lo, hi in zip(bounds, bounds[1:])
            )
            records.append(
                ConsumptionRecord(
                    consumer_id=f"consumer-{consumer_index}",
                    object_id=obj.id,
                    profile=SharingProfile(steps=steps),
                )
            )
    return Ledger.build(objects, records)


# --- naive reference implementations ---

class OracleResolutionError(ValidationError):
    """Reference-oracle input has a boundary off the whole-second grid."""


def oracle_emissions(
    energy: EnergySeries, intensity: IntensitySeries, pue: PueFactor
) -> float:
    """Reference result by brute-force 1-second enumeration.

    Spreads each interval's joules uniformly over its seconds, looks up
    that second's intensity independently, and sums. Seconds without
    coverage are skipped, mirroring the skip_uncovered policy. Kept
    deliberately naive.
    """
    for interval in energy.entries:
        if not float(interval.start).is_integer() or not float(interval.duration_s).is_integer():
            raise OracleResolutionError(
                f"energy boundary off the whole-second grid at start={interval.start}"
            )
    for entry in intensity.entries:
        if not float(entry.start).is_integer() or not float(entry.end).is_integer():
            raise OracleResolutionError(
                f"intensity boundary off the whole-second grid at start={entry.start}"
            )

    total = 0.0
    for interval in energy.entries:
        joules_per_second = interval.joules_total / interval.duration_s
        for second in range(int(interval.start), int(interval.start + interval.duration_s)):
            value = intensity.value_at(second)
            if value is None:
                continue
            total += value * joules_per_second
    return pue.value * total / JOULES_PER_KWH


def naive_check_oversubscription(object_id: str, records) -> None:
    """Reference oversubscription check: for every pair of adjacent step
    boundaries of one object, sum the covering fractions in ledger order."""
    steps = [
        step
        for record in records
        if record.object_id == object_id
        for step in record.profile.steps
    ]
    boundaries = sorted({edge for step in steps for edge in (step.start, step.end)})
    for left, right in zip(boundaries, boundaries[1:]):
        total = sum(
            step.fraction for step in steps if step.start <= left and step.end >= right
        )
        if total > 1.0 + OVERSUBSCRIPTION_TOL:
            raise OversubscriptionError(object_id, left, total)


def _csv_bytes(header: list[str], rows: list[list[Any]]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def naive_csv_bytes(report: dict[str, Any]) -> bytes:
    """Reference CSV rendering: one list per row, all through csv.writer."""
    report_type = report["meta"]["report"]
    if report_type == "estimate":
        return _csv_bytes(
            ["start", "duration_s", "kwh_total", "kwh_cpu", "kwh_mem", "kwh_io", "kwh_net", "kwh_idle"],
            [
                [
                    entry["start"],
                    entry["duration_s"],
                    entry["kwh_total"],
                    *[entry["kwh_by_component"][source] for source in ENERGY_SOURCES],
                ]
                for entry in report["energy"]["intervals"]
            ],
        )
    if report_type == "emissions":
        return _csv_bytes(
            ["start", "duration_s", "kwh", "intensity_kg_per_kwh", "kg_co2e"],
            [
                [
                    segment["start"],
                    segment["duration_s"],
                    segment["kwh"],
                    segment["intensity_kg_per_kwh"],
                    segment["kg_co2e"],
                ]
                for segment in report["operational"]["segments"]
            ],
        )
    if report_type == "embodied":
        rows: list[list[Any]] = []
        section = report["embodied"]
        for consumer in section["consumers"]:
            for item in consumer["objects"]:
                rows.append(
                    ["attribution", consumer["consumer_id"], item["object_id"], item["kg_co2e"]]
                )
        for obj in section["objects"]:
            rows.append(["idle_residual", "", obj["object_id"], obj["idle_residual_kg_co2e"]])
            rows.append(["lifecycle_total", "", obj["object_id"], obj["lifecycle_kg_co2e"]])
        rows.append(
            ["conservation", "", "", section["conservation"]["attributed_plus_residual_kg_co2e"]]
        )
        return _csv_bytes(["record_type", "consumer_id", "object_id", "kg_co2e"], rows)
    if report_type == "report":
        rows = []
        for entry in report["energy"]["intervals"]:
            rows.append(["energy", "", entry["start"], entry["duration_s"], "kwh_total", entry["kwh_total"]])
            for source in ENERGY_SOURCES:
                rows.append(
                    ["energy", "", entry["start"], entry["duration_s"], f"kwh_{source}", entry["kwh_by_component"][source]]
                )
        for segment in report["operational"]["segments"]:
            for metric in ("kwh", "intensity_kg_per_kwh", "kg_co2e"):
                rows.append(
                    ["operational", "", segment["start"], segment["duration_s"], metric, segment[metric]]
                )
        for consumer in report["embodied"]["consumers"]:
            for item in consumer["objects"]:
                rows.append(
                    ["embodied", f"{consumer['consumer_id']}/{item['object_id']}", "", "", "kg_co2e", item["kg_co2e"]]
                )
        for obj in report["embodied"]["objects"]:
            rows.append(
                ["embodied", obj["object_id"], "", "", "idle_residual_kg_co2e", obj["idle_residual_kg_co2e"]]
            )
        sci = report["sci"]
        for metric in ("operational_kg_co2e", "embodied_kg_co2e", "total_kg_co2e", "sci_kg_co2e_per_unit"):
            rows.append(["sci", sci["functional_unit"]["name"], "", "", metric, sci[metric]])
        return _csv_bytes(["section", "id", "start", "duration_s", "metric", "value"], rows)
    raise ValueError(f"unknown report type {report_type!r}")

# (fixture file, parser kind, expected error class, location marker in str(exc))
MALFORMED = [
    ("trace_bad_header.csv", "trace_csv", SchemaError, "row 1"),
    ("trace_missing_column.csv", "trace_csv", SchemaError, "row 1"),
    ("trace_no_header.csv", "trace_csv", SchemaError, "row 1"),
    ("trace_short_row.csv", "trace_csv", ParseError, "row 2"),
    ("trace_bad_timestamp.csv", "trace_csv", ParseError, "row 2"),
    ("trace_float_timestamp.csv", "trace_csv", ParseError, "row 2"),
    ("trace_bad_number.csv", "trace_csv", ParseError, "row 2"),
    ("trace_negative_duration.csv", "trace_csv", ParseError, "row 2"),
    ("trace_negative_usage.csv", "trace_csv", ParseError, "row 2"),
    ("trace_unsorted.csv", "trace_csv", TraceOrderError, "row 3"),
    ("trace_overlap.csv", "trace_csv", TraceOrderError, "row 3"),
    ("trace_nan_usage.csv", "trace_csv", ParseError, "row 2"),
    ("trace_unsorted.json", "trace_json", TraceOrderError, "sample 1"),
    ("trace_bad_syntax.json", "trace_json", ParseError, "byte"),
    ("trace_missing_samples.json", "trace_json", SchemaError, "$"),
    ("trace_missing_field.json", "trace_json", SchemaError, "samples[0]"),
    ("trace_bad_type.json", "trace_json", ParseError, "samples[0].u_cpu_cores"),
    ("intensity_bad_syntax.json", "intensity", ParseError, "byte"),
    ("intensity_missing_region.json", "intensity", SchemaError, "$"),
    ("intensity_missing_entries.json", "intensity", SchemaError, "$"),
    ("intensity_entries_not_array.json", "intensity", SchemaError, "$.entries"),
    ("intensity_float_start.json", "intensity", ParseError, "entries[0].start"),
    ("intensity_end_before_start.json", "intensity", ParseError, "entries[0]"),
    ("intensity_negative.json", "intensity", NegativeIntensityError, "entries[0]"),
    ("intensity_overlap.json", "intensity", OverlapError, "entries[1]"),
    ("intensity_infinity.json", "intensity", ParseError, "entries[0].intensity_kg_per_kwh"),
    ("ledger_bad_syntax.json", "ledger", ParseError, "byte"),
    ("ledger_missing_objects.json", "ledger", SchemaError, "$"),
    ("ledger_missing_records.json", "ledger", SchemaError, "$"),
    ("ledger_negative_lifecycle.json", "ledger", ParseError, "objects[0]"),
    ("ledger_zero_lifespan.json", "ledger", ParseError, "objects[0]"),
    ("ledger_overflow_m_kg.json", "ledger", ParseError, "objects[0].m_kg"),
    ("ledger_dangling_ref.json", "ledger", LedgerReferenceError, "records[0]"),
    ("ledger_fraction_range.json", "ledger", FractionError, "records[0].profile[0]"),
    ("ledger_oversubscribed.json", "ledger", OversubscriptionError, "rack-1"),
    ("ledger_step_order.json", "ledger", ParseError, "records[0].profile"),
    ("ledger_step_end_before_start.json", "ledger", ParseError, "records[0].profile[0]"),
    ("ledger_profile_outside.json", "ledger", ProfileOutOfLifespan, "records[0]"),
    ("config_two_sources.json", "config", SchemaError, "$.intensity"),
    ("config_no_source.json", "config", SchemaError, "$.intensity"),
    ("config_endpoint_no_region.json", "config", SchemaError, "$.intensity"),
    ("config_bad_alpha.json", "config", AllocationError, "alpha"),
    ("config_bad_pue.json", "config", ParseError, "$.pue"),
    ("config_nan_pue.json", "config", ParseError, "$.pue"),
    ("config_bad_policy.json", "config", ParseError, "$.coverage_policy"),
    ("config_zero_units.json", "config", ParseError, "$.functional_unit.count"),
    ("config_bad_tdp.json", "config", SpecError, "tdp_watts"),
    ("config_bad_units_tag.json", "config", SpecError, "u_max_units"),
    ("config_units_not_object.json", "config", SchemaError, "$.server.u_max_units"),
]


def parse_malformed(kind: str, data: bytes):
    """Dispatch a corpus entry to the right parser."""
    from carbondef.ingest import (
        parse_config,
        parse_intensity_feed,
        parse_ledger,
        parse_usage_trace,
    )

    if kind == "trace_csv":
        return parse_usage_trace(data, format="csv")
    if kind == "trace_json":
        return parse_usage_trace(data, format="json")
    if kind == "intensity":
        return parse_intensity_feed(data)
    if kind == "ledger":
        return parse_ledger(data)
    if kind == "config":
        return parse_config(data)
    raise AssertionError(f"unknown corpus kind {kind!r}")
