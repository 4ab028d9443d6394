"""Shared helpers: an in-process CLI runner, relative-error checks, seeded
random generators for specs/series/ledgers, the canonical trace and ledger
serializers, naive reference implementations, and the malformed-fixture
manifest."""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
import random
import sys
from array import array
from pathlib import Path
from types import SimpleNamespace
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
    UsageTrace,
    align_segments,
    cli,
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
    UsageOutOfRange,
    ValidationError,
)
from carbondef.embodied import OVERSUBSCRIPTION_TOL
from carbondef.grid import JOULES_PER_KWH, EmissionsSegment, UncoveredSpan
from carbondef.ingest import TRACE_CSV_HEADER, TRACE_FIELDS, canonical_json
from carbondef.power import COMPONENTS, ENERGY_SOURCES
from carbondef.report import render_report

FIXTURES = Path(__file__).parent / "fixtures"


def invoke(argv: list[str]) -> SimpleNamespace:
    """Run ``carbondef argv`` in-process, as the shell would: stdout and stderr
    captured as bytes (and text), ``SystemExit`` turned into ``exit_code``.
    Any other exception propagates: the CLI lets none out."""
    saved = sys.stdout, sys.stderr
    streams = [io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True) for _ in saved]
    sys.stdout, sys.stderr = streams
    try:
        try:
            cli.main(argv)
            exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        # read now: a wrapper closes its buffer once collected
        stdout_bytes, stderr_bytes = (stream.buffer.getvalue() for stream in streams)
    finally:
        sys.stdout, sys.stderr = saved
    return SimpleNamespace(exit_code=exit_code, stdout_bytes=stdout_bytes, stderr_bytes=stderr_bytes,
                           stdout=stdout_bytes.decode(), stderr=stderr_bytes.decode())


def to_json_bytes(report: Any) -> bytes:
    """The bytes ``render_report`` writes for ``report`` as JSON, in one ``bytes``."""
    render_report(report, "json", sink := io.BytesIO())
    return sink.getvalue()


def to_csv_bytes(report: dict[str, Any]) -> bytes:
    """The bytes ``render_report`` writes for ``report`` as CSV, in one ``bytes``."""
    render_report(report, "csv", sink := io.BytesIO())
    return sink.getvalue()


def serialize_usage_trace(trace: UsageTrace, format: str = "csv") -> bytes:
    """Canonical bytes for a trace; floats use shortest round-trip form."""
    if format == "csv":
        lines = [TRACE_CSV_HEADER, *map("%r,%r,%r,%r,%r,%r".__mod__, zip(*trace.columns))]
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        return canonical_json({"samples": [dict(zip(TRACE_FIELDS, row)) for row in zip(*trace.columns)]})
    raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


def serialize_ledger(ledger: Ledger) -> bytes:
    """Canonical ledger bytes; objects sorted by id, records kept in order."""
    return canonical_json(
        {
            "objects": [
                {
                    "id": obj.id,
                    "m_kg": obj.m_kg,
                    "r_kg": obj.r_kg,
                    "eol_kg": obj.eol_kg,
                    "lifespan_start": obj.lifespan_start,
                    "lifespan_s": obj.lifespan_s,
                }
                for obj in sorted(ledger.objects.values(), key=lambda o: o.id)
            ],
            "records": [
                {
                    "consumer_id": record.consumer_id,
                    "object_id": record.object_id,
                    "profile": [
                        {"start": step.start, "end": step.end, "fraction": step.fraction}
                        for step in record.profile.steps
                    ],
                }
                for record in ledger.records
            ],
        }
    )


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
        joules_by_component=(joules, 0.0, 0.0, 0.0, 0.0),
    )


def energy_series(entries) -> EnergySeries:
    """The EnergySeries of ``entries`` (EnergyEntry rows), built on a UsageTrace of
    their intervals at zero usage, so the trace checks the intervals."""
    entries = tuple(entries)
    intervals = [entry.start for entry in entries], [entry.duration_s for entry in entries]
    trace = UsageTrace(columns=(*intervals, *[[0.0] * len(entries)] * 4))
    rows = [(entry.joules_total, *entry.joules_by_component) for entry in entries]
    return EnergySeries(trace, [array("d", column) for column in zip(*rows)] or [array("d")] * 6)


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
    energy = energy_series(entries)
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
    return Ledger.build(*gen_ledger_parts(rng))


def gen_ledger_parts(rng: random.Random) -> tuple[list[EmbodiedObject], list[ConsumptionRecord]]:
    """The objects and records of :func:`gen_ledger`."""
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
    return objects, records


def gen_feed(rng: random.Random, start: int, end: int, widths: tuple[int, int] = (60, 1800)) -> list[IntensityEntry]:
    """Feed entries of int bounds over about [start, end), with gaps between
    entries and holes where an entry is left out."""
    entries, cursor = [], start - rng.randrange(0, 600)
    while cursor < end + 600:
        if rng.random() < 0.2:
            cursor += rng.randrange(1, 600)
        width = rng.randrange(*widths)
        if rng.random() > 0.1:
            entries.append(IntensityEntry(cursor, cursor + width, rng.uniform(0.0, 1.2)))
        cursor += width
    return entries


def gen_aligned_trace(rng: random.Random) -> tuple[UsageTrace, IntensitySeries]:
    """Int starts, float durations (whole, quarter and arbitrary seconds) with
    some gaps, and a feed whose entries are now narrower, now wider than the
    samples: an interval that spans a whole entry gives a segment the entry's
    int duration."""
    samples, t = [], rng.randrange(0, 10**9)
    for _ in range(rng.randint(1, 12)):
        duration = rng.choice([float(rng.randrange(1, 4000)), rng.randrange(2, 16000) / 4, rng.uniform(0.5, 4000.0)])
        samples.append(UsageSample(t, duration, rng.uniform(0.0, 1.0), 0.0, 0.0, 0.0))
        t = math.ceil(t + duration) + (rng.randrange(1, 900) if rng.random() < 0.25 else 0)
    feed = gen_feed(rng, samples[0].start, t, rng.choice([(1, 60), (60, 3600), (1, 3600)]))
    return UsageTrace(samples), IntensitySeries(region="ZZ", entries=tuple(feed))


def gen_cli_inputs(rng: random.Random) -> dict[str, Any]:
    """The inputs of one ``carbondef report`` run: config and feed documents,
    trace CSV text and ledger bytes. Samples lie at present-day epochs with
    quarter-second durations, so each end is exact; the feed has gaps and
    holes (``skip_uncovered``); no value comes near a subnormal or an
    overflow, so doubling one is exact."""
    spec = gen_spec(rng, idle_max=300.0)
    limits = [spec.u_max.get(component) for component in COMPONENTS]
    rows, t = [], 1_700_000_000 + rng.randrange(0, 10**7)
    first = t
    for _ in range(rng.randint(1, 30)):
        duration = rng.randrange(4, 3600) / 4
        usages = [rng.choice([rng.uniform(0.0, limit), limit]) for limit in limits]
        rows.append(",".join(map(repr, (t, duration, *usages))))
        t = math.ceil(t + duration) + (rng.randrange(1, 900) if rng.random() < 0.2 else 0)
    feed = [
        {"start": entry.start, "end": entry.end, "intensity_kg_per_kwh": entry.intensity_kg_per_kwh}
        for entry in gen_feed(rng, first, t)
    ]
    server = {
        "tdp_watts": spec.tdp_watts,
        "n_cpu": spec.n_cpu,
        "alpha": {component: spec.alpha.get(component) for component in COMPONENTS},
        "u_max": dict(zip(COMPONENTS, limits)),
        "idle_watts": spec.idle_watts,
    }
    return {
        "config": {
            "server": server,
            "pue": rng.uniform(1.0, 2.0),
            "intensity": {"file": "intensity.json"},
            "coverage_policy": "skip_uncovered",
            "functional_unit": {"name": "call", "count": rng.randint(1, 10**6)},
        },
        "trace": "\n".join([TRACE_CSV_HEADER, *rows, ""]),
        "feed": {"region": "ZZ", "entries": feed},
        "ledger": serialize_ledger(gen_ledger(rng)),
    }


def write_cli_inputs(inputs: dict[str, Any], directory: Path) -> list[str]:
    """Write ``gen_cli_inputs`` into ``directory``; the ``report`` command line that reads them."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "config.json").write_text(json.dumps(inputs["config"]))
    (directory / "intensity.json").write_text(json.dumps(inputs["feed"]))
    (directory / "trace.csv").write_text(inputs["trace"])
    (directory / "ledger.json").write_bytes(inputs["ledger"])
    return ["report", "--config", str(directory / "config.json"), "--trace", str(directory / "trace.csv"),
            "--ledger", str(directory / "ledger.json")]


# --- naive reference implementations ---

class OracleResolutionError(ValidationError):
    """Reference-oracle input has a boundary off the whole-second grid."""


def intensity_at(
    intensity: IntensitySeries, t: float, starts: list[int] | None = None
) -> float | None:
    """Intensity at instant t, or None when t falls in a gap; a boundary
    instant belongs to the later window. ``starts``, the entries' start
    times, saves rebuilding that list for each lookup."""
    if starts is None:
        starts = [entry.start for entry in intensity.entries]
    index = bisect.bisect_right(starts, t) - 1
    if index < 0:
        return None
    entry = intensity.entries[index]
    return entry.intensity_kg_per_kwh if t < entry.end else None


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

    starts = [entry.start for entry in intensity.entries]
    total = 0.0
    for interval in energy.entries:
        joules_per_second = interval.joules_total / interval.duration_s
        for second in range(int(interval.start), int(interval.start + interval.duration_s)):
            value = intensity_at(intensity, second, starts)
            if value is None:
                continue
            total += value * joules_per_second
    return pue.value * total / JOULES_PER_KWH


def naive_attribution(objects, records) -> tuple[dict[str, tuple[float, dict[str, float]]], dict[str, float]]:
    """Reference embodied attribution, record by record: ``({consumer id: (total kg, {object id:
    kg})}, {object id: idle residual kg})``. A record's kg is its object's m + r + eol times the
    sum of ``fraction * (end - start)`` over its ConsumptionRecord's steps, in step order, over
    ``lifespan_s``; totals add up in ledger order, and a residual is the lifecycle total less
    its object's record kg added up in ledger order. Every sum adds left to right from 0.0."""
    by_id = {obj.id: obj for obj in objects}
    kg = []
    for record in records:
        obj = by_id[record.object_id]
        seconds = 0.0
        for step in record.profile.steps:
            seconds += step.fraction * (step.end - step.start)
        kg.append((record, (obj.m_kg + obj.r_kg + obj.eol_kg) * seconds / obj.lifespan_s))
    consumers: dict[str, tuple[float, dict[str, float]]] = {}
    for record, value in kg:
        total, by_object = consumers.get(record.consumer_id, (0.0, {}))
        by_object[record.object_id] = by_object.get(record.object_id, 0.0) + value
        consumers[record.consumer_id] = (total + value, by_object)
    residuals = {}
    for object_id, obj in by_id.items():
        claimed = 0.0
        for record, value in kg:
            if record.object_id == object_id:
                claimed += value
        residuals[object_id] = obj.m_kg + obj.r_kg + obj.eol_kg - claimed
    return consumers, residuals


def naive_check_oversubscription(object_id: str, records) -> None:
    """Reference oversubscription check: for every pair of adjacent step
    boundaries of one object, add up the covering fractions left to right
    in ledger order."""
    steps = [
        step
        for record in records
        if record.object_id == object_id
        for step in record.profile.steps
    ]
    boundaries = sorted({edge for step in steps for edge in (step.start, step.end)})
    for left, right in zip(boundaries, boundaries[1:]):
        total = 0.0
        for step in steps:
            if step.start <= left and step.end >= right:
                total += step.fraction
        if total > 1.0 + OVERSUBSCRIPTION_TOL:
            raise OversubscriptionError(object_id, left, total)


def _naive_usage_ratio(spec: ServerSpec, sample: UsageSample, component: str, clamp: bool) -> float:
    usage = getattr(sample, f"u_{component}")
    limit = spec.u_max.get(component)
    if usage > limit:
        if not clamp:
            raise UsageOutOfRange(
                f"u_{component}={usage} exceeds u_max.{component}={limit}"
            )
        usage = limit
    return usage / limit


def naive_component_power(spec: ServerSpec, sample: UsageSample, clamp: bool = False) -> dict[str, float]:
    """Reference power model: one ratio per component, then its share of
    the full-load anchor, in the order the model fixes."""
    anchor = spec.tdp_watts * spec.n_cpu
    cpu_w = _naive_usage_ratio(spec, sample, "cpu", clamp) * anchor
    mem_w = _naive_usage_ratio(spec, sample, "mem", clamp) * (spec.alpha.mem / spec.alpha.cpu) * anchor
    io_w = _naive_usage_ratio(spec, sample, "io", clamp) * (spec.alpha.io / spec.alpha.cpu) * anchor
    net_w = _naive_usage_ratio(spec, sample, "net", clamp) * (spec.alpha.net / spec.alpha.cpu) * anchor
    return {"cpu": cpu_w, "mem": mem_w, "io": io_w, "net": net_w, "idle": spec.idle_watts}


def naive_energy_rows(spec: ServerSpec, samples, clamp: bool = False) -> list[tuple]:
    """Reference energy series: power times duration per sample, as
    (start, duration_s, joules_total, joules per ENERGY_SOURCES entry)."""
    rows = []
    for index, sample in enumerate(samples):
        try:
            power = naive_component_power(spec, sample, clamp=clamp)
        except UsageOutOfRange as exc:
            raise UsageOutOfRange(f"sample {index}: {exc}") from exc
        joules = {source: watts * sample.duration_s for source, watts in power.items()}
        total = joules["cpu"] + joules["mem"] + joules["io"] + joules["net"] + joules["idle"]
        rows.append((sample.start, sample.duration_s, total, tuple(joules[s] for s in ENERGY_SOURCES)))
    return rows


def naive_clamped_indices(spec: ServerSpec, samples) -> list[int]:
    return [
        index
        for index, sample in enumerate(samples)
        if any(getattr(sample, f"u_{c}") > spec.u_max.get(c) for c in COMPONENTS)
    ]


def bisect_align_segments(
    energy: EnergySeries, intensity: IntensitySeries, pue: PueFactor
) -> tuple[tuple[EmissionsSegment, ...], tuple[UncoveredSpan, ...]]:
    """Reference alignment: per energy interval, a bisect for the first
    intensity entry that could overlap it."""
    segments: list[EmissionsSegment] = []
    uncovered: list[UncoveredSpan] = []
    entries = intensity.entries
    starts = [entry.start for entry in entries]

    for interval in energy.entries:
        interval_end = interval.start + interval.duration_s
        span = interval_end - interval.start  # the span the segments cover: start + duration may round
        rate = interval.joules_total / span
        cursor = interval.start

        # first entry that could overlap: the one covering cursor, else the next
        index = bisect.bisect_right(starts, cursor) - 1
        if index < 0 or entries[index].end <= cursor:
            index += 1

        while index < len(entries) and entries[index].start < interval_end:
            entry = entries[index]
            overlap_start = max(cursor, entry.start)
            if overlap_start > cursor:
                uncovered.append(
                    UncoveredSpan(cursor, overlap_start - cursor, rate * (overlap_start - cursor))
                )
            overlap_end = min(interval_end, entry.end)
            joules = interval.joules_total * ((overlap_end - overlap_start) / span)
            segments.append(
                EmissionsSegment(
                    start=overlap_start,
                    duration_s=overlap_end - overlap_start,
                    joules=joules,
                    intensity_kg_per_kwh=entry.intensity_kg_per_kwh,
                    kg_co2e=pue.value
                    * (entry.intensity_kg_per_kwh * joules / JOULES_PER_KWH),
                )
            )
            cursor = overlap_end
            index += 1
        if cursor < interval_end:
            uncovered.append(
                UncoveredSpan(cursor, interval_end - cursor, rate * (interval_end - cursor))
            )
    return tuple(segments), tuple(uncovered)


def aligned_rows(
    energy: EnergySeries, intensity: IntensitySeries, pue: PueFactor
) -> tuple[tuple[EmissionsSegment, ...], tuple[UncoveredSpan, ...]]:
    """``align_segments``' columns as rows, as ``bisect_align_segments`` gives them."""
    segments, uncovered = align_segments(energy, intensity, pue)
    return tuple(map(EmissionsSegment, *segments)), tuple(map(UncoveredSpan, *uncovered))


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

def naive_parse_trace(data: bytes, format: str = "csv") -> UsageTrace:
    """Reference for ``parse_usage_trace``: one UsageSample per row or
    sample, each checked as it is read, then one walk over the samples for
    the order, naming the first sample that starts before its predecessor ends."""
    from carbondef.ingest import TRACE_CSV_HEADER, TRACE_FIELDS, _decode_json, _decode_utf8
    from carbondef.power import EPOCH_LIMIT

    samples: list[UsageSample] = []
    rows: list[int] | None = None
    if format == "csv":
        lines = _decode_utf8(data).split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            raise SchemaError("missing header", location="row 1")
        if lines[0] != TRACE_CSV_HEADER:
            raise SchemaError(f"header must be {TRACE_CSV_HEADER!r}, got {lines[0]!r}", location="row 1")
        rows = []
        for row, line in enumerate(lines[1:], 2):
            location = f"row {row}"
            fields = line.split(",")
            if len(fields) != 6:
                raise ParseError(f"expected 6 fields, got {len(fields)}", location=location)
            try:
                start = int(fields[0])
            except ValueError:
                raise ParseError(
                    f"timestamp_utc must be integer epoch seconds, got {fields[0]!r}", location=location
                ) from None
            if abs(start) > EPOCH_LIMIT:
                raise ParseError("timestamp_utc beyond ±2**53", location=location)
            try:
                values = [float(field) for field in fields[1:]]
            except ValueError as exc:
                raise ParseError(f"non-numeric field: {exc}", location=location) from None
            try:
                samples.append(UsageSample(start, *values))
            except ValueError as exc:
                raise ParseError(str(exc), location=location) from None
            rows.append(row)
    elif format == "json":
        doc = _decode_json(data)
        if not isinstance(doc, dict):
            raise SchemaError("expected an object", location="$")
        if "samples" not in doc:
            raise SchemaError("missing key 'samples'", location="$")
        raw_samples = doc["samples"]
        if not isinstance(raw_samples, list):
            raise SchemaError("'samples' must be an array", location="$.samples")
        for index, raw in enumerate(raw_samples):
            location = f"samples[{index}]"
            if not isinstance(raw, dict):
                raise SchemaError("expected an object", location=location)
            values = []
            for key in TRACE_FIELDS:
                if key not in raw:
                    raise SchemaError(f"missing key {key!r}", location=location)
                value = raw[key]
                if key == "start":
                    if type(value) is not int:
                        raise ParseError(f"expected integer epoch seconds, got {value!r}", location=f"{location}.start")
                    if abs(value) > EPOCH_LIMIT:
                        raise ParseError("integer beyond ±2**53", location=f"{location}.start")
                elif type(value) not in (int, float):
                    raise ParseError(f"expected a number, got {value!r}", location=f"{location}.{key}")
                elif not abs(value) <= sys.float_info.max:
                    raise ParseError(f"expected a finite number, got {value!r}", location=f"{location}.{key}")
                values.append(value if key == "start" else float(value))
            start, *values = values
            try:
                samples.append(UsageSample(start, *values))
            except ValueError as exc:
                raise ParseError(str(exc), location=location) from None
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")

    for index in range(1, len(samples)):
        previous_end = samples[index - 1].end
        if samples[index].start < previous_end:
            row = f" (row {rows[index]})" if rows is not None else ""
            raise TraceOrderError(
                f"sample {index}{row} starts at {samples[index].start}, before previous sample end {previous_end}"
            )
    return UsageTrace(samples, rows)



def naive_parse_feed(data: bytes) -> IntensitySeries:
    """Reference for ``parse_intensity_feed``: one IntensityEntry per entry, each read
    through ``_fields`` and checked as it is read, then one sort of the entries by start
    and one walk naming the first that starts before its predecessor's end, located by
    the identity of its entry in the input."""
    from carbondef.ingest import _array, _decode_json, _fields, _integer, _number, _string

    region, raw_entries = _fields(_decode_json(data), "$", ("region", _string), ("entries", _array))
    entries: list[IntensityEntry] = []
    for index, raw in enumerate(raw_entries):
        location = f"entries[{index}]"
        start, end, intensity = _fields(
            raw, location, ("start", _integer), ("end", _integer), ("intensity_kg_per_kwh", _number)
        )
        try:
            entries.append(IntensityEntry(start, end, intensity))
        except ValueError as exc:
            error = NegativeIntensityError if intensity < 0 else ParseError
            raise error(str(exc), location=location) from None

    ordered = sorted(entries, key=lambda entry: entry.start)
    for entry, previous in zip(ordered[1:], ordered):
        if entry.start < previous.end:
            index = next(index for index, raw in enumerate(entries) if raw is entry)
            raise OverlapError(f"entry [{entry.start}, {entry.end}) overlaps the previous one", location=f"entries[{index}]")
    return IntensitySeries(region=region, entries=tuple(ordered))

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
    ("trace_huge_int.json", "trace_json", ParseError, "byte 40"),
    ("trace_huge_int_after_text.json", "trace_json", ParseError, "byte 8877)"),
    ("trace_deep_nesting.json", "trace_json", ParseError, "byte 99999)"),
    ("trace_huge_epoch.json", "trace_json", ParseError, "samples[0].start"),
    ("trace_huge_epoch.csv", "trace_csv", ParseError, "row 3"),
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
    ("ledger_huge_lifespan_start.json", "ledger", ParseError, "objects[0].lifespan_start"),
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
    ("config_fractional_n_cpu.json", "config", ParseError, "integer CPU count, got 2.5 (at $.server.n_cpu)"),
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
