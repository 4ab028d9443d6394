"""Report assembly and serialization for the CLI.

Reports are plain dicts with a fixed section order, serialized once at
the end of a run. Internals stay in joules; user-facing numbers are kWh
and kg CO2e, converted here. Output is deterministic: floats use the
shortest round-trip decimal form and metadata carries input digests and
the data window rather than wall-clock time, so identical inputs produce
byte-identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any

from . import __version__
from .embodied import Ledger, consumer_embodied, idle_residual, lifecycle_total
from .grid import (
    JOULES_PER_KWH,
    EmissionsReport,
    IntensitySeries,
    operational_emissions,
)
from .ingest import RunConfig, fetch_intensity, parse_intensity_feed
from .power import (
    ENERGY_SOURCES,
    EnergySeries,
    UsageTrace,
    clamped_sample_indices,
    trace_to_energy_series,
)
from .sci import compose_totals, overhead_split
from .errors import SchemaError

SCHEMA_VERSION = "1"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _kwh(joules: float) -> float:
    return joules / JOULES_PER_KWH


def _meta(
    report_type: str,
    config: RunConfig | None = None,
    trace_digest: str | None = None,
    ledger_digest: str | None = None,
    window: tuple[float, float] | None = None,
) -> dict[str, Any]:
    return {
        "tool": "carbondef",
        "version": __version__,
        "report": report_type,
        "config_sha256": config.digest if config is not None else None,
        "inputs": {"trace_sha256": trace_digest, "ledger_sha256": ledger_digest},
        "window": None if window is None else {"start": window[0], "end": window[1]},
    }


def _energy_section(series: EnergySeries) -> dict[str, Any]:
    by_component = {
        source: _kwh(sum(e.joules_by_component[source] for e in series.entries))
        for source in ENERGY_SOURCES
    }
    return {
        "interval_count": len(series),
        "kwh_total": _kwh(series.total_joules()),
        "kwh_by_component": by_component,
        "intervals": [
            {
                "start": entry.start,
                "duration_s": entry.duration_s,
                "kwh_total": _kwh(entry.joules_total),
                "kwh_by_component": {
                    source: _kwh(entry.joules_by_component[source])
                    for source in ENERGY_SOURCES
                },
            }
            for entry in series.entries
        ],
    }


def _operational_section(
    emissions: EmissionsReport, series: EnergySeries, config: RunConfig, region: str
) -> dict[str, Any]:
    software_j, overhead_j = overhead_split(series.total_joules(), config.pue)
    return {
        "pue": emissions.pue,
        "coverage_policy": emissions.coverage_policy,
        "region": region,
        "total_kg_co2e": emissions.total_kg_co2e,
        "software_kwh": _kwh(software_j),
        "overhead_kwh": _kwh(overhead_j),
        "segments": [
            {
                "start": segment.start,
                "duration_s": segment.duration_s,
                "kwh": _kwh(segment.joules),
                "intensity_kg_per_kwh": segment.intensity_kg_per_kwh,
                "kg_co2e": segment.kg_co2e,
            }
            for segment in emissions.segments
        ],
        "uncovered": _uncovered_rows(emissions),
    }


def _uncovered_rows(emissions: EmissionsReport) -> list[dict[str, Any]]:
    return [
        {"start": span.start, "duration_s": span.duration_s, "kwh": _kwh(span.joules_share)}
        for span in emissions.uncovered
    ]


def _embodied_section(ledger: Ledger, consumer_id: str | None = None) -> dict[str, Any]:
    consumer_ids = (
        (consumer_id,) if consumer_id is not None else ledger.consumer_ids()
    )
    consumers = []
    total_attributed = 0.0
    for cid in consumer_ids:
        attribution = consumer_embodied(ledger, cid)
        consumers.append(
            {
                "consumer_id": cid,
                "kg_co2e": attribution.total_kg,
                "objects": [
                    {"object_id": oid, "kg_co2e": kg}
                    for oid, kg in sorted(attribution.by_object.items())
                ],
            }
        )
        total_attributed += attribution.total_kg

    objects = []
    lifecycle_sum = 0.0
    conserved_sum = 0.0
    for oid in sorted(ledger.objects):
        obj = ledger.objects[oid]
        residual = idle_residual(ledger, oid)
        lifecycle = lifecycle_total(obj)
        attributed = lifecycle - residual
        objects.append(
            {
                "object_id": oid,
                "lifecycle_kg_co2e": lifecycle,
                "attributed_kg_co2e": attributed,
                "idle_residual_kg_co2e": residual,
            }
        )
        lifecycle_sum += lifecycle
        conserved_sum += attributed + residual

    return {
        "consumers": consumers,
        "objects": objects,
        "total_attributed_kg_co2e": total_attributed,
        "conservation": {
            "lifecycle_total_kg_co2e": lifecycle_sum,
            "attributed_plus_residual_kg_co2e": conserved_sum,
        },
    }


def _diagnostics(
    config: RunConfig | None,
    trace: UsageTrace | None,
    emissions: EmissionsReport | None,
) -> dict[str, Any]:
    clamped: list[dict[str, Any]] = []
    if config is not None and trace is not None and config.clamp_usage:
        rows = trace.source_rows
        clamped = [
            {"index": index, "row": rows[index] if rows is not None else None}
            for index in clamped_sample_indices(config.server, trace)
        ]
    uncovered = _uncovered_rows(emissions) if emissions is not None else []
    return {"clamped_samples": clamped, "uncovered_intervals": uncovered}


def resolve_intensity(
    config: RunConfig,
    window: tuple[float, float] | None,
    cache_dir: str | None = None,
) -> IntensitySeries:
    """Load the intensity series named by the config, file or endpoint."""
    source = config.intensity
    if source.file is not None:
        return parse_intensity_feed(config.intensity_file().read_bytes())
    if window is None:
        # nothing to fetch for; strict coverage of zero energy is vacuous
        return IntensitySeries(region=source.region, entries=())
    fetch_window = (int(math.floor(window[0])), int(math.ceil(window[1])))
    return fetch_intensity(source.endpoint, source.region, fetch_window, cache_dir)


def build_estimate_report(
    config: RunConfig, trace: UsageTrace, trace_digest: str
) -> dict[str, Any]:
    series = trace_to_energy_series(config.server, trace, clamp=config.clamp_usage)
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": _meta("estimate", config, trace_digest, window=series.window()),
        "energy": _energy_section(series),
        "diagnostics": _diagnostics(config, trace, None),
    }


def build_emissions_report(
    config: RunConfig,
    trace: UsageTrace,
    trace_digest: str,
    cache_dir: str | None = None,
) -> dict[str, Any]:
    series = trace_to_energy_series(config.server, trace, clamp=config.clamp_usage)
    intensity = resolve_intensity(config, series.window(), cache_dir)
    emissions = operational_emissions(
        series, intensity, config.pue, config.coverage_policy
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": _meta("emissions", config, trace_digest, window=series.window()),
        "energy": _energy_section(series),
        "operational": _operational_section(emissions, series, config, intensity.region),
        "diagnostics": _diagnostics(config, trace, emissions),
    }


def build_embodied_report(
    ledger: Ledger, ledger_digest: str, consumer_id: str | None = None
) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": _meta("embodied", ledger_digest=ledger_digest),
        "embodied": _embodied_section(ledger, consumer_id),
    }


def build_full_report(
    config: RunConfig,
    trace: UsageTrace,
    trace_digest: str,
    ledger: Ledger,
    ledger_digest: str,
    consumer_id: str | None = None,
    cache_dir: str | None = None,
) -> dict[str, Any]:
    if config.functional_unit is None:
        raise SchemaError(
            "a functional_unit is required for the full report",
            location="$.functional_unit",
        )
    series = trace_to_energy_series(config.server, trace, clamp=config.clamp_usage)
    intensity = resolve_intensity(config, series.window(), cache_dir)
    emissions = operational_emissions(
        series, intensity, config.pue, config.coverage_policy
    )
    embodied = _embodied_section(ledger, consumer_id)
    totals = compose_totals(
        operational_kg=emissions.total_kg_co2e,
        embodied_kg=embodied["total_attributed_kg_co2e"],
        functional_unit_name=config.functional_unit.name,
        functional_unit_count=config.functional_unit.count,
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": _meta("report", config, trace_digest, ledger_digest, series.window()),
        "energy": _energy_section(series),
        "operational": _operational_section(emissions, series, config, intensity.region),
        "embodied": embodied,
        "sci": {
            "operational_kg_co2e": totals.operational_kg,
            "embodied_kg_co2e": totals.embodied_kg,
            "total_kg_co2e": totals.total_kg,
            "functional_unit": {
                "name": totals.functional_unit_name,
                "count": totals.functional_unit_count,
            },
            "sci_kg_co2e_per_unit": totals.sci_kg_per_unit,
        },
        "diagnostics": _diagnostics(config, trace, emissions),
    }


_NUMBER_TYPES = frozenset((int, float))
# json's C encoder spells a str, None, a bool or a number as indent=2 does
_scalar = json.JSONEncoder().encode


def _dict_template(slots: list[tuple[str, str]], indent: str) -> str:
    inner = indent + "  "
    lines = [f"{inner}{encode_basestring_ascii(key).replace('%', '%%')}: {slot}" for key, slot in slots]
    return "{" + ",".join(lines) + indent + "}"


def _row_template(row: Any, indent: str) -> tuple[str, tuple, tuple] | None:
    """For a dict of numbers (and of dicts of numbers): a '%'-template, its
    key order and each nested dict's (position, keys); else None."""
    if type(row) is not dict or not row:
        return None
    slots, nested = [], []
    for position, (key, value) in enumerate(row.items()):
        if type(key) is not str:
            return None
        if type(value) in _NUMBER_TYPES:
            slots.append((key, "%r"))
        elif type(value) is dict and value and all(
            type(k) is str and type(v) in _NUMBER_TYPES for k, v in value.items()
        ):
            slots.append((key, _dict_template([(k, "%r") for k in value], indent + "  ")))
            nested.append((position, tuple(value)))
        else:
            return None
    return _dict_template(slots, indent), tuple(row), tuple(reversed(nested))


def _row_values(row: Any, keys: tuple, nested: tuple) -> tuple | None:
    """The numbers to fill the template with, or None: other keys or key
    order, a value not exactly an int or a float (a bool), a NaN or ±inf."""
    if type(row) is not dict or tuple(row) != keys:
        return None
    values = list(row.values())
    for position, inner in nested:  # back to front, so positions stay valid
        value = values[position]
        if type(value) is not dict or tuple(value) != inner:
            return None
        values[position:position + 1] = value.values()
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        return None
    try:
        total = sum(values)
    except OverflowError:  # an int beyond the float range next to a float
        return None
    return tuple(values) if total - total == 0 else None


def _encode(value: Any, out: list[str], indent: str) -> None:
    """Append the text ``json.dumps(value, indent=2)`` gives for ``value``,
    which starts on a line indented by ``indent`` (a newline and spaces)."""
    if not isinstance(value, (list, tuple, dict)):
        out.append(_scalar(value))
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = indent + "  "
        separator = "{" + inner
        for key, item in value.items():
            if key is None or isinstance(key, (int, float)):
                key = _scalar(key)
            out.append(f"{separator}{encode_basestring_ascii(key)}: ")
            separator = "," + inner
            _encode(item, out, inner)
        out.append(indent + "}")
    else:
        inner = indent + "  "
        compiled = _row_template(value[0], inner)
        separator = "[" + inner
        for item in value:
            out.append(separator)
            separator = "," + inner
            row = compiled and _row_values(item, *compiled[1:])
            if row:
                out.append(compiled[0] % row)
            else:
                _encode(item, out, inner)
        out.append(indent + "]")


def to_json_bytes(report: Any) -> bytes:
    """The bytes of ``json.dumps(report, indent=2) + "\\n"`` without its slow
    pure-Python encoder: same-shaped numeric rows share one '%'-template."""
    out: list[str] = []
    _encode(report, out, "\n")
    out.append("\n")
    return "".join(out).encode("utf-8")


_ESTIMATE_ROW = ",".join(["%r"] * (3 + len(ENERGY_SOURCES))) + "\n"
_EMISSIONS_ROW = "%(start)r,%(duration_s)r,%(kwh)r,%(intensity_kg_per_kwh)r,%(kg_co2e)r\n"
# "\0" marks the "section,,start,duration_s," prefix, formatted once per interval
_REPORT_ENERGY_ROWS = "".join(f"\0kwh_{f},%r\n" for f in ("total", *ENERGY_SOURCES))
_REPORT_OPERATIONAL_ROWS = "".join(f"\0{f},%r\n" for f in ("kwh", "intensity_kg_per_kwh", "kg_co2e"))


def _kwh_values(entry: dict[str, Any]) -> tuple:
    by_component = entry["kwh_by_component"]
    return (entry["kwh_total"], *map(by_component.__getitem__, ENERGY_SOURCES))


def _rows(template: str, section: str, row: dict[str, Any], values: tuple) -> str:
    return template.replace("\0", f"{section},,{row['start']!r},{row['duration_s']!r},") % values


def to_csv_bytes(report: dict[str, Any]) -> bytes:
    """Chart-friendly CSV rendering, one row per interval where possible.
    Numeric rows go through '%'-templates (``%r`` of a number is what
    csv.writer writes); rows with ids use csv.writer for its quoting."""
    report_type = report["meta"]["report"]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if report_type == "estimate":
        writer.writerow(["start", "duration_s", "kwh_total", *(f"kwh_{s}" for s in ENERGY_SOURCES)])
        buffer.writelines(
            _ESTIMATE_ROW % (entry["start"], entry["duration_s"], *_kwh_values(entry))
            for entry in report["energy"]["intervals"]
        )
    elif report_type == "emissions":
        writer.writerow(["start", "duration_s", "kwh", "intensity_kg_per_kwh", "kg_co2e"])
        buffer.writelines(_EMISSIONS_ROW % segment for segment in report["operational"]["segments"])
    elif report_type == "embodied":
        section = report["embodied"]
        writer.writerow(["record_type", "consumer_id", "object_id", "kg_co2e"])
        for consumer in section["consumers"]:
            for item in consumer["objects"]:
                writer.writerow(
                    ["attribution", consumer["consumer_id"], item["object_id"], item["kg_co2e"]]
                )
        for obj in section["objects"]:
            writer.writerow(["idle_residual", "", obj["object_id"], obj["idle_residual_kg_co2e"]])
            writer.writerow(["lifecycle_total", "", obj["object_id"], obj["lifecycle_kg_co2e"]])
        writer.writerow(
            ["conservation", "", "", section["conservation"]["attributed_plus_residual_kg_co2e"]]
        )
    elif report_type == "report":
        writer.writerow(["section", "id", "start", "duration_s", "metric", "value"])
        buffer.writelines(
            _rows(_REPORT_ENERGY_ROWS, "energy", entry, _kwh_values(entry))
            for entry in report["energy"]["intervals"]
        )
        buffer.writelines(
            _rows(_REPORT_OPERATIONAL_ROWS, "operational", segment,
                  (segment["kwh"], segment["intensity_kg_per_kwh"], segment["kg_co2e"]))
            for segment in report["operational"]["segments"]
        )
        for consumer in report["embodied"]["consumers"]:
            for item in consumer["objects"]:
                writer.writerow(
                    ["embodied", f"{consumer['consumer_id']}/{item['object_id']}", "", "", "kg_co2e", item["kg_co2e"]]
                )
        for obj in report["embodied"]["objects"]:
            writer.writerow(
                ["embodied", obj["object_id"], "", "", "idle_residual_kg_co2e", obj["idle_residual_kg_co2e"]]
            )
        sci = report["sci"]
        for metric in ("operational_kg_co2e", "embodied_kg_co2e", "total_kg_co2e", "sci_kg_co2e_per_unit"):
            writer.writerow(["sci", sci["functional_unit"]["name"], "", "", metric, sci[metric]])
    else:
        raise ValueError(f"unknown report type {report_type!r}")
    return buffer.getvalue().encode("utf-8")


def render_report(report: dict[str, Any], output: str) -> bytes:
    if output == "json":
        return to_json_bytes(report)
    if output == "csv":
        return to_csv_bytes(report)
    raise ValueError(f"output must be 'json' or 'csv', got {output!r}")
