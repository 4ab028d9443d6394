"""Report assembly and serialization for the CLI.

Reports are dicts with a fixed section order, serialized once at the end
of a run; their per-interval row lists are read-only ``Rows`` views over
the pipeline's tuples, rendered without building a dict per row. Every
report total is checked finite before any byte is written. Internals stay
in joules; user-facing numbers are kWh and kg CO2e, converted here.
Output is deterministic: floats use the
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
from collections.abc import Callable, Iterator, Sequence
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any

from . import __version__
from .embodied import Ledger, consumer_embodied, idle_residual, lifecycle_total
from .grid import (
    JOULES_PER_KWH,
    EmissionsReport,
    EmissionsSegment,
    IntensitySeries,
    UncoveredSpan,
    apply_pue,
    operational_emissions,
)
from .ingest import FunctionalUnit, RunConfig, fetch_intensity, parse_intensity_feed
from .power import (
    ENERGY_SOURCES,
    EnergyEntry,
    EnergySeries,
    UsageTrace,
    clamped_sample_indices,
    trace_to_energy_series,
)
from .errors import SchemaError, ValidationError

SCHEMA_VERSION = "2"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Rows:
    """A read-only list of report rows, one per pipeline tuple in ``items``.

    ``keys`` is a row's shape: a key, or a ``(key, inner keys)`` pair for a
    nested dict; ``values(item)`` gives the row's numbers in that order,
    flattened. Indexing and iteration build the row dicts on demand; the
    renderers format ``values`` straight into text and never build one.
    """

    __slots__ = ("items", "keys", "values")

    def __init__(self, items: Sequence, keys: tuple, values: Callable[[Any], tuple]):
        self.items, self.keys, self.values = items, keys, values

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(item) for item in self.items[index]]
        return self._row(self.items[index])

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return map(self._row, self.items)

    def _row(self, item: Any) -> dict[str, Any]:
        numbers = iter(self.values(item))
        row: dict[str, Any] = {}
        for key in self.keys:
            if isinstance(key, str):
                row[key] = next(numbers)
            else:
                row[key[0]] = {inner: next(numbers) for inner in key[1]}
        return row


def _require_finite(totals: dict[str, float], inputs: str) -> None:
    """Every computed report number is >= 0 and summed into one of a few
    totals, where nothing cancels: a finite total proves its rows finite, so
    the row templates need no per-row check (starts and durations are inputs,
    finite and within ±2**53 by UsageTrace's check). A float overflow is an input error."""
    for field, total in totals.items():
        if total - total != 0:  # NaN or ±inf
            raise ValidationError(
                f"report field {field} is {total!r}: {inputs} overflow float arithmetic"
            )


def _interval_values(entry: EnergyEntry) -> tuple:
    start, duration_s, total, (cpu, mem, io_, net, idle) = entry
    return (
        start, duration_s, total / JOULES_PER_KWH, cpu / JOULES_PER_KWH, mem / JOULES_PER_KWH,
        io_ / JOULES_PER_KWH, net / JOULES_PER_KWH, idle / JOULES_PER_KWH,
    )


def _segment_values(segment: EmissionsSegment) -> tuple:
    start, duration_s, joules, intensity_kg_per_kwh, kg_co2e = segment
    return start, duration_s, joules / JOULES_PER_KWH, intensity_kg_per_kwh, kg_co2e


def _uncovered_values(span: UncoveredSpan) -> tuple:
    start, duration_s, joules = span
    return start, duration_s, joules / JOULES_PER_KWH


_INTERVAL_KEYS = ("start", "duration_s", "kwh_total", ("kwh_by_component", ENERGY_SOURCES))
_SEGMENT_KEYS = ("start", "duration_s", "kwh", "intensity_kg_per_kwh", "kg_co2e")
_UNCOVERED_KEYS = ("start", "duration_s", "kwh")


def _energy_section(series: EnergySeries) -> dict[str, Any]:
    by_component = {
        source: sum(map(itemgetter(position), map(itemgetter(3), series.entries))) / JOULES_PER_KWH
        for position, source in enumerate(ENERGY_SOURCES)
    }
    kwh_total = series.total_joules() / JOULES_PER_KWH
    _require_finite(
        {"energy.kwh_total": kwh_total,
         **{f"energy.kwh_by_component.{s}": kwh for s, kwh in by_component.items()}},
        "server.tdp_watts, n_cpu, idle_watts and the trace's duration_s",
    )
    return {
        "interval_count": len(series),
        "kwh_total": kwh_total,
        "kwh_by_component": by_component,
        "intervals": Rows(series.entries, _INTERVAL_KEYS, _interval_values),
    }


def _operational_section(
    emissions: EmissionsReport, series: EnergySeries, config: RunConfig, region: str
) -> dict[str, Any]:
    # software energy is the pre-PUE total, idle included; overhead is what PUE adds
    joules = series.total_joules()
    section = {
        "pue": emissions.pue,
        "coverage_policy": emissions.coverage_policy,
        "region": region,
        "total_kg_co2e": emissions.total_kg_co2e,
        "software_kwh": joules / JOULES_PER_KWH,
        "overhead_kwh": (apply_pue(joules, config.pue) - joules) / JOULES_PER_KWH,
        "segments": Rows(emissions.segments, _SEGMENT_KEYS, _segment_values),
        "uncovered": Rows(emissions.uncovered, _UNCOVERED_KEYS, _uncovered_values),
    }
    _require_finite(
        {**{f"operational.{f}": section[f] for f in ("total_kg_co2e", "software_kwh", "overhead_kwh")},
         # in no report total, so summed here
         "operational.segments[*].kwh": emissions.covered_joules() / JOULES_PER_KWH,
         "operational.uncovered[*].kwh": emissions.uncovered_joules() / JOULES_PER_KWH},
        "the energy, pue and the intensity feed",
    )
    return section


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

    _require_finite(
        {"embodied.total_attributed_kg_co2e": total_attributed,
         "embodied.conservation.lifecycle_total_kg_co2e": lifecycle_sum,
         "embodied.conservation.attributed_plus_residual_kg_co2e": conserved_sum},
        "the ledger's m_kg, r_kg and eol_kg",
    )
    return {
        "consumers": consumers,
        "objects": objects,
        "total_attributed_kg_co2e": total_attributed,
        "conservation": {
            "lifecycle_total_kg_co2e": lifecycle_sum,
            "attributed_plus_residual_kg_co2e": conserved_sum,
        },
    }


def _diagnostics(config: RunConfig, trace: UsageTrace) -> dict[str, Any]:
    clamped: list[dict[str, Any]] = []
    if config.clamp_usage:
        rows = trace.source_rows
        clamped = [
            {"index": index, "row": rows[index] if rows is not None else None}
            for index in clamped_sample_indices(config.server, trace)
        ]
    return {"clamped_samples": clamped}


def resolve_intensity(config: RunConfig, window: tuple[float, float] | None) -> IntensitySeries:
    """Load the intensity series named by the config, file or endpoint."""
    source = config.intensity
    if source.file is not None:
        return parse_intensity_feed(config.intensity_file().read_bytes())
    if window is None:
        # nothing to fetch for; strict coverage of zero energy is vacuous
        return IntensitySeries(region=source.region, entries=())
    fetch_window = (int(math.floor(window[0])), int(math.ceil(window[1])))
    return fetch_intensity(source.endpoint, source.region, fetch_window)


def _sci_section(unit: FunctionalUnit, operational_kg: float, embodied_kg: float) -> dict[str, Any]:
    total_kg = operational_kg + embodied_kg
    sci = {
        "operational_kg_co2e": operational_kg,
        "embodied_kg_co2e": embodied_kg,
        "total_kg_co2e": total_kg,
        "functional_unit": {"name": unit.name, "count": unit.count},
        "sci_kg_co2e_per_unit": total_kg / unit.count,
    }
    _require_finite(
        {f"sci.{f}": sci[f] for f in ("total_kg_co2e", "sci_kg_co2e_per_unit")},
        "the emissions totals and functional_unit.count",
    )
    return sci


def build_report(
    report_type: str,
    config: RunConfig | None = None,
    trace: UsageTrace | None = None,
    trace_digest: str | None = None,
    ledger: Ledger | None = None,
    ledger_digest: str | None = None,
    consumer_id: str | None = None,
) -> dict[str, Any]:
    """The ``report_type`` report: ``estimate`` (energy), ``emissions`` (and
    operational), ``embodied`` (the ledger alone) or ``report`` (all of them
    and ``sci``). Each stage of the chain runs once, when its input is given:
    energy from the trace, then PUE and the energy mix unless estimating,
    embodied from the ledger, and the total last."""
    if report_type == "report" and config.functional_unit is None:
        raise SchemaError(
            "a functional_unit is required for the full report",
            location="$.functional_unit",
        )
    sections: dict[str, Any] = {}
    window = None
    if trace is not None:
        series = trace_to_energy_series(config.server, trace, clamp=config.clamp_usage)
        window = series.window()
        sections["energy"] = _energy_section(series)
        if report_type != "estimate":
            intensity = resolve_intensity(config, window)
            emissions = operational_emissions(series, intensity, config.pue, config.coverage_policy)
            sections["operational"] = _operational_section(emissions, series, config, intensity.region)
    if ledger is not None:
        sections["embodied"] = _embodied_section(ledger, consumer_id)
    if report_type == "report":
        sections["sci"] = _sci_section(
            config.functional_unit,
            sections["operational"]["total_kg_co2e"],
            sections["embodied"]["total_attributed_kg_co2e"],
        )
    if trace is not None:
        sections["diagnostics"] = _diagnostics(config, trace)
    return {
        "schema_version": SCHEMA_VERSION,
        "meta": {
            "tool": "carbondef",
            "version": __version__,
            "report": report_type,
            "config_sha256": config.digest if config is not None else None,
            "inputs": {"trace_sha256": trace_digest, "ledger_sha256": ledger_digest},
            "window": None if window is None else {"start": window[0], "end": window[1]},
        },
        **sections,
    }


# json's C encoder spells a str, None, a bool or a number as indent=2 does
_scalar = json.JSONEncoder().encode
# rows, or pending pieces of a plain list, encoded per write: no full-size str ever exists
_BLOCK = 4096


def _dict_template(slots: list[tuple[str, str]], indent: str) -> str:
    inner = indent + "  "
    lines = [f"{inner}{encode_basestring_ascii(key).replace('%', '%%')}: {slot}" for key, slot in slots]
    return "{" + ",".join(lines) + indent + "}"


def _row_template(keys: tuple, indent: str) -> str:
    """The '%'-template of a Rows row, on a line indented by ``indent``:
    ``%r`` of a finite int or float is what json.dumps writes."""
    slots = []
    for key in keys:
        if isinstance(key, str):
            slots.append((key, "%r"))
        else:
            slots.append((key[0], _dict_template([(inner, "%r") for inner in key[1]], indent + "  ")))
    return _dict_template(slots, indent)


class _Utf8Writer:
    """Text gathered as UTF-8 into one growing buffer: small pieces wait in
    a list, each block of rows is flushed on its own, so no full-size str
    or piece list of a report ever exists."""

    def __init__(self) -> None:
        self.buffer, self.pending = io.BytesIO(), []
        self.write = self.pending.append  # csv.writer writes here too

    def flush(self) -> None:
        self.buffer.write("".join(self.pending).encode("utf-8"))
        self.pending.clear()


def _write_rows(out: _Utf8Writer, rows: Rows, format_row: Callable[[tuple], str], first: int = 0) -> None:
    values, items = rows.values, rows.items
    for begin in range(first, len(items), _BLOCK):
        out.write("".join(map(format_row, map(values, items[begin:begin + _BLOCK]))))
        out.flush()


def _encode(value: Any, out: _Utf8Writer, indent: str) -> None:
    """Write the text ``json.dumps(value, indent=2, default=list)`` gives for
    ``value``, which starts on a line indented by ``indent`` (a newline and
    spaces)."""
    if not isinstance(value, (list, tuple, dict, Rows)):
        out.write(_scalar(value))
    elif not value:
        out.write("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = indent + "  "
        separator = "{" + inner
        for key, item in value.items():
            if key is None or isinstance(key, (int, float)):
                key = _scalar(key)
            out.write(f"{separator}{encode_basestring_ascii(key)}: ")
            separator = "," + inner
            _encode(item, out, inner)
        out.write(indent + "}")
    elif isinstance(value, Rows):
        inner = indent + "  "
        template = _row_template(value.keys, inner)
        out.write("[" + inner + template % value.values(value.items[0]))
        _write_rows(out, value, ("," + inner + template).__mod__, first=1)
        out.write(indent + "]")
    else:
        inner = indent + "  "
        separator = "[" + inner
        for item in value:
            out.write(separator)
            separator = "," + inner
            _encode(item, out, inner)
            if len(out.pending) > _BLOCK:
                out.flush()
        out.write(indent + "]")


def to_json_bytes(report: Any) -> bytes:
    """The bytes of ``json.dumps(report, indent=2, default=list) + "\\n"``
    without its slow pure-Python encoder: a Rows renders through one
    '%'-template per row, straight from its tuples."""
    out = _Utf8Writer()
    _encode(report, out, "\n")
    out.write("\n")
    out.flush()
    return out.buffer.getvalue()  # BytesIO hands its buffer over without a copy


def _long_rows(section: str, metrics: tuple[str, ...]) -> Callable[[tuple], str]:
    """Format Rows values ``(start, duration_s, *numbers)`` as one CSV line per metric."""
    template = "".join(f"\0{metric},%r\n" for metric in metrics)
    return lambda v: template.replace("\0", f"{section},,{v[0]!r},{v[1]!r},") % v[2:]


_ESTIMATE_ROW = ",".join(["%r"] * (3 + len(ENERGY_SOURCES))) + "\n"
_EMISSIONS_ROW = ",".join(["%r"] * len(_SEGMENT_KEYS)) + "\n"
_REPORT_ENERGY_ROWS = _long_rows("energy", ("kwh_total", *(f"kwh_{s}" for s in ENERGY_SOURCES)))
_REPORT_OPERATIONAL_ROWS = _long_rows("operational", _SEGMENT_KEYS[2:])


def to_csv_bytes(report: dict[str, Any]) -> bytes:
    """Chart-friendly CSV rendering of a ``build_report`` report, one row
    per interval where possible. Rows go through '%'-templates (``%r`` of a
    number is what csv.writer writes); rows with ids use csv.writer for its
    quoting."""
    report_type = report["meta"]["report"]
    out = _Utf8Writer()
    writer = csv.writer(out, lineterminator="\n")
    if report_type == "estimate":
        writer.writerow(["start", "duration_s", "kwh_total", *(f"kwh_{s}" for s in ENERGY_SOURCES)])
        _write_rows(out, report["energy"]["intervals"], _ESTIMATE_ROW.__mod__)
    elif report_type == "emissions":
        writer.writerow(_SEGMENT_KEYS)
        _write_rows(out, report["operational"]["segments"], _EMISSIONS_ROW.__mod__)
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
        _write_rows(out, report["energy"]["intervals"], _REPORT_ENERGY_ROWS)
        _write_rows(out, report["operational"]["segments"], _REPORT_OPERATIONAL_ROWS)
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
    out.flush()
    return out.buffer.getvalue()


def render_report(report: dict[str, Any], output: str) -> bytes:
    if output == "json":
        return to_json_bytes(report)
    if output == "csv":
        return to_csv_bytes(report)
    raise ValueError(f"output must be 'json' or 'csv', got {output!r}")
