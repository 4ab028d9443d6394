"""Report assembly and serialization for the CLI.

Reports are dicts with a fixed section order, rendered block by block into a
binary sink; their row lists (intervals, segments, uncovered spans, and the
embodied section's per-consumer objects and object table) are read-only
``Rows`` views over columns, rendered from column slices through one
'%'-template a view without building a dict per row. Of a view past two
blocks of rows (8,192), a forked child formats the second half into an
unnamed temporary file, copied to the sink after the first; with another
thread running (a child could inherit a lock it holds), no child, or a failed
one, this process formats it, so the bytes never change. json's own
encoder writes every byte of a JSON report but the numbers and ids of those
rows; an id is escaped by ``json.encoder.encode_basestring_ascii``, as json
writes a str, and CSV quotes ids through csv.writer. Every report total is
checked finite as the report is built, before any byte is written. Internals
stay in joules; user-facing numbers are kWh and kg CO2e, converted here.
Output is deterministic: floats use the shortest round-trip decimal form and
metadata carries input digests and the data window rather than wall-clock
time, so identical inputs produce byte-identical bytes.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, islice, repeat
from operator import add, sub, truediv
from typing import Any, BinaryIO

from . import __version__
from .embodied import Ledger, consumer_embodied, idle_residual, lifecycle_total
from .grid import JOULES_PER_KWH, EmissionsReport, IntensitySeries, apply_pue, operational_emissions
from .ingest import FunctionalUnit, RunConfig, fetch_intensity, parse_intensity_feed
from .power import ENERGY_SOURCES, EnergySeries, UsageTrace, clamped_sample_indices, fold_sum, trace_to_energy_series
from .errors import SchemaError, ValidationError

SCHEMA_VERSION = "2"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Rows:
    """A read-only list of report rows, one per index of the pipeline's
    ``columns`` (its lists and arrays themselves, never copies).

    ``keys`` is a row's shape: a key, or a ``(key, inner keys)`` pair for a
    nested dict, one column per key once flattened; the ``joules`` slice of
    the columns holds joules, shown as kWh, and the ``text`` slice ids (str).
    Indexing and iteration build the row dicts on demand; the renderers
    format the values of a ``block`` of rows straight into text and never
    build one. A view equals a view or list of the same row dicts.
    """

    __slots__ = ("columns", "keys", "joules", "text")

    def __init__(self, columns: Sequence[Sequence], keys: tuple, joules: slice = slice(0), text: slice = slice(0)):
        self.columns, self.keys, self.joules, self.text = columns, keys, joules, text

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        index = range(len(self))[index]
        return self._row(next(self.block(index, index + 1)))

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return map(self._row, self.block(0, len(self)))

    def __eq__(self, other: object) -> bool:
        return list(self) == list(other) if isinstance(other, (Rows, list)) else NotImplemented

    def block(self, begin: int, end: int, quote: Callable[[str], str] | None = None) -> Iterator[tuple]:
        """The values of rows ``begin`` to ``end``, in kWh where in joules and
        each id through ``quote`` if given: a C-level pass over a slice of each column."""
        columns: list = [column[begin:end] for column in self.columns]
        columns[self.joules] = [map(truediv, column, repeat(JOULES_PER_KWH)) for column in columns[self.joules]]
        if quote is not None:
            columns[self.text] = [map(quote, column) for column in columns[self.text]]
        return zip(*columns)

    def _row(self, values: tuple) -> dict[str, Any]:
        numbers = iter(values)
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


_INTERVAL_KEYS = ("start", "duration_s", "kwh_total", ("kwh_by_component", ENERGY_SOURCES))
_SEGMENT_KEYS = ("start", "duration_s", "kwh", "intensity_kg_per_kwh", "kg_co2e")
_UNCOVERED_KEYS = ("start", "duration_s", "kwh")
_ATTRIBUTION_KEYS = ("object_id", "kg_co2e")
_OBJECT_KEYS = ("object_id", "lifecycle_kg_co2e", "attributed_kg_co2e", "idle_residual_kg_co2e")


def _energy_section(series: EnergySeries, joules: float) -> dict[str, Any]:
    by_component = {source: fold_sum(column) / JOULES_PER_KWH for source, column in zip(ENERGY_SOURCES, series.columns[3:])}
    kwh_total = joules / JOULES_PER_KWH
    _require_finite(
        {"energy.kwh_total": kwh_total,
         **{f"energy.kwh_by_component.{s}": kwh for s, kwh in by_component.items()}},
        "server.tdp_watts, n_cpu, idle_watts and the trace's duration_s",
    )
    return {
        "interval_count": len(series),
        "kwh_total": kwh_total,
        "kwh_by_component": by_component,
        "intervals": Rows(series.columns, _INTERVAL_KEYS, slice(2, None)),
    }


def _operational_section(emissions: EmissionsReport, joules: float, config: RunConfig, region: str) -> dict[str, Any]:
    # software energy is ``joules``, the series' pre-PUE total, idle included; overhead is what PUE adds
    section = {
        "pue": emissions.pue,
        "coverage_policy": emissions.coverage_policy,
        "region": region,
        "total_kg_co2e": emissions.total_kg_co2e,
        "software_kwh": joules / JOULES_PER_KWH,
        "overhead_kwh": (apply_pue(joules, config.pue) - joules) / JOULES_PER_KWH,
        "segments": Rows(emissions.segment_columns, _SEGMENT_KEYS, slice(2, 3)),
        "uncovered": Rows(emissions.uncovered_columns, _UNCOVERED_KEYS, slice(2, 3)),
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
    for cid in consumer_ids:
        attribution = consumer_embodied(ledger, cid)
        object_ids = sorted(attribution.by_object)
        consumers.append(
            {
                "consumer_id": cid,
                "kg_co2e": attribution.total_kg,
                "objects": Rows((object_ids, list(map(attribution.by_object.__getitem__, object_ids))),
                                _ATTRIBUTION_KEYS, text=slice(1)),
            }
        )

    ids = sorted(ledger.objects)
    lifecycle = [lifecycle_total(ledger.objects[oid]) for oid in ids]
    residual = [idle_residual(ledger, oid) for oid in ids]
    attributed = list(map(sub, lifecycle, residual))
    total_attributed = fold_sum(consumer["kg_co2e"] for consumer in consumers)
    lifecycle_sum, conserved_sum = fold_sum(lifecycle), fold_sum(map(add, attributed, residual))

    _require_finite(
        {"embodied.total_attributed_kg_co2e": total_attributed,
         "embodied.conservation.lifecycle_total_kg_co2e": lifecycle_sum,
         "embodied.conservation.attributed_plus_residual_kg_co2e": conserved_sum},
        "the ledger's m_kg, r_kg and eol_kg",
    )
    return {
        "consumers": consumers,
        "objects": Rows((ids, lifecycle, attributed, residual), _OBJECT_KEYS, text=slice(1)),
        "total_attributed_kg_co2e": total_attributed,
        "conservation": {
            "lifecycle_total_kg_co2e": lifecycle_sum,
            "attributed_plus_residual_kg_co2e": conserved_sum,
        },
    }


def _diagnostics(config: RunConfig, trace: UsageTrace) -> dict[str, Any]:
    rows = trace.source_rows
    indices = clamped_sample_indices(config.server, trace) if config.clamp_usage else ()
    return {"clamped_samples": [{"index": index, "row": rows[index] if rows is not None else None} for index in indices]}


def resolve_intensity(config: RunConfig, window: tuple[float, float] | None) -> IntensitySeries:
    """Load the intensity series named by the config, file or endpoint."""
    source = config.intensity
    if source.file is not None:
        return parse_intensity_feed(source.file.read_bytes())
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
        window, joules = series.window(), series.total_joules()
        sections["energy"] = _energy_section(series, joules)
        if report_type != "estimate":
            intensity = resolve_intensity(config, window)
            emissions = operational_emissions(series, intensity, config.pue, config.coverage_policy)
            sections["operational"] = _operational_section(emissions, joules, config, intensity.region)
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


# json writes every byte of a report but its Rows numbers and ids; it keeps
# ensure_ascii, so a Rows id is written as json's ASCII str encoder writes it
_JSON = json.JSONEncoder(indent=2, default=list)
_QUOTE = json.encoder.encode_basestring_ascii
# rows, or json's pieces of a list, encoded per write: no full-size str ever exists
_BLOCK = 4096


def _row_template(rows: Rows, indent: str) -> str:
    """The '%'-template of a row of ``rows``, on a line indented by ``indent``:
    json's text of a row of zeros and null ids, each zero made ``%r``, which
    of a finite int or float is what json writes, and each null ``%s``, which
    takes an id as json's str encoder writes it. A key's text holds no raw
    newline, so only a value ends a line in ``0``, ``0,``, ``null`` or ``null,``."""
    values = [0] * len(rows.columns)
    values[rows.text] = [None] * len(values[rows.text])
    text = _JSON.encode(rows._row(values)).replace("%", "%%")
    for value, slot in (("0", "%r"), ("null", "%s")):
        text = text.replace(value + "\n", slot + "\n").replace(value + ",\n", slot + ",\n")
    return text.replace("\n", indent)


class _Utf8Writer:
    """UTF-8 text for the binary ``sink``: small pieces wait in a list, each
    block of rows, templated or csv.writer's, is written on its own, so no
    full-size str, bytes or piece list of a report ever exists. ``len()`` is
    the number of bytes written.
    ``templates`` keeps the JSON row templates made, by row shape and indent."""

    def __init__(self, sink: BinaryIO) -> None:
        self.sink, self.pending, self.size, self.templates = sink, [], 0, {}
        self.write = self.pending.append  # csv.writer writes here too

    def __len__(self) -> int:
        return self.size

    def flush(self, data: bytes = b"") -> None:  # the pending text, then the UTF-8 ``data``
        data = memoryview("".join(self.pending).encode("utf-8") + data)
        self.pending.clear()
        self.size += len(data)
        while data:  # a sink may take part of a write, as a pipe whose reader left does; the next one raises
            data = data[self.sink.write(data):]


def _format_rows(out: _Utf8Writer, rows: Rows, format_row: Callable[[tuple], str], begin: int, end: int) -> None:
    for start in range(begin, end, _BLOCK):  # ids as json writes them; CSV templates format no id
        out.write("".join(map(format_row, rows.block(start, min(start + _BLOCK, end), _QUOTE))))
        out.flush()


def _write_rows(out: _Utf8Writer, rows: Rows, format_row: Callable[[tuple], str], first: int = 0) -> None:
    """Format rows ``first`` on into ``out``. Past two blocks, and with no other thread
    running, a forked child formats the second half into a spill file, copied after the first half."""
    end, middle, threading = len(rows), (first + len(rows)) // 2, sys.modules.get("threading")
    if end - first <= 2 * _BLOCK or not hasattr(os, "fork") or threading and threading.active_count() > 1:
        return _format_rows(out, rows, format_row, first, end)
    import tempfile  # here, not at module level: every run's cold start would pay for it
    try:
        spill = tempfile.TemporaryFile(buffering=0)
    except OSError:
        return _format_rows(out, rows, format_row, first, end)
    with spill:
        try:
            pid = os.fork()
        except OSError:
            return _format_rows(out, rows, format_row, first, end)
        if pid == 0:  # os._exit flushes no buffer shared with this process and runs no atexit hook
            try:
                gc.disable()  # a collection could finalize, and so flush, a file object of the parent's
                _format_rows(_Utf8Writer(spill), rows, format_row, middle, end)
                os._exit(0)
            finally:
                os._exit(1)  # formatting raised
        try:
            _format_rows(out, rows, format_row, first, middle)
            status = os.waitpid(pid, 0)[1]
        except BaseException:  # a sink error or an interrupt: no child outlives the render
            os.kill(pid, 9)  # SIGKILL; importing signal would cost every run's cold start
            os.waitpid(pid, 0)
            raise
        if status == 0:
            spill.seek(0)
            while data := spill.read(1 << 20):
                out.flush(data)
            return
    _format_rows(out, rows, format_row, middle, end)


def _encode(value: Any, out: _Utf8Writer, indent: str) -> None:
    """Write the text ``json.dumps(value, indent=2, default=list)`` gives for
    ``value``, which starts on a line indented by ``indent`` (a newline and
    spaces). json writes all of it but the numbers and ids of a Rows view: a
    str-keyed dict is walked key by key, as a value may be a Rows, and so is a
    list whose first item is a dict holding a Rows (``embodied.consumers``),
    item by item; json streams any other list, a block of its pieces a write,
    so no report-sized str is built. Each call of json's Python encoder (on a
    value other than a str or number) leaves a cycle, kept while the CLI has
    the collector off, so a long list json streams is one call, not one an
    item, a scalar goes to json's C encoder and a row template is made once."""
    inner = indent + "  "
    if isinstance(value, Rows) and value:
        shape = (value.keys, value.text.indices(len(value.columns)), inner)
        template = out.templates.get(shape) or out.templates.setdefault(shape, _row_template(value, inner))
        out.write("[" + inner + template % next(value.block(0, 1, _QUOTE)))
        _write_rows(out, value, ("," + inner + template).__mod__, first=1)
        out.write(indent + "]")
    elif isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        separator = "{" + inner
        for key, item in value.items():
            out.write(separator + _JSON.encode(key) + ": ")
            separator = "," + inner
            _encode(item, out, inner)
        out.write(indent + "}")
    elif isinstance(value, list) and value and isinstance(value[0], dict) and any(
            isinstance(item, Rows) for item in value[0].values()):
        separator = "[" + inner
        for item in value:
            out.write(separator)
            separator = "," + inner
            _encode(item, out, inner)
        out.write(indent + "]")
    elif isinstance(value, list):
        pieces = _JSON.iterencode(value)
        while text := "".join(islice(pieces, _BLOCK)):
            out.write(text.replace("\n", indent))
            out.flush()
    elif isinstance(value, (str, int, float)) or value is None:  # json's C encoder, which leaves no cycle
        out.write(json.dumps(value))
    else:  # an empty dict or Rows, a tuple or a dict with a key json coerces
        out.write(_JSON.encode(value).replace("\n", indent))


def _long_rows(section: str, metrics: tuple[str, ...]) -> Callable[[tuple], str]:
    """Format Rows values ``(start, duration_s, *numbers)`` as one CSV line per metric."""
    template = "".join(f"\0{metric},%r\n" for metric in metrics)
    return lambda v: template.replace("\0", f"{section},,{v[0]!r},{v[1]!r},") % v[2:]


_ESTIMATE_ROW = ",".join(["%r"] * (3 + len(ENERGY_SOURCES))) + "\n"
_EMISSIONS_ROW = ",".join(["%r"] * len(_SEGMENT_KEYS)) + "\n"
_REPORT_ENERGY_ROWS = _long_rows("energy", ("kwh_total", *(f"kwh_{s}" for s in ENERGY_SOURCES)))
_REPORT_OPERATIONAL_ROWS = _long_rows("operational", _SEGMENT_KEYS[2:])


def _write_csv_rows(out: _Utf8Writer, writer: Any, rows: Iterable[Sequence]) -> None:
    """csv.writer ``rows`` into ``out``, which ``writer`` writes to, a block of rows a write."""
    rows = iter(rows)
    while block := list(islice(rows, _BLOCK)):
        writer.writerows(block)
        out.flush()


def _write_csv(report: dict[str, Any], out: _Utf8Writer) -> None:
    """Chart-friendly CSV rendering of a ``build_report`` report, one row
    per interval where possible. Rows go through '%'-templates (``%r`` of a
    number is what csv.writer writes); rows with ids use csv.writer for its
    quoting."""
    report_type = report["meta"]["report"]
    writer = csv.writer(out, lineterminator="\n")
    if report_type == "estimate":
        writer.writerow(["start", "duration_s", "kwh_total", *(f"kwh_{s}" for s in ENERGY_SOURCES)])
        _write_rows(out, report["energy"]["intervals"], _ESTIMATE_ROW.__mod__)
    elif report_type == "emissions":
        writer.writerow(_SEGMENT_KEYS)
        _write_rows(out, report["operational"]["segments"], _EMISSIONS_ROW.__mod__)
    elif report_type == "embodied":
        section = report["embodied"]
        _write_csv_rows(out, writer, chain(
            [("record_type", "consumer_id", "object_id", "kg_co2e")],
            *(zip(repeat("attribution"), repeat(consumer["consumer_id"]), *consumer["objects"].columns)
              for consumer in section["consumers"]),
            (row for object_id, lifecycle, _, residual in zip(*section["objects"].columns)
             for row in (("idle_residual", "", object_id, residual), ("lifecycle_total", "", object_id, lifecycle))),
            [("conservation", "", "", section["conservation"]["attributed_plus_residual_kg_co2e"])]))
    elif report_type == "report":
        writer.writerow(["section", "id", "start", "duration_s", "metric", "value"])
        _write_rows(out, report["energy"]["intervals"], _REPORT_ENERGY_ROWS)
        _write_rows(out, report["operational"]["segments"], _REPORT_OPERATIONAL_ROWS)
        embodied, sci = report["embodied"], report["sci"]
        _write_csv_rows(out, writer, chain(
            (("embodied", f"{consumer['consumer_id']}/{object_id}", "", "", "kg_co2e", kg)
             for consumer in embodied["consumers"] for object_id, kg in zip(*consumer["objects"].columns)),
            (("embodied", object_id, "", "", "idle_residual_kg_co2e", residual)
             for object_id, _, _, residual in zip(*embodied["objects"].columns)),
            (("sci", sci["functional_unit"]["name"], "", "", metric, sci[metric])
             for metric in ("operational_kg_co2e", "embodied_kg_co2e", "total_kg_co2e", "sci_kg_co2e_per_unit"))))
    else:
        raise ValueError(f"unknown report type {report_type!r}")


def render_report(report: Any, output: str, sink: BinaryIO) -> _Utf8Writer:
    """Write ``report`` to the binary ``sink`` block by block, as ``"csv"`` or
    as ``"json"``: ``json.dumps(report, indent=2, default=list) + "\\n"``, each
    Rows row through one '%'-template. Returns the writer; the benchmark's span
    wrapper reads its ``len()``, the bytes written, as the report's size."""
    out = _Utf8Writer(sink)
    if output == "json":
        _encode(report, out, "\n")
        out.write("\n")
    elif output == "csv":
        _write_csv(report, out)
    else:
        raise ValueError(f"output must be 'json' or 'csv', got {output!r}")
    out.flush()
    return out
