"""Loading, validation, and serialization of all external data.

Formats (all timestamps are integer UTC epoch seconds):

* usage trace CSV, header
  ``timestamp_utc,duration_s,u_cpu_cores,u_mem_bytes,u_io_bytes,u_net_bytes``
  (UTF-8, ``.`` decimal separator, LF line endings);
* usage trace JSON: ``{"samples": [{...same field names...}]}``;
* intensity feed JSON:
  ``{"region": str, "entries": [{"start", "end", "intensity_kg_per_kwh"}]}``;
* ledger JSON: ``{"objects": [...], "records": [...]}``;
* run config JSON, see :class:`RunConfig`.

Every parse error names its location: ``row N`` (a CSV line), ``byte N``
(bad UTF-8 or JSON syntax), or a field path such as ``$.key``,
``objects[i].key`` or ``records[i].profile[j]``; a parser reports the first
fault in its check order. Serializers emit a canonical form that
round-trips byte-identically through the matching parser.

The intensity fetcher keeps a content-addressed file cache (one entry per
endpoint+region) with atomic writes; ``CARBONDEF_CACHE_DIR`` overrides the
cache location.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import sys
import tempfile
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass
from itertools import repeat
from math import inf
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable

from .errors import (
    FractionError,
    LedgerReferenceError,
    NegativeIntensityError,
    NetworkError,
    OverlapError,
    ParseError,
    SchemaError,
)
from .embodied import ConsumptionRecord, EmbodiedObject, Ledger, ProfileStep, SharingProfile
from .grid import COVERAGE_POLICIES, IntensityEntry, IntensitySeries, PueFactor
from .power import COMPONENTS, EPOCH_LIMIT, PerComponent, ServerSpec, UnitTags, UsageSample, UsageTrace

TRACE_CSV_HEADER = "timestamp_utc,duration_s,u_cpu_cores,u_mem_bytes,u_io_bytes,u_net_bytes"

TRACE_FIELDS = ("start", "duration_s", "u_cpu_cores", "u_mem_bytes", "u_io_bytes", "u_net_bytes")

OUTPUT_FORMATS = ("json", "csv")

DEFAULT_FRESHNESS_S = 1800.0

CACHE_DIR_ENV = "CARBONDEF_CACHE_DIR"


def canonical_json(obj: Any) -> bytes:
    """The one JSON shape serializers emit: sorted keys, 2-space indent."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _decode_utf8(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("invalid UTF-8", location=f"byte {exc.start}") from exc


# whole JSON strings and numbers, so digits inside either never pass for an integer literal
_JSON_TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"|-?([0-9]+)(\.[0-9]+)?([eE][-+]?[0-9]+)?', re.S)
# whole JSON strings, so brackets inside one are not counted as nesting;
# compiled on the error path only
_JSON_NESTING = rb'"(?:[^"\\]|\\.)*"|[\[\]{}]'
_NESTING_STEP = {b"[": 1, b"{": 1, b"]": -1, b"}": -1}


def _decode_json(data: bytes) -> Any:
    try:
        return json.loads(_decode_utf8(data))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", location=f"byte {exc.pos}") from exc
    except RecursionError as exc:  # nested deeper than the decoder's stack allows
        depth, deepest, where = 0, 0, 0
        for token in re.finditer(_JSON_NESTING, data, re.S):
            depth += _NESTING_STEP.get(token[0], 0)
            if depth > deepest:
                deepest, where = depth, token.start()
        raise ParseError(f"invalid JSON: nested {deepest} levels deep", location=f"byte {where}") from exc
    except ValueError as exc:  # an integer literal past Python's int conversion limit
        limit = sys.get_int_max_str_digits()
        location = next((f"byte {token.start()}" for token in _JSON_TOKEN.finditer(data)
                         if len(token[1] or b"") > limit and token[2] is token[3] is None), "$")
        raise ParseError(f"invalid JSON: integer literal over {limit} digits", location=location) from exc


def _fields(raw: Any, location: str, *fields: tuple[str, Callable[[Any, str, str], Any]]) -> list:
    """The value of each ``(key, kind)`` field of the object ``raw``, read in
    order: a missing key is a SchemaError at ``location``, and
    ``kind(value, location, key)`` checks and converts the value, raising at
    ``location.key``."""
    if not isinstance(raw, dict):
        raise SchemaError("expected an object", location=location)
    values = []
    for key, kind in fields:
        if key not in raw:
            raise SchemaError(f"missing key {key!r}", location=location)
        values.append(kind(raw[key], location, key))
    return values


# --- field kinds: each formats ``location.key`` only when it raises ---

def _present(value: Any, location: str, key: str) -> Any:
    return value


def _number(value: Any, location: str, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"expected a number, got {value!r}", location=f"{location}.{key}")
    if not abs(value) <= sys.float_info.max:  # NaN, ±inf or an int beyond the float range
        raise ParseError(f"expected a finite number, got {value!r}", location=f"{location}.{key}")
    return float(value)


def _integer(value: Any, location: str, key: str, expected: str = "integer epoch seconds") -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected {expected}, got {value!r}", location=f"{location}.{key}")
    if abs(value) > EPOCH_LIMIT:
        raise ParseError("integer beyond ±2**53", location=f"{location}.{key}")
    return value


def _cpu_count(value: Any, location: str, key: str) -> int:
    return _integer(value, location, key, "an integer CPU count")


def _string(value: Any, location: str, key: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"expected a string, got {value!r}", location=f"{location}.{key}")
    return value


def _array(value: Any, location: str, key: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{key!r} must be an array", location=f"{location}.{key}")
    return value


def _object(value: Any, location: str, key: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{key!r} must be an object", location=f"{location}.{key}")
    return value


def _setting(doc: dict, key: str, choices: tuple, expected: str | None = None) -> Any:
    """The optional top-level key ``key``: one of ``choices`` and of their
    type (so 1 is no True), ``choices[0]`` when absent."""
    value = doc.get(key, choices[0])
    if type(value) is not type(choices[0]) or value not in choices:
        raise ParseError(f"{key} must be {expected or f'one of {choices}, got {value!r}'}", location=f"$.{key}")
    return value


def _located(build: Callable[..., Any], location: str, *args: Any) -> Any:
    """``build(*args)``, its ValueError raised as a ParseError at ``location``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(str(exc), location=location) from exc


# --- usage traces ---

def parse_usage_trace(data: bytes, format: str = "csv") -> UsageTrace:
    """Parse a usage trace. A CSV trace keeps its source row numbers for
    diagnostics; a JSON trace has no rows, so its ``source_rows`` is None.

    Raises ParseError/SchemaError with the offending row or field, and
    TraceOrderError when samples are unsorted or overlapping.
    """
    if format == "csv":
        return _parse_trace_csv(data)
    if format == "json":
        return _parse_trace_json(data)
    raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


def _parse_trace_csv(data: bytes) -> UsageTrace:
    lines = _decode_utf8(data).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise SchemaError("missing header", location="row 1")
    if lines[0] != TRACE_CSV_HEADER:
        raise SchemaError(f"header must be {TRACE_CSV_HEADER!r}, got {lines[0]!r}", location="row 1")
    del lines[0]

    # the whole body column by column; any fault leaves its location to the row loop
    try:
        if set(map(str.count, lines, repeat(","))) - {5}:
            raise ValueError("a row without 6 fields")
        fields = ",".join(lines).split(",") if lines else []
        start = list(map(int, fields[0::6]))
        values = [list(map(float, fields[k::6])) for k in range(1, 6)]
        return UsageTrace(columns=(start, *values), source_rows=range(2, len(lines) + 2))
    except ValueError:
        _locate_csv_fault(lines)
        raise


def _locate_csv_fault(lines: list[str]) -> None:
    """Raise the ParseError of the first faulty body row, as a row-by-row parse would."""
    for row, line in enumerate(lines, 2):
        location = f"row {row}"
        fields = line.split(",")
        if len(fields) != 6:
            raise ParseError(f"expected 6 fields, got {len(fields)}", location=location)
        try:
            start = int(fields[0])
        except ValueError as exc:
            message = f"timestamp_utc must be integer epoch seconds, got {fields[0]!r}"
            raise ParseError(message, location=location) from exc
        if abs(start) > EPOCH_LIMIT:
            raise ParseError("timestamp_utc beyond ±2**53", location=location)
        try:
            values = [float(field) for field in fields[1:]]
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", location=location) from exc
        _located(UsageSample, location, start, *values)


def _parse_trace_json(data: bytes) -> UsageTrace:
    (raw_samples,) = _fields(_decode_json(data), "$", ("samples", _array))

    # the whole array key by key; any fault leaves its location to the sample loop
    try:
        start, *values = [[raw[key] for raw in raw_samples] for key in TRACE_FIELDS]
        if set(map(type, start)) - {int}:
            raise ValueError("a start that is no integer")
        if any(set(map(type, column)) - {int, float} or not max(map(abs, column), default=0) <= sys.float_info.max
               for column in values):  # _number's test: a bool is an int, an int may pass the float range
            raise ValueError("a value that is no finite number")
        return UsageTrace(columns=(start, *(list(map(float, column)) for column in values)))
    except (KeyError, TypeError, ValueError):
        _locate_json_fault(raw_samples)
        raise


def _locate_json_fault(raw_samples: list) -> None:
    """Raise the error of the first faulty sample, as a sample-by-sample parse would."""
    sample_fields = (("start", _integer), *((key, _number) for key in TRACE_FIELDS[1:]))
    for index, raw in enumerate(raw_samples):
        location = f"samples[{index}]"
        _located(UsageSample, location, *_fields(raw, location, *sample_fields))


def serialize_usage_trace(trace: UsageTrace, format: str = "csv") -> bytes:
    """Canonical bytes for a trace; floats use shortest round-trip form."""
    if format == "csv":
        lines = [TRACE_CSV_HEADER, *map("%r,%r,%r,%r,%r,%r".__mod__, zip(*trace.columns))]
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        return canonical_json({"samples": [dict(zip(TRACE_FIELDS, row)) for row in zip(*trace.columns)]})
    raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


# --- intensity feeds ---

def parse_intensity_feed(data: bytes) -> IntensitySeries:
    """Parse and sort an intensity feed.

    Raises NegativeIntensityError / OverlapError / ParseError, each with
    the offending entry's position in the input.
    """
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
            raise error(str(exc), location=location) from exc

    ordered = sorted(entries, key=attrgetter("start"))
    try:
        return IntensitySeries(region=region, entries=tuple(ordered))
    except ValueError as exc:  # locate the first entry starting before its predecessor's end
        later = next(entry for entry, previous in zip(ordered[1:], ordered) if entry.start < previous.end)
        index = next(index for index, entry in enumerate(entries) if entry is later)
        raise OverlapError(str(exc), location=f"entries[{index}]") from exc


def serialize_intensity_feed(series: IntensitySeries) -> bytes:
    entries = [
        {"start": entry.start, "end": entry.end, "intensity_kg_per_kwh": entry.intensity_kg_per_kwh}
        for entry in series.entries
    ]
    return canonical_json({"region": series.region, "entries": entries})


# --- embodied ledgers ---

def parse_ledger(data: bytes) -> Ledger:
    """Parse a ledger and run the full cross-reference validation.

    Raises ParseError for malformed values, FractionError for fractions
    outside [0, 1], LedgerReferenceError for dangling object ids, and
    OversubscriptionError when instantaneous shares exceed capacity.
    """
    doc = _decode_json(data)
    # both keys present before either's type is checked
    raw_objects, raw_records = _fields(doc, "$", ("objects", _present), ("records", _present))
    raw_objects, raw_records = _array(raw_objects, "$", "objects"), _array(raw_records, "$", "records")

    object_fields = (("id", _string), ("m_kg", _number), ("r_kg", _number), ("eol_kg", _number),
                     ("lifespan_start", _integer), ("lifespan_s", _number))
    objects: list[EmbodiedObject] = []
    for index, raw in enumerate(raw_objects):
        location = f"objects[{index}]"
        objects.append(_located(EmbodiedObject, location, *_fields(raw, location, *object_fields)))

    record_fields = (("consumer_id", _string), ("object_id", _string), ("profile", _array))
    step_fields = (("start", _integer), ("end", _integer), ("fraction", _number))
    records: list[ConsumptionRecord] = []
    for index, raw in enumerate(raw_records):
        location = f"records[{index}]"
        consumer_id, object_id, raw_profile = _fields(raw, location, *record_fields)
        steps: list[ProfileStep] = []
        for step_index, raw_step in enumerate(raw_profile):
            step_location = f"{location}.profile[{step_index}]"
            start, end, fraction = _fields(raw_step, step_location, *step_fields)
            try:
                steps.append(ProfileStep(start, end, fraction))
            except FractionError as exc:
                raise FractionError(f"{step_location}: {exc}") from exc
            except ValueError as exc:
                raise ParseError(str(exc), location=step_location) from exc
        profile = _located(SharingProfile, f"{location}.profile", tuple(steps))
        records.append(ConsumptionRecord(consumer_id, object_id, profile))

    del doc, raw_objects, raw_records  # free the parsed JSON before Ledger.build indexes
    return _located(Ledger.build, "$.objects", objects, records)  # a ValueError: duplicate object ids


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


# --- run configuration ---

@dataclass(frozen=True)
class FunctionalUnit:
    name: str
    count: float

    def __post_init__(self):
        if not 0 < self.count < inf:
            bound = "finite" if self.count > 0 else "> 0"
            raise ValueError(f"functional unit count must be {bound}, got {self.count}")


@dataclass(frozen=True)
class IntensitySource:
    """Exactly one of ``file`` or ``endpoint``+``region`` is set."""

    file: str | None = None
    endpoint: str | None = None
    region: str | None = None


@dataclass(frozen=True)
class RunConfig:
    server: ServerSpec
    pue: PueFactor
    intensity: IntensitySource
    coverage_policy: str = "strict"
    functional_unit: FunctionalUnit | None = None
    clamp_usage: bool = False
    output: str = "json"
    base_dir: Path = Path(".")
    digest: str = ""

    def intensity_file(self) -> Path | None:
        if self.intensity.file is None:
            return None
        return self.base_dir / self.intensity.file


def _per_component(raw: Any, location: str) -> PerComponent:
    return PerComponent(*_fields(raw, location, *((component, _number) for component in COMPONENTS)))


def parse_config(data: bytes, base_dir: Path = Path(".")) -> RunConfig:
    doc = _decode_json(data)

    (raw_server,) = _fields(doc, "$", ("server", _present))
    raw_alpha, raw_umax = _fields(raw_server, "$.server", ("alpha", _present), ("u_max", _present))
    raw_units = _object(raw_server.get("u_max_units", {}), "$.server", "u_max_units")
    units = UnitTags(**{
        component: _string(raw_units[component], "$.server.u_max_units", component)
        for component in ("mem", "io", "net") if component in raw_units
    })
    tdp_watts, n_cpu = _fields(raw_server, "$.server", ("tdp_watts", _number), ("n_cpu", _cpu_count))
    spec = ServerSpec(
        tdp_watts=tdp_watts,
        n_cpu=n_cpu,
        alpha=_per_component(raw_alpha, "$.server.alpha"),
        u_max=_per_component(raw_umax, "$.server.u_max"),
        idle_watts=_number(raw_server.get("idle_watts", 0.0), "$.server", "idle_watts"),
        u_max_units=units,
    )

    pue = _located(PueFactor, "$.pue", *_fields(doc, "$", ("pue", _number)))

    (raw_intensity,) = _fields(doc, "$", ("intensity", _object))
    has_file = "file" in raw_intensity
    if has_file == ("endpoint" in raw_intensity):
        raise SchemaError(
            "exactly one intensity source: either 'file' or 'endpoint'+'region'",
            location="$.intensity",
        )
    if has_file:
        source = IntensitySource(*_fields(raw_intensity, "$.intensity", ("file", _string)))
    else:
        endpoint, region = _fields(raw_intensity, "$.intensity", ("endpoint", _string), ("region", _string))
        source = IntensitySource(endpoint=endpoint, region=region)

    coverage_policy = _setting(doc, "coverage_policy", COVERAGE_POLICIES)

    functional_unit = None
    if "functional_unit" in doc:
        count, name = _fields(doc["functional_unit"], "$.functional_unit", ("count", _number), ("name", _string))
        functional_unit = _located(FunctionalUnit, "$.functional_unit.count", name, count)

    clamp_usage = _setting(doc, "clamp_usage", (False, True), "a boolean")
    output = _setting(doc, "output", OUTPUT_FORMATS)

    return RunConfig(
        server=spec,
        pue=pue,
        intensity=source,
        coverage_policy=coverage_policy,
        functional_unit=functional_unit,
        clamp_usage=clamp_usage,
        output=output,
        base_dir=base_dir,
        digest=hashlib.sha256(data).hexdigest(),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a config file; referenced files must exist."""
    path = Path(path)
    config = parse_config(path.read_bytes(), base_dir=path.parent)
    intensity_file = config.intensity_file()
    if intensity_file is not None and not intensity_file.exists():
        raise FileNotFoundError(f"intensity file not found: {intensity_file}")
    return config


# --- intensity fetch with cache ---

def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "carbondef"


def _cache_path(cache_dir: Path, endpoint: str, region: str) -> Path:
    key = hashlib.sha256(f"{endpoint}\n{region}".encode("utf-8")).hexdigest()
    return cache_dir / f"{key}.json"


def _read_cache(path: Path, window: tuple[int, int]) -> tuple[float, IntensitySeries] | None:
    """(fetched_at, series) of a well-formed entry covering ``window``
    whose payload matches its ``payload_sha256``.

    Anything else is a miss, never an input error: a corrupt, edited,
    foreign or unparsable entry is refetched and overwritten.
    """
    try:
        entry = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(entry, dict) or not {"payload", "window", "fetched_at"} <= entry.keys():
        return None
    cached, fetched_at, payload = entry["window"], entry["fetched_at"], entry["payload"]
    if not (
        isinstance(cached, dict)
        and type(cached.get("start")) is int
        and type(cached.get("end")) is int
        and type(fetched_at) in (int, float)
        and isinstance(payload, str)
    ):
        return None
    if cached["start"] > window[0] or cached["end"] < window[1]:
        return None
    try:
        data = payload.encode("utf-8")
        if hashlib.sha256(data).hexdigest() != entry.get("payload_sha256"):
            return None
        return fetched_at, parse_intensity_feed(data)
    except (ParseError, UnicodeEncodeError):  # the encode fails on a lone surrogate
        return None


def write_atomic(path: Path, data: bytes, mode: int = 0o600) -> None:
    """Replace ``path`` by a temporary file in its directory and a rename:
    readers never see a partial file, a failure leaves no temporary file,
    and the new file has ``mode`` (by default its owner's only)."""
    descriptor, temp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.chmod(temp_name, mode)
        os.replace(temp_name, path)
    except BaseException:
        os.unlink(temp_name)
        raise


def fetch_intensity(
    endpoint: str,
    region: str,
    window: tuple[int, int],
    cache_dir: str | Path | None = None,
    *,
    freshness_s: float = DEFAULT_FRESHNESS_S,
    timeout_s: float = 30.0,
) -> IntensitySeries:
    """Fetch an intensity series for ``window``, serving from cache when fresh.

    A cache entry is served without touching the network when it covers the
    window and is younger than ``freshness_s`` (default mirrors the common
    30-minute feed update cadence). On network failure a stale covering
    entry is used as fallback, with one warning line on stderr. With no
    usable cache the failure surfaces as NetworkError.
    """
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = _cache_path(cache_dir, endpoint, region)
    cached = _read_cache(path, window)
    now = time.time()

    if cached is not None and now - cached[0] <= freshness_s:
        return cached[1]

    query = urllib.parse.urlencode({"region": region, "start": window[0], "end": window[1]})
    url = f"{endpoint}{'&' if '?' in endpoint else '?'}{query}"
    try:
        if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
            raise ValueError(f"not an http(s) URL: {endpoint!r}")
        with urllib.request.urlopen(url, timeout=timeout_s) as response:
            payload = response.read()
    # OSError covers URLError, HTTPError (non-2xx) and timeouts; ValueError an unusable URL
    except (OSError, http.client.HTTPException, ValueError) as exc:
        if cached is not None:
            print(
                f"warning: intensity refresh for {region!r} failed ({exc}); "
                f"using the cache entry fetched {now - cached[0]:.0f} s ago",
                file=sys.stderr,
            )
            return cached[1]
        raise NetworkError(f"intensity fetch from {endpoint} failed: {exc}") from exc

    series = parse_intensity_feed(payload)
    canonical = serialize_intensity_feed(series)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "endpoint": endpoint,
        "region": region,
        "window": {"start": window[0], "end": window[1]},
        "fetched_at": now,
        "payload_sha256": hashlib.sha256(canonical).hexdigest(),
        "payload": canonical.decode("utf-8"),
    }
    write_atomic(path, canonical_json(entry))
    return series
