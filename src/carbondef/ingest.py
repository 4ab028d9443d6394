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

Every parse error names its location (row number, byte offset, or field
path). Serializers emit a canonical form that round-trips byte-identically
through the matching parser.

The intensity fetcher keeps a content-addressed file cache (one entry per
endpoint+region) with atomic writes; ``CARBONDEF_CACHE_DIR`` overrides the
cache location.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import sys
import tempfile
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import (
    FractionError,
    LedgerReferenceError,
    NegativeIntensityError,
    NetworkError,
    OverlapError,
    ParseError,
    SchemaError,
    StaleCacheError,
)
from .embodied import ConsumptionRecord, EmbodiedObject, Ledger, ProfileStep, SharingProfile
from .grid import COVERAGE_POLICIES, IntensityEntry, IntensitySeries, PueFactor
from .power import PerComponent, ServerSpec, UnitTags, UsageSample, UsageTrace, validate_spec

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


def _decode_json(data: bytes) -> Any:
    try:
        return json.loads(_decode_utf8(data))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", location=f"byte {exc.pos}") from exc


def _require(mapping: Any, key: str, location: str) -> Any:
    if not isinstance(mapping, dict):
        raise SchemaError("expected an object", location=location)
    if key not in mapping:
        raise SchemaError(f"missing key {key!r}", location=location)
    return mapping[key]


def _number(value: Any, location: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"expected a number, got {value!r}", location=location)
    if not abs(value) <= sys.float_info.max:  # NaN, ±inf or an int beyond the float range
        raise ParseError(f"expected a finite number, got {value!r}", location=location)
    return float(value)


def _epoch(value: Any, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(
            f"expected integer epoch seconds, got {value!r}", location=location
        )
    return value


def _string(value: Any, location: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"expected a string, got {value!r}", location=location)
    return value


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
    text = _decode_utf8(data)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise SchemaError("missing header", location="row 1")
    if lines[0] != TRACE_CSV_HEADER:
        raise SchemaError(
            f"header must be {TRACE_CSV_HEADER!r}, got {lines[0]!r}", location="row 1"
        )

    samples: list[UsageSample] = []
    rows: list[int] = []
    for offset, line in enumerate(lines[1:]):
        row = offset + 2
        location = f"row {row}"
        fields = line.split(",")
        if len(fields) != 6:
            raise ParseError(f"expected 6 fields, got {len(fields)}", location=location)
        try:
            start = int(fields[0])
        except ValueError as exc:
            raise ParseError(
                f"timestamp_utc must be integer epoch seconds, got {fields[0]!r}",
                location=location,
            ) from exc
        try:
            values = [float(field) for field in fields[1:]]
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", location=location) from exc
        if not all(map(math.isfinite, values)):
            raise ParseError(f"non-finite number in {line!r}", location=location)
        try:
            samples.append(UsageSample(start, *values))
        except ValueError as exc:
            raise ParseError(str(exc), location=location) from exc
        rows.append(row)

    return UsageTrace(samples=tuple(samples), source_rows=tuple(rows))


def _parse_trace_json(data: bytes) -> UsageTrace:
    doc = _decode_json(data)
    raw_samples = _require(doc, "samples", "$")
    if not isinstance(raw_samples, list):
        raise SchemaError("'samples' must be an array", location="$.samples")

    samples: list[UsageSample] = []
    for index, raw in enumerate(raw_samples):
        location = f"samples[{index}]"
        start = _epoch(_require(raw, "start", location), f"{location}.start")
        values = [
            _number(_require(raw, key, location), f"{location}.{key}")
            for key in TRACE_FIELDS[1:]
        ]
        try:
            samples.append(UsageSample(start, *values))
        except ValueError as exc:
            raise ParseError(str(exc), location=location) from exc

    return UsageTrace(samples=tuple(samples))


def serialize_usage_trace(trace: UsageTrace, format: str = "csv") -> bytes:
    """Canonical bytes for a trace; floats use shortest round-trip form."""
    if format == "csv":
        lines = [TRACE_CSV_HEADER]
        for sample in trace.samples:
            lines.append(
                f"{sample.start},{sample.duration_s!r},{sample.u_cpu!r},"
                f"{sample.u_mem!r},{sample.u_io!r},{sample.u_net!r}"
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        return canonical_json(
            {
                "samples": [
                    {
                        "start": sample.start,
                        "duration_s": sample.duration_s,
                        "u_cpu_cores": sample.u_cpu,
                        "u_mem_bytes": sample.u_mem,
                        "u_io_bytes": sample.u_io,
                        "u_net_bytes": sample.u_net,
                    }
                    for sample in trace.samples
                ]
            }
        )
    raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


# --- intensity feeds ---

def parse_intensity_feed(data: bytes) -> IntensitySeries:
    """Parse and sort an intensity feed.

    Raises NegativeIntensityError / OverlapError / ParseError, each with
    the offending entry's position in the input.
    """
    doc = _decode_json(data)
    region = _string(_require(doc, "region", "$"), "$.region")
    raw_entries = _require(doc, "entries", "$")
    if not isinstance(raw_entries, list):
        raise SchemaError("'entries' must be an array", location="$.entries")

    indexed: list[tuple[IntensityEntry, int]] = []
    for index, raw in enumerate(raw_entries):
        location = f"entries[{index}]"
        start = _epoch(_require(raw, "start", location), f"{location}.start")
        end = _epoch(_require(raw, "end", location), f"{location}.end")
        intensity = _number(
            _require(raw, "intensity_kg_per_kwh", location),
            f"{location}.intensity_kg_per_kwh",
        )
        if intensity < 0:
            raise NegativeIntensityError(
                f"intensity_kg_per_kwh must be >= 0, got {intensity}", location=location
            )
        if end <= start:
            raise ParseError(f"end {end} must be > start {start}", location=location)
        indexed.append((IntensityEntry(start, end, intensity), index))

    indexed.sort(key=lambda pair: pair[0].start)
    previous_end = None
    for entry, index in indexed:
        if previous_end is not None and entry.start < previous_end:
            raise OverlapError(
                f"entry [{entry.start}, {entry.end}) overlaps the previous one",
                location=f"entries[{index}]",
            )
        previous_end = entry.end
    return IntensitySeries(region=region, entries=tuple(entry for entry, _ in indexed))


def serialize_intensity_feed(series: IntensitySeries) -> bytes:
    return canonical_json(
        {
            "region": series.region,
            "entries": [
                {
                    "start": entry.start,
                    "end": entry.end,
                    "intensity_kg_per_kwh": entry.intensity_kg_per_kwh,
                }
                for entry in series.entries
            ],
        }
    )


# --- embodied ledgers ---

def parse_ledger(data: bytes) -> Ledger:
    """Parse a ledger and run the full cross-reference validation.

    Raises ParseError for malformed values, FractionError for fractions
    outside [0, 1], LedgerReferenceError for dangling object ids, and
    OversubscriptionError when instantaneous shares exceed capacity.
    """
    doc = _decode_json(data)
    raw_objects = _require(doc, "objects", "$")
    raw_records = _require(doc, "records", "$")
    if not isinstance(raw_objects, list):
        raise SchemaError("'objects' must be an array", location="$.objects")
    if not isinstance(raw_records, list):
        raise SchemaError("'records' must be an array", location="$.records")

    objects: list[EmbodiedObject] = []
    for index, raw in enumerate(raw_objects):
        location = f"objects[{index}]"
        try:
            objects.append(
                EmbodiedObject(
                    id=_string(_require(raw, "id", location), f"{location}.id"),
                    m_kg=_number(_require(raw, "m_kg", location), f"{location}.m_kg"),
                    r_kg=_number(_require(raw, "r_kg", location), f"{location}.r_kg"),
                    eol_kg=_number(_require(raw, "eol_kg", location), f"{location}.eol_kg"),
                    lifespan_start=_epoch(
                        _require(raw, "lifespan_start", location),
                        f"{location}.lifespan_start",
                    ),
                    lifespan_s=_number(
                        _require(raw, "lifespan_s", location), f"{location}.lifespan_s"
                    ),
                )
            )
        except ValueError as exc:
            raise ParseError(str(exc), location=location) from exc

    records: list[ConsumptionRecord] = []
    for index, raw in enumerate(raw_records):
        location = f"records[{index}]"
        consumer_id = _string(
            _require(raw, "consumer_id", location), f"{location}.consumer_id"
        )
        object_id = _string(_require(raw, "object_id", location), f"{location}.object_id")
        raw_profile = _require(raw, "profile", location)
        if not isinstance(raw_profile, list):
            raise SchemaError("'profile' must be an array", location=f"{location}.profile")
        steps: list[ProfileStep] = []
        for step_index, raw_step in enumerate(raw_profile):
            step_location = f"{location}.profile[{step_index}]"
            start = _epoch(_require(raw_step, "start", step_location), f"{step_location}.start")
            end = _epoch(_require(raw_step, "end", step_location), f"{step_location}.end")
            fraction = _number(
                _require(raw_step, "fraction", step_location), f"{step_location}.fraction"
            )
            try:
                steps.append(ProfileStep(start, end, fraction))
            except FractionError as exc:
                raise FractionError(f"{step_location}: {exc}") from exc
            except ValueError as exc:
                raise ParseError(str(exc), location=step_location) from exc
        try:
            profile = SharingProfile(steps=tuple(steps))
        except ValueError as exc:
            raise ParseError(str(exc), location=f"{location}.profile") from exc
        records.append(
            ConsumptionRecord(consumer_id=consumer_id, object_id=object_id, profile=profile)
        )

    del doc, raw_objects, raw_records  # free the parsed JSON before Ledger.build indexes
    try:
        return Ledger.build(objects, records)
    except ValueError as exc:  # duplicate object ids
        raise ParseError(str(exc), location="$.objects") from exc


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


def parse_config(data: bytes, base_dir: Path = Path(".")) -> RunConfig:
    doc = _decode_json(data)

    raw_server = _require(doc, "server", "$")
    raw_alpha = _require(raw_server, "alpha", "$.server")
    raw_umax = _require(raw_server, "u_max", "$.server")
    raw_units = raw_server.get("u_max_units", {})
    if not isinstance(raw_units, dict):
        raise SchemaError("'u_max_units' must be an object", location="$.server.u_max_units")
    unit_kwargs = {}
    for component in ("mem", "io", "net"):
        if component in raw_units:
            unit_kwargs[component] = _string(
                raw_units[component], f"$.server.u_max_units.{component}"
            )
    spec = ServerSpec(
        tdp_watts=_number(_require(raw_server, "tdp_watts", "$.server"), "$.server.tdp_watts"),
        n_cpu=_epoch(_require(raw_server, "n_cpu", "$.server"), "$.server.n_cpu"),
        alpha=PerComponent(
            cpu=_number(_require(raw_alpha, "cpu", "$.server.alpha"), "$.server.alpha.cpu"),
            mem=_number(_require(raw_alpha, "mem", "$.server.alpha"), "$.server.alpha.mem"),
            io=_number(_require(raw_alpha, "io", "$.server.alpha"), "$.server.alpha.io"),
            net=_number(_require(raw_alpha, "net", "$.server.alpha"), "$.server.alpha.net"),
        ),
        u_max=PerComponent(
            cpu=_number(_require(raw_umax, "cpu", "$.server.u_max"), "$.server.u_max.cpu"),
            mem=_number(_require(raw_umax, "mem", "$.server.u_max"), "$.server.u_max.mem"),
            io=_number(_require(raw_umax, "io", "$.server.u_max"), "$.server.u_max.io"),
            net=_number(_require(raw_umax, "net", "$.server.u_max"), "$.server.u_max.net"),
        ),
        idle_watts=_number(raw_server.get("idle_watts", 0.0), "$.server.idle_watts"),
        u_max_units=UnitTags(**unit_kwargs),
    )
    validate_spec(spec)

    try:
        pue = PueFactor(_number(_require(doc, "pue", "$"), "$.pue"))
    except ValueError as exc:
        raise ParseError(str(exc), location="$.pue") from exc

    raw_intensity = _require(doc, "intensity", "$")
    if not isinstance(raw_intensity, dict):
        raise SchemaError("'intensity' must be an object", location="$.intensity")
    has_file = "file" in raw_intensity
    has_endpoint = "endpoint" in raw_intensity
    if has_file == has_endpoint:
        raise SchemaError(
            "exactly one intensity source: either 'file' or 'endpoint'+'region'",
            location="$.intensity",
        )
    if has_file:
        source = IntensitySource(file=_string(raw_intensity["file"], "$.intensity.file"))
    else:
        source = IntensitySource(
            endpoint=_string(raw_intensity["endpoint"], "$.intensity.endpoint"),
            region=_string(
                _require(raw_intensity, "region", "$.intensity"), "$.intensity.region"
            ),
        )

    coverage_policy = doc.get("coverage_policy", "strict")
    if coverage_policy not in COVERAGE_POLICIES:
        raise ParseError(
            f"coverage_policy must be one of {COVERAGE_POLICIES}, got {coverage_policy!r}",
            location="$.coverage_policy",
        )

    functional_unit = None
    if "functional_unit" in doc:
        raw_unit = doc["functional_unit"]
        count = _number(
            _require(raw_unit, "count", "$.functional_unit"), "$.functional_unit.count"
        )
        if count <= 0:
            raise ParseError(
                f"functional unit count must be > 0, got {count}",
                location="$.functional_unit.count",
            )
        functional_unit = FunctionalUnit(
            name=_string(
                _require(raw_unit, "name", "$.functional_unit"), "$.functional_unit.name"
            ),
            count=count,
        )

    clamp_usage = doc.get("clamp_usage", False)
    if not isinstance(clamp_usage, bool):
        raise ParseError("clamp_usage must be a boolean", location="$.clamp_usage")

    output = doc.get("output", "json")
    if output not in OUTPUT_FORMATS:
        raise ParseError(
            f"output must be one of {OUTPUT_FORMATS}, got {output!r}", location="$.output"
        )

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
    """(fetched_at, series) of a well-formed entry covering ``window``.

    Anything else is a miss, never an input error: a corrupt, foreign or
    unparsable entry is refetched and overwritten.
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
        return fetched_at, parse_intensity_feed(payload.encode("utf-8"))
    except (ParseError, UnicodeEncodeError):  # the encode fails on a lone surrogate
        return None


def _write_cache(path: Path, entry: dict) -> None:
    # write-temp-then-rename: readers never observe a partial entry
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(canonical_json(entry))
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
    strict_freshness: bool = False,
    token: str | None = None,
    timeout_s: float = 30.0,
) -> IntensitySeries:
    """Fetch an intensity series for ``window``, serving from cache when fresh.

    A cache entry is served without touching the network when it covers the
    window and is younger than ``freshness_s`` (default mirrors the common
    30-minute feed update cadence). On network failure a stale covering
    entry is used as fallback, unless ``strict_freshness`` is set, which
    raises StaleCacheError instead. With no usable cache the failure
    surfaces as NetworkError.
    """
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = _cache_path(cache_dir, endpoint, region)
    cached = _read_cache(path, window)
    now = time.time()

    if cached is not None and now - cached[0] <= freshness_s:
        return cached[1]

    headers = {"Authorization": f"Bearer {token}"} if token else {}
    query = urllib.parse.urlencode({"region": region, "start": window[0], "end": window[1]})
    url = f"{endpoint}{'&' if '?' in endpoint else '?'}{query}"
    try:
        if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
            raise ValueError(f"not an http(s) URL: {endpoint!r}")
        request = urllib.request.Request(url, headers=headers)
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            payload = response.read()
    # OSError covers URLError, HTTPError (non-2xx) and timeouts; ValueError an unusable URL
    except (OSError, http.client.HTTPException, ValueError) as exc:
        if cached is not None:
            if strict_freshness:
                raise StaleCacheError(
                    f"cache for {region!r} is older than {freshness_s}s and "
                    f"refresh failed: {exc}"
                ) from exc
            return cached[1]
        raise NetworkError(f"intensity fetch from {endpoint} failed: {exc}") from exc

    series = parse_intensity_feed(payload)
    canonical = serialize_intensity_feed(series)
    _write_cache(
        path,
        {
            "endpoint": endpoint,
            "region": region,
            "window": {"start": window[0], "end": window[1]},
            "fetched_at": now,
            "payload_sha256": hashlib.sha256(canonical).hexdigest(),
            "payload": canonical.decode("utf-8"),
        },
    )
    return series
