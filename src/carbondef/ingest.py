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

A trace parses into a list of int starts and five array('d'); the CSV body
is read in ~512 KB byte blocks cut after a newline (never inside a UTF-8
sequence); a forked child (power.in_two) reads the second half of a body past
two blocks, cut at the newline after its midpoint. Only a faulty trace is
decoded whole, to locate its fault.
Every parse error names its location: ``row N`` (a CSV line), ``byte N``
(bad UTF-8 or JSON syntax), or a field path such as ``$.key``,
``objects[i].key`` or ``records[i].profile[j]``; a parser reports the first
fault in its check order. Every JSON key, required or optional, is read by
one field reader, ``_fields``; every JSON entry list (samples, feed entries,
ledger objects, records, steps) by one bulk reader, ``_columns``, a column a
key checked by its kind's bulk test, whose fault path ``_locate`` reads entry
by entry through ``_fields``. ``serialize_intensity_feed`` emits the canonical
form the cache stores, which round-trips byte-identically through its parser.

The intensity fetcher keeps a content-addressed file cache (one entry per
endpoint+region) with atomic writes, read through the same field reader: an
entry it rejects is a miss. ``CARBONDEF_CACHE_DIR`` overrides the cache location.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import time
import urllib.parse
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable

from .errors import (
    FractionError,
    NegativeIntensityError,
    NetworkError,
    OverlapError,
    ParseError,
    SchemaError,
)
from .embodied import EmbodiedObject, Ledger, ProfileStep, SharingProfile
from .grid import COVERAGE_POLICIES, IntensityEntry, IntensitySeries, PueFactor
from .power import (COMPONENTS, EPOCH_LIMIT, PerComponent, ServerSpec, UnitTags, UsageSample, UsageTrace, broken_bound,
                    columns_in_two, shown)

TRACE_CSV_HEADER = "timestamp_utc,duration_s,u_cpu_cores,u_mem_bytes,u_io_bytes,u_net_bytes"

TRACE_FIELDS = ("start", "duration_s", "u_cpu_cores", "u_mem_bytes", "u_io_bytes", "u_net_bytes")

OUTPUT_FORMATS = ("json", "csv")

_CSV_BLOCK = 1 << 19  # CSV trace body bytes decoded and split at once: a whole trace's text and lines outweigh its columns

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
_JSON_TOKEN = rb'"(?:[^"\\]|\\.)*"|-?([0-9]+)(\.[0-9]+)?([eE][-+]?[0-9]+)?'
# whole JSON strings, so brackets inside one are not counted as nesting; both compile on their error paths only
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
        location = next((f"byte {token.start()}" for token in re.finditer(_JSON_TOKEN, data, re.S)
                         if len(token[1] or b"") > limit and token[2] is token[3] is None), "$")
        raise ParseError(f"invalid JSON: integer literal over {limit} digits", location=location) from exc


def _fields(raw: Any, location: str, *fields: tuple[str, Callable[[Any, str, str], Any]]) -> list:
    """The value of each ``(key, kind)`` field of the object ``raw``, read in
    order, the one reader of every JSON key: ``kind(value, location, key)``
    checks and converts a present value, raising at ``location.key``. A
    missing key reads as ``kind.default`` when the kind has one (an optional
    key, see :func:`_optional`), else it is a SchemaError at ``location``."""
    if not isinstance(raw, dict):
        raise SchemaError("expected an object", location=location)
    values = []
    for key, kind in fields:
        if key in raw:
            values.append(kind(raw[key], location, key))
        elif hasattr(kind, "default"):
            values.append(kind.default)
        else:
            raise SchemaError(f"missing key {key!r}", location=location)
    return values


# --- field kinds: each formats ``location.key`` only when it raises ---

def _present(value: Any, location: str, key: str) -> Any:
    return value


def _fails_kind(types: set, limit: float, column: list) -> bool:
    """Whether a value in ``column`` has a type outside ``types`` (so a bool is no int) or
    an ``abs`` past ``limit``. A NaN that max() skips passes: the value types reject it."""
    return bool(set(map(type, column)) - types) or not max(map(abs, column), default=0) <= limit


def _number(value: Any, location: str, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"expected a number, got {value!r}", location=f"{location}.{key}")
    if not abs(value) <= sys.float_info.max:  # NaN, ±inf or an int beyond the float range
        raise ParseError(f"expected a finite number, got {value!r}", location=f"{location}.{key}")
    return float(value)


_number.fails = partial(_fails_kind, {int, float}, sys.float_info.max)


def _integer(value: Any, location: str, key: str, expected: str = "integer epoch seconds") -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected {expected}, got {value!r}", location=f"{location}.{key}")
    if abs(value) > EPOCH_LIMIT:
        raise ParseError("integer beyond ±2**53", location=f"{location}.{key}")
    return value


_integer.fails = partial(_fails_kind, {int}, EPOCH_LIMIT)

_cpu_count = partial(_integer, expected="an integer CPU count")


def _string(value: Any, location: str, key: str) -> str:
    _utf8(value, location, key)
    return value


# never true: a value that is no str raises a TypeError, a lone surrogate a UnicodeEncodeError (a ValueError)
_string.fails = lambda column: "".join(column).encode("utf-8") is None


def _utf8(value: Any, location: str, key: str) -> bytes:
    if not isinstance(value, str):
        raise ParseError(f"expected a string, got {value!r}", location=f"{location}.{key}")
    try:
        return value.encode("utf-8")  # a lone surrogate, which a JSON escape can hold, has no UTF-8 form
    except UnicodeEncodeError:
        raise ParseError(f"expected Unicode text, got {value!r}", location=f"{location}.{key}") from None


def _array(value: Any, location: str, key: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{key!r} must be an array", location=f"{location}.{key}")
    return value


def _object(value: Any, location: str, key: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{key!r} must be an object", location=f"{location}.{key}")
    return value


def _optional(kind: Callable[[Any, str, str], Any], default: Any) -> Callable[[Any, str, str], Any]:
    """``kind`` for an optional key, which reads as ``default`` when missing."""
    optional = partial(kind)
    optional.default = default
    return optional


def _choice(choices: tuple, expected: str | None = None) -> Callable[[Any, str, str], Any]:
    """The kind of an optional key holding one of ``choices``, of their type
    (so 1 is no True), ``choices[0]`` when missing."""
    def choice(value: Any, location: str, key: str) -> Any:
        if type(value) is not type(choices[0]) or value not in choices:
            message = f"{key} must be {expected or f'one of {choices}, got {value!r}'}"
            raise ParseError(message, location=f"{location}.{key}")
        return value
    return _optional(choice, choices[0])


def _located(build: Callable[..., Any], location: str, *args: Any, error: type = ParseError) -> Any:
    """``build(*args)``, its ValueError raised as an ``error`` (ParseError) at ``location``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise error(str(exc), location=location) from exc


def _columns(raw_entries: list, location: str | None, fields: tuple, build: Callable[..., Any] | None = None,
             entry: Callable[..., Any] | None = None) -> Any:
    """``build(*columns)``, or the columns: a list a ``(key, kind)`` field of ``raw_entries``, each checked by
    ``kind.fails``, true or raising for a value the kind rejects. On a KeyError, TypeError or ValueError,
    ``build``'s too, :func:`_locate` raises the first fault under ``location``; the error is raised again
    if it finds none, or with no ``location`` (the caller's own loop locates it)."""
    try:
        columns = [list(map(itemgetter(key), raw_entries)) for key, _ in fields]
        if any(kind.fails(column) for (_, kind), column in zip(fields, columns)):
            raise ValueError("a value that fails its kind's test")
        return build(*columns) if build else columns
    except (KeyError, TypeError, ValueError):
        if location is not None:
            _locate(raw_entries, location, fields, entry)
        raise


def _locate(raw_entries: list, location: str, fields: tuple, entry: Callable[..., Any] | None = None) -> list:
    """Read entry i through :func:`_fields` at ``location[i]``, then ``entry(location[i], *values)``, one by one,
    so the first fault raises: each entry's values, or what ``entry`` returns."""
    read = []
    for index, raw in enumerate(raw_entries):
        values = _fields(raw, at := f"{location}[{index}]", *fields)
        read.append(entry(at, *values) if entry else values)
    return read


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
    # a header-only trace may lack its newline; a body past two blocks is cut at the newline after its midpoint
    try:
        begin, end = len(TRACE_CSV_HEADER) + 1, len(data)
        if data[:begin] != f"{TRACE_CSV_HEADER}\n".encode() and data != TRACE_CSV_HEADER.encode():
            raise ValueError("a header that is not TRACE_CSV_HEADER")
        middle, rows = data.find(b"\n", (begin + end) // 2) + 1 or end, partial(_csv_columns, data)
        columns = columns_in_two(rows, begin, middle, end) if end - begin > 2 * _CSV_BLOCK else rows(begin, end)
        return UsageTrace(columns=columns, source_rows=range(2, len(columns[0]) + 2))
    except ValueError:
        _locate_csv_fault(data)
        raise


def _csv_columns(data: bytes, begin: int, end: int) -> list:
    """The start list and five array('d') of the rows in bytes ``begin`` to ``end``, by blocks: no whole-text str."""
    columns = [[], *(array("d") for _ in TRACE_FIELDS[1:])]
    while begin < end:
        cut = data.find(b"\n", begin + _CSV_BLOCK, end) + 1 or end
        lines = data[begin:cut].decode().split("\n")  # a cut after a newline splits no UTF-8 sequence; a bad one is a ValueError
        if not lines[-1]:
            del lines[-1]
        if set(map(str.count, lines, repeat(","))) - {5}:
            raise ValueError("a row without 6 fields")
        fields = ",".join(lines).split(",")
        for k, column in enumerate(columns):
            column.extend(map(float if k else int, fields[k::6]))
        begin = cut
    return columns


def _locate_csv_fault(data: bytes) -> None:
    """Raise the ParseError of the first fault, as a whole-text, row-by-row parse would."""
    lines = _decode_utf8(data).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise SchemaError("missing header", location="row 1")
    if lines[0] != TRACE_CSV_HEADER:
        raise SchemaError(f"header must be {TRACE_CSV_HEADER!r}, got {lines[0]!r}", location="row 1")
    for row, line in enumerate(islice(lines, 1, None), 2):
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


_SAMPLE_FIELDS = (("start", _integer), *((key, _number) for key in TRACE_FIELDS[1:]))


def _parse_trace_json(data: bytes) -> UsageTrace:
    (raw_samples,) = _fields(_decode_json(data), "$", ("samples", _array))
    return _columns(raw_samples, "samples", _SAMPLE_FIELDS, lambda *columns: UsageTrace(columns=columns),
                    partial(_located, UsageSample))


# --- intensity feeds ---

_ENTRY_FIELDS = (("start", _integer), ("end", _integer), ("intensity_kg_per_kwh", _number))


def parse_intensity_feed(data: bytes) -> IntensitySeries:
    """Parse an intensity feed into a series, its columns sorted once by start (stably).

    Raises NegativeIntensityError / OverlapError / ParseError, each with
    the offending entry's position in the input.
    """
    region, raw_entries = _fields(_decode_json(data), "$", ("region", _string), ("entries", _array))
    order: list[int] = []  # the input index of each entry in start order

    def sorted_series(start: list, end: list, intensity: list) -> IntensitySeries:
        order.extend(sorted(range(len(start)), key=start.__getitem__))
        columns = (start, end, list(map(float, intensity)))  # an int converts as _number's float() does
        return IntensitySeries(region, columns=[list(map(column.__getitem__, order)) for column in columns])

    try:
        return _columns(raw_entries, "entries", _ENTRY_FIELDS, sorted_series, _intensity_entry)
    except ValueError as exc:  # every entry is sound: the later of the first overlapping pair, by its input index
        start, end, _ = _columns(raw_entries, "entries", _ENTRY_FIELDS)
        later = next(k for k in range(1, len(order)) if start[order[k]] < end[order[k - 1]])
        raise OverlapError(str(exc), location=f"entries[{order[later]}]") from exc


def _intensity_entry(location: str, start: int, end: int, intensity: float) -> None:
    error = NegativeIntensityError if intensity < 0 else ParseError  # IntensityEntry's first check
    _located(IntensityEntry, location, start, end, intensity, error=error)


def serialize_intensity_feed(series: IntensitySeries) -> bytes:
    keys = [key for key, _ in _ENTRY_FIELDS]
    entries = [dict(zip(keys, row)) for row in zip(*series.columns)]
    return canonical_json({"region": series.region, "entries": entries})


# --- embodied ledgers ---

def _profile(value: Any, location: str, key: str) -> SharingProfile:
    """A record's profile: its steps read and built by :func:`_locate` at ``location.key[j]``,
    then their SharingProfile at ``location.key``."""
    steps = _locate(_array(value, location, key), f"{location}.{key}", _STEP_FIELDS, _profile_step)
    return _located(SharingProfile, f"{location}.{key}", tuple(steps))


_profile.fails = lambda column: set(map(type, column)) - {list}  # _array's test; the steps have their own


def _profile_step(location: str, *values: Any) -> ProfileStep:
    try:
        return _located(ProfileStep, location, *values)
    except FractionError as exc:  # no ValueError, so _located leaves it unlocated
        raise FractionError(f"{location}: {exc}") from exc


_OBJECT_FIELDS = (("id", _string), ("m_kg", _number), ("r_kg", _number), ("eol_kg", _number),
                  ("lifespan_start", _integer), ("lifespan_s", _number))
_RECORD_FIELDS = (("consumer_id", _string), ("object_id", _string), ("profile", _profile))
_STEP_FIELDS = (("start", _integer), ("end", _integer), ("fraction", _number))


def parse_ledger(data: bytes) -> Ledger:
    """Parse a ledger and run the full cross-reference validation.

    Objects, records and their flattened steps are read by :func:`_columns`, and the step
    columns go to Ledger.build with per-record offsets, after the parsed JSON is freed. A
    fault in the records or steps, or a ValueError or FractionError (caught by name: it is
    no ValueError) from Ledger.build, is named by the record loop, whose ``profile`` kind
    reads each step; after Ledger.build it runs over the document decoded again.

    Raises ParseError for malformed values, FractionError for fractions
    outside [0, 1], LedgerReferenceError for dangling object ids, and
    OversubscriptionError when instantaneous shares exceed capacity.
    """
    raw_objects, raw_records = _ledger_entries(data)
    objects = _columns(raw_objects, "objects", _OBJECT_FIELDS, _embodied_objects, partial(_located, EmbodiedObject))
    columns = _columns(raw_records, "records", _RECORD_FIELDS, _record_columns)
    del raw_objects, raw_records  # free the parsed JSON before Ledger.build checks and indexes
    try:
        return Ledger.build(objects, columns=columns)
    except (ValueError, FractionError) as exc:
        _locate(_ledger_entries(data)[1], "records", _RECORD_FIELDS)
        raise ParseError(str(exc), location="$.objects") from exc  # no entry is at fault: a duplicate object id


def _ledger_entries(data: bytes) -> tuple[list, list]:
    # both keys present before either's type is checked
    raw_objects, raw_records = _fields(_decode_json(data), "$", ("objects", _present), ("records", _present))
    return _array(raw_objects, "$", "objects"), _array(raw_records, "$", "records")


def _embodied_objects(ids: list, m_kg: list, r_kg: list, eol_kg: list, lifespan_start: list, lifespan_s: list) -> list:
    kg = (map(float, column) for column in (m_kg, r_kg, eol_kg))
    return list(map(EmbodiedObject, ids, *kg, lifespan_start, map(float, lifespan_s)))


def _record_columns(consumer_ids: list, object_ids: list, profiles: list) -> tuple:
    """Ledger.build's columns; a fault in the steps is left to the record loop, which names it."""
    offsets = [0, *accumulate(map(len, profiles))]
    return consumer_ids, object_ids, offsets, *_columns(list(chain.from_iterable(profiles)), None, _STEP_FIELDS)


# --- run configuration ---

@dataclass(frozen=True)
class FunctionalUnit:
    name: str
    count: float

    def __post_init__(self):
        if bound := broken_bound(self.count, 0, strict=True):
            raise ValueError(f"functional unit count must be {bound}, got {shown(self.count)}")


@dataclass(frozen=True)
class IntensitySource:
    """Exactly one of ``file`` or ``endpoint``+``region`` is set."""

    file: Path | None = None
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
    digest: str = ""


def _per_component(raw: Any, location: str) -> PerComponent:
    return PerComponent(*_fields(raw, location, *((component, _number) for component in COMPONENTS)))


def _functional_unit(value: Any, location: str, key: str) -> FunctionalUnit:
    count, name = _fields(value, f"{location}.{key}", ("count", _number), ("name", _string))
    return _located(FunctionalUnit, f"{location}.{key}.count", name, count)


def parse_config(data: bytes, base_dir: Path = Path(".")) -> RunConfig:
    """Parse a run config; an intensity ``file`` is read as relative to ``base_dir``."""
    doc = _decode_json(data)

    (raw_server,) = _fields(doc, "$", ("server", _present))
    raw_alpha, raw_umax, raw_units = _fields(
        raw_server, "$.server", ("alpha", _present), ("u_max", _present), ("u_max_units", _optional(_object, {}))
    )
    tag = _optional(_string, "bytes")
    units = UnitTags(*_fields(raw_units, "$.server.u_max_units", ("mem", tag), ("io", tag), ("net", tag)))
    tdp_watts, n_cpu = _fields(raw_server, "$.server", ("tdp_watts", _number), ("n_cpu", _cpu_count))
    alpha, u_max = _per_component(raw_alpha, "$.server.alpha"), _per_component(raw_umax, "$.server.u_max")
    (idle_watts,) = _fields(raw_server, "$.server", ("idle_watts", _optional(_number, 0.0)))
    spec = ServerSpec(tdp_watts, n_cpu, alpha, u_max, idle_watts, units)

    pue = _located(PueFactor, "$.pue", *_fields(doc, "$", ("pue", _number)))

    (raw_intensity,) = _fields(doc, "$", ("intensity", _object))
    if ("file" in raw_intensity) == ("endpoint" in raw_intensity):
        raise SchemaError("exactly one intensity source: either 'file' or 'endpoint'+'region'", location="$.intensity")
    if "file" in raw_intensity:
        (file,) = _fields(raw_intensity, "$.intensity", ("file", _string))
        source = IntensitySource(file=base_dir / file)
    else:
        endpoint, region = _fields(raw_intensity, "$.intensity", ("endpoint", _string), ("region", _string))
        source = IntensitySource(endpoint=endpoint, region=region)

    settings = _fields(  # in RunConfig's field order
        doc, "$",
        ("coverage_policy", _choice(COVERAGE_POLICIES)),
        ("functional_unit", _optional(_functional_unit, None)),
        ("clamp_usage", _choice((False, True), "a boolean")),
        ("output", _choice(OUTPUT_FORMATS)),
    )
    return RunConfig(spec, pue, source, *settings, digest=hashlib.sha256(data).hexdigest())


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a config file; its intensity file, relative to it, must exist."""
    path = Path(path)
    config = parse_config(path.read_bytes(), base_dir=path.parent)
    if (intensity_file := config.intensity.file) is not None and not intensity_file.exists():
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


def _read_cache(path: Path, window: tuple[int, int], now: float) -> tuple[float, IntensitySeries] | None:
    """(fetched_at, series) of a well-formed entry covering ``window``,
    fetched no later than ``now``, whose payload matches its ``payload_sha256``.

    Anything else is a miss, never an input error: a corrupt, edited,
    foreign, future-dated or unparsable entry is refetched and overwritten.
    """
    try:
        raw_window, fetched_at, data, checksum = _fields(
            _decode_json(path.read_bytes()), "$",
            ("window", _present), ("fetched_at", _number), ("payload", _utf8), ("payload_sha256", _present),
        )
        start, end = _fields(raw_window, "$.window", ("start", _integer), ("end", _integer))
        if start <= window[0] and window[1] <= end and fetched_at <= now and hashlib.sha256(data).hexdigest() == checksum:
            return fetched_at, parse_intensity_feed(data)
    except (OSError, ParseError):
        pass
    return None


def write_atomic(path: Path, write: Callable[[BinaryIO], Any], mode: int = 0o600) -> None:
    """Replace ``path`` by a temporary file in its directory, filled by
    ``write(handle)``, and a rename: readers never see a partial file, a failure
    leaves no temporary file, and the new file has ``mode`` (default owner-only)."""
    import tempfile  # here, not at module level: every run's cold start would pay for it
    descriptor, temp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            write(handle)
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
    now = time.time()
    cached = _read_cache(path, window, now)

    if cached is not None and now - cached[0] <= freshness_s:
        return cached[1]

    import http.client  # here, not at module level: every run's cold start would pay for them
    import urllib.request
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
    write_atomic(path, lambda handle: handle.write(canonical_json(entry)))
    return series
