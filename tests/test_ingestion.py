import json
import math
import os
import random
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from carbondef import ingest
from carbondef.errors import (
    FractionError, NegativeIntensityError, NetworkError, OverlapError, ParseError, SchemaError, ValidationError,
)
from carbondef.ingest import (
    TRACE_CSV_HEADER,
    TRACE_FIELDS,
    fetch_intensity,
    load_config,
    parse_config,
    parse_intensity_feed,
    parse_ledger,
    parse_usage_trace,
    serialize_intensity_feed,
)
from carbondef.power import UnitTags, UsageTrace
from carbondef.report import build_report

from support import (
    FIXTURES, MALFORMED, naive_parse_trace, parse_malformed, serialize_ledger, serialize_usage_trace, to_json_bytes,
)

CANONICAL = FIXTURES / "canonical"
CLI = FIXTURES / "cli"


class TestTraceParsing:
    def test_csv_single_row(self):
        data = f"{TRACE_CSV_HEADER}\n1700000000,3600,2.0,8e9,1e9,5e8\n".encode()
        trace = parse_usage_trace(data, "csv")
        assert len(trace) == 1
        sample = trace.samples[0]
        assert sample.start == 1700000000
        assert sample.duration_s == 3600.0
        assert sample.u_cpu == 2.0
        assert sample.u_mem == 8e9
        assert sample.u_io == 1e9
        assert sample.u_net == 5e8
        assert trace.source_rows == range(2, 3)

    def test_csv_empty_body(self):
        trace = parse_usage_trace(f"{TRACE_CSV_HEADER}\n".encode(), "csv")
        assert len(trace) == 0

    def test_json_round(self):
        doc = {
            "samples": [
                {
                    "start": 1700000000,
                    "duration_s": 3600.0,
                    "u_cpu_cores": 2.0,
                    "u_mem_bytes": 8e9,
                    "u_io_bytes": 1e9,
                    "u_net_bytes": 5e8,
                }
            ]
        }
        trace = parse_usage_trace(json.dumps(doc).encode(), "json")
        assert len(trace) == 1 and trace.samples[0].u_cpu == 2.0

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_usage_trace(b"", "yaml")


# one field of one sample replaced, as (CSV cell, JSON value); None drops the field
TRACE_MUTATIONS = {
    "nan": ("nan", math.nan), "inf": ("inf", math.inf), "negative": ("-1", -1), "zero": ("0", 0),
    "bool": ("True", True), "huge": ("1" + "0" * 400, 10**400), "text": ("x", "x"), "missing": (None, None),
    # an integer past the largest float that float() still rounds down to it
    "past float max": (str(int(sys.float_info.max) + 1), int(sys.float_info.max) + 1),
}


@st.composite
def mutated_traces(draw):
    """(bytes, format) of a valid trace, or of one with a single fault: a
    mutated field, a field too many or an overlapping start."""
    fmt = draw(st.sampled_from(["csv", "json"]))
    rows, start = [], draw(st.integers(-(10**6), 2 * 10**9))
    for _ in range(draw(st.integers(0, 6))):
        duration = draw(st.sampled_from([1, 15, 300.0, 0.5, 3600.25]))
        usages = draw(st.lists(st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e12)), min_size=4, max_size=4))
        rows.append([start, duration, *usages])
        start += math.ceil(duration) + draw(st.sampled_from([0, 0, 7]))
    fault = draw(st.sampled_from([None, "extra field", "overlap", *TRACE_MUTATIONS]))
    index = draw(st.integers(0, max(len(rows) - 1, 0)))
    field = draw(st.integers(0, 5))
    if rows and fault == "overlap" and index > 0:
        rows[index][0] = rows[index - 1][0] + 1
    elif rows and fault in TRACE_MUTATIONS:
        rows[index][field] = TRACE_MUTATIONS[fault][fmt == "json"]
    if fmt == "json":
        samples = [{key: value for key, value in zip(TRACE_FIELDS, row) if value is not None} for row in rows]
        if rows and fault == "extra field":
            samples[index]["extra"] = 1
        return json.dumps({"samples": samples}).encode(), fmt
    lines = [",".join(str(value) for value in row if value is not None) for row in rows]
    if rows and fault == "extra field":
        lines[index] += ",1"
    return "\n".join([TRACE_CSV_HEADER, *lines, ""]).encode(), fmt


def parse_outcome(parse, data, fmt):
    try:
        trace = parse(data, fmt)
    except ValidationError as exc:
        return type(exc), str(exc), getattr(exc, "location", None)
    return trace, repr(trace.columns)


@pytest.mark.parametrize("filename, message", [
    ("trace_huge_epoch.csv", "timestamp_utc beyond ±2**53 (at row 3)"),
    ("trace_huge_epoch.json", "integer beyond ±2**53 (at samples[0].start)"),
])
def test_huge_epoch_message(filename, message):
    # UsageTrace holds the bound; the parsers' fallbacks keep locating it
    data = (FIXTURES / "malformed" / filename).read_bytes()
    with pytest.raises(ParseError) as exc_info:
        parse_usage_trace(data, filename.rpartition(".")[2])
    assert str(exc_info.value) == message


class TestBulkParseAgainstReference:
    """The column-wise parsers against the row-by-row reference in support.py:
    the same trace, bit for bit, or the same error class, message and location."""

    @settings(max_examples=300)
    @given(mutated_traces())
    def test_same_trace_or_same_error(self, trace_input):
        data, fmt = trace_input
        assert parse_outcome(parse_usage_trace, data, fmt) == parse_outcome(naive_parse_trace, data, fmt)

    @pytest.mark.parametrize("filename,kind", [row[:2] for row in MALFORMED if row[1].startswith("trace_")])
    def test_malformed_traces_match_reference(self, filename, kind):
        data, fmt = (FIXTURES / "malformed" / filename).read_bytes(), kind.removeprefix("trace_")
        assert parse_outcome(parse_usage_trace, data, fmt) == parse_outcome(naive_parse_trace, data, fmt)

    @pytest.mark.parametrize("block", [200, 333])
    def test_csv_block_edges(self, monkeypatch, block):
        # the body is decoded and split in blocks of _CSV_BLOCK bytes and up to the next newline;
        # a fault in the row just before or after an edge keeps its location
        monkeypatch.setattr(ingest, "_CSV_BLOCK", block)
        lines = [TRACE_CSV_HEADER, *(f"{10 * i},10,{i % 5 * 0.5},{i},{i % 3}e6,0.25" for i in range(120))]
        data = ("\n".join(lines) + "\n").encode()
        expected = parse_outcome(naive_parse_trace, data, "csv")
        assert parse_outcome(parse_usage_trace, data, "csv") == expected
        assert len(expected[0]) == 120
        edges, begin = [], len(lines[0]) + 1
        while (end := data.find(b"\n", begin + block) + 1) and end < len(data):
            edges.append(end)
            begin = end
        assert len(edges) >= 4
        for edge in edges:
            after = data.count(b"\n", 0, edge)  # lines[after] starts at the edge
            for index in (after - 1, after):
                offset = len("\n".join(lines[:index])) + 1  # where lines[index] starts: the lines are ASCII
                cells = lines[index].split(",")
                # a bad UTF-8 byte; 5 fields, a non-numeric (two-byte) field, a float timestamp, a negative usage
                bad_rows = [(b"\xff" + lines[index][1:].encode(), f"byte {offset}")] + [
                    (",".join(row).encode(), f"row {index + 1}")
                    for row in (cells[:5], [*cells[:2], "\u00e9", *cells[3:]],
                                ["1.5", *cells[1:]], [*cells[:3], "-1", *cells[4:]])]
                for bad_row, location in bad_rows:
                    bad = data[:offset] + bad_row + data[offset + len(lines[index]):]
                    expected = parse_outcome(naive_parse_trace, bad, "csv")
                    assert expected[2] == location
                    assert parse_outcome(parse_usage_trace, bad, "csv") == expected

    @pytest.mark.parametrize("data", [
        TRACE_CSV_HEADER.encode(), f"{TRACE_CSV_HEADER}\n".encode(), f"{TRACE_CSV_HEADER}\n\n".encode(),
        f"{TRACE_CSV_HEADER}\n0,10,1,0,0,0".encode(), f"{TRACE_CSV_HEADER}\n0,10,1,0,0,0\n".encode(),
        f"{TRACE_CSV_HEADER}\n0,10,1,0,0,0\n\n".encode(), f"{TRACE_CSV_HEADER}\r\n0,10,1,0,0,0\n".encode(),
        b"", b"\n", b"\xff\n",
    ], ids=["header-only-unterminated", "header-only", "header-blank-line", "no-final-newline", "one-row",
            "trailing-blank-line", "crlf-header", "empty", "blank", "bad-utf8-header"])
    def test_csv_trace_ends(self, monkeypatch, data):
        monkeypatch.setattr(ingest, "_CSV_BLOCK", 8)
        assert parse_outcome(parse_usage_trace, data, "csv") == parse_outcome(naive_parse_trace, data, "csv")

    @pytest.mark.parametrize("data, fmt", [
        (TRACE_CSV_HEADER.encode(), "csv"), (f"{TRACE_CSV_HEADER}\n0,10,1,0,0,0\n".encode(), "csv"),
        (b'{"samples": []}', "json"),
        (json.dumps({"samples": [dict(zip(TRACE_FIELDS, (0, 10, 1, 0, 0, 0)))]}).encode(), "json"),
    ])
    def test_parsers_give_a_start_list_and_five_float_arrays(self, data, fmt):
        start, *values = parse_usage_trace(data, fmt).columns
        assert type(start) is list
        assert [(type(column), column.typecode) for column in values] == [(array, "d")] * 5

    def test_parsed_trace_equals_the_trace_of_its_samples(self):
        trace = parse_usage_trace((FIXTURES / "cli" / "trace_full_load.csv").read_bytes(), "csv")
        assert type(trace.source_rows) is range  # kept, never copied into n int objects
        assert trace == UsageTrace(trace.samples, trace.source_rows)


def test_csv_parse_holds_under_160_bytes_a_sample():
    # a start list and five array('d') hold about 80 bytes a sample, one block's text, lines and cells
    # about 5 MB; the whole text, its line list and boxed floats took about 400
    rng = random.Random(5)
    n = 100_000
    rows = (f"{1_700_000_000 + 15 * i},15.0,{rng.uniform(0, 64)!r},{rng.uniform(1e9, 9e9)!r},"
            f"{rng.uniform(0, 5e8)!r},{rng.uniform(0, 5e8)!r}" for i in range(n))
    data = "\n".join([TRACE_CSV_HEADER, *rows, ""]).encode()
    tracemalloc.start()
    try:
        trace = parse_usage_trace(data, "csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == n
    assert peak / n < 160


class TestIntensityParsing:
    def test_two_contiguous_entries(self):
        series = parse_intensity_feed((CLI / "intensity.json").read_bytes())
        assert series.region == "NL"
        assert [e.intensity_kg_per_kwh for e in series.entries] == [0.4, 0.2]

    def test_empty_entries_is_valid(self):
        series = parse_intensity_feed(b'{"region": "NL", "entries": []}')
        assert series.entries == ()

    def test_unsorted_input_is_sorted(self):
        doc = {
            "region": "NL",
            "entries": [
                {"start": 1800, "end": 3600, "intensity_kg_per_kwh": 0.2},
                {"start": 0, "end": 1800, "intensity_kg_per_kwh": 0.4},
            ],
        }
        series = parse_intensity_feed(json.dumps(doc).encode())
        assert [e.start for e in series.entries] == [0, 1800]

    @pytest.mark.parametrize("entries, error, message", [
        ([(0, 1800, -0.5)], NegativeIntensityError, "intensity_kg_per_kwh must be >= 0, got -0.5 (at entries[0])"),
        ([(0, 1800, 0.4), (900, 900, -0.5)], NegativeIntensityError,
         "intensity_kg_per_kwh must be >= 0, got -0.5 (at entries[1])"),
        ([(1800, 1800, 0.4)], ParseError, "end 1800 must be > start 1800 (at entries[0])"),
        # sorted by start, the later of an overlapping pair is located by its input index
        ([(1800, 3600, 0.2), (0, 2000, 0.4)], OverlapError, "entry [1800, 3600) overlaps the previous one (at entries[0])"),
        ([(0, 1800, 0.4), (0, 1800, 0.4)], OverlapError, "entry [0, 1800) overlaps the previous one (at entries[1])"),
    ])
    def test_entry_faults_located_by_input_index(self, entries, error, message):
        doc = {"region": "NL", "entries": [
            {"start": start, "end": end, "intensity_kg_per_kwh": value} for start, end, value in entries]}
        with pytest.raises(error) as exc_info:
            parse_intensity_feed(json.dumps(doc).encode())
        assert type(exc_info.value) is error and str(exc_info.value) == message


class TestLedgerParsing:
    def test_full_lifespan_record(self):
        doc = {
            "objects": [
                {
                    "id": "rack-1",
                    "m_kg": 600.0,
                    "r_kg": 300.0,
                    "eol_kg": 100.0,
                    "lifespan_start": 1600000000,
                    "lifespan_s": 315360000.0,
                }
            ],
            "records": [
                {
                    "consumer_id": "svc-a",
                    "object_id": "rack-1",
                    "profile": [
                        {"start": 1600000000, "end": 1915360000, "fraction": 1.0}
                    ],
                }
            ],
        }
        ledger = parse_ledger(json.dumps(doc).encode())
        assert set(ledger.objects) == {"rack-1"}
        assert ledger.consumer_ids() == ("svc-a",)

    @staticmethod
    def two_object_ledger() -> dict:
        """Two objects, one record each of two steps: every fault below sits in a later one."""
        def rack(i):
            return {"id": f"rack-{i}", "m_kg": 600.0, "r_kg": 300.0, "eol_kg": 100.0,
                    "lifespan_start": 1600000000, "lifespan_s": 315360000.0}

        def claim(i):
            return {"consumer_id": f"svc-{i}", "object_id": f"rack-{i}", "profile": [
                {"start": 1600000000, "end": 1600086400, "fraction": 0.5},
                {"start": 1600086400, "end": 1600172800, "fraction": 0.25},
            ]}
        return {"objects": [rack(1), rack(2)], "records": [claim(1), claim(2)]}

    # faults a column-wise check can miss (max() skips a NaN that is not first, an int
    # may pass the float range, True is an int, FractionError is no ValueError), each
    # with the class and message a key-by-key parse gives it
    @pytest.mark.parametrize("path, value, error, message", [
        *((("objects", 1, key), value, ParseError, f"expected a finite number, got {value} (at objects[1].{key})")
          for key in ("m_kg", "r_kg", "eol_kg", "lifespan_s") for value in (math.nan, math.inf, -math.inf)),
        *((("records", 1, "profile", 1, "fraction"), value, ParseError,
           f"expected a finite number, got {value} (at records[1].profile[1].fraction)")
          for value in (math.nan, math.inf)),
        (("objects", 1, "lifespan_s"), 10**400, ParseError,
         f"expected a finite number, got {10**400} (at objects[1].lifespan_s)"),
        (("objects", 1, "m_kg"), -1, ParseError, "lifecycle emissions must be >= 0 (at objects[1])"),
        (("objects", 1, "lifespan_s"), 0, ParseError, "lifespan_s must be > 0, got 0.0 (at objects[1])"),
        (("objects", 1, "lifespan_start"), 2**53 + 1, ParseError, "integer beyond ±2**53 (at objects[1].lifespan_start)"),
        (("objects", 1, "id"), 7, ParseError, "expected a string, got 7 (at objects[1].id)"),
        (("records", 1, "profile", 1, "fraction"), True, ParseError,
         "expected a number, got True (at records[1].profile[1].fraction)"),
        (("records", 1, "profile", 1, "fraction"), 1.5, FractionError,
         "records[1].profile[1]: fraction must be within [0, 1], got 1.5"),
        (("records", 1, "profile", 1, "fraction"), -1e-300, FractionError,
         "records[1].profile[1]: fraction must be within [0, 1], got -1e-300"),
        (("records", 1, "profile", 1, "end"), 1600086400.5, ParseError,
         "expected integer epoch seconds, got 1600086400.5 (at records[1].profile[1].end)"),
        (("records", 1, "profile", 1), [1600086400, 1600172800, 0.25], SchemaError,
         "expected an object (at records[1].profile[1])"),
        (("records", 1, "profile", 1), "step", SchemaError, "expected an object (at records[1].profile[1])"),
        (("records", 1, "profile"), {"start": 1600000000, "end": 1600086400, "fraction": 0.5}, SchemaError,
         "'profile' must be an array (at records[1].profile)"),
        (("records", 1, "profile"), {}, SchemaError, "'profile' must be an array (at records[1].profile)"),
        (("records", 1, "profile", 1, "end"), 1600086400, ParseError,
         "profile step end 1600086400 <= start 1600086400 (at records[1].profile[1])"),
        (("records", 1, "profile", 1, "start"), 1600086399, ParseError,
         "profile steps unsorted or overlapping at start=1600086399 (at records[1].profile)"),
        (("records", 1, "object_id"), None, ParseError, "expected a string, got None (at records[1].object_id)"),
    ], ids=[*(f"{key}-{value}" for key in ("m_kg", "r_kg", "eol_kg", "lifespan_s") for value in ("nan", "inf", "-inf")),
            "fraction-nan", "fraction-inf", "lifespan-10**400", "m_kg-negative", "lifespan-0", "lifespan_start-2**53+1",
            "id-int", "fraction-true", "fraction-above-1", "fraction-below-0", "end-float", "step-array",
            "step-string", "profile-object", "profile-empty-object", "start-equals-end", "steps-overlap",
            "object_id-null"])
    def test_later_fault_located(self, path, value, error, message):
        doc = self.two_object_ledger()
        *parents, key = path
        node = doc
        for step in parents:
            node = node[step]
        node[key] = value
        with pytest.raises(error) as exc_info:
            parse_ledger(json.dumps(doc).encode())
        assert type(exc_info.value) is error and str(exc_info.value) == message

    def test_valid_ledger_is_read_in_bulk(self, monkeypatch):
        # only the document root goes through the field reader; the entry-by-entry loop runs on a fault
        calls, real_fields = [], ingest._fields

        def counted_fields(raw, location, *fields):
            calls.append(location)
            return real_fields(raw, location, *fields)
        monkeypatch.setattr(ingest, "_fields", counted_fields)
        doc = json.loads((CLI / "ledger.json").read_text())
        assert len(parse_ledger(json.dumps(doc).encode()).records) == 2
        assert calls == ["$"]
        calls.clear()
        doc["records"][1]["profile"][1]["fraction"] = 1.5
        with pytest.raises(FractionError, match=r"^records\[1\]\.profile\[1\]: "):
            parse_ledger(json.dumps(doc).encode())
        assert calls[-1] == "records[1].profile[1]"

    @pytest.mark.parametrize("fraction", [0, 1])
    def test_integer_fraction_reads_as_float(self, fraction):
        doc = self.two_object_ledger()
        doc["records"][1]["profile"][1]["fraction"] = fraction
        ledger = parse_ledger(json.dumps(doc).encode())
        assert type(ledger.records[1].profile.steps[1].fraction) is float
        doc["records"][1]["profile"][1]["fraction"] = float(fraction)
        as_float = parse_ledger(json.dumps(doc).encode())
        assert serialize_ledger(ledger) == serialize_ledger(as_float)
        assert (to_json_bytes(build_report("embodied", ledger=ledger, ledger_digest="sha"))
                == to_json_bytes(build_report("embodied", ledger=as_float, ledger_digest="sha")))


@pytest.mark.parametrize(
    "filename,kind,error_class,marker",
    MALFORMED,
    ids=[row[0] for row in MALFORMED],
)
def test_malformed_corpus(filename, kind, error_class, marker):
    data = (FIXTURES / "malformed" / filename).read_bytes()
    with pytest.raises(error_class) as exc_info:
        parse_malformed(kind, data)
    assert type(exc_info.value) is error_class
    assert marker in str(exc_info.value)


def _config_without_alpha_and_bad_tdp() -> bytes:
    doc = json.loads((CLI / "config.json").read_text())
    del doc["server"]["alpha"]
    doc["server"]["tdp_watts"] = "x"
    return json.dumps(doc).encode()


# each parser reports the first fault in its check order: presence before type where the
# order says so, and one field's fault before the next field's
@pytest.mark.parametrize("parse, data, error, message", [
    (parse_ledger, b'{"objects": 5}', SchemaError, "missing key 'records' (at $)"),
    (parse_config, _config_without_alpha_and_bad_tdp(), SchemaError, "missing key 'alpha' (at $.server)"),
    (parse_intensity_feed, b'{"region": 5}', ParseError, "expected a string, got 5 (at $.region)"),
], ids=["ledger-presence-first", "config-alpha-before-tdp", "feed-region-before-entries"])
def test_first_fault_in_check_order(parse, data, error, message):
    with pytest.raises(error) as exc_info:
        parse(data)
    assert type(exc_info.value) is error and str(exc_info.value) == message


class TestRoundTrips:
    @pytest.mark.parametrize(
        "filename,parse,serialize",
        [
            ("trace.csv", lambda d: parse_usage_trace(d, "csv"), lambda t: serialize_usage_trace(t, "csv")),
            ("trace.json", lambda d: parse_usage_trace(d, "json"), lambda t: serialize_usage_trace(t, "json")),
            ("intensity.json", parse_intensity_feed, serialize_intensity_feed),
            ("ledger.json", parse_ledger, serialize_ledger),
        ],
        ids=["trace-csv", "trace-json", "intensity", "ledger"],
    )
    def test_canonical_bytes_round_trip(self, filename, parse, serialize):
        data = (CANONICAL / filename).read_bytes()
        assert serialize(parse(data)) == data

    def test_noncanonical_parse_is_stable(self):
        # scientific notation in, canonical decimals out; reparse agrees
        data = f"{TRACE_CSV_HEADER}\n1700000000,3600,2.0,8e9,1e9,5e8\n".encode()
        trace = parse_usage_trace(data, "csv")
        canonical = serialize_usage_trace(trace, "csv")
        assert parse_usage_trace(canonical, "csv") == trace


class TestConfig:
    def test_load_example(self):
        config = load_config(CLI / "config.json")
        assert config.pue.value == 1.5
        assert config.server.tdp_watts == 100.0
        assert config.intensity.file == CLI / "intensity.json"
        assert config.functional_unit.count == 1000.0
        assert config.coverage_policy == "strict"
        assert len(config.digest) == 64

    def test_endpoint_source(self):
        doc = json.loads((CLI / "config.json").read_text())
        doc["intensity"] = {"endpoint": "http://example.invalid/feed", "region": "NL"}
        config = parse_config(json.dumps(doc).encode())
        assert config.intensity.endpoint == "http://example.invalid/feed"
        assert config.intensity.file is None

    def test_missing_intensity_file(self, tmp_path):
        doc = json.loads((CLI / "config.json").read_text())
        doc["intensity"] = {"file": "nowhere.json"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileNotFoundError):
            load_config(path)

    def test_defaults(self):
        doc = json.loads((CLI / "config.json").read_text())
        for key in ("coverage_policy", "functional_unit", "clamp_usage", "output"):
            doc.pop(key)
        config = parse_config(json.dumps(doc).encode())
        assert config.coverage_policy == "strict"
        assert config.functional_unit is None
        assert config.clamp_usage is False
        assert config.output == "json"

    # the optional keys tests/fault_order.json never mutates (its fixture has no u_max_units), each
    # set alone: the value read, followed along the key path, or the (class name, message) raised
    DELETE = object()
    OPTIONAL_KEYS = [
        (("server", "u_max_units"), DELETE, UnitTags()),
        (("server", "u_max_units"), {}, UnitTags()),
        (("server", "u_max_units"), [], ("SchemaError", "'u_max_units' must be an object (at $.server.u_max_units)")),
        (("server", "u_max_units"), {"mem": 1},
         ("ParseError", "expected a string, got 1 (at $.server.u_max_units.mem)")),
        (("server", "u_max_units"), {"io": "bits"},
         ("SpecError", "u_max_units.io must be one of ('bytes', 'bytes_per_interval')")),
        (("server", "idle_watts"), DELETE, 0.0),
        (("server", "idle_watts"), None, ("ParseError", "expected a number, got None (at $.server.idle_watts)")),
        (("server", "idle_watts"), True, ("ParseError", "expected a number, got True (at $.server.idle_watts)")),
        (("server", "idle_watts"), "0", ("ParseError", "expected a number, got '0' (at $.server.idle_watts)")),
        (("server", "idle_watts"), 2**1100,
         ("ParseError", f"expected a finite number, got {2**1100} (at $.server.idle_watts)")),
        (("functional_unit",), None, ("SchemaError", "expected an object (at $.functional_unit)")),
        (("functional_unit",), [], ("SchemaError", "expected an object (at $.functional_unit)")),
        (("functional_unit", "name"), DELETE, ("SchemaError", "missing key 'name' (at $.functional_unit)")),
        (("functional_unit", "count"), 0,
         ("ParseError", "functional unit count must be > 0, got 0.0 (at $.functional_unit.count)")),
        (("coverage_policy",), DELETE, "strict"),
        (("coverage_policy",), 1, ("ParseError", "coverage_policy must be one of ('strict', 'skip_uncovered'),"
                                                 " got 1 (at $.coverage_policy)")),
        (("coverage_policy",), True, ("ParseError", "coverage_policy must be one of ('strict', 'skip_uncovered'),"
                                                    " got True (at $.coverage_policy)")),
        (("clamp_usage",), DELETE, False),
        (("clamp_usage",), 1, ("ParseError", "clamp_usage must be a boolean (at $.clamp_usage)")),
        (("clamp_usage",), True, True),
        (("output",), DELETE, "json"),
        (("output",), 1, ("ParseError", "output must be one of ('json', 'csv'), got 1 (at $.output)")),
        (("output",), True, ("ParseError", "output must be one of ('json', 'csv'), got True (at $.output)")),
    ]

    @pytest.mark.parametrize("path,value,expected", OPTIONAL_KEYS)
    def test_optional_key(self, path, value, expected):
        doc = json.loads((CLI / "config.json").read_text())
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if value is self.DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
        try:
            read = parse_config(json.dumps(doc).encode())
        except ValidationError as exc:
            assert (type(exc).__name__, str(exc)) == expected
            return
        for step in path:
            read = getattr(read, step)
        assert read == expected and type(read) is type(expected)


# a clock set back or an edited entry: a negative age makes no entry fresh
FUTURE = (lambda: time.time() + 3600, lambda: 1e300)


class TestFetchIntensity:
    def test_miss_then_cache_hit(self, feed_server, tmp_path):
        series = fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        assert [e.intensity_kg_per_kwh for e in series.entries] == [0.4, 0.2]
        assert feed_server.hits == 1
        assert "region=NL" in feed_server.last_path

        cache_files = list(tmp_path.iterdir())
        assert len(cache_files) == 1
        entry = json.loads(cache_files[0].read_text())
        assert entry["window"] == {"start": 0, "end": 3600}

        again = fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        assert feed_server.hits == 1  # served from cache, no second call
        assert again == series

    def test_subwindow_served_from_cache(self, feed_server, tmp_path):
        fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        fetch_intensity(feed_server.endpoint, "NL", (600, 1200), tmp_path)
        assert feed_server.hits == 1

    def test_wider_window_refetches(self, feed_server, tmp_path):
        fetch_intensity(feed_server.endpoint, "NL", (0, 1800), tmp_path)
        fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        assert feed_server.hits == 2

    def test_stale_entry_refetched(self, feed_server, tmp_path):
        fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path, freshness_s=0.0)
        assert feed_server.hits == 2

    def test_network_down_no_cache(self, tmp_path):
        with pytest.raises(NetworkError):
            fetch_intensity("http://127.0.0.1:9/feed", "NL", (0, 3600), tmp_path, timeout_s=0.2)

    @staticmethod
    def assert_one_stale_warning(capsys):
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: intensity refresh for 'NL' failed")
        assert lines[0].endswith(" s ago")

    def test_network_down_stale_fallback(self, feed_server, tmp_path, capsys):
        endpoint = feed_server.endpoint
        fetch_intensity(endpoint, "NL", (0, 3600), tmp_path)
        feed_server.shutdown()
        feed_server.server_close()
        series = fetch_intensity(
            endpoint, "NL", (0, 3600), tmp_path, freshness_s=0.0, timeout_s=0.2
        )
        assert len(series.entries) == 2
        self.assert_one_stale_warning(capsys)

    def test_fresh_cache_hit_is_silent(self, feed_server, tmp_path, capsys):
        fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        feed_server.status = 500  # a refresh attempt would fail and warn
        fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        assert feed_server.hits == 1
        assert capsys.readouterr().err == ""

    def test_http_error_no_cache(self, feed_server, tmp_path):
        feed_server.status = 500
        with pytest.raises(NetworkError):
            fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)

    def test_http_error_stale_fallback(self, feed_server, tmp_path, capsys):
        first = fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        feed_server.status = 500
        series = fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path, freshness_s=0.0)
        assert feed_server.hits == 2
        assert series == first
        self.assert_one_stale_warning(capsys)

    # "data:" is a scheme urllib would serve without any network
    @pytest.mark.parametrize("endpoint", ["not a url", "data:,{}"])
    def test_unusable_url_is_network_error(self, endpoint, tmp_path):
        with pytest.raises(NetworkError):
            fetch_intensity(endpoint, "NL", (0, 3600), tmp_path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("payload", 42),
            ("payload", "{not json"),
            ("payload", "\ud800"),
            ("fetched_at", "yesterday"),
            ("fetched_at", True),
            ("fetched_at", 10**400),
            ("fetched_at", math.inf),
            ("window", {"start": 0.0, "end": 3600}),
            ("window", {"start": -(2**53) - 1, "end": 3600}),
        ],
        ids=["payload-not-string", "payload-unparsable", "payload-lone-surrogate",
             "fetched-at-string", "fetched-at-bool", "fetched-at-past-float-range", "fetched-at-infinite",
             "window-float-bound", "window-beyond-2**53"],
    )
    def test_malformed_cache_entry_is_a_miss(self, feed_server, tmp_path, field, value):
        series = fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        (path,) = tmp_path.iterdir()
        entry = json.loads(path.read_text())
        entry[field] = value
        path.write_text(json.dumps(entry))
        feed_server.hits = 0
        # served from this entry if it were accepted: it covers the window and is fresh
        assert fetch_intensity(
            feed_server.endpoint, "NL", (0, 3600), tmp_path, freshness_s=1e12
        ) == series
        assert feed_server.hits == 1
        # rewritten well-formed: the next call is a cache hit
        assert fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path) == series
        assert feed_server.hits == 1

    @staticmethod
    def date_cache_entry(directory, fetched_at):
        (path,) = directory.iterdir()
        entry = json.loads(path.read_text())
        entry["fetched_at"] = fetched_at
        path.write_text(json.dumps(entry))

    @pytest.mark.parametrize("fetched_at", FUTURE, ids=["in-an-hour", "1e300"])
    def test_future_entry_is_refetched(self, feed_server, tmp_path, fetched_at):
        series = fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        self.date_cache_entry(tmp_path, fetched_at())
        assert fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path, freshness_s=1e12) == series
        assert feed_server.hits == 2
        # rewritten with the time of the refetch: the next call is a cache hit
        assert fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path) == series
        assert feed_server.hits == 2

    @pytest.mark.parametrize("fetched_at", FUTURE, ids=["in-an-hour", "1e300"])
    def test_future_entry_is_no_stale_fallback(self, feed_server, tmp_path, capsys, fetched_at):
        endpoint = feed_server.endpoint
        fetch_intensity(endpoint, "NL", (0, 3600), tmp_path)
        self.date_cache_entry(tmp_path, fetched_at())
        feed_server.shutdown()
        feed_server.server_close()
        with pytest.raises(NetworkError):
            fetch_intensity(endpoint, "NL", (0, 3600), tmp_path, freshness_s=0.0, timeout_s=0.2)
        assert capsys.readouterr().err == ""

    @staticmethod
    def edit_cached_payload(directory):
        """Change the cached intensity 0.4 to 9.9, keeping the entry's checksum."""
        (path,) = directory.iterdir()
        entry = json.loads(path.read_text())
        assert '"intensity_kg_per_kwh": 0.4' in entry["payload"]
        entry["payload"] = entry["payload"].replace('"intensity_kg_per_kwh": 0.4', '"intensity_kg_per_kwh": 9.9')
        path.write_text(json.dumps(entry))

    def test_edited_payload_is_a_miss(self, feed_server, tmp_path):
        series = fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        self.edit_cached_payload(tmp_path)
        # fresh and covering: only the checksum keeps it from being served
        assert fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path) == series
        assert feed_server.hits == 2
        # overwritten with a matching checksum: the next call is a cache hit
        assert fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path) == series
        assert feed_server.hits == 2

    def test_edited_payload_is_no_stale_fallback(self, feed_server, tmp_path, capsys):
        fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        self.edit_cached_payload(tmp_path)
        feed_server.status = 500
        with pytest.raises(NetworkError):
            fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path, freshness_s=0.0)
        assert capsys.readouterr().err == ""

    def test_env_var_cache_dir(self, feed_server, tmp_path, monkeypatch):
        monkeypatch.setenv("CARBONDEF_CACHE_DIR", str(tmp_path / "cachehome"))
        fetch_intensity(feed_server.endpoint, "NL", (0, 3600))
        assert list((tmp_path / "cachehome").iterdir())

    def test_atomic_write_observable(self, feed_server, tmp_path, monkeypatch):
        observed = []
        real_replace = os.replace

        def spying_replace(src, dst):
            # at replace time the temp file must already be complete JSON
            observed.append((Path(src).name, Path(dst).name, json.loads(Path(src).read_text())))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spying_replace)
        fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
        assert len(observed) == 1
        temp_name, final_name, content = observed[0]
        assert temp_name != final_name
        assert content["payload_sha256"]
        assert not list(tmp_path.glob(".tmp-*"))  # no temp leftovers

    def test_malformed_payload_rejected(self, feed_server, tmp_path):
        feed_server.payload = {"entries": []}  # missing region
        with pytest.raises(ParseError):
            fetch_intensity(feed_server.endpoint, "NL", (0, 3600), tmp_path)
