"""The bulk stages that power.in_two splits between two processes: the CSV trace
parse (a body past two _CSV_BLOCKs, cut at the newline after its midpoint), the JSON
trace parse and the ledger parse (a document past two _CSV_BLOCKs, cut at the sample
or record boundary after its midpoint) and the joule columns (past power.SPLIT_ROWS
rows, cut at the middle row).
Each gives the serial columns, and the serial error, whether a forked child computes
the second half or this process does: beside another thread, with no fork or spill,
or after the child fails. conftest checks that no child is left."""

import json
import math
import os
import random
import signal
import tempfile
import threading
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbondef import PerComponent, ServerSpec, UsageSample, UsageTrace, ingest, power
from carbondef.errors import ValidationError
from carbondef.ingest import TRACE_CSV_HEADER, TRACE_FIELDS, parse_ledger, parse_usage_trace
from carbondef.power import trace_to_energy_series

from support import naive_energy_rows, naive_parse_trace, serialize_usage_trace

ROWS = 41  # rows of each split stage's input: the halves hold 20 and 21
SPLIT_ROWS = 3  # power.SPLIT_ROWS in these tests
CSV_BLOCK = 64  # ingest._CSV_BLOCK in these tests: a body of 41 rows is past two blocks
SPEC = ServerSpec(tdp_watts=100.0, n_cpu=4, alpha=PerComponent(cpu=0.4, mem=0.3, io=0.2, net=0.1),
                  u_max=PerComponent(cpu=4.0, mem=64e9, io=1e12, net=1e12), idle_watts=30.0)


def gen_samples(rng: random.Random, over: set[int] = frozenset()) -> list[UsageSample]:
    """ROWS samples with int starts, gaps and float durations; samples in ``over`` exceed u_max.cpu (or u_max.io)."""
    samples, start = [], rng.randrange(10**9)
    for index in range(ROWS):
        duration = rng.choice([15.0, rng.uniform(0.5, 900.0), rng.randrange(1, 4000) / 4])
        cpu = rng.uniform(4.0, 6.0) if index in over and index % 2 else rng.uniform(0.0, 4.0)
        io = rng.uniform(1e12, 2e12) if index in over and not index % 2 else rng.uniform(0.0, 1e12)
        samples.append(UsageSample(start, duration, cpu, rng.uniform(0.0, 64e9), io, rng.choice([0.0, 1e6])))
        start = math.ceil(start + duration) + (rng.randrange(1, 600) if rng.random() < 0.2 else 0)
    return samples


def csv_trace(seed: int) -> bytes:
    return serialize_usage_trace(UsageTrace(gen_samples(random.Random(seed))), "csv")


def json_trace(seed: int) -> bytes:
    return serialize_usage_trace(UsageTrace(gen_samples(random.Random(seed))), "json")


def parse(data: bytes, format: str = "csv"):
    trace = parse_usage_trace(data, format)
    return repr(trace.columns), trace.source_rows


def ledger_objects(seed: int) -> list[dict]:
    """4 objects sharing one lifespan."""
    rng = random.Random(seed)
    start = rng.randrange(10**9)
    return [{"id": f"obj-{k}", "m_kg": rng.uniform(1.0, 2000.0), "r_kg": rng.choice([0, rng.uniform(0.0, 300.0)]),
             "eol_kg": rng.uniform(0.0, 100.0), "lifespan_start": start, "lifespan_s": 10**7} for k in range(4)]


def ledger_records(seed: int) -> list[dict]:
    """ROWS records of ledger_objects(seed), each of 1 to 3 steps with fractions under 0.09, so the at most 11 records
    of an object never oversubscribe it; record i is consumer ``svc-i``'s."""
    rng, start = random.Random(seed), ledger_objects(seed)[0]["lifespan_start"]
    records = []
    for index in range(ROWS):
        bounds = sorted(rng.sample(range(start, start + 10**7), rng.randint(2, 4)))
        profile = [{"start": a, "end": b, "fraction": rng.choice([0, rng.uniform(0.0, 0.09)])}
                   for a, b in zip(bounds, bounds[1:])]
        records.append({"consumer_id": f"svc-{index:03d}", "object_id": f"obj-{index % 4}", "profile": profile})
    return records


def ledger_json(seed: int, layout: str = "indent") -> bytes:
    return json_document([("objects", ledger_objects(seed)), ("records", ledger_records(seed))], layout)


def ledger(data: bytes):
    parsed = parse_ledger(data)
    return repr((parsed.objects, parsed.columns, parsed.kg))


def joules(samples, clamp):
    return repr(trace_to_energy_series(SPEC, UsageTrace(samples), clamp=clamp).columns)


def outcome(stage, *args):
    """The stage's result, or its error's class, message and location."""
    try:
        return stage(*args)
    except ValidationError as exc:
        return type(exc), str(exc), getattr(exc, "location", None)


def serial(monkeypatch, stage, *args):
    """The stage's outcome with every site serial."""
    with monkeypatch.context() as serial_sites:
        serial_sites.setattr(power, "SPLIT_ROWS", 10**9)
        serial_sites.setattr(ingest, "_CSV_BLOCK", 10**9)
        return outcome(stage, *args)


@pytest.fixture
def small_split(monkeypatch):
    monkeypatch.setattr(power, "SPLIT_ROWS", SPLIT_ROWS)
    monkeypatch.setattr(ingest, "_CSV_BLOCK", CSV_BLOCK)


def sites(seed: int) -> dict:
    """Each split site's stage and arguments."""
    samples = gen_samples(random.Random(seed), over={3, 4, 30, 31})
    return {"csv": (parse, csv_trace(seed)), "json": (parse, json_trace(seed), "json"),
            "joules": (joules, samples, True), "ledger": (ledger, ledger_json(seed))}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("site", ["csv", "json", "joules", "ledger"])
def test_split_site_gives_the_serial_result(site, seed, monkeypatch, small_split, forks):
    stage, *args = sites(seed)[site]
    expected = serial(monkeypatch, stage, *args)
    forks.clear()
    assert outcome(stage, *args) == expected
    assert len(forks) == 1


@pytest.mark.usefixtures("small_split")
def test_split_parse_equals_the_reference(forks):
    data = csv_trace(7)
    reference = naive_parse_trace(data, "csv")
    columns, rows = parse(data)
    assert (columns, tuple(rows)) == (repr(reference.columns), tuple(reference.source_rows))
    assert len(forks) == 1


@pytest.mark.usefixtures("small_split")
@pytest.mark.parametrize("clamp", [True, False])
@pytest.mark.parametrize("over", [set(), {2, 3}, {35, 36}, {3, 4, 30, 31}], ids=["none", "first", "second", "both"])
def test_split_joules_clamp_each_half(clamp, over, monkeypatch, forks):
    samples = gen_samples(random.Random(11), over)
    expected = serial(monkeypatch, joules, samples, clamp)
    forks.clear()
    assert outcome(joules, samples, clamp) == expected
    assert len(forks) == (clamp or not over)  # the limits are checked on the whole columns, before any split
    if not isinstance(expected, tuple):
        reference = naive_energy_rows(SPEC, samples, clamp)
        series = trace_to_energy_series(SPEC, UsageTrace(samples), clamp=clamp)
        assert repr([tuple(entry) for entry in series.entries]) == repr(reference)
    else:
        assert expected[1].startswith(f"sample {min(over)}:")


@pytest.mark.usefixtures("small_split")
@pytest.mark.parametrize("site", ["csv", "json", "joules", "ledger"])
def test_split_site_runs_in_process_beside_another_thread(site, monkeypatch, forks):
    # a child forked beside a running thread could inherit a lock that thread holds: this process computes both halves
    stage, *args = sites(2)[site]
    expected = serial(monkeypatch, stage, *args)
    forks.clear()
    release = threading.Event()
    thread = threading.Thread(target=release.wait, daemon=True)
    thread.start()
    try:
        assert outcome(stage, *args) == expected
    finally:
        release.set()
        thread.join()
    assert forks == []
    assert outcome(stage, *args) == expected  # with the thread gone, the stage is split again
    assert len(forks) == 1


def _refused(*args, **kwargs):
    raise OSError(11, "Resource temporarily unavailable")


def _dies_in_child(action):
    """A stand-in for power._dump_columns, which only a forked child calls: it writes
    the first column into the spill, then runs ``action``."""
    real = power._dump_columns

    def dump_columns(columns, spill):
        real(columns[:1], spill)
        action()
        real(columns[1:], spill)

    return dump_columns


def _raise():
    raise ValueError("the child's half failed")


@pytest.mark.usefixtures("small_split")
@pytest.mark.parametrize("failure", ["fork", "spill", "exit", "killed", "raises"])
@pytest.mark.parametrize("site", ["csv", "json", "joules", "ledger"])
def test_failed_child_gives_the_serial_columns(site, failure, monkeypatch, forks):
    # the failure modes of test_render.py::test_failed_child_gives_the_serial_bytes: this process computes the half
    stage, *args = sites(3)[site]
    expected = serial(monkeypatch, stage, *args)
    forks.clear()
    if failure == "fork":
        monkeypatch.setattr(os, "fork", _refused)
    elif failure == "spill":
        monkeypatch.setattr(tempfile, "TemporaryFile", _refused)
    else:
        action = {"exit": lambda: os._exit(3), "killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
                  "raises": _raise}[failure]
        monkeypatch.setattr(power, "_dump_columns", _dies_in_child(action))
    assert outcome(stage, *args) == expected
    assert bool(forks) == (failure not in ("fork", "spill"))


@pytest.mark.usefixtures("small_split")
@pytest.mark.parametrize("site, reader, arity", [("csv", "_csv_columns", 3), ("json", "_json_columns", 6),
                                                 ("ledger", "_json_columns", 6)])
def test_split_parse_in_process_reads_the_second_half_into_the_first_halfs_columns(site, reader, arity, monkeypatch):
    # so this process never holds the second half's columns apart from the first's: the reader of the second half is
    # given the first half's columns (its arguments past ``arity``) and extends them
    stage, *args = sites(1)[site]
    expected = serial(monkeypatch, stage, *args)
    calls, block_reader = [], getattr(ingest, reader)

    def spy(*args):
        calls.append((args[arity:], result := block_reader(*args)))
        return result

    monkeypatch.setattr(ingest, reader, spy)
    monkeypatch.setattr(os, "fork", _refused)
    assert outcome(stage, *args) == expected
    (given, first), (columns, second) = calls
    assert given == () and len(columns) == 1 and columns[0] is first and second is first


FAULTS = {
    "five-fields": lambda cells: cells[:5],
    "non-numeric": lambda cells: [*cells[:3], "1.2.3", *cells[4:]],
    "nan": lambda cells: [*cells[:2], "nan", *cells[3:]],
    "starts-early": lambda cells: [str(int(cells[0]) - 10**6), *cells[1:]],
}


@pytest.mark.usefixtures("small_split")
@pytest.mark.parametrize("where", ["first-half", "second-half", "before-cut", "after-cut"])
@pytest.mark.parametrize("fault", FAULTS)
def test_split_parse_locates_the_serial_fault(fault, where, monkeypatch, forks):
    data = csv_trace(9)
    middle = data.count(b"\n", 0, data.find(b"\n", (len(TRACE_CSV_HEADER) + 1 + len(data)) // 2) + 1)
    lines = data.decode().split("\n")  # lines[middle] is the first row of the second half
    index = {"first-half": 3, "second-half": ROWS - 2, "before-cut": middle - 1, "after-cut": middle}[where]
    lines[index] = ",".join(FAULTS[fault](lines[index].split(",")))
    bad = "\n".join(lines).encode()
    cut = bad.count(b"\n", 0, bad.find(b"\n", (len(TRACE_CSV_HEADER) + 1 + len(bad)) // 2) + 1)  # in the bad trace
    assert {"first-half": index < cut - 1, "second-half": index > cut, "before-cut": index == cut - 1,
            "after-cut": index == cut}[where]
    expected = serial(monkeypatch, parse, bad)
    assert isinstance(expected[0], type) and outcome(parse, bad) == expected
    assert len(forks) == 1  # and conftest finds the child reaped, also where this process's half raised
    assert expected == outcome(naive_parse_trace, bad, "csv")
    if fault != "starts-early":
        assert expected[2] == f"row {index + 1}"


LAYOUTS = {"compact": {"separators": (",", ":")}, "indent": {"indent": 2}, "newlines": {"separators": ("\n,\n", "\n:\n")}}


def sample_objects(seed: int) -> list[dict]:
    return [dict(zip(TRACE_FIELDS, astuple(sample))) for sample in gen_samples(random.Random(seed))]


def json_document(pairs: list, layout: str) -> bytes:
    """An object of the ``(key, value)`` pairs in order, a key possibly twice, in one of LAYOUTS."""
    return ("{" + ",".join(json.dumps({key: value}, **LAYOUTS[layout])[1:-1] for key, value in pairs) + "}").encode()


@pytest.mark.usefixtures("small_split")
@pytest.mark.parametrize("layout", LAYOUTS)
def test_split_json_parse_reads_no_whole_text(layout, monkeypatch, forks):
    # a sound document is read a block at a time in both halves: the whole-text parse, the fallback, never runs
    data = json_document([("samples", sample_objects(5))], layout)
    reference = naive_parse_trace(data, "json")

    def whole_text(data):
        raise AssertionError("the whole text was decoded")

    monkeypatch.setattr(ingest, "_decode_json", whole_text)
    assert parse(data, "json") == (repr(reference.columns), None)
    assert len(forks) == 1


BOUNDARY_TEXT = {"string": "}, {", "objects": [{"a": 1}, {"b": [2, {"c": "}, {"}]}]}  # a sample's extra key
JSON_FAULTS = ("missing-key", "bool", "order-at-cut", "non-object", "utf8", "long-int", "non-finite")


@st.composite
def json_traces(draw) -> bytes:
    """A JSON trace of ROWS samples, or of one, in one of LAYOUTS, where a sample may hold an extra key with a sample
    boundary's text or a NaN or Infinity, the document another key before or after ``samples`` (a second ``samples``,
    or a list of ROWS sample objects, among them), and a sample in either half, or the one after the middle cut, one
    fault. A single sample before a long key ends inside the first block."""
    samples = sample_objects(draw(st.integers(0, 99)))
    previous, samples = [dict(sample) for sample in samples], samples[:draw(st.sampled_from([ROWS, ROWS, 1]))]
    for index in draw(st.sets(st.integers(0, len(samples) - 1), max_size=6)):
        key = draw(st.sampled_from([*BOUNDARY_TEXT, "level"]))
        samples[index][key] = BOUNDARY_TEXT.get(key) or draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    other = st.sampled_from([("meta", [{"x": 1}, {"y": "}, {"}, math.nan]), ("samples", [{"x": 1}, {"y": 2}]),
                             ("samples", []), ("previous", previous)])
    before, after = draw(st.lists(other, max_size=1)), draw(st.lists(other, max_size=1))
    layout, fault = draw(st.sampled_from(list(LAYOUTS))), draw(st.sampled_from([None, *JSON_FAULTS]))
    index = draw(st.sampled_from([draw(st.integers(1, ROWS // 2 - 4)), draw(st.integers(ROWS // 2 + 4, ROWS - 1))]))
    if fault == "order-at-cut":  # the first sample after the cut starts where the one before it does: as long a value
        data = json_document([*before, ("samples", samples), *after], layout)
        found = ingest._SAMPLE_CUT.search(data, len(data) // 2)
        cut = found.start() if found else len(data)
        index = data[:cut].count(b'"start"') - json_document(before, layout).count(b'"start"')
    index = min(max(index, 0), len(samples) - 1)  # a cut outside the samples, or one sample, moves nothing
    if fault == "order-at-cut":
        samples[index]["start"] = samples[index - 1]["start"]
    elif fault == "missing-key":
        del samples[index][draw(st.sampled_from(TRACE_FIELDS))]
    elif fault == "bool":
        samples[index][draw(st.sampled_from(TRACE_FIELDS))] = True
    elif fault == "non-finite":
        samples[index][draw(st.sampled_from(TRACE_FIELDS))] = draw(st.sampled_from([math.nan, math.inf]))
    elif fault == "non-object":
        samples[index] = draw(st.sampled_from([[1, 2], "}, {", None, 3, math.nan]))
    elif fault in ("utf8", "long-int"):
        samples[index][draw(st.sampled_from(["extra", *TRACE_FIELDS]))] = fault
    data = json_document([*before, ("samples", samples), *after], layout)
    return data.replace(b'"utf8"', b'"\xff"').replace(b'"long-int"', b"7" * 5000)


def parse_reference(data: bytes):
    return repr(naive_parse_trace(data, "json").columns), None


@settings(max_examples=150, deadline=None)
@given(json_traces())
def test_split_json_parse_gives_the_reference_outcome(data):
    # the columns, or the error's class, message and location, of the whole-text reference: a cut inside a string,
    # a nested list or past the samples, and every fault, leave the whole-text parse to read the document
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CSV_BLOCK", CSV_BLOCK)
        assert outcome(parse, data, "json") == outcome(parse_reference, data)


LEDGER_FAULTS = {
    "missing-key": lambda record: {key: value for key, value in record.items() if key != "object_id"},
    "bool": lambda record: {**record, "profile": [{**record["profile"][0], "end": True}, *record["profile"][1:]]},
    "fraction": lambda record: {**record, "profile": [*record["profile"][:-1],
                                                      {**record["profile"][-1], "fraction": 1.5}]},
    "step-order": lambda record: {**record, "profile": [{**record["profile"][0], "end": record["profile"][0]["start"]},
                                                        *record["profile"][1:]]},
    "unknown-object": lambda record: {**record, "object_id": "obj-x"},
    "non-object": lambda record: [*record.values()],
}


@pytest.mark.usefixtures("small_split")
@pytest.mark.parametrize("fault, where", [  # a record that is no object has no record boundary next to it, so no cut
    (fault, where) for fault in LEDGER_FAULTS for where in ("first-half", "second-half", "before-cut", "after-cut")
    if fault != "non-object" or where.endswith("half")])
def test_split_ledger_parse_gives_the_serial_fault(fault, where, monkeypatch, forks):
    # a fault in the kinds fails the split and the whole-text parse locates it; one that passes them (an unknown
    # object, a fraction past 1, a step that ends where it starts) is Ledger.build's, on the merged columns
    def bad_ledger(index: int) -> bytes:
        records = ledger_records(9)
        records[index] = LEDGER_FAULTS[fault](records[index])
        return json_document([("objects", ledger_objects(9)), ("records", records)], "indent")

    def before_cut(data: bytes) -> int:  # the records before the record boundary after the midpoint
        return data[:ingest._RECORD_CUT.search(data, len(data) // 2).end()].count(b'"svc-')

    side = {"first-half": lambda index, cut: index < cut - 1, "second-half": lambda index, cut: index > cut,
            "before-cut": lambda index, cut: index == cut - 1, "after-cut": lambda index, cut: index == cut}[where]
    index = next(index for index in (2, ROWS - 2, *range(ROWS)) if side(index, before_cut(bad_ledger(index))))
    bad = bad_ledger(index)
    expected = serial(monkeypatch, ledger, bad)
    assert isinstance(expected[0], type) and outcome(ledger, bad) == expected
    assert len(forks) == 1  # and conftest finds the child reaped, also where this process's half raised
    assert f"records[{index}]" in expected[1] + str(expected[2])


@pytest.mark.usefixtures("small_split")
@pytest.mark.parametrize("layout", LAYOUTS)
def test_split_ledger_parse_reads_no_whole_text(layout, monkeypatch, forks):
    # a sound ledger is read a block of records at a time in both halves, its objects from the first block
    data = ledger_json(5, layout)
    expected = serial(monkeypatch, ledger, data)

    def whole_text(data):
        raise AssertionError("the whole text was decoded")

    monkeypatch.setattr(ingest, "_decode_json", whole_text)
    forks.clear()
    assert ledger(data) == expected
    assert len(forks) == 1


@pytest.mark.usefixtures("small_split")
@pytest.mark.parametrize("site", ["json", "ledger"])
def test_document_with_a_key_after_its_list_is_read_whole(site, monkeypatch, forks):
    # its last "]" is not followed by its "}" alone, so no cut check could pass: the block reader never starts
    stage, data, *args = sites(4)[site]
    data = data.rstrip()[:-1] + b', "meta": {"note": "]}, {"}}'
    expected = serial(monkeypatch, stage, data, *args)
    calls, block_reader = [], ingest._json_columns
    monkeypatch.setattr(ingest, "_json_columns", lambda *args: calls.append(args) or block_reader(*args))
    forks.clear()
    assert outcome(stage, data, *args) == expected and not isinstance(expected[0], type)
    assert calls == [] and forks == []


LEDGER_VARIANTS = {  # each a document whose split would differ from its whole-text parse, but for a cut check
    "records-first": lambda objects, records: [("records", records), ("objects", objects)],
    "no-objects": lambda objects, records: [("records", records)],
    "objects-not-a-list": lambda objects, records: [("objects", {}), ("records", records)],
    "one-record-then-records": lambda objects, records: [("objects", objects), ("records", records[:1]),
                                                         ("previous", records)],
    "records-again": lambda objects, records: [("objects", objects), ("records", records), ("records", [])],
    "objects-again": lambda objects, records: [("objects", objects), ("records", records), ("objects", objects[:1])],
}


@pytest.mark.usefixtures("small_split")
@pytest.mark.parametrize("variant", LEDGER_VARIANTS)
def test_split_ledger_cut_checks_give_the_whole_text_outcome(variant, monkeypatch, forks):
    # objects only from the first block's document, a first block whose appended NaN ends its records, a last block
    # followed by the document's "}" alone: each check sends its document to the whole-text parse
    data = json_document(LEDGER_VARIANTS[variant](ledger_objects(6), ledger_records(6)), "indent")
    expected = serial(monkeypatch, ledger, data)
    forks.clear()
    assert outcome(ledger, data) == expected
    assert len(forks) == 1


LEDGER_KEY_FAULTS = ("missing-key", "bool", "fraction", "unknown-object", "non-object", "profile-object", "utf8",
                     "object-value", "duplicate-object", "objects-not-a-list", "no-objects")


@st.composite
def ledgers(draw) -> bytes:
    """A ledger of ROWS records in one of LAYOUTS, ``records`` before or after ``objects``, consumer ids that may hold a
    record boundary's text, records whose ``profile`` is not their last key, a key before or after both lists (a second
    ``records``, a list ending in a NaN, or a list of ROWS records, among them), and one fault in a record of either
    half, or in the objects. Each of these is drawn in at most about a third of the ledgers, so that a good share of
    them is read by the split."""
    seed = draw(st.integers(0, 99))
    objects, records, some = ledger_objects(seed), ledger_records(seed), st.sampled_from([0, 0, 0, 1, 3])
    for index in draw(st.lists(st.integers(0, ROWS - 1), max_size=draw(some))):
        records[index]["consumer_id"] += '"]}, {"'
    for index in draw(st.lists(st.integers(0, ROWS - 1), max_size=draw(some))):
        records[index] = {"profile": records[index].pop("profile"), **records[index]}
    fault = draw(st.sampled_from([None] * len(LEDGER_KEY_FAULTS) + list(LEDGER_KEY_FAULTS)))
    index = draw(st.sampled_from([draw(st.integers(0, ROWS // 2 - 4)), draw(st.integers(ROWS // 2 + 4, ROWS - 1))]))
    step = records[index]["profile"][0]
    if fault == "missing-key":
        del records[index][draw(st.sampled_from(["consumer_id", "object_id", "profile"]))]
    elif fault == "bool":
        step[draw(st.sampled_from(["start", "end", "fraction"]))] = True
    elif fault == "fraction":
        step["fraction"] = draw(st.sampled_from([1.5, -0.25, math.nan]))
    elif fault == "unknown-object":
        records[index]["object_id"] = "obj-x"
    elif fault == "non-object":
        records[index] = draw(st.sampled_from([[1, 2], "]}, {", None, 3]))
    elif fault == "profile-object":
        records[index]["profile"] = step
    elif fault == "utf8":
        records[index]["consumer_id"] = "utf8"
    elif fault == "object-value":
        objects[draw(st.integers(0, 3))][draw(st.sampled_from(["m_kg", "lifespan_start", "id"]))] = "x"
    elif fault == "duplicate-object":
        objects[1]["id"] = "obj-0"
    elif fault == "objects-not-a-list":
        objects = draw(st.sampled_from([{}, "", {"id": "obj-0"}]))
    lists = [("objects", objects), ("records", records)][fault == "no-objects":][::draw(st.sampled_from([1, 1, -1]))]
    other = st.sampled_from([("meta", {"x": 1}), ("meta", [{"y": [1]}, {"z": "]}, {"}, math.nan]), ("records", []),
                             ("previous", ledger_records(seed + 1))])
    before, after = (draw(st.lists(other, max_size=draw(st.sampled_from([0, 0, 1])))) for _ in range(2))
    return json_document([*before, *lists, *after], draw(st.sampled_from(list(LAYOUTS)))).replace(b'"utf8"', b'"\xff"')


@settings(max_examples=150, deadline=None)
@given(ledgers())
def test_split_ledger_parse_gives_the_whole_text_outcome(data):
    # the ledger, or the error's class, message and location, of the whole-text parse: a cut inside a string, outside
    # the records or with no objects before it, and every fault, leave the whole-text parse to read the document
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CSV_BLOCK", 10**9)
        expected = outcome(ledger, data)
        patch.setattr(ingest, "_CSV_BLOCK", CSV_BLOCK)
        assert outcome(ledger, data) == expected
