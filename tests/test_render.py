"""The renderers against the standard library: JSON must equal
``json.dumps(value, indent=2, default=list) + "\\n"`` byte for byte, CSV
must equal the one-list-per-row csv.writer reference in ``support``."""

import gc
import io
import json
import math
import os
import random
import signal
import tempfile
import threading

import pytest
from hypothesis import given, settings, strategies as st

from carbondef import (
    ConsumptionRecord,
    EmbodiedObject,
    IntensityEntry,
    IntensitySeries,
    Ledger,
    ProfileStep,
    PueFactor,
    SharingProfile,
    UsageTrace,
)
from carbondef import report as report_module
from carbondef.errors import ValidationError
from carbondef.grid import EmissionsReport
from carbondef.ingest import FunctionalUnit, IntensitySource, RunConfig, serialize_intensity_feed
from carbondef.report import (
    Rows,
    build_report,
    render_report,
)

from support import gen_ledger, gen_spec, gen_usage, naive_csv_bytes, to_csv_bytes, to_json_bytes


def stdlib_json(value) -> bytes:
    return (json.dumps(value, indent=2, default=list) + "\n").encode("utf-8")


def plain(report: dict) -> dict:
    """The report as plain JSON data: each Rows view becomes a list of dicts."""
    return json.loads(json.dumps(report, default=list))


keys = st.text(max_size=4)
finite = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
# values that must send a row off the template path
odd = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, 1e308]),
    st.just({}),
    st.just([]),
)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
json_values = st.recursive(
    scalars,
    lambda children: st.one_of(st.lists(children), st.dictionaries(keys, children)),
    max_leaves=25,
)


@st.composite
def row_lists(draw):
    """Dict rows that mostly share the first row's shape (numbers, some
    keys holding a dict of numbers), each later row possibly reordered,
    holding an odd value, or nesting other inner keys."""
    row_keys = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    nested = draw(st.sets(st.sampled_from(row_keys)))
    inner_keys = draw(st.lists(keys, min_size=1, max_size=3, unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = {
            key: {k: draw(finite) for k in inner_keys} if key in nested else draw(finite)
            for key in row_keys
        }
        change = draw(st.sampled_from(["none", "none", "reorder", "odd", "inner_odd", "inner_keys", "drop"]))
        if change == "reorder":
            row = dict(draw(st.permutations(list(row.items()))))
        elif change == "odd":
            row[draw(st.sampled_from(row_keys))] = draw(odd)
        elif change == "inner_odd" and nested:
            row[draw(st.sampled_from(sorted(nested)))][draw(st.sampled_from(inner_keys))] = draw(odd)
        elif change == "inner_keys" and nested:
            other = draw(st.lists(keys, max_size=3, unique=True))
            row[draw(st.sampled_from(sorted(nested)))] = {k: draw(finite) for k in other}
        elif change == "drop":
            del row[draw(st.sampled_from(row_keys))]
        rows.append(row)
    return rows


class TestJson:
    @settings(max_examples=300)
    @given(json_values)
    def test_any_value_matches_stdlib(self, value):
        assert to_json_bytes(value) == stdlib_json(value)

    @settings(max_examples=300)
    @given(row_lists(), st.integers(0, 2))
    def test_row_lists_match_stdlib(self, rows, depth):
        value = rows
        for _ in range(depth):
            value = {"rows": value, "n": len(rows)}
        assert to_json_bytes(value) == stdlib_json(value)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            [{}],
            [[]],
            {"a": {}, "b": []},
            "é✓\x00\"\\",
            {"%r": 1, "%%": [1.5, {"%s": 2}]},
            [{"%r": 1, "a%": {"%%": 2.5}}, {"%r": 3, "a%": {"%%": 4.5}}],
            [{"t": 1, "v": 0.1}, {"t": 2, "v": -0.0}, {"t": 3, "v": math.nan}, {"t": True, "v": 1.0}],
            [{"t": 1, "kwh": {"cpu": 1.0}}, {"t": 2, "kwh": {"mem": 1.0}}, {"t": 3, "kwh": {}}],
            [{"a": 10**400, "b": 1.0}, {"a": 1, "b": 1e308}, {"a": 1e308, "b": 1e308}],
            [{"ünï": 1}, {"ünï": 2}],
            [{"a": {1: 2.0}}, {"a": {True: 2.0}}, {1.5: 1, None: 2, False: 3}],
            math.inf,
            None,
        ],
    )
    def test_edge_cases_match_stdlib(self, value):
        assert to_json_bytes(value) == stdlib_json(value)


def gen_reports(seed: int, tmp_path, count: int | None = None) -> list[dict]:
    """The four report types over a generated trace of ``count`` samples (by
    default 0 to 25) and an intensity feed whose boundaries and gaps split
    intervals and leave spans uncovered."""
    rng = random.Random(seed)
    spec = gen_spec(rng, idle_max=50.0)
    samples, t = [], rng.randrange(0, 1_000_000)
    for _ in range(rng.randint(0, 25) if count is None else count):
        sample = gen_usage(rng, spec, t)
        samples.append(sample)
        t = math.ceil(sample.end) + (rng.randrange(1, 900) if rng.random() < 0.2 else 0)
    feed, cursor = [], (samples[0].start if samples else t) - rng.randrange(0, 600)
    while cursor < t + 600:
        cursor += rng.randrange(1, 300) if rng.random() < 0.2 else 0
        width = rng.randrange(60, 1800)
        feed.append(IntensityEntry(cursor, cursor + width, rng.uniform(0.0, 1.2)))
        cursor += width
    (tmp_path / "intensity.json").write_bytes(
        serialize_intensity_feed(IntensitySeries(region="ZZ", entries=tuple(feed)))
    )
    config = RunConfig(
        server=spec,
        pue=PueFactor(rng.uniform(1.0, 2.0)),
        intensity=IntensitySource(file=tmp_path / "intensity.json"),
        coverage_policy="skip_uncovered",
        functional_unit=FunctionalUnit("call", float(rng.randint(1, 10**6))),
    )
    trace = UsageTrace(samples=tuple(samples))
    ledger = gen_ledger(rng)
    return [
        build_report("estimate", config, trace, "t"),
        build_report("emissions", config, trace, "t"),
        build_report("embodied", ledger=ledger, ledger_digest="l"),
        build_report("report", config, trace, "t", ledger, "l"),
    ]


def with_odd_numbers(report: dict, rng: random.Random) -> dict:
    """A plain-data copy with float starts (half-second shifts) and NaN/±inf
    values scattered over the interval and segment rows."""
    report = plain(report)
    rows = report.get("energy", {}).get("intervals", []) + report.get("operational", {}).get("segments", [])
    for row in rows:
        row["start"] += 0.5
        key = rng.choice([k for k, v in row.items() if isinstance(v, float)])
        row[key] = rng.choice([math.nan, math.inf, -math.inf, row[key]])
    for row in report.get("energy", {}).get("intervals", []):
        row["kwh_by_component"][rng.choice(list(row["kwh_by_component"]))] = math.nan
    return report


@pytest.mark.parametrize("seed", range(12))
def test_reports_match_references(seed, tmp_path, monkeypatch):
    reports = gen_reports(seed, tmp_path)
    assert [r["meta"]["report"] for r in reports] == ["estimate", "emissions", "embodied", "report"]
    rng = random.Random(seed)
    for report in reports:
        for block in (report_module._BLOCK, 2):  # 2: rows and long lists cross block boundaries
            monkeypatch.setattr(report_module, "_BLOCK", block)
            assert to_csv_bytes(report) == naive_csv_bytes(plain(report))
            assert to_json_bytes(report) == stdlib_json(report)
        odd = with_odd_numbers(report, rng)
        if report.get("energy", {}).get("intervals"):  # the mutations land on real rows
            assert plain(odd) != plain(report)
        assert to_json_bytes(odd) == stdlib_json(odd)


def test_generated_reports_split_intervals_and_leave_gaps(tmp_path):
    full = [gen_reports(seed, tmp_path)[3] for seed in range(12)]
    assert any(len(r["operational"]["segments"]) > len(r["energy"]["intervals"]) for r in full)
    assert any(r["operational"]["uncovered"] for r in full)


def test_rows_with_odd_keys_match_stdlib():
    # the row template is json's text of a row of zeros: a key holding '%', ': 0', '0,'
    # or a newline must stay the key json writes, never become a slot
    rows = Rows(([1, 2], [0.5, 1e308], [0.0, 3.6e6], [-0.0, 7]),
                ("%r", "a: 0", ("0,\n", ("%%", "x: 0\n"))), slice(2, None))
    for value in (rows, {"rows": rows, "n": 2}, [rows]):
        assert to_json_bytes(value) == stdlib_json(value)


def test_rows_are_read_only_views(tmp_path):
    full = next(r for r in (gen_reports(seed, tmp_path)[3] for seed in range(12)) if len(r["energy"]["intervals"]) > 3)
    rows = full["energy"]["intervals"]
    assert type(rows) is Rows
    listed = plain(full)["energy"]["intervals"]
    assert list(rows) == listed and len(rows) == len(listed)
    assert rows[-1] == listed[-1] and rows[1:3] == listed[1:3]
    with pytest.raises(TypeError):
        rows[0] = listed[0]
    rendered = to_json_bytes(full)
    rows[0]["start"] = -1  # lands on a dict built for this access only
    assert to_json_bytes(full) == rendered


def test_equal_inputs_give_equal_reports(tmp_path):
    # Rows views compare by value: equal to a view of the same rows and to the list of its row dicts
    first, second = gen_reports(4, tmp_path), gen_reports(4, tmp_path)
    assert [r["meta"]["report"] for r in first] == ["estimate", "emissions", "embodied", "report"]
    for report, again in zip(first, second):
        assert report == again and report == plain(again) and plain(report) == again
    rows = first[3]["embodied"]["objects"]
    assert type(rows) is Rows and rows and rows == list(rows) and list(rows) == rows
    assert rows != rows[1:] and rows != tuple(rows)
    assert gen_reports(5, tmp_path)[3] != first[3]


T0 = 1_600_000_000
# pieces of ids json and csv must escape or quote, and text a '%'-template must not take for a slot
ID_PIECES = ['"', "\\", "%", "%r", "%%s", "\x00", "\x1f", "\r\n", ",", "/", "é", "日本", "\U0001f600", "\ud800",
             "null", "0,", "id"]
odd_ids = st.lists(st.sampled_from(ID_PIECES), max_size=4).map("".join)


@st.composite
def odd_ledgers(draw):
    """A ledger of 0 to 4 objects and consumers with odd ids, each consumer using
    some objects once, at most 1/consumers of each at a time."""
    object_ids = draw(st.lists(odd_ids, max_size=4, unique=True))
    consumer_ids = draw(st.lists(odd_ids, max_size=4, unique=True))
    kg = st.floats(0.0, 1e6)
    objects = [EmbodiedObject(oid, draw(kg), draw(kg), draw(kg), T0, 1000.0) for oid in object_ids]
    records = [
        ConsumptionRecord(cid, oid, SharingProfile((ProfileStep(T0, T0 + draw(st.integers(1, 1000)),
                                                                draw(st.floats(0.0, 1 / len(consumer_ids)))),)))
        for cid in consumer_ids
        for oid in (draw(st.lists(st.sampled_from(object_ids), unique=True)) if object_ids else ())
    ]
    return Ledger.build(objects, records)


def csv_outcome(render, report):
    """The CSV bytes, or the error of an id UTF-8 cannot encode (a lone surrogate)."""
    try:
        return render(report)
    except UnicodeEncodeError as error:
        return type(error)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """The config and a 6-sample trace of a full report."""
    tmp_path = tmp_path_factory.mktemp("small")
    rng = random.Random(11)
    spec = gen_spec(rng, idle_max=50.0)
    samples = [gen_usage(rng, spec, T0 + 3600 * index) for index in range(6)]
    (tmp_path / "intensity.json").write_bytes(
        serialize_intensity_feed(IntensitySeries(region="ZZ", entries=(IntensityEntry(T0, T0 + 86400, 0.3),)))
    )
    config = RunConfig(server=spec, pue=PueFactor(1.2), intensity=IntensitySource(file=tmp_path / "intensity.json"),
                       functional_unit=FunctionalUnit("call", 3.0))
    return config, UsageTrace(samples=tuple(samples))


@settings(max_examples=150, deadline=None)
@given(odd_ledgers(), st.one_of(st.none(), odd_ids))
def test_embodied_rows_with_odd_ids_match_references(small_run, ledger, consumer_id):
    # the embodied rows render through templates, ids through json's str encoder and csv.writer
    config, trace = small_run
    for report in (build_report("embodied", ledger=ledger, ledger_digest="l", consumer_id=consumer_id),
                   build_report("report", config, trace, "t", ledger, "l", consumer_id)):
        assert to_json_bytes(report) == stdlib_json(report)
        assert csv_outcome(to_csv_bytes, report) == csv_outcome(naive_csv_bytes, plain(report))


@pytest.mark.parametrize("ledger, consumer_id", [(Ledger.build([]), None), (Ledger.build([]), "nobody"),
                                                 (gen_ledger(random.Random(3)), "nobody")])
def test_empty_embodied_rows_render_as_empty_lists(ledger, consumer_id):
    report = build_report("embodied", ledger=ledger, ledger_digest="l", consumer_id=consumer_id)
    rendered = to_json_bytes(report)
    assert rendered == stdlib_json(report)
    assert to_csv_bytes(report) == naive_csv_bytes(plain(report))
    section = plain(report)["embodied"]
    if consumer_id is not None:
        assert section["consumers"] == [{"consumer_id": "nobody", "kg_co2e": 0.0, "objects": []}]
        assert b'"objects": []' in rendered
    if not ledger.objects:
        assert section["objects"] == [] and b'\n    "objects": [],\n' in rendered


def test_uncovered_energy_is_checked_finite(tmp_path, monkeypatch):
    # uncovered kWh is in no report total, so the finiteness check sums it itself
    def overflowing(energy, intensity, pue, policy):
        return EmissionsReport(0.0, pue.value, policy, ((),) * 5, ([0], [1.0], [math.inf]))

    monkeypatch.setattr(report_module, "operational_emissions", overflowing)
    (tmp_path / "intensity.json").write_bytes(serialize_intensity_feed(IntensitySeries("ZZ", ())))
    config = RunConfig(
        server=gen_spec(random.Random(0), idle_max=50.0),
        pue=PueFactor(1.5),
        intensity=IntensitySource(file=tmp_path / "intensity.json"),
        coverage_policy="skip_uncovered",
    )
    with pytest.raises(ValidationError, match=r"operational\.uncovered\[\*\]\.kwh is inf"):
        build_report("emissions", config, UsageTrace(samples=()), "t")


class RecordingSink(io.BytesIO):
    """A binary sink that keeps the bytes it takes of each write: at most
    ``limit`` of them, as a pipe may, and says how many."""

    def __init__(self, limit=None):
        super().__init__()
        self.chunks, self.limit = [], limit

    def write(self, data):
        self.chunks.append(bytes(data[:self.limit]))
        return super().write(self.chunks[-1])


@pytest.fixture(scope="module")
def large_report(tmp_path_factory):
    """A full report of 20,000 intervals and as many segments."""
    tmp_path = tmp_path_factory.mktemp("large")
    rng = random.Random(7)
    spec = gen_spec(rng, idle_max=50.0)
    samples, t = [], 0
    for _ in range(20_000):
        samples.append(sample := gen_usage(rng, spec, t))
        t = math.ceil(sample.end)
    (tmp_path / "intensity.json").write_bytes(
        serialize_intensity_feed(IntensitySeries(region="ZZ", entries=(IntensityEntry(0, t, 0.3),)))
    )
    config = RunConfig(
        server=spec,
        pue=PueFactor(1.2),
        intensity=IntensitySource(file=tmp_path / "intensity.json"),
        functional_unit=FunctionalUnit("call", 1.0),
    )
    return build_report("report", config, UsageTrace(samples=tuple(samples)), "t", gen_ledger(rng), "l")


@pytest.mark.parametrize("limit", [None, 4099])
@pytest.mark.parametrize("output", ["json", "csv"])
def test_rendering_streams_in_blocks(output, limit, large_report):
    # no write holds the whole report: a regression to one report-sized buffer fails here;
    # a write the sink takes only part of is completed by the next ones
    assert len(large_report["energy"]["intervals"]) == 20_000
    sink = RecordingSink(limit)
    written = render_report(large_report, output, sink)
    whole = b"".join(sink.chunks)
    assert whole == (to_json_bytes if output == "json" else to_csv_bytes)(large_report)
    assert len(written) == len(whole)
    assert len(sink.chunks) > 1
    assert max(map(len, sink.chunks)) < len(whole) / 4


def test_long_plain_list_streams_in_blocks(tmp_path):
    # diagnostics.clamped_samples holds one entry a clamped sample: a plain list, written
    # item by item, never handed to json whole
    spec, n = gen_spec(random.Random(3)), 30_000
    usage = [spec.u_max.cpu * 2] * n  # every sample above u_max
    trace = UsageTrace(columns=(list(range(0, 60 * n, 60)), [60.0] * n, usage, [0] * n, [0] * n, [0] * n),
                       source_rows=range(2, n + 2))
    config = RunConfig(server=spec, pue=PueFactor(1.0), intensity=IntensitySource(file=tmp_path / "unread.json"),
                       clamp_usage=True)
    report = build_report("estimate", config, trace, "t")
    assert report["diagnostics"]["clamped_samples"][-1] == {"index": n - 1, "row": n + 1}
    assert to_json_bytes(report) == stdlib_json(report)
    # the section alone, so that the interval rows' blocks do not hide one list-sized write
    gc.collect()
    gc.disable()  # as the CLI renders
    try:
        render_report(report["diagnostics"], "json", sink := RecordingSink())
    finally:
        gc.enable()
    # each json call leaves a reference cycle: one call for the list, not one an item
    assert gc.collect() < 1_000
    whole = b"".join(sink.chunks)
    assert whole == stdlib_json(report["diagnostics"])
    assert len(sink.chunks) > 1
    assert max(map(len, sink.chunks)) < len(whole) / 4


def wide_ledger(consumers=50, objects=400):
    """Each of ``consumers`` claims each of ``objects`` through one single-step record."""
    n = consumers * objects
    return Ledger.build(
        [EmbodiedObject(f"obj-{index}", 10.0, 1.0, 0.5, T0, 1000.0) for index in range(objects)],
        columns=([f"svc-{index // objects}" for index in range(n)], [f"obj-{index % objects}" for index in range(n)],
                 range(n + 1), [T0] * n, [T0 + 500] * n, [0.01] * n))


def test_embodied_rows_stream_in_blocks():
    # 50 consumers x 400 objects: each consumer's objects are one Rows, formatted a block a
    # write; the consumers list is walked one consumer at a time, with no json call a row
    n = 50 * 400
    section = build_report("embodied", ledger=wide_ledger(), ledger_digest="l")["embodied"]
    assert sum(map(len, (consumer["objects"] for consumer in section["consumers"]))) == n == 20_000
    gc.collect()
    gc.disable()  # as the CLI renders
    try:
        render_report(section, "json", sink := RecordingSink())
    finally:
        gc.enable()
    assert gc.collect() < 1_000
    whole = b"".join(sink.chunks)
    assert whole == stdlib_json(section)
    assert len(sink.chunks) > 1
    assert max(map(len, sink.chunks)) < len(whole) / 4


def test_embodied_csv_rows_stream_in_blocks():
    # the same 20,000 attribution rows as CSV, with 400 idle-residual and 400 lifecycle rows:
    # csv.writer's rows are written a block at a time, never the section in one piece
    report = build_report("embodied", ledger=wide_ledger(), ledger_digest="l")
    render_report(report, "csv", sink := RecordingSink())
    whole = b"".join(sink.chunks)
    assert whole == naive_csv_bytes(report)
    assert len(sink.chunks) > 1
    assert max(map(len, sink.chunks)) < len(whole) / 4


# with rows split between two processes past 2 * _BLOCK rows of a range: 3 puts the
# threshold at 6 rows, and each half crosses block boundaries
SMALL_BLOCK = 3


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children os.fork starts in this process."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def rendered(report: dict, output: str) -> bytes:
    """The report's bytes, after checking that ``len()`` of the writer counts them all."""
    written = render_report(report, output, sink := io.BytesIO())
    assert len(written) == len(sink.getvalue())
    return sink.getvalue()


@pytest.mark.parametrize("count", [2 * SMALL_BLOCK - 1, 2 * SMALL_BLOCK, 2 * SMALL_BLOCK + 1,
                                   2 * SMALL_BLOCK + 2, 9 * SMALL_BLOCK + 2])
def test_rows_split_between_processes_give_the_serial_bytes(count, tmp_path, monkeypatch, forks):
    monkeypatch.setattr(report_module, "_BLOCK", SMALL_BLOCK)
    reports = gen_reports(1, tmp_path, count)
    for report in reports:
        assert rendered(report, "csv") == naive_csv_bytes(plain(report))
        assert rendered(report, "json") == stdlib_json(report)
    # a CSV estimate renders its intervals from row 0, a JSON one from row 1: the first row opens the list
    forks.clear()
    rendered(reports[0], "csv")
    assert len(forks) == (count > 2 * SMALL_BLOCK)
    rendered(reports[0], "json")
    assert len(forks) == (count > 2 * SMALL_BLOCK) + (count - 1 > 2 * SMALL_BLOCK)


def test_rows_render_in_process_beside_another_thread(tmp_path, monkeypatch, forks):
    # a child forked beside a running thread could inherit a lock that thread holds: this process formats every row
    monkeypatch.setattr(report_module, "_BLOCK", SMALL_BLOCK)
    reports = gen_reports(3, tmp_path, 9 * SMALL_BLOCK + 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, daemon=True)
    thread.start()
    try:
        for report in reports:
            assert rendered(report, "csv") == naive_csv_bytes(plain(report))
            assert rendered(report, "json") == stdlib_json(report)
    finally:
        release.set()
        thread.join()
    assert forks == []
    rendered(reports[0], "csv")  # with the thread gone, the same view is split again
    assert len(forks) == 1


def _refused(*args, **kwargs):
    raise OSError(11, "Resource temporarily unavailable")


def _in_child(action):
    """A stand-in for report._format_rows: in a forked child, it formats one row
    of its half into the spill, then runs ``action``."""
    parent, real = os.getpid(), report_module._format_rows

    def format_rows(out, rows, format_row, begin, end):
        if os.getpid() == parent:
            return real(out, rows, format_row, begin, end)
        real(out, rows, format_row, begin, begin + 1)
        action()

    return format_rows


def _raise():
    raise ValueError("formatting failed")


@pytest.mark.parametrize("failure", ["fork", "spill", "exit", "killed", "raises"])
def test_failed_child_gives_the_serial_bytes(failure, tmp_path, monkeypatch, forks):
    # no process or spill file to spare, or a child that dies part-way: this process formats its rows
    monkeypatch.setattr(report_module, "_BLOCK", SMALL_BLOCK)
    reports = gen_reports(2, tmp_path, 9 * SMALL_BLOCK + 2)
    expected = [(naive_csv_bytes(plain(report)), stdlib_json(report)) for report in reports]
    if failure == "fork":
        monkeypatch.setattr(os, "fork", _refused)
    elif failure == "spill":
        monkeypatch.setattr(tempfile, "TemporaryFile", _refused)
    else:
        action = {"exit": lambda: os._exit(3), "killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
                  "raises": _raise}[failure]
        monkeypatch.setattr(report_module, "_format_rows", _in_child(action))
    assert [(rendered(report, "csv"), rendered(report, "json")) for report in reports] == expected
    assert bool(forks) == (failure not in ("fork", "spill"))


class FailingSink(io.BytesIO):
    """Takes writes until write number ``failing``, which raises ``error``."""

    def __init__(self, failing, error):
        super().__init__()
        self.writes, self.failing, self.error = 0, failing, error

    def write(self, data):
        self.writes += 1
        if self.writes == self.failing:
            raise self.error
        return super().write(data)


@pytest.mark.parametrize("failing", [1, 3, 6])
@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                         ids=["OSError", "KeyboardInterrupt"])
@pytest.mark.parametrize("output", ["json", "csv"])
def test_sink_failure_leaves_no_child(output, error, failing, large_report, forks):
    # write 1 fails while the child formats its half, write 6 while its spill is copied
    with pytest.raises(type(error)):
        render_report(large_report, output, FailingSink(failing, error))
    assert forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
