"""The bulk stages that power.in_two splits between two processes: the CSV trace
parse (a body past two _CSV_BLOCKs, cut at the newline after its midpoint) and the
joule columns (past power.SPLIT_ROWS rows, cut at the middle row). Each gives the
serial columns, and the serial error, whether a forked child computes the second
half or this process does: beside another thread, with no fork or spill, or after
the child fails. conftest checks that no child is left."""

import math
import os
import random
import signal
import tempfile
import threading

import pytest

from carbondef import PerComponent, ServerSpec, UsageSample, UsageTrace, ingest, power
from carbondef.errors import ValidationError
from carbondef.ingest import TRACE_CSV_HEADER, parse_usage_trace
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


def parse(data: bytes):
    trace = parse_usage_trace(data, "csv")
    return repr(trace.columns), trace.source_rows


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
    return {"csv": (parse, csv_trace(seed)), "joules": (joules, samples, True)}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("site", ["csv", "joules"])
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
@pytest.mark.parametrize("site", ["csv", "joules"])
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
@pytest.mark.parametrize("site", ["csv", "joules"])
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
