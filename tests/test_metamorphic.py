"""Metamorphic properties of the whole report, on the bytes the CLI writes:
a run against a related run, or against its own totals, or its CSV against
its JSON. Inputs come from ``support.gen_cli_inputs``; each run goes through
``support.invoke`` in-process."""

import csv
import io
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from carbondef.power import ENERGY_SOURCES

from support import gen_cli_inputs, invoke, write_cli_inputs

#: segment plus uncovered kWh against ``software_kwh``, relative. Each row's kWh
#: is its interval's joules prorated by an exact length (two roundings) and
#: divided by 3.6e6 (one); ``software_kwh`` sums at most 30 rows in float. That
#: is below 40 * 2**-53 (4.4e-15). A bound about 200 times wider is still far
#: below the share of the energy that a lost piece of an interval would take.
CONSERVATION_REL_TOL = 1e-12

#: the per-consumer ``embodied --consumer`` totals against the all-consumer total. The
#: report sums the same per-consumer totals, in the order its ``consumers`` list them,
#: so that sum repeats its arithmetic exactly.
PARTITION_ABS_TOL = 0.0

#: ``overhead_kwh`` against ``(pue - 1) * software_kwh``, in units of 2**-53 times the
#: facility energy ``pue * software_kwh``. The report computes ``(J * pue - J) / 3.6e6``:
#: the product rounds once (pue * u of that energy) and the exact subtraction keeps the
#: error, which cancellation can make large next to a small overhead; the division and
#: both roundings of ``(pue - 1) * software_kwh`` add (pue - 1) * u each. Together under
#: (4 * pue - 3) * u, so 4 * pue * u bounds it.
OVERHEAD_TOL_UNITS = 4

#: rounding steps a summed term of a trace or feed total takes before its sum, bounded:
#: an interval's component joules are ``u / u_max * share * anchor * duration`` (the share
#: and anchor themselves one division or product each, so 6) and its total four additions
#: (10); a segment's joules two more (``J * (length / span)``, 12) and its kg three
#: (``pue * (intensity * J / 3.6e6)``, 15); a total then divides into kWh, or adds the
#: embodied total and divides by the unit count (17). Rounded up to 20.
REFINEMENT_TERM_STEPS = 20


def refinement_tolerance(rows: int, scale: float) -> float:
    """How far a total of ``rows`` terms may move when samples or feed entries are split.

    ``UsageSample(t, d, ...)`` split at ``t + k`` into ``(t, k)`` and ``(t + k, d - k)``
    (quarter-second lengths at present-day epochs, so both are exact), or a feed entry at
    an int inside its window, leaves every exact total as it was: energy is linear in the
    length and the intensity constant across the cut. Each run's total of n terms, all
    >= 0, lies within ``(REFINEMENT_TERM_STEPS + n) * 2**-53`` of that exact value,
    relative (the n - 1 additions plus each term's own steps), so the two runs lie within
    twice that of each other. ``overhead_kwh``, ``(J * pue - J) / 3.6e6``, may cancel, so
    its ``scale`` is ``pue * software_kwh``, as for ``OVERHEAD_TOL_UNITS``."""
    return 2 * (REFINEMENT_TERM_STEPS + rows) * 2**-53 * scale


def embodied_refinement_tolerance(steps: int, records: int, lifecycle_kg: float) -> float:
    """How far an embodied kg field may move when every profile step is split.

    A step ``(a, b, f)`` split at an int inside it leaves each record's exact
    ``sum(f * (end - start))``, so its attribution ``lifecycle * weighted / lifespan``. In
    float, a record of s steps rounds s products and s - 1 sums, then two more; consumer
    and ledger totals add at most 2 * records sums, and a residual subtracts once from its
    object's lifecycle. With ``steps`` the ledger's step count after the split, every
    embodied kg field of each run lies within ``(steps + 2 * records + 4) * 2**-53`` of the
    ledger's lifecycle total of its exact value, and the two runs within twice that."""
    return 2 * (steps + 2 * records + 4) * 2**-53 * lifecycle_kg


def csv_total_tolerance(rows: int, total: float) -> float:
    """How far the ``math.fsum`` of a total's ``rows`` CSV rows may lie from the JSON total.

    Each row holds one term of the total as its own rounded float (kWh as
    ``J / 3.6e6``, one rounding); ``math.fsum`` rounds once more. The report's total sums
    the same terms (or their joules, then divides) with n - 1 float additions and at most
    one division. All terms are >= 0, so the two differ by at most ``(n + 2) * 2**-53`` of
    the total; one more step covers the second-order terms."""
    return (rows + 3) * 2**-53 * total


seeds = st.integers(0, 10**9)


def report_bytes(inputs: dict, directory) -> bytes:
    result = invoke(write_cli_inputs(inputs, directory))
    assert result.exit_code == 0, result.stderr
    return result.stdout_bytes


def with_doubled_power(report: dict, config_sha256: str) -> dict:
    """``report`` as doubling ``tdp_watts`` and ``idle_watts`` must leave it:
    every kWh and kg field of the energy and operational sections doubles
    exactly (a factor of two commutes with every rounding clear of subnormals
    and overflow). Embodied carbon does not depend on power, so the ``sci``
    totals follow from the doubled operational total by the report's own sums."""

    def double(node):
        if isinstance(node, list):
            for item in node:
                double(item)
        elif isinstance(node, dict):
            for key, value in node.items():
                if key == "intensity_kg_per_kwh":
                    continue
                if "kwh" in key or key.endswith("kg_co2e"):
                    node[key] = {k: 2 * v for k, v in value.items()} if isinstance(value, dict) else 2 * value
                else:
                    double(value)

    double(report["energy"])
    double(report["operational"])
    sci = report["sci"]
    sci["operational_kg_co2e"] = report["operational"]["total_kg_co2e"]
    sci["total_kg_co2e"] = sci["operational_kg_co2e"] + sci["embodied_kg_co2e"]
    sci["sci_kg_co2e_per_unit"] = sci["total_kg_co2e"] / sci["functional_unit"]["count"]
    report["meta"]["config_sha256"] = config_sha256
    return report


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_doubling_power_doubles_every_kwh_and_kg(tmp_path_factory, seed):
    inputs = gen_cli_inputs(random.Random(seed))
    base = json.loads(report_bytes(inputs, tmp_path_factory.mktemp("base")))
    server = inputs["config"]["server"]
    server["tdp_watts"] *= 2
    server["idle_watts"] *= 2
    doubled = report_bytes(inputs, tmp_path_factory.mktemp("doubled"))
    assert base["energy"]["kwh_total"] > 0
    expected = with_doubled_power(base, json.loads(doubled)["meta"]["config_sha256"])
    assert doubled == (json.dumps(expected, indent=2) + "\n").encode("utf-8")


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_segment_and_uncovered_kwh_add_up_to_software_kwh(tmp_path_factory, seed):
    report = json.loads(report_bytes(gen_cli_inputs(random.Random(seed)), tmp_path_factory.mktemp("run")))
    operational = report["operational"]
    parts = math.fsum(row["kwh"] for row in operational["segments"] + operational["uncovered"])
    assert math.isclose(parts, operational["software_kwh"], rel_tol=CONSERVATION_REL_TOL, abs_tol=0.0)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_consumer_totals_partition_the_embodied_total(tmp_path_factory, seed):
    directory = tmp_path_factory.mktemp("ledger")
    ledger = directory / "ledger.json"
    ledger.write_bytes(gen_cli_inputs(random.Random(seed))["ledger"])

    def embodied(*consumer: str) -> dict:
        result = invoke(["embodied", "--ledger", str(ledger), *consumer])
        assert result.exit_code == 0, result.stderr
        return json.loads(result.stdout)["embodied"]

    whole = embodied()
    parts = [embodied("--consumer", consumer["consumer_id"]) for consumer in whole["consumers"]]
    assert [part["consumers"] for part in parts] == [[consumer] for consumer in whole["consumers"]]
    total = 0.0
    for part in parts:
        total += part["total_attributed_kg_co2e"]
    assert abs(total - whole["total_attributed_kg_co2e"]) <= PARTITION_ABS_TOL


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_overhead_kwh_is_pue_less_one_times_software_kwh(tmp_path_factory, seed):
    report = json.loads(report_bytes(gen_cli_inputs(random.Random(seed)), tmp_path_factory.mktemp("run")))
    operational = report["operational"]
    pue, software = operational["pue"], operational["software_kwh"]
    tolerance = OVERHEAD_TOL_UNITS * 2**-53 * pue * software
    assert abs(operational["overhead_kwh"] - (pue - 1) * software) <= tolerance


def split_samples(trace: str) -> str:
    """Every sample of a CSV trace longer than 1 s split at the int ``start + k``, k =
    max(1, floor(duration / 2)): ``(start, k)`` and ``(start + k, duration - k)``."""
    header, *rows = trace.splitlines()
    lines = [header]
    for row in rows:
        start, duration, *usages = row.split(",")
        start, duration = int(start), float(duration)
        k = max(1, int(duration // 2))
        pieces = [(start, float(k)), (start + k, duration - k)] if k < duration else [(start, duration)]
        lines += [",".join([str(begin), repr(length), *usages]) for begin, length in pieces]
    return "\n".join([*lines, ""])


def split_windows(items: list[dict]) -> list[dict]:
    """Every ``start``/``end`` item (a feed entry or a profile step) at least 2 s long
    split at its int midpoint, the rest of each item kept."""
    pieces = []
    for item in items:
        start, end = item["start"], item["end"]
        middle = (start + end) // 2
        bounds = [(start, middle), (middle, end)] if middle > start else [(start, end)]
        pieces += [{**item, "start": begin, "end": finish} for begin, finish in bounds]
    return pieces


def trace_totals(report: dict) -> dict[str, float]:
    energy, operational, sci = report["energy"], report["operational"], report["sci"]
    return {
        "energy.kwh_total": energy["kwh_total"],
        **{f"energy.kwh_by_component.{source}": kwh for source, kwh in energy["kwh_by_component"].items()},
        **{f"operational.{key}": operational[key] for key in ("total_kg_co2e", "software_kwh")},
        "operational.segments[*].kwh": math.fsum(row["kwh"] for row in operational["segments"]),
        "operational.uncovered[*].kwh": math.fsum(row["kwh"] for row in operational["uncovered"]),
        **{f"sci.{key}": sci[key] for key in ("operational_kg_co2e", "total_kg_co2e", "sci_kg_co2e_per_unit")},
    }


def report_rows(report: dict) -> int:
    operational = report["operational"]
    return len(report["energy"]["intervals"]) + len(operational["segments"]) + len(operational["uncovered"])


@pytest.mark.parametrize("split", ["samples", "feed", "both"])
@settings(max_examples=20, deadline=None)
@given(seeds)
def test_splitting_samples_or_feed_entries_keeps_the_totals(tmp_path_factory, split, seed):
    inputs = gen_cli_inputs(random.Random(seed))
    base = json.loads(report_bytes(inputs, tmp_path_factory.mktemp("base")))
    if split != "feed":
        inputs["trace"] = split_samples(inputs["trace"])
    if split != "samples":
        inputs["feed"]["entries"] = split_windows(inputs["feed"]["entries"])
    refined = json.loads(report_bytes(inputs, tmp_path_factory.mktemp("refined")))
    rows = report_rows(refined)
    assert rows >= report_rows(base)  # a cut in a gap or outside the trace adds no row
    assert refined["embodied"] == base["embodied"]
    expected = trace_totals(base)
    for name, total in trace_totals(refined).items():
        assert abs(total - expected[name]) <= refinement_tolerance(rows, expected[name]), name
    overhead, operational = refined["operational"]["overhead_kwh"], base["operational"]
    scale = operational["pue"] * operational["software_kwh"]
    assert abs(overhead - operational["overhead_kwh"]) <= refinement_tolerance(rows, scale)


def numbers(node, path: str = ""):
    """(path, value) of every number in a JSON document, in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numbers(value, f"{path}.{key}")
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from numbers(value, f"{path}[{index}]")
    elif isinstance(node, (int, float)):
        yield path, node


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_splitting_profile_steps_keeps_embodied_attribution(tmp_path_factory, seed):
    inputs = gen_cli_inputs(random.Random(seed))
    base = json.loads(report_bytes(inputs, tmp_path_factory.mktemp("base")))
    ledger = json.loads(inputs["ledger"])
    for record in ledger["records"]:
        record["profile"] = split_windows(record["profile"])
    inputs["ledger"] = json.dumps(ledger).encode()
    refined = json.loads(report_bytes(inputs, tmp_path_factory.mktemp("refined")))
    for section in ("energy", "operational"):
        assert refined[section] == base[section]
    steps = sum(len(record["profile"]) for record in ledger["records"])
    tolerance = embodied_refinement_tolerance(
        steps, len(ledger["records"]), base["embodied"]["conservation"]["lifecycle_total_kg_co2e"])
    pairs = list(zip(numbers(refined["embodied"]), numbers(base["embodied"])))
    assert [path for (path, _), _ in pairs] == [path for _, (path, _) in pairs] and pairs
    for (path, value), (_, expected) in pairs:
        assert abs(value - expected) <= tolerance, path
    assert abs(refined["sci"]["embodied_kg_co2e"] - base["sci"]["embodied_kg_co2e"]) <= tolerance


#: the flags each command reads, of those ``write_cli_inputs`` writes
COMMAND_FLAGS = {
    "estimate": ("--config", "--trace"),
    "emissions": ("--config", "--trace"),
    "embodied": ("--ledger",),
    "report": ("--config", "--trace", "--ledger"),
}


def csv_totals(command: str, report: dict, rows: list[dict]) -> list[tuple[str, float, list[float]]]:
    """(name, the JSON report's total, the CSV values that are its terms) for each total
    ``command`` reports."""

    def values(section: str, metric: str) -> list[float]:
        if command == "report":
            return [float(row["value"]) for row in rows if (row["section"], row["metric"]) == (section, metric)]
        if command == "embodied":
            return [float(row[metric]) for row in rows if row["record_type"] == "attribution"]
        return [float(row[metric]) for row in rows]

    totals = []
    if command in ("estimate", "report"):
        energy = report["energy"]
        totals.append(("energy.kwh_total", energy["kwh_total"], values("energy", "kwh_total")))
        totals += [(f"energy.kwh_by_component.{source}", energy["kwh_by_component"][source], values("energy", f"kwh_{source}"))
                   for source in ENERGY_SOURCES]
    if command in ("emissions", "report"):
        totals.append(("operational.total_kg_co2e", report["operational"]["total_kg_co2e"], values("operational", "kg_co2e")))
    if command in ("embodied", "report"):
        embodied = report["embodied"]
        totals.append(("embodied.total_attributed_kg_co2e", embodied["total_attributed_kg_co2e"], values("embodied", "kg_co2e")))
    return totals


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_csv_output_carries_the_json_totals(tmp_path_factory, seed):
    argv = write_cli_inputs(gen_cli_inputs(random.Random(seed)), tmp_path_factory.mktemp("run"))
    paths = dict(zip(argv[1::2], argv[2::2]))
    for command, flags in COMMAND_FLAGS.items():
        args = [command, *(word for flag in flags for word in (flag, paths[flag]))]
        as_json, as_csv = invoke(args), invoke([*args, "--format", "csv"])
        assert as_json.exit_code == as_csv.exit_code == 0, as_json.stderr + as_csv.stderr
        report, rows = json.loads(as_json.stdout), list(csv.DictReader(io.StringIO(as_csv.stdout)))
        totals = csv_totals(command, report, rows)
        assert totals and all(terms for name, _, terms in totals if name.startswith("energy"))  # a feed may cover no sample
        for name, total, terms in totals:
            assert abs(math.fsum(terms) - total) <= csv_total_tolerance(len(terms), total), (command, name)
        if command == "report":  # the sci rows are the totals themselves
            sci = {row["metric"]: float(row["value"]) for row in rows if row["section"] == "sci"}
            assert sci == {metric: report["sci"][metric] for metric in sci} and len(sci) == 4
        if command == "embodied":
            conservation = [float(row["kg_co2e"]) for row in rows if row["record_type"] == "conservation"]
            assert conservation == [report["embodied"]["conservation"]["attributed_plus_residual_kg_co2e"]]
