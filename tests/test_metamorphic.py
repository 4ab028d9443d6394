"""Metamorphic properties of the whole report, on the bytes the CLI writes:
a run against a related run, or against its own totals. Inputs come from
``support.gen_cli_inputs``; each run goes through ``support.invoke`` in-process."""

import json
import math
import random

from hypothesis import given, settings, strategies as st

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
