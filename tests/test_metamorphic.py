"""Metamorphic properties of the whole report, on the bytes the CLI writes:
a run against a related run, or against its own totals. Inputs come from
``support.gen_cli_inputs``; each run goes through ``CliRunner`` in-process."""

import json
import math
import random

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from carbondef.cli import main

from support import gen_cli_inputs, write_cli_inputs

#: segment plus uncovered kWh against ``software_kwh``, relative. Each row's kWh
#: is its interval's joules prorated by an exact length (two roundings) and
#: divided by 3.6e6 (one); ``software_kwh`` sums at most 30 rows in float. That
#: is below 40 * 2**-53 (4.4e-15). A bound about 200 times wider is still far
#: below the share of the energy that a lost piece of an interval would take.
CONSERVATION_REL_TOL = 1e-12

seeds = st.integers(0, 10**9)


def report_bytes(inputs: dict, directory) -> bytes:
    result = CliRunner().invoke(main, write_cli_inputs(inputs, directory), catch_exceptions=False)
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
