"""The full report's ``sci`` section and its software/overhead energy split.

Total carbon is operational plus embodied; the SCI score divides that
total by the functional-unit count; software energy is the pre-PUE total
and overhead is what PUE adds to it. Each property is checked on full
reports of one hour on the ``tests/fixtures/cli`` config, intensity feed
and ledger, with the usage scaled by ``load`` and the PUE, count and
consumer varied.
"""

import dataclasses
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from carbondef import (
    EmbodiedObject,
    IntensityEntry,
    PueFactor,
    UsageSample,
    UsageTrace,
    apply_pue,
    trace_to_energy_series,
)
from carbondef.grid import JOULES_PER_KWH
from carbondef.ingest import FunctionalUnit, load_config, parse_ledger
from carbondef.report import build_report

from support import FIXTURES, rel_close

CLI = FIXTURES / "cli"
CONFIG = load_config(CLI / "config.json")
LEDGER = parse_ledger((CLI / "ledger.json").read_bytes())

pues = st.floats(1.0, 2.0)
loads = st.floats(0.0, 1.0)


def hour_trace(load: float) -> UsageTrace:
    """The fixture's full-load hour with every usage scaled by ``load``."""
    return UsageTrace((UsageSample(0, 3600.0, 4.0 * load, 64e9 * load, 1e12 * load, 1e12 * load),))


def full_report(pue=1.5, count=1000.0, load=1.0, consumer_id=None):
    config = dataclasses.replace(
        CONFIG, pue=PueFactor(pue), functional_unit=FunctionalUnit("api_call", count)
    )
    return build_report("report", config, hour_trace(load), "", LEDGER, "", consumer_id)


def software_joules(load: float) -> float:
    """The pre-PUE joules the report's energy and operational kWh come from."""
    return trace_to_energy_series(CONFIG.server, hour_trace(load)).total_joules()


class TestTotalCarbon:
    def test_module_composition_example(self):
        sci = full_report()["sci"]
        assert sci["total_kg_co2e"] == sci["operational_kg_co2e"] + sci["embodied_kg_co2e"]
        assert sci["total_kg_co2e"] == pytest.approx(100.45, rel=1e-9)

    def test_zero(self):
        sci = full_report(load=0.0, consumer_id="nobody")["sci"]
        assert sci["total_kg_co2e"] == 0.0
        assert sci["sci_kg_co2e_per_unit"] == 0.0

    def test_identity_in_embodied(self):
        sci = full_report(consumer_id="nobody")["sci"]
        assert sci["embodied_kg_co2e"] == 0.0
        assert sci["total_kg_co2e"] == sci["operational_kg_co2e"] > 0

    def test_negative_rejected(self):
        # the inputs of either addend reject negatives, so no total is negative
        with pytest.raises(ValueError):
            UsageSample(0, 3600.0, -0.1, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            IntensityEntry(0, 3600, -0.1)
        with pytest.raises(ValueError):
            EmbodiedObject("rack", -1.0, 0.0, 0.0, 0, 1.0)

    @settings(max_examples=30)
    @given(pues, loads)
    def test_commutative(self, pue, load):
        sci = full_report(pue, load=load)["sci"]
        assert sci["total_kg_co2e"] == sci["embodied_kg_co2e"] + sci["operational_kg_co2e"]

    @settings(max_examples=30)
    @given(pues, loads, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotone(self, pue, load, pue_bump, load_bump):
        total = full_report(pue, load=load)["sci"]["total_kg_co2e"]
        assert full_report(pue + pue_bump, load=load)["sci"]["total_kg_co2e"] >= total
        assert full_report(pue, load=min(1.0, load + load_bump))["sci"]["total_kg_co2e"] >= total


class TestSci:
    def test_per_call(self):
        sci = full_report()["sci"]
        assert sci["sci_kg_co2e_per_unit"] == sci["total_kg_co2e"] / 1000.0
        assert sci["sci_kg_co2e_per_unit"] == pytest.approx(0.10045, rel=1e-9)

    def test_single_unit(self):
        sci = full_report(count=1.0)["sci"]
        assert sci["sci_kg_co2e_per_unit"] == sci["total_kg_co2e"]

    def test_zero_units_rejected(self):
        for count in (0, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="functional unit count must be > 0"):
                FunctionalUnit("api_call", count)

    def test_infinite_units_rejected(self):
        # a library caller's inf would render as "count": Infinity
        with pytest.raises(ValueError, match="functional unit count must be finite, got inf"):
            FunctionalUnit("api_call", math.inf)

    @settings(max_examples=30)
    @given(st.floats(1e-6, 1e9), pues)
    def test_round_trip(self, count, pue):
        sci = full_report(pue, count)["sci"]
        assert sci["functional_unit"]["count"] == count
        assert sci["sci_kg_co2e_per_unit"] == sci["total_kg_co2e"] / count
        assert rel_close(sci["sci_kg_co2e_per_unit"] * count, sci["total_kg_co2e"], 1e-12)


class TestOverheadSplit:
    def test_definitional_split(self):
        operational = full_report(1.5)["operational"]
        assert operational["software_kwh"] == software_joules(1.0) / JOULES_PER_KWH
        assert operational["overhead_kwh"] == 0.5 * operational["software_kwh"] > 0

    def test_pue_one_no_overhead(self):
        operational = full_report(1.0)["operational"]
        assert operational["software_kwh"] > 0
        assert operational["overhead_kwh"] == 0.0

    def test_zero_energy(self):
        operational = full_report(2.0, load=0.0)["operational"]
        assert (operational["software_kwh"], operational["overhead_kwh"]) == (0.0, 0.0)

    @settings(max_examples=30)
    @given(pues, loads)
    @example(1.0, 1.0)
    @example(2.0, 1.0)
    def test_parts_sum_exactly_up_to_doubling(self, pue, load):
        # for pue <= 2 the subtraction is exact, so the parts reassemble in joules
        joules = software_joules(load)
        overhead = apply_pue(joules, PueFactor(pue)) - joules
        operational = full_report(pue, load=load)["operational"]
        assert operational["software_kwh"] == joules / JOULES_PER_KWH
        assert operational["overhead_kwh"] == overhead / JOULES_PER_KWH
        assert joules + overhead == apply_pue(joules, PueFactor(pue))

    @settings(max_examples=30)
    @given(st.floats(2.0, 10.0), loads)
    @example(pue=4.0, load=5e-324)
    def test_parts_sum_closely_beyond(self, pue, load):
        # holds for normal floats only: a subnormal energy keeps too few bits
        # for a relative bound (at 5e-324, 1.5e-323 against 2e-323)
        operational = full_report(pue, load=load)["operational"]
        software, overhead = operational["software_kwh"], operational["overhead_kwh"]
        assert rel_close(software + overhead, pue * software, 1e-12) or software < sys.float_info.min


class TestComposeTotals:
    """The sci section as a whole, next to the sections it sums."""

    def test_end_to_end_values(self):
        sci = full_report()["sci"]
        assert list(sci) == [
            "operational_kg_co2e", "embodied_kg_co2e", "total_kg_co2e",
            "functional_unit", "sci_kg_co2e_per_unit",
        ]
        assert sci["functional_unit"] == {"name": "api_call", "count": 1000.0}
        assert sci["operational_kg_co2e"] == pytest.approx(0.45, rel=1e-9)
        assert sci["embodied_kg_co2e"] == pytest.approx(100.0, rel=1e-9)

    @settings(max_examples=50)
    @given(pues, loads, st.sampled_from([None, "svc-a", "nobody"]))
    def test_invariants(self, pue, load, consumer_id):
        report = full_report(pue, load=load, consumer_id=consumer_id)
        sci, operational = report["sci"], report["operational"]
        assert sci["operational_kg_co2e"] == operational["total_kg_co2e"]
        assert sci["embodied_kg_co2e"] == report["embodied"]["total_attributed_kg_co2e"]
        assert sci["total_kg_co2e"] == sci["operational_kg_co2e"] + sci["embodied_kg_co2e"]
        assert sci["sci_kg_co2e_per_unit"] == sci["total_kg_co2e"] / sci["functional_unit"]["count"]
        assert operational["software_kwh"] == report["energy"]["kwh_total"]
        joules = software_joules(load)
        assert joules + (apply_pue(joules, PueFactor(pue)) - joules) == apply_pue(joules, PueFactor(pue))
