"""One numeric rule for every value type: each public constructor, given any
number in a numeric field, either builds a valid value or raises a ValueError
or ValidationError naming that field, never an OverflowError. It accepts no
NaN, ±inf or int past the float range, and no epoch past ±2**53.

The numeric fields are read from ``dataclasses.fields``, so a field added
later is drawn without editing this file. The numbers drawn are finite floats,
NaN, ±inf, ints past the float range and ints past ±2**53."""

import dataclasses
import math
import sys
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from carbondef import (
    EmbodiedObject,
    IntensityEntry,
    Ledger,
    PerComponent,
    ProfileStep,
    PueFactor,
    ServerSpec,
    UsageSample,
    UsageTrace,
    attribute_simple,
    full_use_profile,
)
from carbondef.errors import DurationError, FractionError, ValidationError
from carbondef.ingest import TRACE_CSV_HEADER, FunctionalUnit, IntensitySource, RunConfig, parse_usage_trace
from carbondef.power import trace_to_energy_series
from carbondef.report import build_report

FLOAT_MAX = int(sys.float_info.max)
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(FLOAT_MAX + 1, 10**400) | st.integers(-(10**400), -FLOAT_MAX - 1),  # past the float range
    st.integers(2**53 + 1, FLOAT_MAX) | st.integers(-FLOAT_MAX, -(2**53) - 1),  # past ±2**53, within it
)

# a valid value of each value type, one field of which is replaced by a drawn number
BASES = {
    ServerSpec: dict(tdp_watts=100.0, n_cpu=4, alpha=PerComponent(0.4, 0.3, 0.2, 0.1),
                     u_max=PerComponent(4.0, 64e9, 1e12, 1e12), idle_watts=10.0),
    UsageSample: dict(start=0, duration_s=3600.0, u_cpu=2.0, u_mem=1e9, u_io=1e6, u_net=1e6),
    IntensityEntry: dict(start=0, end=100, intensity_kg_per_kwh=0.4),
    PueFactor: dict(value=1.5),
    FunctionalUnit: dict(name="request", count=1000.0),
    EmbodiedObject: dict(id="rack", m_kg=600.0, r_kg=300.0, eol_kg=100.0, lifespan_start=0, lifespan_s=1e8),
    ProfileStep: dict(start=0, end=100, fraction=0.5),
}
# an object whose lifespan holds every epoch within ±2**53, so a step in range is never out of it
EVERYWHEN = EmbodiedObject("rack", 600.0, 300.0, 100.0, -(2**53), 2.0**54)
EPOCHS = {"start", "end", "lifespan_start"}


def _numeric_fields(cls) -> list[str]:
    """The numeric fields of ``cls``, a nested dataclass's as ``field.inner``."""
    names = []
    for field in dataclasses.fields(cls):
        if field.type in ("int", "float"):
            names.append(field.name)
        elif field.type == "PerComponent":
            names.extend(f"{field.name}.{inner.name}" for inner in dataclasses.fields(PerComponent))
    return names


def _replaced(cls, field: str, value) -> dict:
    kwargs = dict(BASES[cls])
    name, _, inner = field.partition(".")
    kwargs[name] = dataclasses.replace(kwargs[name], **{inner: value}) if inner else value
    return kwargs


def _trace(field: str, value) -> UsageTrace:
    sample = _replaced(UsageSample, field, value)
    trace = UsageTrace(columns=[[sample[name]] for name in _numeric_fields(UsageSample)])
    assert len(trace.samples) == 1
    return trace


def _ledger(field: str, value) -> Ledger:
    step = _replaced(ProfileStep, field, value)
    columns = (["svc"], ["rack"], [0, 1], *([step[name]] for name in _numeric_fields(ProfileStep)))
    ledger = Ledger.build([EVERYWHEN], columns=columns)
    assert len(tuple(ledger.records)) == 1  # an accepted ledger's records view never raises
    return ledger


def _built(cls, field: str, value):
    return cls(**_replaced(cls, field, value))


BUILD = {
    **{cls.__name__: partial(_built, cls) for cls in BASES},
    "UsageTrace": _trace,
    "Ledger": _ledger,
    "attribute_simple": lambda field, value: attribute_simple(EmbodiedObject(**BASES[EmbodiedObject]), value),
}
# (constructor, field): each numeric field of each value type, of a trace's samples and of a ledger's steps
CASES = [
    *((cls.__name__, field) for cls in BASES for field in _numeric_fields(cls)),
    *(("UsageTrace", field) for field in _numeric_fields(UsageSample)),
    *(("Ledger", field) for field in _numeric_fields(ProfileStep)),
    ("attribute_simple", "consumed_s"),
]


def _names(constructor: str, field: str) -> tuple[str, ...]:
    """The words a message about ``field`` holds, one of which it names."""
    if (constructor, field) == ("PueFactor", "value"):
        return ("PUE",)
    if constructor == "EmbodiedObject" and field.endswith("_kg"):
        return ("lifecycle emissions",)
    return (field, "alpha entries") if field.startswith("alpha.") else (field,)


def test_every_public_constructor_is_drawn():
    assert {constructor for constructor, _ in CASES} == {*BUILD} == {
        "ServerSpec", "UsageSample", "UsageTrace", "IntensityEntry", "PueFactor", "FunctionalUnit",
        "EmbodiedObject", "ProfileStep", "Ledger", "attribute_simple"}
    assert {"n_cpu", "alpha.cpu", "u_max.net", "idle_watts"} <= set(_numeric_fields(ServerSpec))


# the faults library callers met before the one rule: an OverflowError, or an int past its range or a NaN accepted
@example(("ServerSpec", "alpha.cpu"), 10**400)
@example(("ServerSpec", "tdp_watts"), 10**400)
@example(("ServerSpec", "n_cpu"), 10**400)
@example(("ServerSpec", "u_max.net"), 10**400)
@example(("ServerSpec", "idle_watts"), 10**400)
@example(("IntensityEntry", "intensity_kg_per_kwh"), 10**400)
@example(("IntensityEntry", "start"), -(10**400))
@example(("IntensityEntry", "end"), -(10**400))
@example(("PueFactor", "value"), 10**400)
@example(("FunctionalUnit", "count"), 10**400)
@example(("EmbodiedObject", "m_kg"), 10**400)
@example(("EmbodiedObject", "r_kg"), 10**400)
@example(("EmbodiedObject", "eol_kg"), 10**400)
@example(("EmbodiedObject", "lifespan_s"), 10**400)
@example(("ProfileStep", "start"), -(10**400))
@example(("Ledger", "fraction"), 10**400)
@example(("attribute_simple", "consumed_s"), math.nan)
@example(("UsageTrace", "u_net"), 10**5000)  # past str()'s digit limit too
@settings(max_examples=400, deadline=None)
@given(st.sampled_from(CASES), NUMBERS)
def test_any_number_builds_a_valid_value_or_names_its_field(case, value):
    constructor, field = case
    try:
        BUILD[constructor](field, value)
    except (ValueError, ValidationError) as exc:
        assert any(name in str(exc) for name in _names(constructor, field)), (constructor, field, str(exc))
    else:  # accepted: a finite number, and an epoch within ±2**53
        assert -sys.float_info.max <= value <= sys.float_info.max
        assert field not in EPOCHS or -(2**53) <= value <= 2**53


def test_ledger_fraction_past_float_range_is_the_steps_fraction_error():
    columns = (["svc"], ["rack"], [0, 1], [0], [100], [10**400])
    with pytest.raises(FractionError, match=rf"^fraction must be within \[0, 1\], got {10**400}$"):
        Ledger.build([EVERYWHEN], columns=columns)


def test_ledger_step_ending_past_epoch_bound_rejected():
    # within the object's lifespan, so only the bound on ends sees it
    columns = (["svc"], ["rack"], [0, 1], [0], [2**53 + 1], [0.5])
    with pytest.raises(ValueError, match=r"^end must be within ±2\*\*53, got 9007199254740993$"):
        Ledger.build([EVERYWHEN], columns=columns)


def test_full_use_profile_past_epoch_bound_rejected():
    obj = EmbodiedObject("rack", 600.0, 300.0, 100.0, 2**53 - 10, 100.0)
    with pytest.raises(ValueError, match=r"^end must be within ±2\*\*53, got 9007199254741082$"):
        full_use_profile(obj)


def test_nan_consumed_duration_rejected():
    with pytest.raises(DurationError, match=r"^consumed_s=nan outside \[0, 100000000.0\] for 'rack'$"):
        attribute_simple(EmbodiedObject(**BASES[EmbodiedObject]), math.nan)


# ints within the float range whose product or sum leaves it: float arithmetic gives inf, which the report names
def test_int_anchor_past_float_range_is_named_by_the_report(tmp_path):
    spec = ServerSpec(2**600, 2**600, PerComponent(0.4, 0.3, 0.2, 0.1), PerComponent(4.0, 1e9, 1e9, 1e9))
    trace = UsageTrace(columns=([0], [60.0], [1.0], [0.0], [0.0], [0.0]))
    assert trace_to_energy_series(spec, trace).columns[3][0] == math.inf  # the cpu's joules
    config = RunConfig(server=spec, pue=PueFactor(1.0), intensity=IntensitySource(file=tmp_path / "unread.json"))
    with pytest.raises(ValidationError, match=r"^report field energy\.kwh_total is nan: server\.tdp_watts, n_cpu"):
        build_report("estimate", config, trace, "t")


def test_int_lifecycle_past_float_range_is_named_by_the_report():
    ledger = Ledger.build([EmbodiedObject("a", FLOAT_MAX, FLOAT_MAX, 0, 0, 100.0)],
                          columns=(["c"], ["a"], [0, 1], [0], [10], [0.5]))
    assert ledger.kg[0] == math.inf
    with pytest.raises(ValidationError, match=r"^report field embodied\.total_attributed_kg_co2e is inf: the ledger's"):
        build_report("embodied", ledger=ledger, ledger_digest="l")


def test_int_lifecycle_past_float_range_attributes_inf():
    assert attribute_simple(EmbodiedObject("a", FLOAT_MAX, FLOAT_MAX, 0, 0, 100.0), 50) == math.inf


@pytest.mark.parametrize("row, message", [
    ("0,-inf,0,0,0,0", "duration_s must be > 0, got -inf (at row 2)"),
    ("0,60,-inf,0,0,0", "u_cpu must be >= 0 (at row 2)"),
    ("0,60,0,0,0,inf", "u_net must be finite (at row 2)"),
])
def test_csv_infinities_keep_their_messages(row, message):
    # the CSV parser reads cells with float(), so a CLI run reaches these: -inf lies below the bound
    with pytest.raises(ValidationError) as exc_info:
        parse_usage_trace(f"{TRACE_CSV_HEADER}\n{row}\n".encode())
    assert str(exc_info.value) == message
