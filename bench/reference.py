"""Output checks for benchmark runs.

Expected totals are recomputed here from the generated inputs, with a
naive per-sample loop that shares no code with the package: energy from
the linear TDP-anchored model, operational emissions by walking each
sample across the regular 30-minute feed grid, embodied attribution from
the raw ledger records. A report passes when its totals match within a
relative 1e-9, and, for JSON, when it validates against the package's
report schema.

The schema check uses a small compiled validator for exactly the
keywords that schema uses, because ``jsonschema`` needs about 18 s for a
100k-sample report. It refuses any other keyword, so a schema change
cannot be skipped silently; ``test_bench.py`` cross-checks it against
``jsonschema``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

from gen import FEED_STEP_S, JOULES_PER_KWH, PUE, SERVER, Workload

REL_TOL = 1e-9


@dataclass(frozen=True)
class Expected:
    samples: int
    energy_kwh: float
    operational_kg: float
    embodied_kg: float
    lifecycle_kg: float


def expected_totals(workload: Workload) -> Expected:
    limits, alpha = SERVER["u_max"], SERVER["alpha"]
    anchor = SERVER["tdp_watts"] * SERVER["n_cpu"]
    weights = {c: anchor * alpha[c] / alpha["cpu"] / limits[c] for c in ("cpu", "mem", "io", "net")}

    origin = workload.feed[0][0] % FEED_STEP_S
    by_start = {}
    for start, end, value in workload.feed:
        if end - start != FEED_STEP_S or start % FEED_STEP_S != origin:
            raise ValueError(f"feed entry [{start}, {end}) is off the {FEED_STEP_S} s grid")
        by_start[start] = value

    energy_j = 0.0
    weighted_j = 0.0  # joules x intensity over covered seconds
    for start, duration, *usage in workload.samples:
        watts = SERVER["idle_watts"]
        for component, used in zip(("cpu", "mem", "io", "net"), usage):
            watts += weights[component] * min(used, limits[component])
        joules = watts * duration
        energy_j += joules
        end = start + duration
        slot = start - (start - origin) % FEED_STEP_S
        while slot < end:
            value = by_start.get(slot)
            if value is not None:
                overlap = min(end, slot + FEED_STEP_S) - max(start, slot)
                weighted_j += value * joules * overlap / duration
            slot += FEED_STEP_S

    objects = {obj["id"]: obj for obj in workload.objects}

    def lifecycle(obj: dict) -> float:
        return obj["m_kg"] + obj["r_kg"] + obj["eol_kg"]

    embodied = 0.0
    for record in workload.records:
        obj = objects[record["object_id"]]
        used_s = sum(step["fraction"] * (step["end"] - step["start"]) for step in record["profile"])
        embodied += lifecycle(obj) * used_s / obj["lifespan_s"]

    return Expected(
        samples=len(workload.samples),
        energy_kwh=energy_j / JOULES_PER_KWH,
        operational_kg=PUE * weighted_j / JOULES_PER_KWH,
        embodied_kg=embodied,
        lifecycle_kg=sum(lifecycle(obj) for obj in workload.objects),
    )


# --- schema validation ---

#: ``check(value)`` returns None when ``value`` is valid, else where and why not
Check = Callable[[Any], "str | None"]

_ANNOTATIONS = {"$schema", "$id", "title", "description"}


def _is_number(value: Any) -> bool:
    return type(value) is int or type(value) is float


_TYPES: dict[str, Callable[[Any], bool]] = {
    "object": lambda v: type(v) is dict,
    "array": lambda v: type(v) is list,
    "string": lambda v: type(v) is str,
    "null": lambda v: v is None,
    "boolean": lambda v: type(v) is bool,
    "number": _is_number,
    "integer": lambda v: type(v) is int or (type(v) is float and v.is_integer()),
}


def compile_schema(schema: dict) -> Check:
    """Compile ``schema`` into a check; any keyword not listed here is refused."""
    defs = schema.get("$defs", {})
    compiled_defs: dict[str, Check] = {}

    def ref(target: str) -> Check:
        name = target.removeprefix("#/$defs/")
        if name == target or name not in defs:
            raise ValueError(f"unsupported $ref {target!r}")

        def check(value):
            if name not in compiled_defs:
                compiled_defs[name] = build(defs[name])
            return compiled_defs[name](value)

        return check

    def build(node: dict) -> Check:
        checks = [
            _keyword(key, arg, node, build, ref)
            for key, arg in node.items()
            if key not in _ANNOTATIONS and key not in ("$defs", "if", "then")
        ]
        if "if" in node:
            condition, then = build(node["if"]), build(node.get("then", {}))
            checks.append(lambda v: then(v) if condition(v) is None else None)
        if len(checks) == 1:
            return checks[0]

        def check(value):
            for step in checks:
                error = step(value)
                if error is not None:
                    return error
            return None

        return check

    root = build(schema)

    def check(value):
        error = root(value)
        return None if error is None else "$" + error

    return check


def _keyword(key: str, arg: Any, node: dict, build, ref) -> Check:
    if key == "type":
        tests = [_TYPES[name] for name in (arg if isinstance(arg, list) else [arg])]
        if len(tests) == 1:
            test = tests[0]
            return lambda v: None if test(v) else f": not of type {arg}"
        return lambda v: None if any(t(v) for t in tests) else f": not of type {arg}"
    if key == "const":
        return lambda v: None if type(v) is type(arg) and v == arg else f": must be {arg!r}"
    if key == "enum":
        return lambda v: None if any(type(v) is type(a) and v == a for a in arg) else f": not in {arg}"
    if key == "minimum":
        return lambda v: f": {v!r} < {arg}" if _is_number(v) and not v >= arg else None
    if key == "exclusiveMinimum":
        return lambda v: f": {v!r} <= {arg}" if _is_number(v) and not v > arg else None
    if key == "required":
        return lambda v: next((f": missing {k!r}" for k in arg if k not in v), None) if type(v) is dict else None
    if key == "properties":
        props = [(name, build(sub)) for name, sub in arg.items()]

        def properties(v):
            if type(v) is not dict:
                return None
            for name, check in props:
                if name in v:
                    error = check(v[name])
                    if error is not None:
                        return f".{name}{error}"
            return None

        return properties
    if key == "additionalProperties":
        if arg is not False:
            raise ValueError("only additionalProperties: false is supported")
        allowed = frozenset(node.get("properties", {}))
        return lambda v: (
            f": unexpected keys {sorted(set(v) - allowed)}"
            if type(v) is dict and not allowed.issuperset(v)
            else None
        )
    if key == "items":
        item = build(arg)

        def items(v):
            if type(v) is not list:
                return None
            for index, element in enumerate(v):
                error = item(element)
                if error is not None:
                    return f"[{index}]{error}"
            return None

        return items
    if key == "$ref":
        return ref(arg)
    if key == "allOf":
        parts = [build(sub) for sub in arg]
        return lambda v: next((e for e in (c(v) for c in parts) if e is not None), None)
    if key == "oneOf":
        parts = [build(sub) for sub in arg]

        def one_of(v):
            passed = sum(c(v) is None for c in parts)
            return None if passed == 1 else f": matches {passed} of oneOf"

        return one_of
    raise ValueError(f"unsupported schema keyword {key!r}")


# --- report checks ---

def _close(label: str, got: Any, want: float, problems: list[str]) -> None:
    if not _is_number(got) or not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
        problems.append(f"{label}: got {got!r}, reference {want!r}")


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name} in JSON output")


def check_json(data: bytes, expected: Expected, schema_check: Check) -> list[str]:
    try:
        doc = json.loads(data, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"output is not strict JSON: {exc}"]
    error = schema_check(doc)
    if error is not None:
        return [f"schema: {error}"]
    problems: list[str] = []
    if doc["energy"]["interval_count"] != expected.samples:
        problems.append(f"interval_count {doc['energy']['interval_count']} != {expected.samples}")
    _close("energy kWh", doc["energy"]["kwh_total"], expected.energy_kwh, problems)
    _close("operational kg", doc["operational"]["total_kg_co2e"], expected.operational_kg, problems)
    _close("sci operational kg", doc["sci"]["operational_kg_co2e"], expected.operational_kg, problems)
    embodied = doc["embodied"]
    _close("embodied attributed kg", embodied["total_attributed_kg_co2e"], expected.embodied_kg, problems)
    _close("sci embodied kg", doc["sci"]["embodied_kg_co2e"], expected.embodied_kg, problems)
    conservation = embodied["conservation"]
    _close("lifecycle total kg", conservation["lifecycle_total_kg_co2e"], expected.lifecycle_kg, problems)
    _close(
        "conservation sum kg",
        conservation["attributed_plus_residual_kg_co2e"],
        expected.lifecycle_kg,
        problems,
    )
    return problems


CSV_HEADER = ["section", "id", "start", "duration_s", "metric", "value"]


def check_csv(data: bytes, expected: Expected) -> list[str]:
    """Sum the long-format rows of a full-report CSV and compare totals."""
    try:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    except (UnicodeDecodeError, csv.Error) as exc:
        return [f"unreadable CSV: {exc}"]
    if not rows or rows[0] != CSV_HEADER:
        return [f"CSV header {rows[0] if rows else None!r} != {CSV_HEADER}"]
    sums: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str], int] = {}
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != len(CSV_HEADER):
            return [f"CSV row {number} has {len(row)} fields"]
        try:
            value = float(row[5])
        except ValueError:
            return [f"CSV row {number}: value {row[5]!r} is not a number"]
        if not math.isfinite(value):
            return [f"CSV row {number}: non-finite value {row[5]!r}"]
        key = (row[0], row[4])
        sums[key] = sums.get(key, 0.0) + value
        counts[key] = counts.get(key, 0) + 1

    problems: list[str] = []
    if counts.get(("energy", "kwh_total"), 0) != expected.samples:
        problems.append(f"{counts.get(('energy', 'kwh_total'), 0)} energy rows != {expected.samples}")
    attributed = sums.get(("embodied", "kg_co2e"), 0.0)
    residual = sums.get(("embodied", "idle_residual_kg_co2e"), 0.0)
    _close("energy kWh", sums.get(("energy", "kwh_total")), expected.energy_kwh, problems)
    _close("operational kg", sums.get(("operational", "kg_co2e")), expected.operational_kg, problems)
    _close("sci operational kg", sums.get(("sci", "operational_kg_co2e")), expected.operational_kg, problems)
    _close("embodied attributed kg", attributed, expected.embodied_kg, problems)
    _close("sci embodied kg", sums.get(("sci", "embodied_kg_co2e")), expected.embodied_kg, problems)
    _close("conservation sum kg", attributed + residual, expected.lifecycle_kg, problems)
    return problems


def check_report(data: bytes, output: str, expected: Expected, schema_check: Check) -> list[str]:
    """Problems found in one report's bytes; empty when the report is correct."""
    if output == "json":
        return check_json(data, expected, schema_check)
    return check_csv(data, expected)
