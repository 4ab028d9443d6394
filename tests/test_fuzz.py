"""The CLI's total contract under fuzzing: any mutation of the fixture
corpus either renders a finite, schema-valid JSON report (exit 0) or ends in
a located error (exit 2 for input, 3 for IO or network), never a traceback.

Each example writes a config, trace, ledger and intensity feed into a fresh
copy of ``tests/fixtures/cli``, one of them replaced by a corpus file and mutated at the byte
level, at one JSON value (huge, subnormal, overlong or mistyped), at one CSV
cell, or by nesting one JSON value deep. Network access is stubbed out, so a
config naming an endpoint fails as a fetch with no cache would.
"""

import importlib.resources
import json
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import jsonschema
from hypothesis import HealthCheck, given, settings, strategies as st

from support import FIXTURES, invoke

CORPUS = sorted(path for kind in ("cli", "malformed") for path in (FIXTURES / kind).iterdir())
BASE = {
    "config": FIXTURES / "cli" / "config.json",
    "trace": FIXTURES / "cli" / "trace_full_load.csv",
    "ledger": FIXTURES / "cli" / "ledger.json",
    "intensity": FIXTURES / "cli" / "intensity.json",
}
INPUTS = {
    "estimate": ("config", "trace", "intensity"),
    "emissions": ("config", "trace", "intensity"),
    "report": ("config", "trace", "ledger", "intensity"),
    "embodied": ("ledger",),
}
JSON_VALUES = [
    1e308, -1e308, 1e-320, 10**400, -(10**400), 2**53 + 1, 0, -1, 0.5,
    "", "x", None, True, [], {},
]
CSV_CELLS = ["1e308", "1e-320", "1" + "0" * 400, "nan", "inf", "-1", "", "x", "0.5"]
NESTING_DEPTHS = [1, 3, 100, 1000, 100_000]
_NEST = "\x00nest\x00"

SCHEMA = json.loads(
    importlib.resources.files("carbondef").joinpath("schemas/report.schema.json").read_text("utf-8")
)


def _json_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_paths(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value[:20]):
            yield from _json_paths(item, (*path, index))


def _replace(doc, path, new):
    if not path:
        return new
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = new
    return doc


def _mutate(data: bytes, draw) -> bytes:
    kind = draw(st.sampled_from(["none", "bytes", "value", "nesting", "csv"]))
    if kind == "bytes":
        mutated = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            position = draw(st.integers(0, len(mutated)))
            byte = draw(st.integers(0, 255))
            operation = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
            if operation == "insert" or not mutated:
                mutated.insert(position, byte)
            elif operation == "flip":
                mutated[min(position, len(mutated) - 1)] = byte
            elif operation == "delete":
                del mutated[min(position, len(mutated) - 1)]
            else:
                del mutated[position:]
        return bytes(mutated)
    if kind == "csv":
        lines = data.split(b"\n")
        row = draw(st.integers(0, len(lines) - 1))
        cells = lines[row].split(b",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CSV_CELLS)).encode()
        lines[row] = b",".join(cells)
        return b"\n".join(lines)
    if kind == "none":
        return data
    try:
        doc = json.loads(data)
        path = draw(st.sampled_from(list(_json_paths(doc))))
        if kind == "value":
            return json.dumps(_replace(doc, path, draw(st.sampled_from(JSON_VALUES)))).encode()
        text = json.dumps(_replace(doc, path, _NEST))
    except (ValueError, RecursionError):  # not JSON, or nested too deep to walk here
        return data
    depth = draw(st.sampled_from(NESTING_DEPTHS))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"k": ', "}")]))
    return text.replace(json.dumps(_NEST), opener * depth + "1" + closer * depth).encode()


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_corpus_keeps_the_contract(data):
    draw = data.draw
    command = draw(st.sampled_from(sorted(INPUTS)))
    role = draw(st.sampled_from(INPUTS[command]))
    source = draw(st.sampled_from([BASE[role], *CORPUS]))
    with tempfile.TemporaryDirectory() as directory:
        # beside the inputs, the files the corpus configs name
        directory = Path(shutil.copytree(FIXTURES / "cli", Path(directory) / "run"))
        paths = {}
        for name, base in BASE.items():
            content = _mutate(source.read_bytes(), draw) if name == role else base.read_bytes()
            suffix = source.suffix if name == role else base.suffix
            paths[name] = directory / f"{name}{suffix}"
            paths[name].write_bytes(content)
        # the config names its intensity feed "intensity.json"
        paths["intensity"].rename(directory / "intensity.json")
        args = [command, "--format", "json"]
        for name in INPUTS[command]:
            if name != "intensity":
                args += [f"--{name}", str(paths[name])]
        unreachable = OSError("network access is stubbed out in this test")
        with mock.patch("urllib.request.urlopen", side_effect=unreachable), mock.patch.dict(
            os.environ, {"CARBONDEF_CACHE_DIR": str(directory / "cache")}
        ):
            # any exception but SystemExit propagates out of invoke and fails the example
            result = invoke(args)

    assert result.exit_code in (0, 2, 3), (result.exit_code, result.stderr)
    assert "Traceback" not in result.stdout + result.stderr
    if result.exit_code == 0:
        report = json.loads(result.stdout, parse_constant=_reject_constant)
        jsonschema.validate(report, SCHEMA)
    else:
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
