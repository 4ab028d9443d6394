"""Byte identity of every command's output on the committed fixtures.

Each case runs one CLI command in-process and compares its exit code and the
sha256 of its stdout and stderr with ``cli_digests.json``: any change to a
report byte, an error message or an exit code shows up as a named case.
The cases are the ``tests/fixtures/cli`` inputs (traces x json/csv x
--clamp-usage/--strict-coverage) and every malformed fixture.

After a deliberate output change, rewrite the digest file with
``PYTHONPATH=src python tests/test_digests.py`` and say why in the change log.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from support import FIXTURES, MALFORMED, invoke

DIGESTS = Path(__file__).parent / "cli_digests.json"
CONFIGS = ("cli/config.json", "cli/config_gap_strict.json", "cli/config_skip.json")
TRACES = ("cli/trace_empty.csv", "cli/trace_full_load.csv", "cli/trace_malformed.csv", "cli/trace_over_max.csv")
FLAGS = ((), ("--clamp-usage",), ("--strict-coverage",), ("--clamp-usage", "--strict-coverage"))
FORMATS = ("json", "csv")
MALFORMED_ARGS = {
    "trace_csv": lambda path: ["estimate", "--config", "cli/config.json", "--trace", path],
    "trace_json": lambda path: ["estimate", "--config", "cli/config.json", "--trace", path],
    "ledger": lambda path: ["embodied", "--ledger", path],
    "config": lambda path: ["estimate", "--config", path, "--trace", "cli/trace_full_load.csv"],
}


def cases() -> list[list[str]]:
    """argv lists, paths relative to the fixtures directory."""
    out = []
    for trace, fmt, clamp in itertools.product(TRACES, FORMATS, FLAGS[:2]):
        out.append(["estimate", "--config", CONFIGS[0], "--trace", trace, "--format", fmt, *clamp])
    for command, config, trace, fmt, flags in itertools.product(("emissions", "report"), CONFIGS, TRACES, FORMATS, FLAGS):
        ledger = ["--ledger", "cli/ledger.json"] if command == "report" else []
        out.append([command, "--config", config, "--trace", trace, *ledger, "--format", fmt, *flags])
    for consumer, fmt in itertools.product((None, "svc-a", "svc-unknown"), FORMATS):
        out.append(["embodied", "--ledger", "cli/ledger.json", "--format", fmt,
                    *(["--consumer", consumer] if consumer else [])])
    for filename, kind, _, _ in MALFORMED:
        if kind in MALFORMED_ARGS:
            out.append(MALFORMED_ARGS[kind](f"malformed/{filename}"))
        else:  # an intensity feed, through a config written next to the run
            out.append(["emissions", "--config", f"intensity={filename}", "--trace", "cli/trace_full_load.csv"])
    return out


def run_case(argv: list[str], scratch: Path) -> list:
    """[exit code, sha256 of stdout, sha256 of stderr] of one in-process run."""
    argv = list(argv)
    if argv[2].startswith("intensity="):
        config = json.loads((FIXTURES / "cli" / "config.json").read_text())
        config["intensity"]["file"] = str(FIXTURES / "malformed" / argv[2].removeprefix("intensity="))
        argv[2] = str(scratch / "config.json")
        Path(argv[2]).write_text(json.dumps(config))
    result = invoke(argv)
    return [result.exit_code, hashlib.sha256(result.stdout_bytes).hexdigest(),
            hashlib.sha256(result.stderr_bytes).hexdigest()]


def case_id(argv: list[str]) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def expected():
    return json.loads(DIGESTS.read_text())


def test_digest_file_names_every_case(expected):
    assert sorted(expected) == sorted(map(case_id, cases()))


@pytest.mark.parametrize("argv", cases(), ids=case_id)
def test_output_bytes_unchanged(argv, expected, monkeypatch, tmp_path):
    monkeypatch.chdir(FIXTURES)
    assert run_case(argv, tmp_path) == expected[case_id(argv)]


if __name__ == "__main__":
    import os
    import tempfile

    os.chdir(FIXTURES)
    with tempfile.TemporaryDirectory() as scratch:
        digests = {case_id(argv): run_case(argv, Path(scratch)) for argv in cases()}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} cases to {DIGESTS}", file=sys.stderr)
