"""The first fault each JSON parser reports, pinned over a seeded corpus.

Every document starts from a fixture (the run config with a file source and
with an endpoint source, the ledger, the intensity feed and the JSON trace)
and gets one to three mutations, each deleting a key or setting it to one of
``MUTANT_VALUES``. The (class name, message) of each parse, or ``"ok"``, must
equal ``fault_order.json``: any change to which fault a parser reports first,
or how it words and locates it, shows up as a named document.

``fault_order.json`` was written once, before the parsers shared one field
reader, by ``PYTHONPATH=src python tests/test_fault_order.py``; it is not to
be rewritten to make a parser change pass.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path
from typing import Any

import pytest

from carbondef.ingest import parse_config, parse_intensity_feed, parse_ledger, parse_usage_trace

from support import FIXTURES

GOLDEN = Path(__file__).parent / "fault_order.json"
DOCUMENTS_PER_BASE = 400
MUTANT_VALUES = ("x", True, None, [], {}, 2.5, -1, 2**60)
DELETE = object()


def _endpoint_config() -> dict:
    config = json.loads((FIXTURES / "cli" / "config.json").read_text())
    config["intensity"] = {"endpoint": "http://localhost:8000/feed", "region": "NL"}
    return config


BASES = {
    "config_file": (lambda: json.loads((FIXTURES / "cli" / "config.json").read_text()), parse_config),
    "config_endpoint": (_endpoint_config, parse_config),
    "ledger": (lambda: json.loads((FIXTURES / "cli" / "ledger.json").read_text()), parse_ledger),
    "feed": (lambda: json.loads((FIXTURES / "canonical" / "intensity.json").read_text()), parse_intensity_feed),
    "trace_json": (lambda: json.loads((FIXTURES / "canonical" / "trace.json").read_text()),
                   lambda data: parse_usage_trace(data, "json")),
}


def _key_paths(node: Any, path: tuple = ()) -> list[tuple]:
    """Paths of every object member, depth first: each ends in a key."""
    paths = []
    if isinstance(node, dict):
        for key, value in node.items():
            paths.append((*path, key))
            paths.extend(_key_paths(value, (*path, key)))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            paths.extend(_key_paths(value, (*path, index)))
    return paths


def mutated_documents(name: str) -> list[bytes]:
    build, _ = BASES[name]
    base = build()
    rng = random.Random(f"fault-order/{name}")
    documents = []
    for _ in range(DOCUMENTS_PER_BASE):
        doc = copy.deepcopy(base)
        for _ in range(rng.randint(1, 3)):
            paths = _key_paths(doc)
            if not paths:
                break
            *parents, key = rng.choice(paths)
            parent = doc
            for step in parents:
                parent = parent[step]
            value = rng.choice((DELETE, *MUTANT_VALUES))
            if value is DELETE:
                del parent[key]
            else:
                parent[key] = copy.deepcopy(value)
        documents.append(json.dumps(doc).encode("utf-8"))
    return documents


def outcome(parse, data: bytes) -> list[str] | str:
    try:
        parse(data)
    except Exception as exc:  # the class is part of what is pinned
        return [type(exc).__name__, str(exc)]
    return "ok"


def outcomes(name: str) -> list:
    _, parse = BASES[name]
    return [outcome(parse, data) for data in mutated_documents(name)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_names_every_base(golden):
    assert sorted(golden) == sorted(BASES)


@pytest.mark.parametrize("name", sorted(BASES))
def test_first_fault_unchanged(name, golden):
    documents = mutated_documents(name)
    for index, (data, expected) in enumerate(zip(documents, golden[name], strict=True)):
        assert outcome(BASES[name][1], data) == expected, f"{name} document {index}: {data.decode()}"


if __name__ == "__main__":
    result = {name: outcomes(name) for name in sorted(BASES)}
    GOLDEN.write_text(json.dumps(result, indent=0, sort_keys=True, ensure_ascii=False) + "\n")
    print(f"wrote {sum(map(len, result.values()))} documents to {GOLDEN}", file=sys.stderr)
