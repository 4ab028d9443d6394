"""Span recording around the package's layer boundaries, from outside it.

:func:`instrument` swaps wrappers in for the public functions at the
module names the CLI and the ``report`` module call them through, so the
package source stays untouched. Each span keeps its name, start, end and
parent; spans stay in memory until the benchmark writes them to one file,
and :func:`layer_metrics` computes self times from that file.

Span names are ``<layer>.<function>``; a layer's time is the sum of the
self times of its spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable

#: (module the caller looks the name up in, attribute, span name, count of the result)
TARGETS: list[tuple[str, str, str, Callable[[Any], dict[str, float]] | None]] = [
    ("carbondef.cli", "load_config", "ingest.load_config", None),
    ("carbondef.cli", "parse_usage_trace", "ingest.parse_usage_trace", lambda r: {"samples": len(r)}),
    ("carbondef.cli", "parse_ledger", "ingest.parse_ledger", lambda r: {"ledger_records": len(r.records)}),
    ("carbondef.cli", "build_full_report", "report.build_full_report", None),
    ("carbondef.cli", "render_report", "report.render_report", lambda r: {"output_bytes": len(r)}),
    ("carbondef.report", "trace_to_energy_series", "power.trace_to_energy_series", lambda r: {"intervals": len(r)}),
    ("carbondef.report", "clamped_sample_indices", "power.clamped_sample_indices", None),
    ("carbondef.report", "resolve_intensity", "report.resolve_intensity", lambda r: {"feed_entries": len(r.entries)}),
    (
        "carbondef.report",
        "operational_emissions",
        "grid.operational_emissions",
        lambda r: {"segments": len(r.segments), "uncovered_spans": len(r.uncovered)},
    ),
    ("carbondef.grid", "align_segments", "grid.align_segments", None),
    ("carbondef.report", "consumer_embodied", "embodied.consumer_embodied", None),
    ("carbondef.report", "idle_residual", "embodied.idle_residual", None),
]


class Recorder:
    """In-memory spans of one or more in-process runs."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.run = 0

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            span = {
                "run": self.run,
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["counts"] = count(result)
            return result

        return wrapper


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Install the wrappers for the duration of the block.

    A target the package no longer has is skipped; its metrics read 0.
    """
    from carbondef.embodied import Ledger

    saved = []
    try:
        for module_name, attribute, name, count in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attribute):
                continue
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute, recorder.wrap(name, original, count))
        build = Ledger.__dict__.get("build")
        if isinstance(build, classmethod):
            saved.append((Ledger, "build", build))
            Ledger.build = classmethod(recorder.wrap("embodied.ledger_build", build.__func__))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def write_spans(path: Path, runs: list[dict[str, Any]], spans: list[dict[str, Any]]) -> None:
    path.write_text(json.dumps({"runs": runs, "spans": spans}), "utf-8")


def _run_summary(total_s: float, spans: list[dict[str, Any]]) -> dict[str, Any]:
    """Self time per span name, top-level time, call and result counts of one run."""
    child_s = {span["id"]: 0.0 for span in spans}
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    overflows = []
    top_level_s = 0.0
    for span in spans:
        duration = span["end"] - span["start"]
        if child_s[span["id"]] > duration:
            overflows.append(span["name"])
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + duration - child_s[span["id"]]
        calls[span["name"]] = calls.get(span["name"], 0) + 1
        for key, value in span.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        if span["parent"] is None:
            top_level_s += duration
    if top_level_s > total_s:
        overflows.append("cli")
    self_s["cli.self"] = total_s - top_level_s
    return {"self_s": self_s, "calls": calls, "counts": counts, "overflows": overflows}


def layer_time(summary: dict[str, Any], layer: str) -> float:
    return sum(t for name, t in summary["self_s"].items() if name.split(".")[0] == layer)


def layer_metrics(spans_file: Path) -> tuple[dict[str, float], dict[int, list[str]]]:
    """Per-layer metrics from a spans file, and the runs whose spans nest wrongly.

    Each full-size traced run is paired with the untraced and quarter-size
    runs of its round; every metric is the median over rounds.
    """
    doc = json.loads(spans_file.read_text("utf-8"))
    spans_by_run: dict[int, list] = {}
    for span in doc["spans"]:
        spans_by_run.setdefault(span["run"], []).append(span)

    rounds: dict[int, dict[str, Any]] = {}
    for run in doc["runs"]:
        summary = None
        if run["traced"]:
            summary = _run_summary(run["total_s"], spans_by_run.get(run["id"], []))
        rounds.setdefault(run["round"], {})[run["size"] + ("_traced" if run["traced"] else "")] = (
            run,
            summary,
        )

    samples: dict[str, list[float]] = {}
    violations: dict[int, list[str]] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    for number, parts in sorted(rounds.items()):
        full_run, full = parts["full_traced"]
        untraced_run, _ = parts["full"]
        quarter_run, quarter = parts["quarter_traced"]
        for run, summary in ((full_run, full), (quarter_run, quarter)):
            if summary["overflows"]:
                violations[run["id"]] = summary["overflows"]
        s, calls, counts = full["self_s"], full["calls"], full["counts"]
        add("cli.self_s", s.get("cli.self", 0.0))
        add("ingest.load_config_s", s.get("ingest.load_config", 0.0))
        add("ingest.parse_usage_trace_s", s.get("ingest.parse_usage_trace", 0.0))
        add("ingest.parse_ledger_self_s", s.get("ingest.parse_ledger", 0.0))
        add("ingest.samples", counts.get("samples", 0))
        add("ingest.feed_entries", counts.get("feed_entries", 0))
        add("ingest.ledger_records", counts.get("ledger_records", 0))
        add("ingest.input_bytes", full_run["input_bytes"])
        add("power.trace_to_energy_series_s", s.get("power.trace_to_energy_series", 0.0))
        add("power.clamped_sample_indices_s", s.get("power.clamped_sample_indices", 0.0))
        add("grid.align_segments_s", s.get("grid.align_segments", 0.0))
        add("grid.operational_emissions_self_s", s.get("grid.operational_emissions", 0.0))
        add("grid.segments", counts.get("segments", 0))
        add("grid.uncovered_spans", counts.get("uncovered_spans", 0))
        intervals = counts.get("intervals", 0)
        add("grid.segments_per_interval", counts.get("segments", 0) / intervals if intervals else 0.0)
        add("embodied.ledger_build_s", s.get("embodied.ledger_build", 0.0))
        add("embodied.idle_residual_s", s.get("embodied.idle_residual", 0.0))
        add("embodied.idle_residual_calls", calls.get("embodied.idle_residual", 0))
        add("embodied.consumer_embodied_s", s.get("embodied.consumer_embodied", 0.0))
        add("report.resolve_intensity_s", s.get("report.resolve_intensity", 0.0))
        add("report.build_self_s", s.get("report.build_full_report", 0.0))
        add("report.render_s", s.get("report.render_report", 0.0))
        add("report.output_bytes", counts.get("output_bytes", 0))
        for layer in ("power", "grid", "embodied", "report"):
            small = layer_time(quarter, layer)
            add(f"{layer}.growth_4x", layer_time(full, layer) / small if small > 0 else 0.0)
        add("trace.overhead_ratio", full_run["total_s"] / untraced_run["total_s"])

    return {name: median(values) for name, values in samples.items()}, violations

