"""Seeded input generator for the `carbondef report` benchmark workloads.

Each workload is a function of (seed, scale). ``scale=4`` divides every
size by four: it is the quarter-size input of the growth probe. The
generated inputs are plain Python values; :func:`write_inputs` turns them
into the files the program reads, and ``reference.py`` recomputes the
expected totals from the same values without using the package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

JOULES_PER_KWH = 3.6e6
FEED_STEP_S = 1800
HALF_DAY_S = 43200
REGION = "bench-grid"

SERVER = {
    "tdp_watts": 120.0,
    "n_cpu": 2,
    "alpha": {"cpu": 0.55, "mem": 0.25, "io": 0.12, "net": 0.08},
    "u_max": {"cpu": 16.0, "mem": 128e9, "io": 2e12, "net": 1e12},
    "idle_watts": 35.0,
}
PUE = 1.4

TRACE_HEADER = "timestamp_utc,duration_s,u_cpu_cores,u_mem_bytes,u_io_bytes,u_net_bytes"

#: one line per workload: sizes at scale 1 and why the workload exists
WORKLOADS = {
    "trace_heavy": (
        "100k 15 s samples (CSV), gap-free 30 min feed, 4-object ledger, strict, JSON out: "
        "trace parse, energy, alignment and JSON rendering dominate; embodied idles"
    ),
    "ledger_heavy": (
        "1,600 objects x 10 records (16k records, 50 consumers), 96-sample day: "
        "ledger parse, Ledger.build and idle_residual dominate; trace layers idle"
    ),
    "misaligned_csv": (
        "50k JSON samples of 300/420/600 s with gaps, offset feed with holes from a fresh cache, "
        "skip_uncovered, clamping, CSV out: split intervals and CSV rendering"
    ),
}


@dataclass
class Workload:
    """Generated inputs of one workload plus the CLI flags it runs with."""

    name: str
    samples: list[tuple[int, float, float, float, float, float]]
    trace_format: str
    feed: list[tuple[int, int, float]]
    objects: list[dict]
    records: list[dict]
    coverage_policy: str
    intensity: str  # "file" or "endpoint"
    #: every workload passes --clamp-usage, so the clamp scan is timed
    #: everywhere; only misaligned_csv has rows above u_max
    flags: list[str]
    output: str = "json"

    @property
    def window(self) -> tuple[int, int]:
        first, last = self.samples[0], self.samples[-1]
        return first[0], int(last[0] + last[1])


def _usage(rng: random.Random, cpu_max: float) -> tuple[float, float, float, float]:
    limits = SERVER["u_max"]
    return (
        rng.uniform(0.0, cpu_max),
        rng.uniform(0.1, 0.9) * limits["mem"],
        rng.uniform(0.0, 0.5) * limits["io"],
        rng.uniform(0.0, 0.5) * limits["net"],
    )


def _feed(rng: random.Random, origin: int, end: int, drop: float = 0.0) -> list[tuple[int, int, float]]:
    entries = []
    start = origin
    while start < end:
        value = rng.uniform(0.05, 0.6)
        if rng.random() >= drop:
            entries.append((start, start + FEED_STEP_S, value))
        start += FEED_STEP_S
    return entries


def _ledger(
    rng: random.Random, n_objects: int, records_per_object: int, n_consumers: int, t0: int
) -> tuple[list[dict], list[dict]]:
    """Objects with four-year lifespans; each record claims three half-days.

    Fractions stay at or below 0.09, so ten records can never push an
    object past full use: every generated ledger is valid.
    """
    lifespan_s = 4 * 365 * 86400
    objects, records = [], []
    for index in range(n_objects):
        object_id = f"obj-{index:05d}"
        objects.append(
            {
                "id": object_id,
                "m_kg": rng.uniform(100.0, 2000.0),
                "r_kg": rng.uniform(0.0, 300.0),
                "eol_kg": rng.uniform(10.0, 100.0),
                "lifespan_start": t0,
                "lifespan_s": lifespan_s,
            }
        )
        for _ in range(records_per_object):
            days = sorted(rng.sample(range(lifespan_s // 86400 - 1), 3))
            profile = []
            for day in days:
                start = t0 + day * 86400 + rng.choice((0, HALF_DAY_S))
                profile.append(
                    {"start": start, "end": start + HALF_DAY_S, "fraction": rng.uniform(0.01, 0.09)}
                )
            records.append(
                {
                    "consumer_id": f"svc-{rng.randrange(n_consumers):03d}",
                    "object_id": object_id,
                    "profile": profile,
                }
            )
    return objects, records


def _trace_heavy(rng: random.Random, scale: int) -> Workload:
    n_samples = 100_000 // scale
    grid0 = 1_700_006_400 + FEED_STEP_S * rng.randrange(48)
    t0 = grid0 + rng.randrange(1, FEED_STEP_S)
    samples = [
        (t0 + 15 * index, 15.0, *_usage(rng, SERVER["u_max"]["cpu"]))
        for index in range(n_samples)
    ]
    feed = _feed(rng, grid0, t0 + 15 * n_samples)
    objects, records = _ledger(rng, max(1, 4 // scale), 2, 3, t0 - 86400 * 30)
    return Workload(
        "trace_heavy", samples, "csv", feed, objects, records,
        coverage_policy="strict", intensity="file", flags=["--strict-coverage", "--clamp-usage"],
    )


def _ledger_heavy(rng: random.Random, scale: int) -> Workload:
    day0 = 1_700_006_400
    n_samples = 96 // scale
    samples = [
        (day0 + 900 * index, 900.0, *_usage(rng, SERVER["u_max"]["cpu"]))
        for index in range(n_samples)
    ]
    feed = _feed(rng, day0, day0 + 900 * n_samples)
    objects, records = _ledger(rng, 1600 // scale, 10, 50 // scale, day0 - 86400 * 400)
    return Workload(
        "ledger_heavy", samples, "csv", feed, objects, records,
        coverage_policy="strict", intensity="file", flags=["--clamp-usage"],
    )


def _misaligned_csv(rng: random.Random, scale: int) -> Workload:
    """Variable durations, hour-long gaps, an offset feed with holes, clamping."""
    n_samples = 50_000 // scale
    t0 = 1_700_006_400 + rng.randrange(86400)
    cpu_max = SERVER["u_max"]["cpu"]
    samples = []
    start = t0
    for _ in range(n_samples):
        duration = rng.choice((300, 420, 600))
        over = rng.random() < 0.05
        cpu, mem, io, net = _usage(rng, cpu_max)
        if over:
            cpu = rng.uniform(1.05, 1.5) * cpu_max
        samples.append((start, float(duration), cpu, mem, io, net))
        start += duration
        if rng.random() < 0.01:
            start += 3600
    feed = _feed(rng, t0 + 1000 - FEED_STEP_S, start, drop=0.03)
    objects, records = _ledger(rng, max(1, 4 // scale), 2, 3, t0 - 86400 * 30)
    return Workload(
        "misaligned_csv", samples, "json", feed, objects, records,
        coverage_policy="skip_uncovered", intensity="endpoint",
        flags=["--clamp-usage", "--format", "csv"], output="csv",
    )


_GENERATORS = {
    "trace_heavy": _trace_heavy,
    "ledger_heavy": _ledger_heavy,
    "misaligned_csv": _misaligned_csv,
}


def generate(name: str, seed: int, scale: int = 1) -> Workload:
    """The inputs of workload ``name``; the same seed gives the same inputs."""
    return _GENERATORS[name](random.Random(f"{name}:{seed}:{scale}"), scale)


def feed_document(workload: Workload) -> dict:
    return {
        "region": REGION,
        "entries": [
            {"start": start, "end": end, "intensity_kg_per_kwh": value}
            for start, end, value in workload.feed
        ],
    }


def write_inputs(workload: Workload, directory: Path, endpoint: str | None = None) -> dict[str, Path]:
    """Write config, trace, ledger and (file source) feed; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "config": directory / "config.json",
        "trace": directory / f"trace.{workload.trace_format}",
        "ledger": directory / "ledger.json",
    }
    if workload.trace_format == "csv":
        lines = [TRACE_HEADER]
        lines.extend(
            f"{start},{duration!r},{cpu!r},{mem!r},{io!r},{net!r}"
            for start, duration, cpu, mem, io, net in workload.samples
        )
        paths["trace"].write_text("\n".join(lines) + "\n", "utf-8")
    else:
        samples = [
            {
                "start": start,
                "duration_s": duration,
                "u_cpu_cores": cpu,
                "u_mem_bytes": mem,
                "u_io_bytes": io,
                "u_net_bytes": net,
            }
            for start, duration, cpu, mem, io, net in workload.samples
        ]
        paths["trace"].write_text(json.dumps({"samples": samples}), "utf-8")

    if workload.intensity == "file":
        paths["feed"] = directory / "feed.json"
        paths["feed"].write_text(json.dumps(feed_document(workload)), "utf-8")
        intensity = {"file": "feed.json"}
    else:
        if endpoint is None:
            raise ValueError(f"{workload.name} needs an intensity endpoint")
        intensity = {"endpoint": endpoint, "region": REGION}

    config = {
        "server": SERVER,
        "pue": PUE,
        "intensity": intensity,
        "coverage_policy": workload.coverage_policy,
        "functional_unit": {"name": "api_call", "count": 1e6},
    }
    paths["config"].write_text(json.dumps(config, indent=2), "utf-8")
    paths["ledger"].write_text(
        json.dumps({"objects": workload.objects, "records": workload.records}), "utf-8"
    )
    return paths
