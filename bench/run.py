#!/usr/bin/env python3
"""Benchmark of the whole `carbondef report` command.

    python3 bench/run.py --workload trace_heavy --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. The workload's inputs are
generated from ``--seed`` into ``.bench_work/`` (removed at exit).

``--trace 0`` runs ``python -m carbondef.cli report`` as a child process
(``PYTHONPATH=src``) back to back for ``--seconds`` seconds and reports
the median peak RSS per child, the median wall time per child divided by
that of ``REFERENCE_JOB`` run just before it (``wall_per_ref``; the raw
``wall_s`` is printed too), and the median cold start of
``python -m carbondef.cli --version`` (``setup_s``), one taken before each
report run. ``README.md`` explains the choice of metrics.

``--trace 1`` runs the same command in-process, with and without span
wrappers (see ``spans.py``), at full and quarter size, and reports the
per-layer metrics.

Every output is checked outside the timed region (exit code, schema,
identical digests across repeats, totals against ``reference.py``); a run
failing any check counts in ``failed``. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import http.server
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import gen
import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = SRC / "carbondef" / "schemas" / "report.schema.json"
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"

#: a hung child is killed in time for the whole run to end within 180 s
CHILD_TIMEOUT_S = 120.0
#: the program serves a cache entry for 1,800 s; re-fill well before that
CACHE_FRESH_S = 1800.0 - 300.0
#: a fixed stdlib-only job, timed in a fresh interpreter just before each
#: report run; the report's wall time is also given in units of it, which
#: cancels most of the speed drift of a shared machine
REFERENCE_JOB = [sys.executable, "-c", """
import csv, io, json
rows = [{"start": i, "kwh": i * 0.37, "id": f"obj-{i}"} for i in range(40000)]
text = json.dumps(rows)
csv.writer(io.StringIO()).writerows([r["start"], r["kwh"], r["id"]] for r in json.loads(text))
"""]
PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy", "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY")


class FeedStub(http.server.ThreadingHTTPServer):
    """Loopback intensity endpoint: one canned feed per URL path, requests counted."""

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _FeedHandler)
        self.feeds: dict[str, bytes] = {}
        self.hits = 0
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)

    def endpoint(self, path: str) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}{path}"

    def __enter__(self) -> FeedStub:
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join()


class _FeedHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        self.server.hits += 1
        body = self.server.feeds.get(urllib.parse.urlsplit(self.path).path)
        if body is None:
            self.send_error(404)
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@dataclass
class Inputs:
    """One generated input set on disk, with its expected totals."""

    workload: gen.Workload
    paths: dict[str, Path]
    expected: reference.Expected
    directory: Path
    endpoint: str | None

    @property
    def cache_dir(self) -> Path:
        return self.directory / "cache"

    @property
    def out(self) -> Path:
        return self.directory / f"report.{self.workload.output}"

    def argv(self) -> list[str]:
        return [
            "report",
            "--config", str(self.paths["config"]),
            "--trace", str(self.paths["trace"]),
            "--ledger", str(self.paths["ledger"]),
            "--out", str(self.out),
            *self.workload.flags,
        ]

    def input_bytes(self) -> int:
        files = list(self.paths.values()) + list(self.cache_dir.glob("*.json"))
        return sum(path.stat().st_size for path in files)

    def ensure_fresh_cache(self) -> None:
        """Keep the intensity cache entry fresh, re-filling it through the package."""
        if self.endpoint is None:
            return
        entries = list(self.cache_dir.glob("*.json"))
        if len(entries) == 1:
            try:
                entry = json.loads(entries[0].read_text("utf-8"))
                window = self.workload.window
                if (
                    time.time() - entry["fetched_at"] <= CACHE_FRESH_S
                    and entry["window"]["start"] <= window[0]
                    and entry["window"]["end"] >= window[1]
                ):
                    return
            except (OSError, ValueError, KeyError, TypeError):
                pass
        for path in entries:
            path.unlink()
        from carbondef.ingest import fetch_intensity

        # the exact window resolve_intensity requests: the trace's own span
        fetch_intensity(self.endpoint, gen.REGION, self.workload.window, self.cache_dir)


def prepare(name: str, seed: int, scale: int, stub: FeedStub, directory: Path) -> Inputs:
    """Generate, write and (endpoint source) cache one input set under ``directory``."""
    workload = gen.generate(name, seed, scale)
    endpoint = None
    if workload.intensity == "endpoint":
        path = f"/scale{scale}/intensity"
        stub.feeds[path] = json.dumps(gen.feed_document(workload)).encode("utf-8")
        endpoint = stub.endpoint(path)
    paths = gen.write_inputs(workload, directory, endpoint)
    inputs = Inputs(workload, paths, reference.expected_totals(workload), directory, endpoint)
    inputs.cache_dir.mkdir()
    inputs.ensure_fresh_cache()
    return inputs


def digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def child_env(inputs: Inputs) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), CARBONDEF_CACHE_DIR=str(inputs.cache_dir))


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "carbondef.cli", *args]


class Launcher:
    """Child processes spawned by ``launcher.py``."""

    def __enter__(self) -> Launcher:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def run(self, argv: list[str], env: dict[str, str], stderr_path: Path) -> tuple[float, float, int]:
        """Wall seconds, peak RSS in MB and exit code of one child process."""
        job = {
            "argv": argv,
            "cwd": str(ROOT),
            "env": env,
            "stderr": str(stderr_path),
            "timeout_s": CHILD_TIMEOUT_S,
        }
        self._proc.stdin.write(json.dumps(job) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited early")
        result = json.loads(line)
        return result["wall_s"], result["rss_mb"], result["code"]

    def __exit__(self, *exc_info) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def check_runs(inputs: Inputs, runs: list[dict], kept: Path | None, schema_check) -> list[str]:
    """Mark each run ok or not; the first good output stands for equal digests."""
    problems: list[str] = []
    good = None
    if kept is not None:
        report_problems = reference.check_report(
            kept.read_bytes(), inputs.workload.output, inputs.expected, schema_check
        )
        problems += report_problems
        if not report_problems:
            good = digest(kept)
    for run in runs:
        reasons = []
        if run["code"] != 0:
            reasons.append(f"exit code {run['code']}")
        elif run["digest"] != good:
            reasons.append("output differs from the checked report" if good else "report failed checks")
        if run.get("stub_hits"):
            reasons.append(f"{run['stub_hits']} intensity fetch(es) bypassed the fresh cache")
        run["ok"] = not reasons
        problems += [f"run {run['id']}: {reason}" for reason in reasons]
    return problems


def measure_command(inputs: Inputs, seconds: float, stub: FeedStub, schema_check) -> tuple[dict, list[dict], list[str]]:
    env = child_env(inputs)
    err = inputs.directory / "stderr.txt"
    runs: list[dict] = []
    problems: list[str] = []
    kept = None
    setup: list[tuple[float, float, int]] = []
    with Launcher() as launcher:
        launcher.run(cli_argv("--version"), env, err)  # compiles bytecode once; not counted
        started = time.perf_counter()
        # cold starts interleave with the report runs, so both see the same machine drift
        while not runs or time.perf_counter() - started < seconds:
            setup.append(launcher.run(cli_argv("--version"), env, err))
            reference_s, _, reference_code = launcher.run(REFERENCE_JOB, env, err)
            inputs.ensure_fresh_cache()
            inputs.out.unlink(missing_ok=True)
            hits = stub.hits
            wall, rss, code = launcher.run(cli_argv(*inputs.argv()), env, err)
            run = {"id": len(runs), "wall_s": wall, "reference_s": reference_s, "rss_mb": rss,
                   "code": code, "digest": digest(inputs.out), "stub_hits": stub.hits - hits}
            if code != 0:
                sys.stderr.write(err.read_text("utf-8", errors="replace"))
            elif kept is None:
                kept = inputs.out.rename(inputs.directory / f"kept.{inputs.workload.output}")
            if reference_code != 0:
                problems.append(f"reference job exited {reference_code}")
            runs.append(run)

    problems += check_runs(inputs, runs, kept, schema_check)
    problems += [f"--version exited {code}" for _, _, code in setup if code != 0]
    metrics = {
        "wall_per_ref": median(r["wall_s"] / r["reference_s"] for r in runs),
        "peak_rss_mb": median(r["rss_mb"] for r in runs),
        "setup_s": median(wall for wall, _, _ in setup),
    }
    print(f"wall_s {median(r['wall_s'] for r in runs):.4f} s: median of {len(runs)} report runs:",
          " ".join(f"{r['wall_s']:.3f}" for r in runs))
    print("reference job s:", " ".join(f"{r['reference_s']:.3f}" for r in runs))
    print(f"setup_s: median of {len(setup)} cold starts:", " ".join(f"{wall:.3f}" for wall, _, _ in setup))
    return metrics, runs, problems


def call_cli(argv: list[str]) -> int:
    from carbondef import cli

    try:
        cli.main(argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # any crash is a failed run, reported below
        print(f"in-process run raised {exc!r}", file=sys.stderr)
        return 1
    return 0


def timed_call(argv: list[str]) -> tuple[int, float]:
    started = time.perf_counter()
    code = call_cli(argv)
    return code, time.perf_counter() - started


def measure_layers(
    full: Inputs, quarter: Inputs, seconds: float, stub: FeedStub, schema_check, spans_file: Path
) -> tuple[dict, list[dict], list[str]]:
    recorder = spans.Recorder()
    runs: list[dict] = []
    kept: dict[str, Path] = {}
    started = time.perf_counter()
    round_number = 0
    while not runs or time.perf_counter() - started < seconds:
        for inputs, size, traced in ((full, "full", False), (full, "full", True), (quarter, "quarter", True)):
            inputs.ensure_fresh_cache()
            inputs.out.unlink(missing_ok=True)
            os.environ["CARBONDEF_CACHE_DIR"] = str(inputs.cache_dir)
            gc.collect()
            recorder.run = len(runs)
            hits = stub.hits
            if traced:
                with spans.instrument(recorder):
                    code, total = timed_call(inputs.argv())
            else:
                code, total = timed_call(inputs.argv())
            runs.append({"id": len(runs), "round": round_number, "size": size, "traced": traced,
                         "total_s": total, "code": code, "digest": digest(inputs.out),
                         "stub_hits": stub.hits - hits, "input_bytes": inputs.input_bytes()})
            if code == 0 and size not in kept:
                kept[size] = inputs.out.rename(inputs.directory / f"kept.{inputs.workload.output}")
        round_number += 1

    spans.write_spans(spans_file, runs, recorder.spans)
    metrics, violations = spans.layer_metrics(spans_file)

    problems = []
    for inputs, size in ((full, "full"), (quarter, "quarter")):
        problems += check_runs(inputs, [r for r in runs if r["size"] == size], kept.get(size), schema_check)
    for run_id, names in violations.items():
        runs[run_id]["ok"] = False
        problems.append(f"run {run_id}: child spans outlast their parent in {names}")
    print(f"per-layer metrics: median of {round_number} rounds (untraced, traced, quarter-size traced)")
    return metrics, runs, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "carbondef" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no carbondef source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in PROXY_VARS:  # the stub is on loopback; never route it through a proxy
        os.environ.pop(name, None)
    schema_check = reference.compile_schema(json.loads(SCHEMA.read_text("utf-8")))

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        with FeedStub() as stub:
            full = prepare(args.workload, args.seed, 1, stub, WORK / "full")
            if args.trace:
                quarter = prepare(args.workload, args.seed, 4, stub, WORK / "quarter")
                metrics, runs, problems = measure_layers(
                    full, quarter, args.seconds, stub, schema_check, WORK / "spans.json"
                )
            else:
                metrics, runs, problems = measure_command(full, args.seconds, stub, schema_check)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    listed = json.loads(BENCHMARK.read_text("utf-8"))["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {metric["name"] for metric in listed}:
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from those in {BENCHMARK.name}")
    failed = sum(not run["ok"] for run in runs)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for metric in listed:
        print(f"{metric['name']:34} {metrics[metric['name']]:14.6g} {metric['unit']}")
    print(f"{'failed_ratio':34} {failed / len(runs):14.6g} 1  ({failed} of {len(runs)} runs)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
