"""Command-line entry points.

All four commands run one path: load the config, trace and ledger the
command takes, build its report with ``report.build_report``, drop the
inputs and render. Exit codes: 0 success, 2 validation errors, 3 IO or
network errors. Every report check runs as the report is built; it then
streams block by block, and only an IO error can stop it. That can leave
partial output on stdout, never in a regular ``--out`` file: it is rendered
into a temporary file beside it, renamed over it and keeps its mode.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import stat
import sys
from pathlib import Path

import click

from . import __version__
from .errors import TransportError, ValidationError
from .ingest import load_config, parse_ledger, parse_usage_trace, write_atomic
# under the name the benchmark's span wrappers look it up by
from .report import build_report as build_full_report
from .report import render_report, sha256_hex

EXIT_VALIDATION = 2
EXIT_IO = 3


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _emit(report: dict, output: str, out_path: str | None) -> None:
    if out_path is None:
        render_report(report, output, sys.stdout.buffer)
        sys.stdout.buffer.flush()
        return
    path = Path(out_path)
    try:
        mode = path.lstat().st_mode
    except FileNotFoundError:  # a new file: 0666 less the umask, as open() would make it
        os.umask(umask := os.umask(0))  # reading the umask means setting it
        mode = stat.S_IFREG | 0o666 & ~umask
    if stat.S_ISREG(mode):
        write_atomic(path, lambda handle: render_report(report, output, handle), stat.S_IMODE(mode))
    else:  # a symlink, device or FIFO: the rename would replace it, not write to it
        with path.open("wb") as handle:
            render_report(report, output, handle)


def _load(parse, path: str, **options):
    """(parsed input, digest of its bytes); the bytes are freed on return."""
    data = Path(path).read_bytes()
    return parse(data, **options), sha256_hex(data)


def _run(
    report_type: str,
    config_path: str | None = None,
    trace_path: str | None = None,
    ledger_path: str | None = None,
    consumer_id: str | None = None,
    fmt: str | None = None,
    out_path: str | None = None,
    clamp_usage: bool = False,
    strict_coverage: bool = False,
) -> None:
    """The one command body: each input is loaded when the command takes it."""
    # the data holds no cycles: refcounting frees it, cyclic GC would only re-walk it
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        config = trace = trace_digest = ledger = ledger_digest = None
        if config_path is not None:
            config = load_config(config_path)
            if clamp_usage:
                config = dataclasses.replace(config, clamp_usage=True)
            if strict_coverage:
                config = dataclasses.replace(config, coverage_policy="strict")
        if trace_path is not None:
            trace_format = "json" if trace_path.endswith(".json") else "csv"
            trace, trace_digest = _load(parse_usage_trace, trace_path, format=trace_format)
        if ledger_path is not None:
            ledger, ledger_digest = _load(parse_ledger, ledger_path)
            if consumer_id is not None and consumer_id not in ledger.consumer_ids():
                click.echo(f"warning: consumer {consumer_id!r} has no records; reporting 0 kg", err=True)
        report = build_full_report(report_type, config, trace, trace_digest, ledger, ledger_digest, consumer_id)
        del trace, ledger  # rendering needs only the report, which shares the trace's start and duration lists
        _emit(report, fmt or (config.output if config else "json"), out_path)
    except ValidationError as exc:
        _fail(str(exc), EXIT_VALIDATION)
    except (TransportError, OSError) as exc:
        _fail(str(exc), EXIT_IO)
    finally:
        if gc_enabled:
            gc.enable()


_OPTIONS = {
    "config": click.option("--config", "config_path", required=True, help="Run config JSON."),
    "trace": click.option("--trace", "trace_path", required=True, help="Usage trace (CSV or JSON)."),
    "ledger": click.option("--ledger", "ledger_path", required=True, help="Embodied ledger JSON."),
    "consumer": click.option("--consumer", "consumer_id", default=None, help="Restrict to one consumer."),
    "format": click.option(
        "--format", "fmt", type=click.Choice(["json", "csv"]), default=None,
        help="Report format (default: the config's output, else json).",
    ),
    "out": click.option("--out", "out_path", default=None, help="Write report here instead of stdout."),
    "clamp": click.option("--clamp-usage", is_flag=True, help="Clamp usage above u_max instead of failing."),
    "strict": click.option("--strict-coverage", is_flag=True, help="Fail on intensity coverage gaps."),
}


def _options(*names: str):
    """Apply the shared click options ``names``, listed in --help order."""
    def decorate(command):
        for name in reversed(names):
            command = _OPTIONS[name](command)
        return command
    return decorate


@click.group()
@click.version_option(__version__)
def main():
    """Estimate the carbon footprint of software workloads."""


@main.command()
@_options("config", "trace", "format", "out", "clamp")
def estimate(**options):
    """Convert a usage trace into a per-interval energy report."""
    _run("estimate", **options)


@main.command()
@_options("config", "trace", "format", "out", "clamp", "strict")
def emissions(**options):
    """Operational emissions: energy integrated against grid intensity."""
    _run("emissions", **options)


@main.command()
@_options("ledger", "consumer", "format", "out")
def embodied(**options):
    """Embodied-carbon attributions and idle residuals from a ledger."""
    _run("embodied", **options)


@main.command()
@_options("config", "trace", "ledger", "consumer", "format", "out", "clamp", "strict")
def report(**options):
    """Full pipeline: energy, operational, embodied, total carbon, SCI."""
    _run("report", **options)


if __name__ == "__main__":
    main()
