"""Command-line entry points.

Exit codes: 0 success, 2 validation errors, 3 IO or network errors.
Reports are rendered fully, then a regular ``--out`` file is replaced by a
rename that keeps its mode, so a failing run never leaves a partial file.
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
from .report import (
    build_embodied_report,
    build_emissions_report,
    build_estimate_report,
    build_full_report,
    render_report,
    sha256_hex,
)

EXIT_VALIDATION = 2
EXIT_IO = 3


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _run(action):
    # the data holds no cycles: refcounting frees it, cyclic GC would only re-walk it
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        action()
    except ValidationError as exc:
        _fail(str(exc), EXIT_VALIDATION)
    except (TransportError, OSError) as exc:
        _fail(str(exc), EXIT_IO)
    finally:
        if gc_enabled:
            gc.enable()


def _emit(data: bytes, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    path = Path(out_path)
    try:
        mode = path.lstat().st_mode
    except FileNotFoundError:  # a new file: 0666 less the umask, as open() would make it
        os.umask(umask := os.umask(0))  # reading the umask means setting it
        mode = stat.S_IFREG | 0o666 & ~umask
    if stat.S_ISREG(mode):
        write_atomic(path, data, stat.S_IMODE(mode))
    else:  # a symlink, device or FIFO: the rename would replace it, not write to it
        path.write_bytes(data)


def _trace_format(path: str) -> str:
    return "json" if path.endswith(".json") else "csv"


def _load_trace(path: str):
    """(trace, digest); drop the trace once the report is built, before rendering (the RSS peak)."""
    data = Path(path).read_bytes()
    return parse_usage_trace(data, format=_trace_format(path)), sha256_hex(data)


def _load_ledger(path: str):
    data = Path(path).read_bytes()
    return parse_ledger(data), sha256_hex(data)


def _apply_overrides(config, clamp_usage: bool, strict_coverage: bool = False):
    if clamp_usage:
        config = dataclasses.replace(config, clamp_usage=True)
    if strict_coverage:
        config = dataclasses.replace(config, coverage_policy="strict")
    return config


@click.group()
@click.version_option(__version__)
def main():
    """Estimate the carbon footprint of software workloads."""


@main.command()
@click.option("--config", "config_path", required=True, help="Run config JSON.")
@click.option("--trace", "trace_path", required=True, help="Usage trace (CSV or JSON).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default=None)
@click.option("--out", "out_path", default=None, help="Write report here instead of stdout.")
@click.option("--clamp-usage", is_flag=True, help="Clamp usage above u_max instead of failing.")
def estimate(config_path, trace_path, fmt, out_path, clamp_usage):
    """Convert a usage trace into a per-interval energy report."""

    def action():
        config = _apply_overrides(load_config(config_path), clamp_usage)
        report = build_estimate_report(config, *_load_trace(trace_path))
        _emit(render_report(report, fmt or config.output), out_path)

    _run(action)


@main.command()
@click.option("--config", "config_path", required=True, help="Run config JSON.")
@click.option("--trace", "trace_path", required=True, help="Usage trace (CSV or JSON).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default=None)
@click.option("--out", "out_path", default=None)
@click.option("--clamp-usage", is_flag=True)
@click.option("--strict-coverage", is_flag=True, help="Fail on intensity coverage gaps.")
def emissions(config_path, trace_path, fmt, out_path, clamp_usage, strict_coverage):
    """Operational emissions: energy integrated against grid intensity."""

    def action():
        config = _apply_overrides(load_config(config_path), clamp_usage, strict_coverage)
        report = build_emissions_report(config, *_load_trace(trace_path))
        _emit(render_report(report, fmt or config.output), out_path)

    _run(action)


@main.command()
@click.option("--ledger", "ledger_path", required=True, help="Embodied ledger JSON.")
@click.option("--consumer", "consumer_id", default=None, help="Restrict to one consumer.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", "out_path", default=None)
def embodied(ledger_path, consumer_id, fmt, out_path):
    """Embodied-carbon attributions and idle residuals from a ledger."""

    def action():
        ledger, digest = _load_ledger(ledger_path)
        if consumer_id is not None and consumer_id not in ledger.consumer_ids():
            click.echo(
                f"warning: consumer {consumer_id!r} has no records; reporting 0 kg",
                err=True,
            )
        report = build_embodied_report(ledger, digest, consumer_id)
        _emit(render_report(report, fmt), out_path)

    _run(action)


@main.command()
@click.option("--config", "config_path", required=True, help="Run config JSON.")
@click.option("--trace", "trace_path", required=True, help="Usage trace (CSV or JSON).")
@click.option("--ledger", "ledger_path", required=True, help="Embodied ledger JSON.")
@click.option("--consumer", "consumer_id", default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default=None)
@click.option("--out", "out_path", default=None)
@click.option("--clamp-usage", is_flag=True)
@click.option("--strict-coverage", is_flag=True)
def report(config_path, trace_path, ledger_path, consumer_id, fmt, out_path, clamp_usage, strict_coverage):
    """Full pipeline: energy, operational, embodied, total carbon, SCI."""

    def action():
        config = _apply_overrides(load_config(config_path), clamp_usage, strict_coverage)
        trace, trace_digest = _load_trace(trace_path)
        ledger, ledger_digest = _load_ledger(ledger_path)
        if consumer_id is not None and consumer_id not in ledger.consumer_ids():
            click.echo(
                f"warning: consumer {consumer_id!r} has no records; reporting 0 kg",
                err=True,
            )
        full = build_full_report(
            config, trace, trace_digest, ledger, ledger_digest, consumer_id
        )
        del trace, ledger  # rendering is the memory peak and needs only the report
        _emit(render_report(full, fmt or config.output), out_path)

    _run(action)


if __name__ == "__main__":
    main()
