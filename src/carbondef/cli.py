"""Command-line entry points.

All four commands run one path: load the config, trace and ledger the
command takes, build its report with ``report.build_report``, drop the
inputs and render. Exit codes: 0 success, 2 usage or validation errors, 3
IO or network errors. Every report check runs as the report is built; it
then streams block by block, and only an IO error can stop it. That can
leave partial output on stdout, never in a regular ``--out`` file: it is
rendered into a temporary file beside it, renamed over it and keeps its mode.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import stat
import sys
from pathlib import Path

from . import __version__
from .errors import TransportError, ValidationError
from .ingest import OUTPUT_FORMATS, load_config, parse_ledger, parse_usage_trace, write_atomic
# under the name the benchmark's span wrappers look it up by
from .report import build_report as build_full_report
from .report import render_report, sha256_hex

EXIT_VALIDATION = 2
EXIT_IO = 3


def _fail(message: str, code: int) -> None:
    print(f"error: {message}", file=sys.stderr)
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
                print(f"warning: consumer {consumer_id!r} has no records; reporting 0 kg", file=sys.stderr)
        report = build_full_report(report_type, config, trace, trace_digest, ledger, ledger_digest, consumer_id)
        del trace, ledger  # rendering needs only the report, which shares the trace's start and duration lists
        _emit(report, fmt or (config.output if config else "json"), out_path)
    except (ValidationError, TransportError, OSError) as exc:
        _fail(str(exc), EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_IO)
    finally:
        if gc_enabled:
            gc.enable()


# each flag once, with its add_argument keywords, so every command's --help shows one text for it
_OPTIONS = {
    "config": ("--config", dict(dest="config_path", metavar="PATH", required=True, help="Run config JSON.")),
    "trace": ("--trace", dict(dest="trace_path", metavar="PATH", required=True, help="Usage trace (CSV or JSON).")),
    "ledger": ("--ledger", dict(dest="ledger_path", metavar="PATH", required=True, help="Embodied ledger JSON.")),
    "consumer": ("--consumer", dict(dest="consumer_id", metavar="ID", help="Restrict to one consumer.")),
    "format": ("--format", dict(dest="fmt", choices=OUTPUT_FORMATS,
                                help="Report format (default: the config's output, else json).")),
    "out": ("--out", dict(dest="out_path", metavar="PATH", help="Write report here instead of stdout.")),
    "clamp": ("--clamp-usage", dict(action="store_true", help="Clamp usage above u_max instead of failing.")),
    "strict": ("--strict-coverage", dict(action="store_true", help="Fail on intensity coverage gaps.")),
}

# command: (help text, its options in --help order)
_COMMANDS = {
    "estimate": ("Convert a usage trace into a per-interval energy report.",
                 ("config", "trace", "format", "out", "clamp")),
    "emissions": ("Operational emissions: energy integrated against grid intensity.",
                  ("config", "trace", "format", "out", "clamp", "strict")),
    "embodied": ("Embodied-carbon attributions and idle residuals from a ledger.",
                 ("ledger", "consumer", "format", "out")),
    "report": ("Full pipeline: energy, operational, embodied, total carbon, SCI.",
               ("config", "trace", "ledger", "consumer", "format", "out", "clamp", "strict")),
}


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run the command ``argv`` names (default: ``sys.argv[1:]``); a usage error exits 2.
    ``standalone_mode`` changes nothing; it is kept so that callers passing ``standalone_mode=False`` still work."""
    parser = argparse.ArgumentParser(prog="carbondef", allow_abbrev=False,
                                     description="Estimate the carbon footprint of software workloads.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(dest="report_type", required=True, metavar="COMMAND")
    for name, (help_text, option_names) in _COMMANDS.items():
        command = commands.add_parser(name, help=help_text, description=help_text, allow_abbrev=False)
        for flag, keywords in map(_OPTIONS.get, option_names):
            command.add_argument(flag, **keywords)
    # a flag that takes a value takes the next token, as ``--flag=token``: argparse reads a bare ``-svc`` as a flag
    valued = {flag for flag, keywords in _OPTIONS.values() if "action" not in keywords}
    arguments, tokens = iter(sys.argv[1:] if argv is None else argv), []
    for token in arguments:
        if token in valued and (value := next(arguments, None)) is not None:
            token = f"{token}={value}"
        tokens.append(token)
    _run(**vars(parser.parse_args(tokens)))


if __name__ == "__main__":
    main()
