"""``ftbar trace|stats``: read a recorded telemetry trace."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import obs


def add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    if command == "trace":
        parser.add_argument(
            "trace_file",
            type=Path,
            help="trace JSONL written by --trace / REPRO_TRACE",
        )
        parser.add_argument(
            "--validate",
            action="store_true",
            help="check every line against the trace schema and the stream "
            "invariants; non-zero exit on violations",
        )
        parser.add_argument(
            "--min-coverage",
            type=float,
            default=None,
            metavar="FRACTION",
            help="fail unless root spans cover at least this fraction of the "
            "trace's wall extent (e.g. 0.9)",
        )
        parser.add_argument(
            "--tree",
            action="store_true",
            help="print the span tree instead of the per-phase table",
        )
    else:
        parser.add_argument(
            "trace_file",
            type=Path,
            nargs="?",
            default=None,
            help="trace JSONL (default: repro-trace.jsonl)",
        )


def run(args: argparse.Namespace) -> int:
    return _trace(args) if args.command == "trace" else _stats(args)


def _trace(args: argparse.Namespace) -> int:
    from repro.obs import render

    lines = obs.read_trace(args.trace_file)
    if not lines:
        print(
            f"error: empty or unreadable trace: {args.trace_file}",
            file=sys.stderr,
        )
        return 1
    failures: list[str] = []
    if args.validate:
        errors = obs.validate_trace(lines)
        if errors:
            for problem in errors[:20]:
                print(f"invalid: {problem}", file=sys.stderr)
            failures.append(f"{len(errors)} schema violations")
        else:
            print(
                f"trace OK: {len(lines)} lines valid against "
                f"{obs.SCHEMA_NAME}/{obs.SCHEMA_VERSION}"
            )
    print(
        render.render_tree(lines) if args.tree
        else render.render_phase_table(lines)
    )
    for extra in (render.render_events(lines),
                  render.campaign_progress(lines)):
        if extra:
            print(extra)
    if args.min_coverage is not None:
        covered = render.coverage(lines)
        if covered < args.min_coverage:
            failures.append(
                f"coverage {covered:.1%} < required {args.min_coverage:.1%}"
            )
    if failures:
        print("trace check failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


def _stats(args: argparse.Namespace) -> int:
    from repro.obs import render

    path = args.trace_file or obs.default_trace_path()
    lines = obs.read_trace(path)
    if not lines:
        print(f"error: empty or unreadable trace: {path}", file=sys.stderr)
        return 1
    snapshot = render.last_snapshot(lines)
    if snapshot is None:
        print(
            f"error: no metrics snapshot in {path} — the producer did not "
            "close its tracer (obs.disable())",
            file=sys.stderr,
        )
        return 1
    print(render.render_snapshot(snapshot))
    progress = render.campaign_progress(lines)
    if progress:
        print(progress)
    return 0
