"""Command-line interface of the FTBAR reproduction.

Sub-commands::

    ftbar example                    run the paper's worked example
    ftbar schedule  problem.json     schedule a problem file
    ftbar simulate  problem.json     schedule then crash processors
    ftbar generate  out.json         emit a random problem file
    ftbar bench     figure9|figure10|npf|runtime|ablation
    ftbar certify   [problem.json]   fault-tolerance certificate (+ reliability)
    ftbar campaign  run|status|report|heatmap spec.json
    ftbar campaign  init spec.json --dir D    prepare a campaign directory
    ftbar campaign  worker DIR                join it as a stealing worker
    ftbar campaign  merge INPUTS... -o OUT    canonical shard merge
    ftbar chaos     run spec.json --plan P    campaign under fault injection
    ftbar chaos     sites                     list the failpoint site catalog
    ftbar trace     trace.jsonl      render/validate a telemetry trace
    ftbar stats     [trace.jsonl]    render a trace's metrics snapshot

Telemetry: ``schedule``, ``certify``, ``bench``, ``campaign run``,
``campaign worker`` and ``campaign merge`` accept ``--trace [PATH]``
(or the ``REPRO_TRACE`` environment variable) to record a
span/event/metrics trace — see ``docs/observability.md``.

Layout: this module holds only the command registry and :func:`main`.
Each command lives in a module of this package that defines
``add_arguments(parser, command)`` and ``run(args)``.  ``main`` imports
the module of the one command named on the command line and adds only
its arguments, so a cold process compiles one command's parser and
body; ``ftbar --help`` lists every command from the registry alone.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

from repro.exceptions import ReproError

#: ``(name, help, module)`` of every sub-command, in ``--help`` order.
#: ``module`` is the command's module in this package.
COMMANDS = (
    ("example", "run the paper's worked example", "example"),
    ("schedule", "schedule a problem JSON file", "schedule"),
    ("simulate", "schedule then inject crashes", "audit"),
    ("report", "full audit of the schedule of a problem", "audit"),
    (
        "iterate",
        "cyclic execution: run the schedule over N iterations",
        "audit",
    ),
    ("validate", "schedule a problem and re-check every invariant", "audit"),
    (
        "certify",
        "fault-tolerance certificate, optionally with reliability figures",
        "certify",
    ),
    ("generate", "emit a random problem JSON file", "generate"),
    ("bench", "regenerate a paper figure", "bench"),
    (
        "campaign",
        "run, inspect or aggregate an experiment campaign",
        "campaign",
    ),
    ("trace", "render or validate a recorded telemetry trace", "trace"),
    ("stats", "render the metrics snapshot of a recorded trace", "trace"),
    (
        "chaos",
        "run a campaign under deterministic fault injection",
        "chaos",
    ),
)


def _command_module(command: str):
    """The module that implements ``command``."""
    module = next(module for name, _, module in COMMANDS if name == command)
    return importlib.import_module(f"{__name__}.{module}")


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The ``ftbar`` parser, with arguments for the command in ``argv``.

    Every command is registered, so ``ftbar --help`` and an unknown
    command's error list them all; only the command that ``argv``
    names (its first non-option word) gets its arguments.
    """
    parser = argparse.ArgumentParser(
        prog="ftbar",
        description="Distributed fault-tolerant static scheduling (DSN 2003).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, summary, _ in COMMANDS:
        sub = commands.add_parser(name, help=summary)
        if name == named:
            _command_module(name).add_arguments(sub, name)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``ftbar`` console script.

    Telemetry is wired here, once, for every sub-command: ``--trace``
    (or ``REPRO_TRACE``) enables the process tracer, the command body
    runs under a ``cli.<command>`` root span, and the tracer is closed
    — flushing the final metrics snapshot line — before exit.  The
    ``trace`` / ``stats`` readers never trace themselves.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    from repro import obs

    if args.command not in ("trace", "stats"):
        flag = getattr(args, "trace", None)
        if flag is not None:
            obs.enable(flag or None, meta={"command": args.command})
        else:
            obs.configure_from_env()
        # REPRO_FAULT_PLAN arms fault injection in any sub-command —
        # how chaos subprocesses and CI smoke runs inherit a plan.  Unset,
        # it arms nothing, so the injection runtime is not even imported.
        if os.environ.get("REPRO_FAULT_PLAN", "").strip():
            from repro.faultinject.runtime import configure_from_env

            configure_from_env()
    try:
        with obs.span(f"cli.{args.command}"):
            return _command_module(args.command).run(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        # A missing or unreadable input path: one line, no traceback.
        detail = (
            f"{error.strerror}: {error.filename}"
            if error.filename is not None
            else str(error)
        )
        print(f"error: {detail}", file=sys.stderr)
        return 1
    finally:
        obs.disable()
