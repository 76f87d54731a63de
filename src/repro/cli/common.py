"""Flags shared by several ``ftbar`` commands."""

from __future__ import annotations

import argparse


def add_trace_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="record a telemetry trace JSONL "
        "(bare flag: repro-trace.jsonl; see docs/observability.md)",
    )


#: Values of :class:`repro.simulation.failures.DetectionPolicy`, spelled
#: out so that building the parser imports no simulation code.
DETECTION_CHOICES = ("none", "timeout-array")


def add_detection_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--detection", choices=DETECTION_CHOICES, default="none"
    )
