"""``ftbar chaos``: a campaign under deterministic fault injection."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli.common import add_trace_flag


def add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    chaos_commands = parser.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_commands.add_parser(
        "run",
        help="attack a campaign with an injection plan and verify the "
        "merged store is byte-identical to a clean serial run",
    )
    chaos_run.add_argument(
        "spec", type=Path, help="campaign spec JSON (see 'campaign run')"
    )
    chaos_run.add_argument(
        "--plan",
        type=Path,
        required=True,
        metavar="PLAN",
        help="fault-injection plan JSON (see docs/robustness.md)",
    )
    chaos_run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the plan's seed (replays are (plan, seed)-exact)",
    )
    chaos_run.add_argument(
        "--workers",
        type=int,
        default=2,
        help="chaos workers per round (default: 2)",
    )
    chaos_run.add_argument(
        "--rounds",
        type=int,
        default=5,
        help="worker rounds before declaring the campaign incomplete "
        "(default: 5)",
    )
    chaos_run.add_argument(
        "--lease-ttl",
        type=float,
        default=2.0,
        help="campaign lease TTL in seconds (short: steals happen fast "
        "under injected stalls; default: 2.0)",
    )
    chaos_run.add_argument(
        "--dir",
        type=Path,
        default=None,
        dest="chaos_dir",
        help="scratch directory to use and keep "
        "(default: a fresh temp dir)",
    )
    chaos_run.add_argument(
        "--json",
        action="store_true",
        help="emit the full chaos report as JSON instead of the summary",
    )
    add_trace_flag(chaos_run)
    chaos_commands.add_parser(
        "sites", help="list every failpoint site a plan may target"
    )


def run(args: argparse.Namespace) -> int:
    from repro.campaign.spec import load_campaign
    from repro.faultinject import FAILPOINT_SITES, load_plan
    from repro.faultinject.chaos import run_chaos

    if args.chaos_command == "sites":
        width = max(len(site) for site in FAILPOINT_SITES)
        for site, description in sorted(FAILPOINT_SITES.items()):
            print(f"{site:<{width}}  {description}")
        return 0

    spec = load_campaign(args.spec)
    plan = load_plan(args.plan, seed=args.seed)
    report = run_chaos(
        spec,
        plan,
        workers=args.workers,
        rounds=args.rounds,
        root=args.chaos_dir,
        lease_ttl_s=args.lease_ttl,
        # With --json, stdout is the report document; narrate on stderr.
        progress=(
            (lambda message: print(message, file=sys.stderr))
            if args.json
            else print
        ),
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    if report.passed:
        return 0
    # Incomplete campaigns / failed merges are budget exhaustion (2);
    # a byte mismatch is the property under test failing (1).
    return 2 if not (report.complete and report.merge_ok) else 1
