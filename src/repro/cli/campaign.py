"""``ftbar campaign``: run, inspect, distribute and merge campaigns."""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.cli.common import add_trace_flag


def add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    campaign_commands = parser.add_subparsers(dest="campaign_command", required=True)

    def _campaign_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("spec", type=Path, help="campaign spec JSON file")
        sub.add_argument(
            "--store",
            type=Path,
            default=None,
            help="result store JSONL (default: <spec stem>-results.jsonl)",
        )

    campaign_run = campaign_commands.add_parser("run", help="execute a campaign spec")
    _campaign_common(campaign_run)
    campaign_run.add_argument(
        "--jobs", type=int, default=1, help="worker processes (0 = one per CPU)"
    )
    campaign_run.add_argument(
        "--backend",
        choices=["local", "serial", "directory"],
        default=None,
        help="'directory' runs the workers on a persistent campaign "
        "directory (--dir) that more workers may join; 'local' and "
        "'serial' do not (default: the spec's)",
    )
    campaign_run.add_argument(
        "--dir",
        type=Path,
        default=None,
        dest="campaign_dir",
        help="campaign directory of the 'directory' backend "
        "(default: <spec stem>-campaign next to the spec)",
    )
    campaign_run.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="directory backend: seconds before an unrenewed job lease "
        "may be stolen (default: 30)",
    )
    campaign_run.add_argument(
        "--cache",
        type=Path,
        default=None,
        help="content-addressed schedule cache dir "
        "(default: <spec dir>/.schedule-cache)",
    )
    campaign_run.add_argument(
        "--no-cache", action="store_true", help="disable the cache"
    )
    campaign_run.add_argument(
        "--resume",
        action="store_true",
        help="skip jobs whose results the store already records",
    )
    campaign_run.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    add_trace_flag(campaign_run)

    campaign_status_cmd = campaign_commands.add_parser(
        "status", help="progress of a campaign against its result store"
    )
    _campaign_common(campaign_status_cmd)
    campaign_status_cmd.add_argument(
        "--dir",
        type=Path,
        default=None,
        dest="campaign_dir",
        help="also poll this campaign directory's shards and live claims",
    )
    campaign_status_cmd.add_argument(
        "--watch",
        action="store_true",
        help="repaint the progress line until the campaign completes",
    )
    campaign_status_cmd.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="--watch poll interval in seconds (default: 2)",
    )
    _campaign_common(
        campaign_commands.add_parser(
            "report", help="aggregate a campaign's recorded results"
        )
    )

    campaign_init = campaign_commands.add_parser(
        "init", help="initialize a campaign directory for detached workers"
    )
    campaign_init.add_argument("spec", type=Path, help="campaign spec JSON file")
    campaign_init.add_argument(
        "--dir",
        type=Path,
        default=None,
        dest="campaign_dir",
        help="campaign directory to create "
        "(default: <spec stem>-campaign next to the spec)",
    )

    campaign_worker = campaign_commands.add_parser(
        "worker",
        help="join a campaign directory as one work-stealing worker",
    )
    campaign_worker.add_argument(
        "dir", type=Path, help="campaign directory (see 'campaign init')"
    )
    campaign_worker.add_argument(
        "--worker-id",
        default=None,
        help="worker identity for claims and the result shard "
        "(default: <host>-<pid>)",
    )
    campaign_worker.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds before an unrenewed lease may be stolen (default: 30)",
    )
    campaign_worker.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="idle poll interval in seconds (default: 0.2)",
    )
    campaign_worker.add_argument(
        "--max-attempts",
        type=int,
        default=5,
        help="dead leases per job before it is abandoned (default: 5)",
    )
    campaign_worker.add_argument(
        "--delay",
        type=float,
        default=0.0,
        help="fault-injection: sleep this long between claiming a job "
        "and executing it (holding the lease)",
    )
    campaign_worker.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the campaign directory's shared schedule cache",
    )
    campaign_worker.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    add_trace_flag(campaign_worker)

    campaign_merge = campaign_commands.add_parser(
        "merge",
        help="merge result shards into one canonical, diffable store",
    )
    campaign_merge.add_argument(
        "inputs",
        type=Path,
        nargs="+",
        help="store files, campaign directories, or directories of shards",
    )
    campaign_merge.add_argument(
        "--output",
        "-o",
        type=Path,
        default=None,
        help="merged store path (omit for a conflict-checking dry run)",
    )
    campaign_merge.add_argument(
        "--events",
        type=Path,
        default=None,
        help="worker-events sidecar path "
        "(default: <output stem>.events.jsonl)",
    )
    add_trace_flag(campaign_merge)
    campaign_heatmap = campaign_commands.add_parser(
        "heatmap", help="render the npf x failure-probability heatmap"
    )
    _campaign_common(campaign_heatmap)
    campaign_heatmap.add_argument(
        "--value",
        choices=["reliability", "mttf", "certified"],
        default="reliability",
        help="cell quantity (default: reliability)",
    )


def _campaign_paths(args: argparse.Namespace) -> tuple:
    """Resolve the spec, store and default cache paths of a campaign."""
    from repro.campaign.spec import load_campaign

    spec = load_campaign(args.spec)
    store_path = (
        args.store
        if args.store is not None
        else args.spec.with_name(f"{args.spec.stem}-results.jsonl")
    )
    return spec, store_path


def _default_campaign_dir(args: argparse.Namespace) -> Path:
    """The campaign directory next to the spec, unless ``--dir`` says."""
    if getattr(args, "campaign_dir", None) is not None:
        return args.campaign_dir
    return args.spec.with_name(f"{args.spec.stem}-campaign")


def _worker(args: argparse.Namespace) -> int:
    from repro.campaign.backends.directory import DirectoryCampaign, worker_loop

    report = worker_loop(
        args.dir,
        worker=args.worker_id,
        lease_ttl_s=args.lease_ttl,
        poll_s=args.poll,
        max_attempts=args.max_attempts,
        delay_s=args.delay,
        cache=None if args.no_cache else DirectoryCampaign(args.dir).cache_dir,
        progress=None if args.quiet else print,
    )
    print(report.summary())
    return 0 if not report.exhausted else 1


def _merge(args: argparse.Namespace) -> int:
    from repro.campaign.merge import merge_stores

    report = merge_stores(
        args.inputs, args.output, events_output=args.events
    )
    print(report.summary())
    if report.output is not None:
        print(f"merged store: {report.output}")
    if report.events_output is not None:
        print(f"worker events: {report.events_output}")
    if report.output is None:
        print("(dry run — pass --output to write the merged store)")
    return 0


def _status(args: argparse.Namespace, spec, store_path) -> int:
    import time as _time

    from repro.campaign.backends.directory import DirectoryCampaign
    from repro.campaign.runner import campaign_status
    from repro.campaign.store import ResultStore
    from repro.obs.render import progress_line

    campaign = (
        DirectoryCampaign(args.campaign_dir)
        if args.campaign_dir is not None
        else None
    )

    def snapshot() -> tuple[str, bool]:
        store = ResultStore(store_path)
        done = store.digests()
        corrupt = len(store.corrupt_lines)
        workers: dict[str, int] = {}
        if campaign is not None:
            for shard in campaign.shard_paths():
                worker = shard.stem
                shard_store = ResultStore(shard)
                digests = shard_store.digests()
                workers[worker] = len(digests)
                done |= digests
                corrupt += len(shard_store.corrupt_lines)
        from repro.campaign.jobs import expand_jobs

        total = {job.digest for job in expand_jobs(spec)}
        finished = len(done & total)
        line = progress_line(
            f"campaign {spec.name!r}", finished, len(total), workers=workers
        )
        if campaign is not None:
            claims = campaign.active_claims()
            if claims:
                line += f" — {len(claims)} live claims"
        if corrupt:
            line += f" — {corrupt} corrupt store lines skipped"
        return line, finished >= len(total)

    if not args.watch:
        status = campaign_status(spec, ResultStore(store_path))
        if campaign is None:
            print(status.summary())
        else:
            print(snapshot()[0])
        return 0
    while True:
        line, complete = snapshot()
        print(line, flush=True)
        if complete:
            return 0
        _time.sleep(args.interval)


def run(args: argparse.Namespace) -> int:
    if args.campaign_command == "worker":
        return _worker(args)
    if args.campaign_command == "merge":
        return _merge(args)

    from repro.campaign.runner import (
        campaign_report,
        reliability_heatmap,
        run_campaign,
    )
    from repro.campaign.store import ResultStore

    if args.campaign_command == "init":
        from repro.campaign.backends.directory import DirectoryCampaign
        from repro.campaign.spec import load_campaign

        spec = load_campaign(args.spec)
        campaign = DirectoryCampaign.initialize(spec, _default_campaign_dir(args))
        jobs = campaign.jobs()
        print(
            f"campaign {spec.name!r} initialized: {len(jobs)} jobs in "
            f"{campaign.root}"
        )
        print(f"join workers with: ftbar campaign worker {campaign.root}")
        return 0

    spec, store_path = _campaign_paths(args)
    if args.campaign_command == "status":
        return _status(args, spec, store_path)
    if args.campaign_command == "report":
        print(campaign_report(spec, ResultStore(store_path)))
        return 0
    if args.campaign_command == "heatmap":
        print(reliability_heatmap(spec, ResultStore(store_path), args.value))
        return 0

    cache_dir = None
    if not args.no_cache:
        cache_dir = (
            args.cache
            if args.cache is not None
            else args.spec.parent / ".schedule-cache"
        )
    backend = args.backend or spec.backend
    if args.campaign_dir is not None and backend != "directory":
        from repro.exceptions import ReproError

        raise ReproError(
            f"--dir names the campaign directory of the 'directory' "
            f"backend, but this run uses the {backend!r} backend "
            f"(add --backend directory)"
        )
    report = run_campaign(
        spec,
        jobs=args.jobs,  # 0 = one per available CPU
        store=store_path,
        cache=cache_dir,
        resume=args.resume,
        progress=None if args.quiet else print,
        backend=backend,
        directory=(
            _default_campaign_dir(args) if backend == "directory" else None
        ),
        lease_ttl_s=args.lease_ttl,
    )
    print(report.summary())
    print(f"results: {store_path}")
    if cache_dir is not None:
        print(f"cache: {cache_dir}")
    if backend == "directory":
        print(f"campaign dir: {_default_campaign_dir(args)}")
    return 0 if not report.interrupted else 1
