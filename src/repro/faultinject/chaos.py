"""The chaos harness behind ``repro chaos run``.

One invocation proves one property end-to-end: a campaign executed
under a deterministic fault-injection plan — torn writes, ENOSPC,
stolen leases, killed workers, killed merges — produces a merged store
**byte-identical** to a clean serial run of the same campaign.  Faults
are allowed to cost time (retries, re-claims, respawned rounds), never
results.

The choreography:

1. **reference** — the spec runs serially, injection-free, in the
   parent process; its store merges canonically into the reference
   bytes;
2. **chaos rounds** — a directory campaign is initialized in a scratch
   root and attacked by subprocess workers (identities
   ``chaos-r<round>-w<n>``), each of which installs the plan itself
   (fresh per-process hit counters — exactly what a real crashed-and-
   respawned worker would have).  Workers that die (injected kills,
   escaped faults) are simply replaced next round until every job is
   recorded or the round budget runs out;
3. **chaos merge** — the shards merge in a subprocess (identity
   ``merge-<round>``) so kill-mid-merge plans land on the real atomic-
   publish window; a killed merge is retried with the next identity —
   the old-or-new (never torn) invariant plus idempotent re-merge is
   the recovery under test;
4. **verdict** — the chaos-merged bytes are compared against the
   reference bytes, and every fired fault (recorded by each injected
   process into one shared O_APPEND JSONL log) comes back in the
   report.  Keyed triggers make :meth:`ChaosReport.fault_signature` a
   pure function of (plan, seed, campaign) — the exact-replay pin.

The parent process itself always runs injection-free: the harness is
the experimenter, not the subject.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import obs
from repro.campaign.backends.directory import DirectoryCampaign, worker_loop
from repro.campaign.jobs import expand_jobs
from repro.campaign.merge import merge_stores
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.faultinject.plan import InjectionPlan, load_plan, plan_to_dict
from repro.faultinject.runtime import configure, deconfigure, is_active

#: Exit code of a chaos subprocess whose injected fault escaped
#: containment (distinct from injected-kill exit codes).
CRASHED_WORKER_EXIT = 70
CRASHED_MERGE_EXIT = 75


@dataclass
class ChaosReport:
    """What one :func:`run_chaos` invocation observed and concluded."""

    campaign: str
    plan: str
    seed: int
    jobs: int
    workers: int
    rounds_used: int = 0
    merge_rounds_used: int = 0
    recorded: int = 0
    complete: bool = False
    merge_ok: bool = False
    identical: bool = False
    fired: list[dict] = field(default_factory=list)
    worker_exits: list[list[int]] = field(default_factory=list)
    root: Path | None = None
    reference_path: Path | None = None
    merged_path: Path | None = None
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        """The harness's one-bit verdict."""
        return self.complete and self.merge_ok and self.identical

    def fault_signature(self) -> list[str]:
        """The deduplicated fired-fault set, replay-comparable.

        Keyed triggers fire as a pure function of (plan seed, site,
        key), so two runs of the same plan+seed+campaign — at any
        worker count — produce the same signature.  Hit indices and
        process identities are deliberately excluded: those are
        schedule-dependent.
        """
        return sorted(
            {
                f"{entry['site']}|{entry['action']}|{entry.get('key') or ''}"
                for entry in self.fired
            }
        )

    def fired_by_site(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.fired:
            counts[entry["site"]] = counts.get(entry["site"], 0) + 1
        return counts

    def summary(self) -> str:
        """The multi-line human-readable verdict."""
        sites = ", ".join(
            f"{site} x{count}"
            for site, count in sorted(self.fired_by_site().items())
        )
        lines = [
            f"chaos {self.campaign!r} (plan {self.plan or 'unnamed'!r}, "
            f"seed {self.seed}): {self.jobs} jobs, "
            f"{self.workers} workers/round",
            f"  faults fired: {len(self.fired)}"
            + (f" ({sites})" if sites else ""),
            f"  workers: {self.rounds_used} round(s), exits "
            f"{self.worker_exits}; merge: {self.merge_rounds_used} "
            "attempt(s)",
        ]
        if not self.complete:
            lines.append(
                f"  INCOMPLETE: {self.recorded}/{self.jobs} jobs recorded "
                "within the round budget"
            )
        elif not self.merge_ok:
            lines.append("  MERGE FAILED within the attempt budget")
        elif self.identical:
            lines.append(
                "  merged store is byte-identical to the clean serial run"
            )
        else:
            lines.append(
                "  merged store DIFFERS from the clean serial run "
                f"({self.merged_path} vs {self.reference_path})"
            )
        lines.append(f"  elapsed {self.elapsed_s:.2f}s, scratch {self.root}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "plan": self.plan,
            "seed": self.seed,
            "jobs": self.jobs,
            "workers": self.workers,
            "rounds_used": self.rounds_used,
            "merge_rounds_used": self.merge_rounds_used,
            "recorded": self.recorded,
            "complete": self.complete,
            "merge_ok": self.merge_ok,
            "identical": self.identical,
            "passed": self.passed,
            "fired": self.fired,
            "fault_signature": self.fault_signature(),
            "worker_exits": self.worker_exits,
            "root": None if self.root is None else str(self.root),
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _chaos_worker(
    root: str,
    worker_id: str,
    plan_document: dict,
    seed: int,
    lease_ttl_s: float,
    poll_s: float,
    max_attempts: int,
    log_path: str,
) -> None:
    """Subprocess entry: install the plan, then be a normal worker."""
    from repro.faultinject.plan import plan_from_dict

    obs.worker_reset()
    configure(
        plan_from_dict(plan_document, seed=seed),
        worker=worker_id,
        log_path=log_path,
    )
    try:
        worker_loop(
            root,
            worker=worker_id,
            cache=DirectoryCampaign(root).cache_dir,
            lease_ttl_s=lease_ttl_s,
            poll_s=poll_s,
            max_attempts=max_attempts,
        )
    except Exception:
        # An injected fault escaped every containment layer — that is a
        # worker crash, which the harness models by spawning the next
        # round.  Quiet exit: the fault log already has the forensics.
        os._exit(CRASHED_WORKER_EXIT)


def _chaos_merge(
    root: str,
    output: str,
    plan_document: dict,
    seed: int,
    identity: str,
    log_path: str,
) -> None:
    """Subprocess entry: merge the campaign's shards under injection."""
    from repro.faultinject.plan import plan_from_dict

    obs.worker_reset()
    configure(
        plan_from_dict(plan_document, seed=seed),
        worker=identity,
        log_path=log_path,
    )
    try:
        merge_stores([root], output)
    except Exception:
        os._exit(CRASHED_MERGE_EXIT)


def run_chaos(
    spec: CampaignSpec,
    plan: InjectionPlan | str | Path,
    *,
    seed: int | None = None,
    workers: int = 2,
    rounds: int = 5,
    merge_rounds: int = 3,
    root: str | Path | None = None,
    lease_ttl_s: float = 2.0,
    poll_s: float = 0.05,
    max_attempts: int = 6,
    join_timeout_s: float = 120.0,
    progress: Callable[[str], None] | None = None,
) -> ChaosReport:
    """Run ``spec`` under ``plan`` and verdict the merged bytes.

    ``seed`` overrides the plan's own; ``workers`` processes attack the
    campaign per round, for at most ``rounds`` rounds (dead workers are
    replaced between rounds), then the shards merge in a subprocess with
    at most ``merge_rounds`` attempts.  ``root`` keeps the scratch
    directory somewhere inspectable (default: a fresh temp dir).
    """
    started = time.perf_counter()
    # The harness is the experimenter, not the subject: whatever plan
    # this process had (e.g. via REPRO_FAULT_PLAN) must not perturb the
    # reference run or the orchestration.
    deconfigure()
    assert not is_active()
    if not isinstance(plan, InjectionPlan):
        plan = load_plan(plan, seed=seed)
    elif seed is not None:
        plan = InjectionPlan(seed=seed, triggers=plan.triggers, name=plan.name)
    plan_document = plan_to_dict(plan)
    say = progress or (lambda message: None)

    scratch = Path(
        root
        if root is not None
        else tempfile.mkdtemp(prefix="repro-chaos-")
    )
    scratch.mkdir(parents=True, exist_ok=True)
    log_path = scratch / "faults.jsonl"
    wanted = {job.digest for job in expand_jobs(spec)}
    report = ChaosReport(
        campaign=spec.name,
        plan=plan.name,
        seed=plan.seed,
        jobs=len(wanted),
        workers=workers,
        root=scratch,
    )

    # 1. The clean serial reference, canonically merged.
    say(f"reference: serial run of {len(wanted)} jobs (injection off)")
    reference_store = scratch / "reference.jsonl"
    run_campaign(
        spec, jobs=1, store=reference_store, backend="serial"
    )
    report.reference_path = scratch / "reference-merged.jsonl"
    merge_stores([reference_store], report.reference_path)
    reference_bytes = report.reference_path.read_bytes()

    # 2. Chaos rounds against a directory campaign.
    campaign = DirectoryCampaign.initialize(spec, scratch / "campaign")
    for round_index in range(rounds):
        remaining = wanted - campaign.recorded_digests()
        if not remaining:
            break
        report.rounds_used = round_index + 1
        count = max(1, min(workers, len(remaining)))
        say(
            f"round {round_index}: {len(remaining)} jobs remaining, "
            f"{count} workers"
        )
        processes = [
            multiprocessing.Process(
                target=_chaos_worker,
                args=(
                    str(campaign.root),
                    f"chaos-r{round_index}-w{index}",
                    plan_document,
                    plan.seed,
                    lease_ttl_s,
                    poll_s,
                    max_attempts,
                    str(log_path),
                ),
                daemon=True,
            )
            for index in range(count)
        ]
        for process in processes:
            process.start()
        exits = []
        for process in processes:
            process.join(join_timeout_s)
            if process.is_alive():
                process.terminate()
                process.join()
            exits.append(process.exitcode)
        report.worker_exits.append(exits)
    recorded = campaign.recorded_digests()
    report.recorded = len(wanted & recorded)
    report.complete = wanted <= recorded

    # 3. Merge under injection, retried across identities.
    report.merged_path = scratch / "merged.jsonl"
    if report.complete:
        for merge_index in range(merge_rounds):
            report.merge_rounds_used = merge_index + 1
            identity = f"merge-{merge_index}"
            say(f"merge attempt {merge_index} as {identity!r}")
            process = multiprocessing.Process(
                target=_chaos_merge,
                args=(
                    str(campaign.root),
                    str(report.merged_path),
                    plan_document,
                    plan.seed,
                    identity,
                    str(log_path),
                ),
                daemon=True,
            )
            process.start()
            process.join(join_timeout_s)
            if process.is_alive():
                process.terminate()
                process.join()
            if process.exitcode == 0 and report.merged_path.exists():
                report.merge_ok = True
                break

    # 4. Verdict + forensics.
    if report.merge_ok:
        report.identical = (
            report.merged_path.read_bytes() == reference_bytes
        )
    if log_path.exists():
        report.fired = [
            line
            for line in ResultStore(log_path).lines()
        ]
    report.elapsed_s = time.perf_counter() - started
    return report
