"""Work-stealing campaign execution on shared storage.

One campaign directory is the whole coordination substrate — no broker,
no server, no network protocol beyond a filesystem that N worker
processes (on any number of hosts) can all see::

    <dir>/
      campaign.json        the spec (joining workers re-expand jobs from it)
      claims/<digest>.claim  lease files: owner + attempt, heartbeat mtime
      shards/<worker>.jsonl  per-worker append-only result stores
      cache/               schedule cache of the joining workers (shared)

The protocol (Dwork–Halpern–Waarts setting: many workers, independent
idempotent jobs, workers that may stall or die):

* **claim** — a worker takes a job by creating its claim file with
  ``O_CREAT | O_EXCL``: the filesystem arbitrates, exactly one creator
  wins.  The file records owner host/pid/worker-id and the attempt
  number;
* **heartbeat** — while executing, a daemon thread touches the claim
  file's mtime every ``lease_ttl / 4``.  A live worker's lease
  therefore never looks stale, however long the job runs;
* **steal** — a claim whose mtime is older than ``lease_ttl`` belongs
  to a dead (or wedged) worker.  Any worker may reclaim it: unlink the
  stale file, then race a fresh ``O_EXCL`` create (losing the race is
  harmless).  Each reclaim bumps the attempt counter and appends a
  structured ``lease_reclaimed`` event to the stealer's shard;
* **bounded retry** — a job whose claim has died ``max_attempts`` times
  is poisoned (it kills its workers): the stale claim is left as a
  tombstone, a ``retries_exhausted`` event is recorded once per
  observer, and the job stays unrecorded rather than looping forever;
* **done** — the result is appended to the worker's *own* shard (no
  write contention), then the claim is released.  Workers exit when
  every job is recorded in some shard.

:func:`dispatch` is how :func:`~repro.campaign.runner.run_campaign`
runs a campaign on worker processes: it spawns local workers on a
campaign directory (a private temporary one unless the caller names a
persistent one) and streams their shard lines back as results.

Correctness does not rest on the lease being a perfect mutex: jobs are
deterministic and content-addressed, so the worst race (two workers
computing the same job) yields byte-identical records that the merge
(:mod:`repro.campaign.merge`) deduplicates — and any *non*-identical
duplicate is a hard merge conflict, never silent corruption.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from repro import obs
from repro.campaign.cache import ScheduleCache
from repro.campaign.jobs import Job, execute_job, expand_jobs
from repro.core.retry import retry_io
from repro.faultinject import failpoint, set_worker
from repro.campaign.spec import (
    CampaignSpec,
    campaign_from_dict,
    campaign_to_dict,
)
from repro.campaign.store import ResultStore
from repro.exceptions import ReproError
from repro.schedule.serialization import load_json, save_json

#: Default lease time-to-live: a claim untouched this long is stealable.
DEFAULT_LEASE_TTL_S = 30.0

#: Default attempts before a job is declared poisonous.
DEFAULT_MAX_ATTEMPTS = 5

#: Idle poll of :func:`dispatch` and of the workers it spawns.  They
#: idle only at the end of a run, waiting on the last jobs, so a short
#: poll costs little and ends the run soon after its last record.
DISPATCH_POLL_S = 0.02


def worker_identity() -> str:
    """This process's worker id: ``<host>-<pid>`` (multi-host unique)."""
    return f"{socket.gethostname()}-{os.getpid()}"


def cpu_affinity_count() -> int | None:
    """CPUs this process may actually run on, or ``None`` if unknowable.

    Under cgroup/taskset confinement (CI runners, batch schedulers,
    containers) ``os.cpu_count()`` reports the whole machine while the
    scheduler only ever grants the affinity mask — sizing the workers on
    the former oversubscribes the mask and serializes the "parallel"
    workers.
    """
    getter = getattr(os, "sched_getaffinity", None)
    if getter is None:  # non-Linux
        return None
    try:
        return len(getter(0)) or None
    except OSError:
        return None


def default_worker_count() -> int:
    """Worker count used for ``jobs=0`` / ``--jobs 0``.

    One worker per *available* CPU: the scheduling affinity mask when
    the platform exposes it, the raw CPU count otherwise.
    """
    return cpu_affinity_count() or os.cpu_count() or 1


class DirectoryCampaign:
    """One campaign directory: spec, claims, shards, shared cache."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.spec_path = self.root / "campaign.json"
        self.claims_dir = self.root / "claims"
        self.shards_dir = self.root / "shards"
        self.cache_dir = self.root / "cache"
        self._shards = _ShardTail(self)
        self._recorded: set[str] = set()

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def initialize(
        cls, spec: CampaignSpec, root: str | Path
    ) -> "DirectoryCampaign":
        """Create (or re-open) the campaign directory for ``spec``.

        Re-initializing an existing directory with the *same* spec is a
        no-op (that is how a crashed dispatch resumes); a different spec
        is refused — one directory is one campaign.
        """
        campaign = cls(root)
        document = campaign_to_dict(spec)
        if campaign.spec_path.exists():
            existing = load_json(campaign.spec_path)
            # Compare specs, not documents: JSON round-trips tuples into
            # lists, so a raw dict comparison would refuse a re-init
            # with the exact same spec.
            if campaign_from_dict(existing) != spec:
                raise ReproError(
                    f"{campaign.spec_path} already holds a different "
                    f"campaign ({existing.get('name')!r}); one directory "
                    "is one campaign"
                )
        else:
            campaign.root.mkdir(parents=True, exist_ok=True)
            save_json(document, campaign.spec_path)
        for directory in (
            campaign.claims_dir, campaign.shards_dir, campaign.cache_dir
        ):
            directory.mkdir(parents=True, exist_ok=True)
        return campaign

    def spec(self) -> CampaignSpec:
        """The campaign spec this directory was initialized with."""
        if not self.spec_path.exists():
            raise ReproError(
                f"{self.root} is not a campaign directory (no campaign.json "
                "— run `repro campaign init` or `campaign run --backend "
                "directory` first)"
            )
        return campaign_from_dict(load_json(self.spec_path))

    def jobs(self) -> list[Job]:
        """The campaign's deduplicated jobs (re-expanded, deterministic)."""
        return expand_jobs(self.spec())

    # -- shards ---------------------------------------------------------

    def shard_paths(self) -> list[Path]:
        """Every worker shard currently present, sorted for determinism."""
        if not self.shards_dir.exists():
            return []
        return sorted(self.shards_dir.glob("*.jsonl"))

    def shard_for(self, worker: str) -> ResultStore:
        """The private result shard of one worker."""
        return ResultStore(self.shards_dir / f"{worker}.jsonl")

    def recorded_digests(self) -> set[str]:
        """Digests recorded in *any* shard (the shared done-set).

        Shards only grow, so each call parses just the lines appended
        since the previous one.
        """
        for document in self._shards.poll():
            if "digest" in document:
                self._recorded.add(document["digest"])
        return set(self._recorded)

    # -- claims ---------------------------------------------------------

    def claim_path(self, digest: str) -> Path:
        return self.claims_dir / f"{digest}.claim"

    def try_claim(self, digest: str, worker: str, attempt: int = 1) -> bool:
        """Atomically claim one job; exactly one concurrent caller wins."""
        host, _, pid = worker.rpartition("-")
        payload = json.dumps(
            {
                "digest": digest,
                "worker": worker,
                "host": host or socket.gethostname(),
                "pid": os.getpid(),
                "attempt": attempt,
                "claimed_at": time.time(),
            },
            sort_keys=True,
        )
        def attempt_claim() -> bool:
            failpoint("directory.claim.create", key=digest)
            try:
                descriptor = os.open(
                    self.claim_path(digest),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                # Losing the race is an answer, not a transient —
                # returned before the retry policy can touch it.
                return False
            fault = failpoint("directory.claim.write", key=digest)
            text = payload if fault is None else fault.apply_text(payload)
            try:
                with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                    handle.write(text)
                if fault is not None and fault.kind == "torn_write":
                    raise fault.error()
            except OSError:
                # A half-written claim is a lie; drop it before the
                # retry, or the O_EXCL create would lose to our own
                # corpse and strand the job behind a garbage lease.
                self.release(digest)
                raise
            return True

        return retry_io(attempt_claim, attempts=3, base_s=0.005, cap_s=0.05)

    def read_claim(self, digest: str) -> dict | None:
        """The claim document of one job, or ``None`` (absent/torn)."""
        try:
            return json.loads(self.claim_path(digest).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def claim_age_s(self, digest: str) -> float | None:
        """Seconds since the claim's last heartbeat, or ``None``."""
        try:
            return time.time() - self.claim_path(digest).stat().st_mtime
        except OSError:
            return None

    def release(self, digest: str, *, owner: str | None = None) -> None:
        """Drop a claim (idempotent — a racing steal may have won).

        With ``owner``, only a claim that worker still holds is
        dropped: a victim whose lease was stolen must not unlink the
        *stealer's* live claim on its way out — that window would let a
        third worker claim the job yet again.
        """
        if owner is not None:
            claim = self.read_claim(digest)
            if claim is not None and claim.get("worker") != owner:
                return
        try:
            os.unlink(self.claim_path(digest))
        except FileNotFoundError:
            pass

    def renew(self, digest: str) -> None:
        """Heartbeat: refresh the claim's mtime (its lease)."""
        try:
            os.utime(self.claim_path(digest))
        except OSError:
            pass  # claim stolen or released under us; the job is idempotent

    def active_claims(self) -> list[dict]:
        """Every live claim with its owner and age (the status view)."""
        claims = []
        if not self.claims_dir.exists():
            return claims
        for path in sorted(self.claims_dir.glob("*.claim")):
            try:
                document = json.loads(path.read_text())
                age = time.time() - path.stat().st_mtime
            except (OSError, json.JSONDecodeError):
                continue
            document["age_s"] = age
            claims.append(document)
        return claims


class _Heartbeat:
    """Daemon thread renewing one claim's lease while its job runs.

    Renewal *and* detection: each beat re-reads the claim before
    touching it, and the thread flags :attr:`lost` when the claim now
    names another worker (a stealer decided we were dead), when the
    claim stays missing or unrenewable for three beats running, or when
    anything at all kills the thread itself — a silently-dead heartbeat
    would leave the worker computing a job whose lease *will* be
    stolen.  The worker checks :attr:`lost` (plus one direct ownership
    read) immediately before recording, so a stolen lease can never
    yield a duplicate record.
    """

    def __init__(
        self,
        campaign: DirectoryCampaign,
        digest: str,
        interval_s: float,
        worker: str | None = None,
    ) -> None:
        self._campaign = campaign
        self._digest = digest
        self._interval = max(interval_s, 0.02)
        self._worker = worker
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        #: Set once this lease is known to no longer protect the job.
        self.lost = threading.Event()
        #: Why the lease was lost (for the ``lease_lost`` event).
        self.reason: str | None = None

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        return False

    def _mark_lost(self, reason: str) -> None:
        self.reason = reason
        self.lost.set()

    def _run(self) -> None:
        strikes = 0
        try:
            while not self._stop.wait(self._interval):
                try:
                    failpoint(
                        "directory.heartbeat.renew", key=self._digest
                    )
                    claim = self._campaign.read_claim(self._digest)
                    if (
                        claim is not None
                        and self._worker is not None
                        and claim.get("worker") != self._worker
                    ):
                        self._mark_lost(
                            f"lease stolen by {claim.get('worker')!r}"
                        )
                        return
                    if claim is None:
                        raise OSError("claim file missing or unreadable")
                    self._campaign.renew(self._digest)
                    strikes = 0
                    obs.event(
                        "campaign.lease_renew", job=self._digest[:12]
                    )
                    obs.metrics.inc("campaign.backend.lease_renewals")
                except OSError as error:
                    strikes += 1
                    if strikes >= 3:
                        self._mark_lost(f"heartbeat failing: {error}")
                        return
        except BaseException as error:
            # Nothing may kill this daemon silently (the classic bug:
            # an unhandled error ends the thread, the claim goes stale,
            # the lease is stolen, and the oblivious victim records a
            # job another worker is re-running).
            self._mark_lost(f"heartbeat thread died: {error!r}")


@dataclass
class WorkerReport:
    """What one :func:`worker_loop` invocation did."""

    worker: str
    executed: int = 0
    cache_hits: int = 0
    reclaims: int = 0
    exhausted: int = 0
    #: Jobs completed but *not* recorded because the lease was lost
    #: (stolen or heartbeat-dead) — the double-execution guard.
    lost_leases: int = 0
    #: Jobs that failed with an I/O error and were released for retry.
    errors: int = 0
    elapsed_s: float = 0.0

    @property
    def completed(self) -> int:
        """Jobs this worker recorded (computed or cache-served)."""
        return self.executed + self.cache_hits

    def summary(self) -> str:
        """One-line human-readable outcome."""
        parts = [
            f"worker {self.worker}: {self.completed} jobs recorded "
            f"({self.executed} executed, {self.cache_hits} cache hits)"
        ]
        if self.reclaims:
            parts.append(f"{self.reclaims} leases reclaimed")
        if self.lost_leases:
            parts.append(f"{self.lost_leases} lost leases abandoned unrecorded")
        if self.errors:
            parts.append(f"{self.errors} jobs errored (released for retry)")
        if self.exhausted:
            parts.append(f"{self.exhausted} jobs abandoned (retries exhausted)")
        parts.append(f"elapsed {self.elapsed_s:.2f}s")
        return ", ".join(parts)


def worker_loop(
    root: str | Path,
    *,
    jobs: Sequence[Job] | None = None,
    worker: str | None = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_s: float = 0.2,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    delay_s: float = 0.0,
    cache: str | Path | None = None,
    progress=None,
) -> WorkerReport:
    """Run one work-stealing worker against a campaign directory.

    The loop claims and executes unclaimed pending jobs first; once
    everything pending is claimed by others it turns to stealing:
    leases whose heartbeat has expired are reclaimed (bounded by
    ``max_attempts`` per job), and otherwise the worker polls until the
    shards record every job.  Returns when nothing is left to do —
    which makes ``repro campaign worker <dir>`` safe to point at one
    directory from as many processes and hosts as you like, with zero
    coordination beyond the shared filesystem.

    ``jobs`` is the work list; ``None`` re-expands the directory's
    ``campaign.json`` (a worker joining from elsewhere).  ``cache`` is
    the schedule-cache root the worker reads and fills (``None`` = no
    cache).  ``delay_s`` is a fault-injection knob (used by tests and
    the CI dispatch-smoke job): sleep that long between claiming a job
    and executing it, so a kill signal reliably lands mid-lease.
    """
    started = time.perf_counter()
    campaign = DirectoryCampaign(root)
    if jobs is None:
        jobs = campaign.jobs()
    worker = worker or worker_identity()
    # Bind the identity fault-plan ``worker`` patterns match against
    # (no-op unless an injection plan is active in this process).
    set_worker(worker)
    shard = campaign.shard_for(worker)
    cache = ScheduleCache(cache) if cache is not None else None
    report = WorkerReport(worker=worker)
    say = progress or (lambda message: None)
    tracer = obs.tracer()
    #: Jobs this worker has given up on (tombstoned claims).
    abandoned: set[str] = set()
    degraded_noted = False

    def drain_cache_events() -> None:
        """Turn cache self-reports into structured shard events."""
        nonlocal degraded_noted
        if cache is None:
            return
        for corruption in cache.pop_corruptions():
            shard.append_event(
                "cache_corrupt",
                job=corruption["digest"],
                reason=corruption["reason"],
                quarantined_to=corruption["quarantined_to"],
                worker=worker,
            )
        if cache.degraded and not degraded_noted:
            degraded_noted = True
            shard.append_event(
                "cache_degraded", root=str(cache.root), worker=worker
            )

    def job_error(job: Job, error: OSError) -> None:
        """Contain one job's I/O failure: note it, release, move on."""
        report.errors += 1
        obs.event("warn.job_error", job=job.digest[:12], error=str(error))
        obs.metrics.inc("campaign.backend.job_errors")
        say(f"[{worker}] error on {job.digest[:12]}: {error}")
        try:
            shard.append_event(
                "job_error", job=job.digest, worker=worker, error=str(error)
            )
        except OSError:
            pass  # the shard itself is hurting; the event is best-effort

    def run_claimed(job: Job, attempt: int) -> None:
        if delay_s:
            time.sleep(delay_s)
        failpoint("directory.worker.claimed", key=job.digest)
        heartbeat = _Heartbeat(
            campaign, job.digest, lease_ttl_s / 4, worker=worker
        )

        def lease_held() -> bool:
            # The async flag alone is not enough: the heartbeat may not
            # have ticked since the steal, so re-read ownership now.
            if heartbeat.lost.is_set():
                return False
            claim = campaign.read_claim(job.digest)
            return claim is not None and claim.get("worker") == worker

        def abandon() -> None:
            # The double-execution guard: our lease stopped protecting
            # this job (stolen, or the heartbeat died), so another
            # worker is — or soon will be — re-running it.  Recording
            # now could race a divergent merge view; walking away is
            # free because the job is idempotent and the stealer's
            # record is bit-identical.
            reason = heartbeat.reason or "claim lost before recording"
            report.lost_leases += 1
            shard.append_event(
                "lease_lost",
                job=job.digest,
                worker=worker,
                attempt=attempt,
                reason=reason,
            )
            obs.event(
                "warn.lease_lost", job=job.digest[:12], reason=reason
            )
            obs.metrics.inc("campaign.backend.leases_lost")
            say(f"[{worker}] abandoning {job.digest[:12]}: {reason}")

        recorded = False
        try:
            with heartbeat:
                entry = cache.get(job.digest) if cache is not None else None
                drain_cache_events()
                if entry is not None:
                    if not lease_held():
                        abandon()
                        return
                    shard.append(job.digest, entry["record"], source="cache")
                    report.cache_hits += 1
                else:
                    document = execute_job(job)
                    if cache is not None:
                        cache.put(job.digest, document)
                        drain_cache_events()
                    failpoint("directory.worker.record", key=job.digest)
                    if not lease_held():
                        abandon()
                        return
                    shard.append(
                        job.digest,
                        document["record"],
                        elapsed_s=document["timing"]["elapsed_s"],
                        source="computed",
                        telemetry=document["timing"]["obs"],
                    )
                    report.executed += 1
                recorded = True
            failpoint("directory.worker.release", key=job.digest)
            say(f"[{worker}] {job.index}: {job.digest[:12]} done")
            if tracer is not None and recorded:
                tracer.event(
                    "campaign.job",
                    job=job.digest[:12],
                    index=job.index,
                    worker=worker,
                    attempt=attempt,
                )
        finally:
            campaign.release(job.digest, owner=worker)

    while True:
        done = campaign.recorded_digests()
        for digest in done:
            age = campaign.claim_age_s(digest)
            if age is not None and age >= lease_ttl_s:
                # A worker recorded this job but died before releasing:
                # the work is safe, only the claim is a corpse — sweep
                # it so ``status`` stops listing a phantom active lease.
                campaign.release(digest)
        pending = [
            job
            for job in jobs
            if job.digest not in done and job.digest not in abandoned
        ]
        if not pending:
            break
        progressed = False
        # Pass 1: virgin territory — claim whatever nobody holds.
        for job in pending:
            with obs.span("campaign.claim", job=job.digest[:12]):
                won = campaign.try_claim(job.digest, worker)
            if not won:
                continue
            if job.digest in campaign.recorded_digests():
                # Stale pending list: someone recorded and released this
                # job after our scan — don't recompute it.
                campaign.release(job.digest)
                continue
            obs.metrics.inc("campaign.backend.claims")
            progressed = True
            try:
                run_claimed(job, attempt=1)
            except OSError as error:
                # Transients below already retried and still failed;
                # release happened in run_claimed's finally, so the
                # next scan (here or elsewhere) re-claims the job.
                job_error(job, error)
        if progressed:
            continue
        # Pass 2: everything pending is claimed by someone else — steal
        # any lease whose heartbeat has expired.
        for job in pending:
            age = campaign.claim_age_s(job.digest)
            if age is None or age < lease_ttl_s:
                continue  # live lease (or just released — next scan sees it)
            stale = campaign.read_claim(job.digest) or {}
            attempt = int(stale.get("attempt", 1))
            if attempt >= max_attempts:
                if job.digest not in abandoned:
                    abandoned.add(job.digest)
                    report.exhausted += 1
                    shard.append_event(
                        "retries_exhausted",
                        job=job.digest,
                        attempts=attempt,
                        worker=worker,
                    )
                    obs.event(
                        "warn.retries_exhausted",
                        job=job.digest[:12],
                        attempts=attempt,
                    )
                    obs.metrics.inc("campaign.backend.retries_exhausted")
                    say(
                        f"[{worker}] giving up on {job.digest[:12]} after "
                        f"{attempt} dead leases"
                    )
                continue
            campaign.release(job.digest)  # drop the corpse...
            with obs.span("campaign.claim", job=job.digest[:12], steal=True):
                won = campaign.try_claim(job.digest, worker, attempt + 1)
            if not won:
                continue  # another stealer beat us to the re-create
            if job.digest in campaign.recorded_digests():
                # The victim recorded the result but died before
                # releasing: the work is done, only the claim was stale.
                campaign.release(job.digest)
                continue
            report.reclaims += 1
            progressed = True
            shard.append_event(
                "lease_reclaimed",
                job=job.digest,
                previous_worker=stale.get("worker"),
                attempt=attempt + 1,
                age_s=round(age, 3),
                worker=worker,
            )
            obs.event(
                "warn.lease_reclaimed",
                job=job.digest[:12],
                previous_worker=stale.get("worker"),
                attempt=attempt + 1,
            )
            obs.metrics.inc("campaign.backend.reclaims")
            say(
                f"[{worker}] reclaimed {job.digest[:12]} from "
                f"{stale.get('worker')} (attempt {attempt + 1})"
            )
            try:
                run_claimed(job, attempt=attempt + 1)
            except OSError as error:
                job_error(job, error)
        if not progressed:
            time.sleep(poll_s)
    report.elapsed_s = time.perf_counter() - started
    return report


def _worker_process(root, jobs, worker, cache, lease_ttl_s, max_attempts) -> None:
    """Entry point of a spawned worker process (fork-safe).

    The dispatching process owns Ctrl-C (it terminates its workers) and
    the trace stream (job telemetry travels in the shard lines), so the
    worker ignores ``SIGINT`` and forgets any inherited tracer.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    obs.worker_reset()
    worker_loop(
        root,
        jobs=jobs,
        worker=worker,
        cache=cache,
        lease_ttl_s=lease_ttl_s,
        poll_s=DISPATCH_POLL_S,
        max_attempts=max_attempts,
    )


def dispatch(
    spec: CampaignSpec,
    jobs: Sequence[Job],
    workers: int,
    *,
    root: str | Path | None = None,
    cache: str | Path | None = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> Iterator[dict]:
    """Run ``jobs`` on local directory workers, streaming their results.

    ``root`` is a persistent campaign directory that more workers may
    join (``repro campaign worker <root>``); ``None`` runs over a
    private temporary directory, removed when the stream ends — Ctrl-C
    and an abandoned stream included.  Up to ``workers`` processes are
    spawned, each handed ``jobs`` (no re-expansion) starting at its own
    offset, and each fills the schedule cache at ``cache`` (``None`` =
    no cache).  With no jobs no process starts.

    Yields each result document the moment some worker records it —
    ``digest`` / ``record`` / ``source`` / ``timing`` (``elapsed_s``
    and, for computed jobs, the ``obs`` telemetry summary) — plus any
    worker-event lines, in completion order.  Whatever is still missing
    when every worker has exited stays missing: quietly when the workers
    gave up on it (retries exhausted), as a :class:`ReproError` when a
    worker crashed.
    """
    private = root is None
    if private:
        root = tempfile.mkdtemp(prefix="repro-campaign-")
    processes: list[multiprocessing.Process] = []
    try:
        campaign = DirectoryCampaign.initialize(spec, root)
        if not jobs:
            return
        count = min(max(workers, 1), len(jobs))
        for index in range(count):
            # Each worker starts at its own slice of the grid, so grid
            # neighbours, which share problem builds and baselines,
            # mostly run on one worker.
            offset = index * len(jobs) // count
            processes.append(
                multiprocessing.Process(
                    target=_worker_process,
                    args=(
                        str(root),
                        list(jobs[offset:]) + list(jobs[:offset]),
                        f"{worker_identity()}-w{index}",
                        None if cache is None else str(cache),
                        lease_ttl_s,
                        max_attempts,
                    ),
                    daemon=True,
                )
            )
        for process in processes:
            process.start()
        tail = _ShardTail(campaign)
        wanted = {job.digest for job in jobs}
        while wanted:
            alive = any(process.is_alive() for process in processes)
            for document in tail.poll():
                if "event" in document:
                    yield document
                elif document["digest"] in wanted:
                    wanted.discard(document["digest"])
                    yield document
            if not alive:
                break  # the poll above saw every line the workers wrote
            time.sleep(DISPATCH_POLL_S)
        for process in processes:
            process.join()
        crashed = [p.exitcode for p in processes if p.exitcode]
        if wanted and crashed:
            # A job that raises kills every worker that claims it; fail
            # the run as an in-process job error would, not quietly.
            raise ReproError(
                f"{len(wanted)} jobs unrecorded: campaign workers crashed "
                f"(exit codes {crashed}); see their tracebacks above"
            )
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join()
        if private:
            shutil.rmtree(root, ignore_errors=True)


class _ShardTail:
    """Incremental reader over a campaign's shards (complete lines only)."""

    def __init__(self, campaign: DirectoryCampaign) -> None:
        self._campaign = campaign
        self._offsets: dict[Path, int] = {}

    def poll(self) -> Iterator[dict]:
        """Yield the documents appended since the last poll.

        Result lines come back runner-shaped (``digest`` / ``record`` /
        ``timing`` / ``source``); event lines come back verbatim.  Only byte ranges ending in a newline are consumed —
        a torn in-flight write is left for the next poll.
        """
        for path in self._campaign.shard_paths():
            offset = self._offsets.get(path, 0)
            try:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                continue
            complete = chunk.rfind(b"\n") + 1
            if not complete:
                continue
            self._offsets[path] = offset + complete
            for raw in chunk[:complete].splitlines():
                if not raw.strip():
                    continue
                try:
                    line = json.loads(raw)
                except ValueError:
                    continue  # torn mid-file line from a killed worker
                if not isinstance(line, dict):
                    continue
                if "digest" in line:
                    timing = {"elapsed_s": line.get("elapsed_s", 0.0)}
                    if "obs" in line:
                        timing["obs"] = line["obs"]
                    yield {
                        "digest": line["digest"],
                        "record": line["record"],
                        "timing": timing,
                        "source": line.get("source", "computed"),
                    }
                elif "event" in line:
                    yield line
