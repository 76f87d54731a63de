"""Campaign orchestration: expand, dispatch, persist, resume, report.

:func:`run_campaign` is the one entry point everything routes through —
the ``campaign`` CLI, the Figure-9/10 experiment harness and the
benchmarks.  The flow per run:

1. expand the spec into deduplicated, content-hashed jobs;
2. with ``resume=True``, skip every job whose digest the result store
   already records (a killed campaign continues where it stopped);
3. serve the remaining jobs from the content-addressed schedule cache
   when possible;
4. run only genuinely new work: in process, one job after the other,
   with one worker and no persistent campaign directory; otherwise on
   spawned directory workers (``dispatch`` in ``backends/directory.py``);
5. persist every completed result to the store the moment it arrives.

A ``KeyboardInterrupt`` mid-run is caught after the flush of every
completed result: the returned report is marked ``interrupted`` and the
store is ready for ``--resume``.
"""

from __future__ import annotations

import math
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro import obs
from repro.campaign.cache import ScheduleCache
from repro.campaign.jobs import (
    Job,
    execute_job,
    expand_jobs,
    reemit_job_telemetry,
)
from repro.campaign.spec import BACKENDS, CampaignSpec
from repro.campaign.store import ResultStore
from repro.core.retry import retry_io
from repro.exceptions import ReproError


@dataclass
class CampaignReport:
    """What one :func:`run_campaign` invocation did."""

    name: str
    grid_size: int
    total_jobs: int
    executed: int = 0
    cache_hits: int = 0
    resumed: int = 0
    interrupted: bool = False
    elapsed_s: float = 0.0
    records: dict[str, dict] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)
    backend: str = "local"
    #: Worker-event lines the workers reported (kind -> count), e.g.
    #: ``lease_reclaimed`` when a directory worker stole a dead lease.
    events: dict[str, int] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        """Jobs accounted for by this run (executed, cached or resumed)."""
        return self.executed + self.cache_hits + self.resumed

    def records_in_order(self) -> list[dict]:
        """The deterministic records in canonical grid order."""
        return [
            self.records[job.digest]
            for job in self.jobs
            if job.digest in self.records
        ]

    def summary(self) -> str:
        """One-paragraph human-readable outcome."""
        state = "interrupted" if self.interrupted else "completed"
        return (
            f"campaign {self.name!r} {state}: "
            f"{self.completed}/{self.total_jobs} jobs "
            f"({self.grid_size} grid points, "
            f"{self.grid_size - self.total_jobs} deduplicated) — "
            f"{self.executed} executed, "
            f"cache hits: {self.cache_hits}/{self.total_jobs}, "
            f"resumed: {self.resumed}, "
            f"elapsed {self.elapsed_s:.2f}s"
            + (
                " — worker events: "
                + ", ".join(
                    f"{kind}: {count}"
                    for kind, count in sorted(self.events.items())
                )
                if self.events
                else ""
            )
        )


def _execute_inline(jobs: Iterable[Job]) -> Iterator[dict]:
    """Execute jobs in this process, absorbing transient I/O faults.

    A job hitting a transient ``OSError`` (flaky storage, an injected
    fault) retries under the shared backoff policy instead of failing
    the campaign; a retried job recomputes the exact same record.
    """
    for job in jobs:
        yield retry_io(
            lambda: execute_job(job), attempts=3, base_s=0.01, cap_s=0.1
        )


def run_campaign(
    spec: CampaignSpec,
    *,
    jobs: int = 1,
    store: ResultStore | str | Path | None = None,
    cache: ScheduleCache | str | Path | None = None,
    resume: bool = False,
    progress: Callable[[str], None] | None = None,
    backend: str | None = None,
    directory: str | Path | None = None,
    lease_ttl_s: float = 30.0,
    max_attempts: int = 5,
) -> CampaignReport:
    """Run a campaign and return its report.

    ``jobs`` is the worker count (``0`` = one worker per available
    CPU).  One worker runs the jobs in this process, one after the
    other; more run on spawned directory workers over a private
    temporary campaign directory.  ``store`` and ``cache`` are
    optional: without a store the records only live in the report;
    without a cache every pending job is computed.

    ``backend`` is a name from :data:`~repro.campaign.spec.BACKENDS`,
    or ``None`` for the spec's own ``backend`` field.  ``"serial"`` and
    ``"local"`` are the same dispatch; ``"directory"`` runs the workers
    — even a single one — on the persistent campaign ``directory``,
    which more workers may join, with the given lease/retry protocol
    knobs; the jobs this run resumes or serves from its cache are
    recorded there too, so a worker joining later skips them.
    """
    started = time.perf_counter()
    backend = backend or spec.backend
    if backend not in BACKENDS:
        raise ReproError(
            f"unknown execution backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend != "directory":
        directory = None
    elif directory is None:
        raise ReproError(
            "the directory backend needs a campaign directory "
            "(--dir PATH on the CLI)"
        )
    workers = jobs
    if workers == 0:
        from repro.campaign.backends.directory import default_worker_count

        workers = default_worker_count()
    inline = workers <= 1 and directory is None
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    if cache is not None and not isinstance(cache, ScheduleCache):
        cache = ScheduleCache(cache)
    say = progress or (lambda message: None)
    tracer = obs.tracer()

    with (
        tracer.span("campaign.expand", campaign=spec.name)
        if tracer is not None
        else obs.NOOP_SPAN
    ):
        expanded = expand_jobs(spec)
    report = CampaignReport(
        name=spec.name,
        grid_size=spec.grid_size,
        total_jobs=len(expanded),
        jobs=expanded,
        backend=backend,
    )
    by_digest = {job.digest: job for job in expanded}

    pending = expanded
    recorded = (
        store.load() if store is not None and store.exists() else {}
    )
    stored_digests = set(recorded)
    if resume and recorded:
        for job in expanded:
            if job.digest in recorded:
                report.records[job.digest] = recorded[job.digest]
                report.resumed += 1
        pending = [job for job in expanded if job.digest not in report.records]
        if report.resumed:
            say(f"resume: {report.resumed} jobs already recorded")

    degraded_noted = False

    def note_cache_health() -> None:
        """Surface cache self-reports (corruption, ENOSPC degradation).

        Quarantined entries and a read-only flip are operational facts
        of the run: they become store events and ``warn.*`` trace
        events exactly like backend worker events do.
        """
        nonlocal degraded_noted
        if cache is None:
            return
        for corruption in cache.pop_corruptions():
            report.events["cache_corrupt"] = (
                report.events.get("cache_corrupt", 0) + 1
            )
            if store is not None:
                store.append_event(
                    "cache_corrupt",
                    job=corruption["digest"],
                    reason=corruption["reason"],
                    quarantined_to=corruption["quarantined_to"],
                )
            if tracer is not None:
                tracer.event(
                    "warn.cache_corrupt",
                    job=corruption["digest"][:12],
                    reason=corruption["reason"],
                )
        if cache.degraded and not degraded_noted:
            degraded_noted = True
            report.events["cache_degraded"] = (
                report.events.get("cache_degraded", 0) + 1
            )
            if store is not None:
                store.append_event("cache_degraded", root=str(cache.root))
            say(f"cache degraded read-only (out of space): {cache.root}")

    try:
        to_compute: list[Job] = []
        for job in pending:
            entry = cache.get(job.digest) if cache is not None else None
            if entry is not None:
                report.records[job.digest] = entry["record"]
                report.cache_hits += 1
                # Don't re-append a line the store already carries —
                # repeated cache-served reruns must not grow the store.
                if store is not None and job.digest not in stored_digests:
                    store.append(job.digest, entry["record"], source="cache")
            else:
                to_compute.append(job)
        note_cache_health()
        if report.cache_hits:
            say(f"cache: {report.cache_hits} jobs served from {cache.root}")
        if directory is not None and report.records:
            # Record the resumed and cache-served jobs in a runner shard,
            # so workers joining the directory later find them done.
            from repro.campaign.backends.directory import (
                DirectoryCampaign,
                worker_identity,
            )

            campaign = DirectoryCampaign.initialize(spec, directory)
            recorded = campaign.recorded_digests()
            shard = campaign.shard_for(f"{worker_identity()}-runner")
            for digest, record in report.records.items():
                if digest not in recorded:
                    resumed = resume and digest in stored_digests
                    shard.append(
                        digest, record, source="resumed" if resumed else "cache"
                    )

        if inline:
            documents = _execute_inline(to_compute)
        else:
            from repro.campaign.backends.directory import dispatch

            # Workers fill the cache themselves: their shard lines carry
            # records, not the schedules a cache entry holds.
            documents = dispatch(
                spec,
                to_compute,
                workers,
                root=directory,
                cache=None if cache is None else cache.root,
                lease_ttl_s=lease_ttl_s,
                max_attempts=max_attempts,
            )
        with closing(documents), (
            tracer.span(
                "campaign.dispatch",
                campaign=spec.name,
                jobs=len(to_compute),
                workers=workers,
                backend=backend,
            )
            if tracer is not None
            else obs.NOOP_SPAN
        ):
            for document in documents:
                if "event" in document and "digest" not in document:
                    # A worker-event line (lease reclaim, exhausted
                    # retries): operational history, not a result.
                    kind = str(document["event"])
                    report.events[kind] = report.events.get(kind, 0) + 1
                    detail = {
                        k: v
                        for k, v in document.items()
                        if k not in ("event", "recorded_at")
                    }
                    if store is not None:
                        store.append_event(kind, **detail)
                    if tracer is not None:
                        tracer.event("warn." + kind, **detail)
                    say(f"worker event: {kind} ({detail.get('job', '?')})")
                    continue
                digest = document["digest"]
                record = document["record"]
                if digest in report.records:
                    continue  # raced steal recomputed it; idempotent
                report.records[digest] = record
                source = document.get("source", "computed")
                if source == "cache":
                    report.cache_hits += 1
                else:
                    report.executed += 1
                if cache is not None and inline:
                    cache.put(digest, document)
                    note_cache_health()
                if store is not None:
                    store.append(
                        digest,
                        record,
                        elapsed_s=document["timing"]["elapsed_s"],
                        source=source,
                    )
                if tracer is not None:
                    reemit_job_telemetry(tracer, by_digest[digest], document)
                say(
                    f"[{report.completed}/{report.total_jobs}] "
                    f"{by_digest[digest].index}: {record['problem']}"
                )
    except KeyboardInterrupt:
        report.interrupted = True
        say("interrupted — every completed job is persisted; rerun with --resume")

    report.elapsed_s = time.perf_counter() - started
    if tracer is not None:
        metrics = obs.metrics
        metrics.inc("campaign.jobs.executed", report.executed)
        metrics.inc("campaign.jobs.cache_hits", report.cache_hits)
        metrics.inc("campaign.jobs.resumed", report.resumed)
        metrics.gauge("campaign.jobs.pending", len(expanded) - len(report.records))
        metrics.observe("campaign.run_s", report.elapsed_s)
        for kind, count in report.events.items():
            metrics.inc(f"campaign.events.{kind}", count)
    return report


# ----------------------------------------------------------------------
# status / report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignStatus:
    """Progress of a campaign against its result store."""

    name: str
    total_jobs: int
    done: int
    #: Corrupt interior store lines skipped while scanning (each one
    #: is a digest that will be recomputed, plus a forensics lead).
    corrupt_lines: int = 0

    @property
    def pending(self) -> int:
        """Jobs not yet recorded."""
        return self.total_jobs - self.done

    @property
    def percent(self) -> float:
        """Completion percentage."""
        return 100.0 * self.done / self.total_jobs if self.total_jobs else 100.0

    def summary(self) -> str:
        """One-line progress report."""
        line = (
            f"campaign {self.name!r}: {self.done}/{self.total_jobs} jobs done "
            f"({self.percent:.0f}%), {self.pending} pending"
        )
        if self.corrupt_lines:
            line += f" — {self.corrupt_lines} corrupt store lines skipped"
        return line


def campaign_status(spec: CampaignSpec, store: ResultStore) -> CampaignStatus:
    """How far a campaign has progressed in a result store."""
    expanded = expand_jobs(spec)
    recorded = store.digests()
    done = sum(1 for job in expanded if job.digest in recorded)
    return CampaignStatus(
        name=spec.name,
        total_jobs=len(expanded),
        done=done,
        corrupt_lines=len(store.corrupt_lines),
    )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def campaign_report(spec: CampaignSpec, store: ResultStore) -> str:
    """Aggregate a campaign's recorded results into a text table.

    Rows group by (workload family, topology, npf): job counts, mean
    FTBAR makespan, mean overhead versus the non-fault-tolerant baseline
    (when measured) and the fraction of injected failure scenarios whose
    outputs were delivered.
    """
    expanded = expand_jobs(spec)
    recorded = store.load()
    groups: dict[tuple[str, str, int, int], list[dict]] = {}
    for job in expanded:
        record = recorded.get(job.digest)
        if record is not None:
            key = (job.workload.family, job.topology, job.npf, job.npl)
            groups.setdefault(key, []).append(record)

    # The npf column reads "npf/npl" only when the grid sweeps npl,
    # keeping the historical table for processor-only campaigns.
    with_npl = any(npl for _, _, _, npl in groups)
    headers = [
        "family", "topology",
        "npf/npl" if with_npl else "npf",
        "jobs", "makespan", "overhead%", "delivered",
    ]
    rows: list[list[str]] = []
    for (family, topology, npf, npl), records in sorted(groups.items()):
        makespans = [r["ftbar"]["makespan"] for r in records]
        overheads = [
            (r["ftbar"]["makespan"] - r["non_ft"]["makespan"])
            / r["ftbar"]["makespan"]
            * 100.0
            for r in records
            if "non_ft" in r and r["ftbar"]["makespan"] > 0
        ]
        injections = [
            entry
            for r in records
            for entry in r.get("failures", [])
            if entry.get("delivered") is not None
        ]
        delivered = (
            f"{sum(1 for e in injections if e['delivered'])}/{len(injections)}"
            if injections
            else "-"
        )
        rows.append(
            [
                family,
                topology,
                f"{npf}/{npl}" if with_npl else str(npf),
                str(len(records)),
                f"{_mean(makespans):.2f}",
                f"{_mean(overheads):.1f}" if overheads else "-",
                delivered,
            ]
        )
    if not rows:
        return f"campaign {spec.name!r}: no recorded results in {store.path}"

    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    lines += [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    ]
    missing = len(expanded) - sum(len(records) for records in groups.values())
    if missing:
        lines.append(f"({missing} jobs not yet recorded)")
    return "\n".join(lines)


def reliability_heatmap(
    spec: CampaignSpec, store: ResultStore, value: str = "reliability"
) -> str:
    """Render the campaign's reliability heatmap from its result store.

    Rows are the grid's ``npfs`` axis, columns the reliability spec's
    per-processor failure probabilities; each cell aggregates every
    recorded job of that ``npf`` (mean across workloads, topologies,
    CCRs and seeds).  ``value`` selects the cell quantity:

    * ``"reliability"`` — mean probability that one iteration delivers
      all outputs;
    * ``"mttf"`` — mean iterations to the first unmasked failure
      (``inf`` when every recorded job is fully reliable);
    * ``"certified"`` — fraction of jobs whose certificate holds.
    """
    if value not in ("reliability", "mttf", "certified"):
        raise ValueError(f"unknown heatmap value {value!r}")
    if spec.reliability is None:
        return (
            f"campaign {spec.name!r} has no reliability spec — add "
            f'"reliability" to its measures'
        )
    expanded = expand_jobs(spec)
    recorded = store.load()
    # cells[(npf, npl)][probability] -> list of per-job values; jobs
    # with different link hypotheses must never average into one cell.
    cells: dict[tuple[int, int], dict[float, list[float]]] = {}
    for job in expanded:
        record = recorded.get(job.digest)
        if record is None or "reliability" not in record:
            continue
        block = record["reliability"]
        row = cells.setdefault((job.npf, job.npl), {})
        for point in block["sweep"]:
            if value == "reliability":
                cell = point["reliability"]
            elif value == "mttf":
                mttf = point["mttf_iterations"]
                cell = math.inf if mttf is None else mttf
            else:
                cell = 1.0 if block["certified"] else 0.0
            row.setdefault(point["probability"], []).append(cell)
    if not cells:
        return (
            f"campaign {spec.name!r}: no reliability records in {store.path}"
        )

    probabilities = sorted({q for row in cells.values() for q in row})
    # Rows label npl only when the grid sweeps it, keeping the
    # historical rendering for processor-only campaigns.
    with_npl = any(npl for _, npl in cells)
    headers = [("npf/npl \\ q" if with_npl else "npf \\ q")] + [
        f"{q:g}" for q in probabilities
    ]
    rows = []
    for npf, npl in sorted(cells):
        row = [f"{npf}/{npl}" if with_npl else str(npf)]
        for q in probabilities:
            values = cells[(npf, npl)].get(q)
            row.append(_format_cell(_mean(values), value) if values else "-")
        rows.append(row)
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        f"{value} heatmap — campaign {spec.name!r}",
        "  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    lines += [
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        for row in rows
    ]
    return "\n".join(lines)


def _format_cell(mean: float, value: str) -> str:
    if math.isinf(mean):
        return "inf"
    if value == "mttf":
        return f"{mean:.3g}"
    return f"{mean:.6f}"
