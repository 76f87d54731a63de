"""Human renderers for recorded traces: ``repro trace`` / ``repro stats``.

Pure functions from parsed trace lines to text — no side effects, no
clock reads — so the CLI commands and the tests share one code path.
"""

from __future__ import annotations

import math


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f} s "
    return f"{seconds * 1e3:8.2f} ms"


def _spans(lines: list[dict]) -> list[dict]:
    return [line for line in lines if line.get("type") == "span"]


def stream_extent(lines: list[dict]) -> float:
    """Wall time the stream witnesses, on the trace's monotonic clock.

    From the meta line's ``started`` anchor (falling back to the
    earliest span start) to the last span end.
    """
    t0 = math.inf
    t1 = -math.inf
    for line in lines:
        if line.get("type") == "meta" and "started" in line:
            t0 = min(t0, line["started"])
        elif line.get("type") == "span" and "t0" in line:
            t0 = min(t0, line["t0"])
            t1 = max(t1, line["t1"])
        elif line.get("type") in ("event", "metrics"):
            t1 = max(t1, line["t"])
    if not math.isfinite(t0) or not math.isfinite(t1):
        return 0.0
    return max(0.0, t1 - t0)


def coverage(lines: list[dict]) -> float:
    """Fraction of the stream's wall extent covered by root spans.

    Root spans are real (non-aggregate) spans without a parent; their
    summed duration over the stream extent is the "did the span tree
    see the run" figure the acceptance criteria pin at >= 90 %.
    """
    extent = stream_extent(lines)
    if extent <= 0.0:
        return 0.0
    rooted = sum(
        line["dur"]
        for line in _spans(lines)
        if "parent" not in line and "agg" not in line
    )
    return min(1.0, rooted / extent)


def phase_table(lines: list[dict]) -> list[dict]:
    """Per-name aggregation of every span in the trace.

    Returns rows ``{"name", "count", "total_s", "self_s", "agg"}``
    sorted by total duration descending.  ``self_s`` is the total
    minus the time of its children: the real spans and the *disjoint*
    aggregates (``agg.disjoint``, e.g. the kernel phases inside
    ``ftbar.run``).  Other aggregates (a campaign's re-emitted job
    summaries) nest among themselves, so subtracting them would count
    time twice; they stay out of the subtraction.  Aggregate rows are
    flagged.
    """
    spans = _spans(lines)
    child_time: dict[int, float] = {}
    for line in spans:
        parent = line.get("parent")
        agg = line.get("agg")
        if parent is not None and (agg is None or agg.get("disjoint")):
            child_time[parent] = child_time.get(parent, 0.0) + line["dur"]
    rows: dict[str, dict] = {}
    for line in spans:
        row = rows.setdefault(
            line["name"],
            {"name": line["name"], "count": 0, "total_s": 0.0,
             "self_s": 0.0, "agg": False},
        )
        is_agg = "agg" in line
        row["count"] += line["agg"]["count"] if is_agg else 1
        row["total_s"] += line["dur"]
        row["agg"] = row["agg"] or is_agg
        row["self_s"] += line["dur"] - (
            0.0 if is_agg else child_time.get(line["id"], 0.0)
        )
    return sorted(rows.values(), key=lambda r: -r["total_s"])


def render_phase_table(lines: list[dict]) -> str:
    """The per-phase time-breakdown table of one trace."""
    rows = phase_table(lines)
    if not rows:
        return "trace contains no spans"
    extent = stream_extent(lines)
    out = [
        f"{'span':<28} {'count':>7} {'total':>11} {'self':>11} {'%wall':>6}",
        f"{'-' * 28} {'-' * 7} {'-' * 11} {'-' * 11} {'-' * 6}",
    ]
    for row in rows:
        share = 100.0 * row["total_s"] / extent if extent else 0.0
        marker = " (agg)" if row["agg"] else ""
        out.append(
            f"{row['name']:<28} {row['count']:>7} {_fmt_s(row['total_s'])}"
            f" {_fmt_s(row['self_s'])} {share:5.1f}%{marker}"
        )
    out.append("")
    out.append(
        f"span coverage: {coverage(lines):.1%} of {extent:.3f}s wall extent"
        " (aggregates book time inside their parents and are excluded)"
    )
    meta = lines[0] if lines and lines[0].get("type") == "meta" else {}
    if "startup_cpu_s" in meta:
        out.append(
            f"start-up before tracing: {meta['startup_cpu_s']:.3f}s CPU, "
            f"{meta['modules_loaded']} modules loaded"
        )
    return "\n".join(out)


def render_tree(lines: list[dict], max_depth: int = 4) -> str:
    """The span tree, siblings of one name collapsed into one row.

    Aggregate spans are listed under their parent, after its timed
    children, with their summed count and an ``(agg)`` marker.
    """
    by_parent: dict[int | None, list[dict]] = {}
    for line in _spans(lines):
        by_parent.setdefault(line.get("parent"), []).append(line)

    out: list[str] = []

    def emit(parent: int | None, depth: int) -> None:
        if depth > max_depth:
            return
        groups: dict[str, list[dict]] = {}
        for line in by_parent.get(parent, ()):
            groups.setdefault(line["name"], []).append(line)
        ordered = sorted(
            groups.items(),
            key=lambda kv: min(s.get("t0", math.inf) for s in kv[1]),
        )
        for name, members in ordered:
            total = sum(line["dur"] for line in members)
            hits = sum(line.get("agg", {}).get("count", 1) for line in members)
            count = f" x{hits}" if hits > 1 else ""
            marker = " (agg)" if any("agg" in line for line in members) else ""
            out.append(
                f"{'  ' * depth}{name}{count}  {_fmt_s(total).strip()}{marker}"
            )
            if len(members) == 1:
                emit(members[0]["id"], depth + 1)

    emit(None, 0)
    return "\n".join(out) if out else "trace contains no spans"


def render_events(lines: list[dict]) -> str:
    """Recorded events, one line each (empty string when none)."""
    events = [line for line in lines if line.get("type") == "event"]
    if not events:
        return ""
    out = ["events:"]
    for line in events:
        attrs = line.get("attrs", {})
        detail = ", ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        out.append(f"  t={line['t']:.6f}  {line['name']}"
                   + (f"  ({detail})" if detail else ""))
    return "\n".join(out)


def last_snapshot(lines: list[dict]) -> dict | None:
    """The final metrics snapshot of a trace (None when absent)."""
    snapshot = None
    for line in lines:
        if line.get("type") == "metrics":
            snapshot = line["snapshot"]
    return snapshot


def render_snapshot(snapshot: dict) -> str:
    """Render one metrics snapshot as sectioned key/value tables."""
    out: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        out.append("counters:")
        out += [
            f"  {name:<44} {counters[name]:>14g}"
            for name in sorted(counters)
        ]
    gauges = snapshot.get("gauges", {})
    if gauges:
        out.append("gauges:")
        out += [
            f"  {name:<44} {gauges[name]:>14g}" for name in sorted(gauges)
        ]
    histograms = snapshot.get("histograms", {})
    if histograms:
        out.append("histograms:")
        for name in sorted(histograms):
            h = histograms[name]
            mean = h["sum"] / h["count"] if h["count"] else 0.0
            out.append(
                f"  {name:<38} n={h['count']:<7g} mean={mean:<12.6g} "
                f"min={h['min']:<12.6g} max={h['max']:<12.6g}"
            )
    collected = snapshot.get("collected", {})
    for source in sorted(collected):
        out.append(f"{source}:")
        values = collected[source]
        out += [
            f"  {key:<44} {values[key]!s:>14}" for key in sorted(values)
        ]
    return "\n".join(out) if out else "snapshot is empty"


def progress_line(
    name: str,
    done: int,
    total: int,
    *,
    rate: float | None = None,
    workers: dict[str, int] | None = None,
) -> str:
    """One campaign progress line shared by every live view.

    Used by the trace renderer's :func:`campaign_progress` and by
    ``ftbar campaign status --watch``, so "how far along is this
    campaign" reads identically whether it comes from a recorded trace
    or a live poll of the store and shards.
    """
    percent = 100.0 * done / total if total else 100.0
    line = f"{name}: {done}/{total} jobs ({percent:.0f}%)"
    if rate is not None:
        line += f", {rate:.2f} jobs/s"
    if workers:
        counts = ", ".join(
            f"{worker}: {count}" for worker, count in sorted(workers.items())
        )
        line += f" — workers: {counts}"
    return line


def campaign_progress(lines: list[dict]) -> str:
    """Throughput summary of a traced campaign run (empty when none).

    Sourced from the ``campaign.job`` events the runner emits per
    completed job: job count, wall span, jobs/s, and per-worker-pid
    job counts (the heartbeat view).
    """
    jobs = [
        line for line in lines
        if line.get("type") == "event" and line.get("name") == "campaign.job"
    ]
    if not jobs:
        return ""
    t0 = min(line["t"] for line in jobs)
    t1 = max(line["t"] for line in jobs)
    per_worker: dict[str, int] = {}
    for line in jobs:
        pid = str(line.get("attrs", {}).get("worker", "?"))
        per_worker[pid] = per_worker.get(pid, 0) + 1
    window = t1 - t0
    rate = len(jobs) / window if window > 0 else float(len(jobs))
    workers = ", ".join(
        f"pid {pid}: {count}" for pid, count in sorted(per_worker.items())
    )
    return (
        f"campaign: {len(jobs)} jobs in {window:.3f}s "
        f"({rate:.2f} jobs/s) — workers: {workers}"
    )
