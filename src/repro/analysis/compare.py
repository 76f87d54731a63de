"""Structural comparison of two schedules.

When an option flips (duplication, pressure variant)
the interesting question is *what moved*: which operations changed
hosts, which replicas appeared or vanished, how the makespan reacted.
:func:`diff_schedules` answers it; :func:`format_schedule_diff` renders
the answer for terminals and ablation reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.schedule.schedule import Schedule


@dataclass
class ScheduleDiff:
    """What changed between schedule ``a`` (before) and ``b`` (after)."""

    makespan_before: float
    makespan_after: float
    replicas_before: int
    replicas_after: int
    comms_before: int
    comms_after: int
    #: Operations whose replica hosts gained a processor in ``b``.
    added_hosts: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Operations whose replica hosts lost a processor in ``b``.
    removed_hosts: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Operations scheduled on the same hosts but at different dates.
    retimed: dict[str, float] = field(default_factory=dict)

    @property
    def makespan_delta(self) -> float:
        """Positive when ``b`` is longer."""
        return self.makespan_after - self.makespan_before

    @property
    def identical(self) -> bool:
        """True when nothing moved at all."""
        return (
            not self.added_hosts
            and not self.removed_hosts
            and not self.retimed
            and self.makespan_delta == 0.0
            and self.replicas_before == self.replicas_after
            and self.comms_before == self.comms_after
        )


def diff_schedules(before: Schedule, after: Schedule) -> ScheduleDiff:
    """Compare two schedules of the same algorithm.

    Replicas are matched by (operation, processor) — replica indices are
    placement-order artefacts and do not identify anything stable.
    """
    diff = ScheduleDiff(
        makespan_before=before.makespan(),
        makespan_after=after.makespan(),
        replicas_before=before.replica_count(),
        replicas_after=after.replica_count(),
        comms_before=before.comm_count(),
        comms_after=after.comm_count(),
    )
    operations = set(before.scheduled_operations()) | set(
        after.scheduled_operations()
    )
    for operation in sorted(operations):
        hosts_before = {
            r.processor: r for r in before.replicas_of(operation)
        }
        hosts_after = {
            r.processor: r for r in after.replicas_of(operation)
        }
        added = tuple(sorted(set(hosts_after) - set(hosts_before)))
        removed = tuple(sorted(set(hosts_before) - set(hosts_after)))
        if added:
            diff.added_hosts[operation] = added
        if removed:
            diff.removed_hosts[operation] = removed
        shift = 0.0
        for processor in set(hosts_before) & set(hosts_after):
            shift = max(
                shift,
                abs(hosts_after[processor].start - hosts_before[processor].start),
            )
        if shift > 1e-9:
            diff.retimed[operation] = shift
    return diff


def format_schedule_diff(diff: ScheduleDiff) -> str:
    """Human-readable rendering of a schedule diff."""
    if diff.identical:
        return "schedules identical"
    lines = [
        f"makespan {diff.makespan_before:g} -> {diff.makespan_after:g} "
        f"({diff.makespan_delta:+g})",
        f"replicas {diff.replicas_before} -> {diff.replicas_after}, "
        f"comms {diff.comms_before} -> {diff.comms_after}",
    ]
    for operation in sorted(diff.added_hosts):
        lines.append(
            f"  + {operation} now also on {', '.join(diff.added_hosts[operation])}"
        )
    for operation in sorted(diff.removed_hosts):
        lines.append(
            f"  - {operation} no longer on {', '.join(diff.removed_hosts[operation])}"
        )
    for operation in sorted(diff.retimed):
        lines.append(
            f"  ~ {operation} shifted by up to {diff.retimed[operation]:g}"
        )
    return "\n".join(lines)
