"""Real-time constraints ``Rtc`` and their verification report.

Section 3.1/3.4: ``Rtc`` can be a deadline on the completion date of the
whole schedule, and optionally deadlines on the completion dates of
particular operations.  Because the produced schedule is *static*, every
completion date is known before execution, so the constraints are checked
offline and the result is reported to the designer (who may add hardware
or relax the constraints — the scheduler never fails because of ``Rtc``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro._record import FrozenRecord
from repro.exceptions import ConstraintError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedule.schedule import Schedule


class RtcViolation(FrozenRecord):
    """A single missed deadline: what, by when, and when it actually ends."""

    _fields = ("subject", "deadline", "actual")

    def __init__(self, subject: str, deadline: float, actual: float) -> None:
        self.__dict__.update(subject=subject, deadline=deadline, actual=actual)

    @property
    def lateness(self) -> float:
        """How late the subject completes (always positive)."""
        return self.actual - self.deadline

    def __str__(self) -> str:
        return (
            f"{self.subject}: completes at {self.actual:g}, "
            f"deadline {self.deadline:g} (late by {self.lateness:g})"
        )


class RtcReport(FrozenRecord):
    """Outcome of checking a schedule against real-time constraints."""

    _fields = ("satisfied", "makespan", "violations")

    def __init__(
        self,
        satisfied: bool,
        makespan: float,
        violations: tuple[RtcViolation, ...] = (),
    ) -> None:
        self.__dict__.update(
            satisfied=satisfied, makespan=makespan, violations=violations
        )

    def __str__(self) -> str:
        if self.satisfied:
            return f"Rtc satisfied (completion {self.makespan:g})"
        lines = [f"Rtc violated (completion {self.makespan:g}):"]
        lines.extend(f"  - {v}" for v in self.violations)
        return "\n".join(lines)


class RealTimeConstraints(FrozenRecord):
    """Deadline on the whole schedule plus optional per-operation deadlines.

    Per-operation deadlines are checked against the *latest* replica of
    the operation: with active replication the designer's guarantee must
    hold whichever replica the failure pattern leaves alive.

    Examples
    --------
    >>> rtc = RealTimeConstraints(global_deadline=16.0)
    >>> rtc.global_deadline
    16.0
    """

    _fields = ("global_deadline", "operation_deadlines")

    def __init__(
        self,
        global_deadline: float | None = None,
        operation_deadlines: Mapping[str, float] | None = None,
    ) -> None:
        if global_deadline is not None and global_deadline <= 0:
            raise ConstraintError(
                f"global deadline must be positive, got {global_deadline!r}"
            )
        operation_deadlines = dict(operation_deadlines or {})
        for operation, deadline in operation_deadlines.items():
            if deadline <= 0:
                raise ConstraintError(
                    f"deadline of {operation!r} must be positive, got {deadline!r}"
                )
        self.__dict__.update(
            global_deadline=global_deadline,
            operation_deadlines=operation_deadlines,
        )

    def is_trivial(self) -> bool:
        """True when no constraint is actually specified."""
        return self.global_deadline is None and not self.operation_deadlines

    def check(self, schedule: "Schedule") -> RtcReport:
        """Verify a static schedule against the constraints.

        Unknown operations in ``operation_deadlines`` raise
        :class:`~repro.exceptions.ConstraintError` — a deadline on a
        non-scheduled operation is a specification error, not a pass.
        """
        violations: list[RtcViolation] = []
        makespan = schedule.makespan()
        if self.global_deadline is not None and makespan > self.global_deadline:
            violations.append(
                RtcViolation("<schedule>", self.global_deadline, makespan)
            )
        for operation in sorted(self.operation_deadlines):
            deadline = self.operation_deadlines[operation]
            replicas = schedule.replicas_of(operation)
            if not replicas:
                raise ConstraintError(
                    f"deadline on operation {operation!r} which is not scheduled"
                )
            completion = max(replica.end for replica in replicas)
            if completion > deadline:
                violations.append(RtcViolation(operation, deadline, completion))
        return RtcReport(
            satisfied=not violations,
            makespan=makespan,
            violations=tuple(violations),
        )

    def check_completion(self, makespan: float) -> bool:
        """Quick check of a bare completion date against the global deadline."""
        if self.global_deadline is None:
            return True
        return makespan <= self.global_deadline
