"""Exception hierarchy for the FTBAR reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single type at API boundaries.  Sub-classes are split
by the subsystem that raises them, which keeps error handling explicit
without forcing callers to know internal module structure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every error raised by the ``repro`` package."""


class GraphError(ReproError):
    """Invalid algorithm graph: unknown operations, cycles, duplicates..."""


class ArchitectureError(ReproError):
    """Invalid architecture graph: unknown processors, dangling links..."""


class TimingError(ReproError):
    """Missing or inconsistent execution/communication time entries."""


class ConstraintError(ReproError):
    """Invalid real-time constraint specification."""


class SchedulingError(ReproError):
    """The scheduler could not produce a schedule for the given problem."""


class InfeasibleReplicationError(SchedulingError):
    """An operation cannot be replicated on ``Npf + 1`` distinct processors.

    Raised when the distribution constraints (``inf`` entries in the
    execution-time table) leave fewer than ``Npf + 1`` processors able to
    run some operation.  Per the paper, the remedy is the user's: add
    hardware or relax the failure hypothesis.
    """


class ScheduleValidationError(ReproError):
    """A produced schedule violates one of the structural invariants."""


class SimulationError(ReproError):
    """The runtime simulator was given an inconsistent scenario."""


class SerializationError(ReproError):
    """A document could not be converted to or from its JSON form."""


class FaultPlanError(ReproError):
    """A fault-injection plan document is malformed or inconsistent."""


class CacheDegradedWarning(UserWarning):
    """The schedule cache hit ``ENOSPC`` and flipped to read-only.

    A full disk must cost cache hits, never jobs: existing entries keep
    serving, new entries are silently skipped, and this warning fires
    once per cache instance instead of once per job (deduped — a
    thousand-job campaign on a full disk warns a single time).
    """
