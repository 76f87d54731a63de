"""Fail-silent failure scenarios (section 3.1 / section 5).

A failure makes a processor silent: it produces no results and sends no
comms while down.  Failures are *permanent* (``until = inf``) or
*intermittent* (the processor recovers at ``until``).  A scenario is a
set of failure intervals; the helpers answer the questions the simulator
asks ("is P up at t?", "when can P next run for d time units?").

Link failures are modelled the same way (a broken medium transmits
nothing while down) and are *masked* by schedules built with an
``Npl >= 1`` hypothesis: every inter-processor transfer is then carried
over ``Npl + 1`` link-disjoint routes, so any ``Npl`` broken links leave
at least one copy's route intact.  The paper's own conclusion left link
failures as future work; ``npl = 0`` schedules reproduce that original
engine, where a broken bus can still break the schedule.

How processors react to a missing comm is the scenario's other half:
:class:`DetectionPolicy` names the paper's two failure-detection options.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Iterator

from repro._record import FrozenRecord
from repro.exceptions import SimulationError


class DetectionPolicy(str, enum.Enum):
    """The two failure-detection options of section 5."""

    #: Option 1 — no detection: healthy processors keep sending to
    #: faulty ones; intermittent failures are recoverable.
    NONE = "none"
    #: Option 2 — timeout array: missed comms reveal faulty senders,
    #: whose processors then stop receiving traffic for good.
    TIMEOUT_ARRAY = "timeout-array"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class _Interval(FrozenRecord):
    """A down interval ``[at, until)``; sorts by its fields within a class."""

    _fields = ("resource", "at", "until")

    def __init__(
        self, resource: str, at: float, until: float = math.inf
    ) -> None:
        if math.isnan(at) or math.isnan(until):
            raise SimulationError(
                f"failure of {resource!r} at a NaN instant "
                f"({at!r} until {until!r})"
            )
        if at < 0:
            raise SimulationError(
                f"failure of {resource!r} at negative time {at!r}"
            )
        if until <= at:
            raise SimulationError(
                f"failure of {resource!r} recovers at {until!r} "
                f"before failing at {at!r}"
            )
        self.__dict__.update(resource=resource, at=at, until=until)

    def __lt__(self, other: "_Interval") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() < other._values()

    @property
    def permanent(self) -> bool:
        """True when the resource never recovers."""
        return math.isinf(self.until)

    def covers(self, instant: float) -> bool:
        """True when the resource is down at ``instant``."""
        return self.at <= instant < self.until

    def overlaps(self, start: float, end: float) -> bool:
        """True when the down interval intersects ``[start, end)``."""
        return self.at < end and start < self.until


class ProcessorFailure(_Interval):
    """One down interval ``[at, until)`` of one processor."""

    @property
    def processor(self) -> str:
        """Name of the failing processor."""
        return self.resource


class LinkFailure(_Interval):
    """One down interval ``[at, until)`` of one communication link."""

    @property
    def link(self) -> str:
        """Name of the failing link."""
        return self.resource


class FailureScenario:
    """A set of failure intervals, indexed by processor (and link).

    Examples
    --------
    >>> scenario = FailureScenario.crash("P1", at=0.0)
    >>> scenario.is_up("P1", 5.0)
    False
    >>> scenario.is_up("P2", 5.0)
    True
    """

    def __init__(
        self, failures: Iterable[ProcessorFailure | LinkFailure] = ()
    ) -> None:
        self._intervals: dict[str, list[ProcessorFailure]] = {}
        self._link_intervals: dict[str, list[LinkFailure]] = {}
        # Lazily memoized canonical views (the scenario is immutable
        # after construction): computed once, reused by every hash,
        # equality check and batch-engine dedup instead of
        # re-canonicalizing the interval tables per comparison.
        self._signature: tuple | None = None
        self._hash: int | None = None
        self._failure_set: tuple | None | bool = False
        for failure in failures:
            if isinstance(failure, LinkFailure):
                self._link_intervals.setdefault(failure.link, []).append(failure)
            else:
                self._intervals.setdefault(failure.processor, []).append(failure)
        for table in (self._intervals, self._link_intervals):
            for intervals in table.values():
                intervals.sort()
                for before, after in zip(intervals, intervals[1:]):
                    if before.overlaps(after.at, after.until):
                        raise SimulationError(
                            f"overlapping failure intervals for "
                            f"{before.resource!r}: {before} and {after}"
                        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def none(cls) -> "FailureScenario":
        """The nominal scenario: every processor healthy forever."""
        return cls()

    @classmethod
    def crash(cls, processor: str, at: float = 0.0) -> "FailureScenario":
        """One permanent fail-silent crash."""
        return cls([ProcessorFailure(processor, at)])

    @classmethod
    def crashes(cls, processors: Iterable[str], at: float = 0.0) -> "FailureScenario":
        """Several simultaneous permanent crashes."""
        return cls([ProcessorFailure(p, at) for p in processors])

    @classmethod
    def intermittent(
        cls, processor: str, at: float, until: float
    ) -> "FailureScenario":
        """One transient failure: down during ``[at, until)``."""
        return cls([ProcessorFailure(processor, at, until)])

    @classmethod
    def link_down(
        cls, link: str, at: float = 0.0, until: float = math.inf
    ) -> "FailureScenario":
        """One link failure (masked by schedules built with ``Npl >= 1``).

        Schedules built with the paper's original ``npl = 0`` hypothesis
        carry each transfer on a single route and offer no masking
        guarantee against a broken medium.
        """
        return cls([LinkFailure(link, at, until)])

    @classmethod
    def resource_crashes(
        cls,
        processors: Iterable[str] = (),
        links: Iterable[str] = (),
        at: float = 0.0,
    ) -> "FailureScenario":
        """Simultaneous permanent crashes of processors *and* links.

        The combined scenario the processor+link certificates enumerate:
        every named resource goes silent at ``at`` and never recovers.
        """
        return cls(
            [ProcessorFailure(p, at) for p in processors]
            + [LinkFailure(l, at) for l in links]
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[ProcessorFailure]:
        for processor in sorted(self._intervals):
            yield from self._intervals[processor]

    def __len__(self) -> int:
        return sum(len(v) for v in self._intervals.values()) + sum(
            len(v) for v in self._link_intervals.values()
        )

    def failed_processors(self) -> tuple[str, ...]:
        """Processors having at least one down interval, sorted."""
        return tuple(sorted(self._intervals))

    def failed_links(self) -> tuple[str, ...]:
        """Links having at least one down interval, sorted."""
        return tuple(sorted(self._link_intervals))

    def link_failures(self) -> tuple[LinkFailure, ...]:
        """All link down intervals, sorted."""
        return tuple(
            failure
            for link in sorted(self._link_intervals)
            for failure in self._link_intervals[link]
        )

    def failure_count(self) -> int:
        """Number of distinct processors that fail (the paper's ``k``)."""
        return len(self._intervals)

    # ------------------------------------------------------------------
    # canonical identity (memoized)
    # ------------------------------------------------------------------
    def signature(self) -> tuple:
        """Canonical, hashable identity of this scenario (memoized).

        Two scenarios with the same signature answer every query
        identically, so the signature is safe as a cache key for
        simulation results (the batch engine's scenario dedup) and for
        campaign job hashing.
        """
        if self._signature is None:
            self._signature = (
                tuple(
                    (f.resource, f.at, f.until)
                    for p in sorted(self._intervals)
                    for f in self._intervals[p]
                ),
                tuple(
                    (f.resource, f.at, f.until)
                    for l in sorted(self._link_intervals)
                    for f in self._link_intervals[l]
                ),
            )
        return self._signature

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.signature())
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailureScenario):
            return NotImplemented
        return self.signature() == other.signature()

    def permanent_failure_set(
        self,
    ) -> tuple[tuple[str, ...], tuple[str, ...], float] | None:
        """The ``(processors, links, at)`` form of a uniform crash subset.

        ``None`` unless every failure (processor *or* link) is permanent
        and all share one instant — the shape of the crash subsets and
        combined processor+link scenarios the compiled replay answers
        with its permanent-set queries.  Memoized like :meth:`signature`.
        """
        if self._failure_set is False:
            self._failure_set = None
            failures = [
                f
                for table in (self._intervals, self._link_intervals)
                for fs in table.values()
                for f in fs
            ]
            if failures:
                instants = {f.at for f in failures}
                if len(instants) == 1 and all(f.permanent for f in failures):
                    self._failure_set = (
                        tuple(sorted(self._intervals)),
                        tuple(sorted(self._link_intervals)),
                        instants.pop(),
                    )
        return self._failure_set

    def is_up(self, processor: str, instant: float) -> bool:
        """True when ``processor`` is healthy at ``instant``."""
        return not any(
            f.covers(instant) for f in self._intervals.get(processor, ())
        )

    def up_during(self, processor: str, start: float, end: float) -> bool:
        """True when ``processor`` is healthy over all of ``[start, end)``."""
        return not any(
            f.overlaps(start, end) for f in self._intervals.get(processor, ())
        )

    def resume_time(self, processor: str, instant: float) -> float:
        """When the processor is next up, starting from ``instant``.

        Returns ``instant`` itself when already up, ``inf`` when the
        covering failure is permanent.
        """
        for failure in self._intervals.get(processor, ()):
            if failure.covers(instant):
                return failure.until
        return instant

    def next_crash_after(self, processor: str, instant: float) -> float:
        """Start of the first down interval at or after ``instant`` (inf if none)."""
        for failure in self._intervals.get(processor, ()):
            if failure.at >= instant:
                return failure.at
            if failure.covers(instant):
                return failure.at
        return math.inf

    def next_window(
        self, processor: str, earliest: float, duration: float
    ) -> float | None:
        """Earliest ``start >= earliest`` with ``[start, start+duration)`` up.

        Returns ``None`` when no such window exists (permanent failure).
        """
        return _next_window(
            self._intervals.get(processor, ()), earliest, duration
        )

    # ------------------------------------------------------------------
    # link queries
    # ------------------------------------------------------------------
    def link_is_up(self, link: str, instant: float) -> bool:
        """True when ``link`` transmits at ``instant``."""
        return not any(
            f.covers(instant) for f in self._link_intervals.get(link, ())
        )

    def link_up_during(self, link: str, start: float, end: float) -> bool:
        """True when ``link`` transmits over all of ``[start, end)``."""
        return not any(
            f.overlaps(start, end) for f in self._link_intervals.get(link, ())
        )

    def link_next_window(
        self, link: str, earliest: float, duration: float
    ) -> float | None:
        """Earliest window of ``duration`` with the link up (None = never)."""
        return _next_window(
            self._link_intervals.get(link, ()), earliest, duration
        )

    def __repr__(self) -> str:
        entries = list(self) + list(self.link_failures())
        return f"FailureScenario({entries!r})"


def _next_window(
    intervals, earliest: float, duration: float
) -> float | None:
    """Shared window search over a sorted interval list."""
    start = max(earliest, 0.0)
    for _ in range(len(intervals) + 1):
        blocker = next(
            (f for f in intervals if f.overlaps(start, start + duration)),
            None,
        )
        if blocker is None:
            return start
        if blocker.permanent:
            return None
        start = blocker.until
    return start  # pragma: no cover - bounded by interval count
