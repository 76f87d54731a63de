"""Tunable knobs of the FTBAR scheduler.

The defaults reproduce the paper's algorithm; the flags exist for the
ablation experiments (E8 in DESIGN.md) that quantify how much each
design choice contributes.
"""

from __future__ import annotations

from repro._record import FrozenRecord


class SchedulerOptions(FrozenRecord):
    """Configuration of :class:`~repro.core.ftbar.FTBARScheduler`.

    No field picks an engine: the compiled kernel
    (:mod:`repro.core.kernel`) runs every problem.  Links are reserved
    append-only, as in the paper.  The fault hypothesis (``Npf``,
    ``Npl``) is part of the problem (:class:`~repro.problem.ProblemSpec`),
    not an option.

    Parameters
    ----------
    duplication:
        Apply the ``Minimize_start_time`` LIP-duplication procedure when
        placing replicas (section 4.2, micro-step Â).  Disabling it
        yields plain active replication.
    processor_aware_pressure:
        Replace the paper's pressure ``σ = S_worst(o, p) + S̄(o)`` (whose
        ``S̄`` uses the *average* execution time of ``o``) by the
        processor-aware ``σ = S_worst(o, p) + Exe(o, p) + tail(o)``,
        which accounts for how slowly ``o`` actually runs on ``p``.
        Off by default: the paper's formula is what reproduces its
        numbers exactly (the worked example lands on 15.05 with it); the
        aware variant is an improvement measured by the ablation bench
        (it finds 12.05 on the same example).
    symmetry:
        Prune isomorphic candidate placements in the compiled kernel:
        the architecture's processor/link automorphism group is computed
        at compile time (:mod:`repro.core.symmetry`) and, while the
        partial schedule is still invariant under a generator, only one
        representative processor per orbit is evaluated — the σ of the
        other orbit members is a bit-identical copy, so schedules,
        observer streams and content hashes are unchanged (the
        ``pressure_evaluations`` / ``cache_hits`` counters shrink;
        ``FTBARStats.symmetry_pruned`` counts the skipped pairs).
        ``symmetry=False`` restores
        the exhaustive sweep (and the ``PINNED_COUNTERS`` pins of
        ``tests/test_compiled_kernel.py``).

    Options compare and hash by value: compiled problems are memoized
    per options.  ``_fields`` names every option.
    """

    _fields = ("duplication", "processor_aware_pressure", "symmetry")

    def __init__(
        self,
        duplication: bool = True,
        processor_aware_pressure: bool = False,
        symmetry: bool = True,
    ) -> None:
        self.__dict__.update(
            duplication=duplication,
            processor_aware_pressure=processor_aware_pressure,
            symmetry=symmetry,
        )
