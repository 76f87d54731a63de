"""The full scheduling problem bundle.

The paper's inputs are an algorithm graph ``Alg``, an architecture graph
``Arc``, timing tables ``Exe`` (with distribution constraints ``Dis`` as
``inf`` entries), real-time constraints ``Rtc`` and a failure hypothesis
``Npf``.  :class:`ProblemSpec` groups them so schedulers, the CLI and the
serializers all speak the same vocabulary.
"""

from __future__ import annotations

from repro._record import Record
from repro.exceptions import SchedulingError
from repro.graphs.algorithm import AlgorithmGraph
from repro.hardware.architecture import Architecture
from repro.timing.comm_times import CommunicationTimes
from repro.timing.constraints import RealTimeConstraints
from repro.timing.exec_times import ExecutionTimes


class ProblemSpec(Record):
    """Everything the distribution heuristic needs (Figure 1 of the paper).

    Parameters
    ----------
    algorithm:
        The data-flow graph ``Alg``.
    architecture:
        The target distributed architecture ``Arc``.
    exec_times:
        Per-(operation, processor) durations; ``inf`` entries encode the
        distribution constraints ``Dis``.
    comm_times:
        Per-(data-dependency, link) durations.
    npf:
        Number of fail-silent processor failures to tolerate.
    rtc:
        Optional real-time constraints ``Rtc``.
    name:
        Identifier used in reports and serialized documents.
    npl:
        Number of communication-link failures to tolerate.  The paper
        leaves link failures as future work (``npl = 0`` reproduces its
        engine exactly); with ``npl >= 1`` every inter-processor
        transfer is replicated over ``npl + 1`` link-disjoint routes.

    :meth:`replace` builds a variant (another ``npf``, say) through the
    constructor, so its checks run again.
    """

    _fields = (
        "algorithm", "architecture", "exec_times", "comm_times", "npf",
        "rtc", "name", "npl",
    )

    def __init__(
        self,
        algorithm: AlgorithmGraph,
        architecture: Architecture,
        exec_times: ExecutionTimes,
        comm_times: CommunicationTimes,
        npf: int = 0,
        rtc: RealTimeConstraints | None = None,
        name: str = "problem",
        npl: int = 0,
    ) -> None:
        if npf < 0:
            raise SchedulingError(f"npf must be >= 0, got {npf}")
        if npl < 0:
            raise SchedulingError(f"npl must be >= 0, got {npl}")
        self.algorithm = algorithm
        self.architecture = architecture
        self.exec_times = exec_times
        self.comm_times = comm_times
        self.npf = npf
        self.rtc = RealTimeConstraints() if rtc is None else rtc
        self.name = name
        self.npl = npl

    @property
    def replication_factor(self) -> int:
        """Minimum number of replicas per operation: ``Npf + 1``."""
        return self.npf + 1

    @property
    def route_replication_factor(self) -> int:
        """Link-disjoint routes per inter-processor transfer: ``Npl + 1``."""
        return self.npl + 1

    def validate(self) -> None:
        """Cross-check all the pieces of the problem.

        Verifies the graphs individually, the completeness of both timing
        tables, and that the architecture offers at least ``Npf + 1``
        processors (otherwise no operation can be replicated enough).
        """
        self.algorithm.validate()
        self.architecture.validate()
        processors = self.architecture.processor_names()
        self._check_replica_count(processors)
        self.exec_times.validate_against(self.algorithm.operation_names(), processors)
        links = self.architecture.link_names()
        if links:
            self.comm_times.validate_against(self.algorithm.dependencies(), links)
        elif self.algorithm.dependencies() and len(processors) > 1:
            raise SchedulingError(
                "architecture has several processors but no communication link"
            )
        self._check_disjoint_routes(processors)

    def validate_replication(self) -> None:
        """The checks of :meth:`validate` that depend on ``npf`` / ``npl``.

        For a problem whose content (graphs, tables, interconnect) has
        passed :meth:`validate` at another ``npf`` / ``npl``, these are
        the only checks that can fail, with the same messages.
        """
        processors = self.architecture.processor_names()
        self._check_replica_count(processors)
        self._check_disjoint_routes(processors)

    def _check_replica_count(self, processors: list[str]) -> None:
        if len(processors) < self.replication_factor:
            raise SchedulingError(
                f"{self.replication_factor} replicas required but architecture "
                f"{self.architecture.name!r} only has {len(processors)} processors"
            )

    def _check_disjoint_routes(self, processors: list[str]) -> None:
        if self.npl >= 1 and len(processors) > 1:
            # Replication may place communicating replicas on any
            # processor pair, so every pair must offer Npl + 1
            # link-disjoint routes (the planner's error names the
            # achievable Menger bound).
            self.architecture.route_planner.require_disjoint_routes(
                self.route_replication_factor
            )

    def __repr__(self) -> str:
        return (
            f"ProblemSpec(name={self.name!r}, operations={len(self.algorithm)}, "
            f"processors={len(self.architecture)}, npf={self.npf})"
        )
