"""Declarative campaign specifications.

A *campaign* is a family of scheduling experiments described as a grid:
workload families x topologies x processor counts x Npf x Npl x CCR x
seeds, optionally decorated with failure-injection scenarios and a
scheduler configuration.  The spec is plain data — JSON-(de)serializable — so the
same campaign can be launched from the CLI, from the experiment
harness, or replayed on another machine, and its expansion into
:class:`~repro.campaign.jobs.Job` objects is deterministic.

The supported workload families are the repo's structured graphs
(:mod:`repro.workloads.families`) plus the paper's random levelled DAGs
(:mod:`repro.workloads.random_dag`).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

from repro.analysis.sampling import check_sampling_parameters
from repro.core.options import SchedulerOptions
from repro.exceptions import SerializationError
from repro.schedule.serialization import load_json, save_json

SPEC_FORMAT_VERSION = 1

#: Workload families a spec may sweep over.
FAMILIES = ("in_tree", "out_tree", "butterfly", "gauss", "pipeline", "random")

#: Architecture topologies a spec may sweep over.
TOPOLOGIES = ("fully_connected", "single_bus", "ring", "star")

#: Quantities a job may compute (``ftbar`` is always measured).
MEASURES = ("ftbar", "non_ft", "hbp", "degraded", "reliability")

#: Crash-instant policies of the ``reliability`` measure.
CRASH_TIME_POLICIES = ("zero", "boundaries")

#: Execution backends a spec may select.  ``local`` and ``serial`` are
#: one dispatch (in process at one worker, directory workers over a
#: private temporary directory at more); ``directory`` runs the workers
#: on a persistent campaign directory that more workers may join.
BACKENDS = ("local", "serial", "directory")


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload family with its size parameters.

    ``size`` is the family's natural knob: tree depth for ``in_tree`` /
    ``out_tree``, stage count for ``butterfly`` and ``pipeline``, matrix
    size for ``gauss``, and the operation count ``N`` for ``random``.
    ``arity`` is the tree fan-in/out (or the pipeline width); the last
    two fields only matter for ``random`` graphs.
    """

    family: str
    size: int
    arity: int = 2
    heterogeneous: bool = False
    max_predecessors: int = 3

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise SerializationError(
                f"unknown workload family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.size < 1:
            raise SerializationError("workload size must be >= 1")
        if self.family == "gauss" and self.size < 2:
            raise SerializationError("gauss workload size must be >= 2")
        if self.arity < 1:
            raise SerializationError("workload arity must be >= 1")


@dataclass(frozen=True)
class FailureSpec:
    """A failure-injection scenario applied to every job of the grid.

    ``processors`` are indices into the architecture's processor list
    (0-based), so the same spec works across topologies and processor
    counts; jobs whose architecture is too small skip the scenario.
    """

    processors: tuple[int, ...]
    at: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "processors", tuple(self.processors))
        if any(index < 0 for index in self.processors):
            raise SerializationError("failure processor indices must be >= 0")


@dataclass(frozen=True)
class ReliabilitySpec:
    """Configuration of the ``reliability`` measure (certification jobs).

    Every job certifies its FTBAR schedule with the batch scenario
    engine and sweeps ``probabilities`` as the uniform per-processor
    failure probability — one reliability/MTTF figure per probability,
    the columns of a campaign heatmap (the ``npfs`` axis of the grid
    provides the rows).  ``crash_times`` selects the crash instants:
    ``"zero"`` is the paper's worst case (t = 0), ``"boundaries"``
    crashes at up to ``boundary_limit`` static event start dates.
    """

    probabilities: tuple[float, ...] = (0.01,)
    crash_times: str = "zero"
    boundary_limit: int = 16
    max_failures: int | None = None
    detection: str = "none"
    #: Combined enumeration bound on broken links (None = the job
    #: schedule's own ``npl``, so link-tolerant schedules are certified
    #: against exactly what they promise).
    max_link_failures: int | None = None
    #: Uniform per-link failure probability for the reliability sweep
    #: (None keeps the processor-only probability sum).
    link_probability: float | None = None
    #: Confidence level of sampled intervals.  The defaults of these
    #: three knobs are dropped from job digests so pre-sampling specs
    #: keep their identities.
    confidence: float = 0.99
    #: Total sample budget per certificate / reliability estimate
    #: (None = the library defaults).
    budget: int | None = None
    #: User seed of the deterministic sampling RNG streams.
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "probabilities", tuple(float(q) for q in self.probabilities)
        )
        if self.link_probability is not None and not (
            0.0 <= self.link_probability <= 1.0
        ):
            raise SerializationError(
                f"link failure probability must be in [0, 1], "
                f"got {self.link_probability!r}"
            )
        if not self.probabilities:
            raise SerializationError(
                "a reliability spec needs at least one failure probability"
            )
        for probability in self.probabilities:
            if not 0.0 <= probability <= 1.0:
                raise SerializationError(
                    f"failure probability must be in [0, 1], got {probability!r}"
                )
        if self.crash_times not in CRASH_TIME_POLICIES:
            raise SerializationError(
                f"unknown crash-time policy {self.crash_times!r}; "
                f"expected one of {CRASH_TIME_POLICIES}"
            )
        if self.boundary_limit < 1:
            raise SerializationError("boundary_limit must be >= 1")
        if self.detection not in ("none", "timeout-array"):
            raise SerializationError(
                f"unknown detection policy {self.detection!r}"
            )
        for knob in ("max_failures", "max_link_failures"):
            value = getattr(self, knob)
            if value is not None and value < 0:
                raise SerializationError(f"{knob} must be >= 0, got {value!r}")
        check_sampling_parameters(
            self.confidence, self.budget, error=SerializationError
        )


@dataclass(frozen=True)
class CampaignSpec:
    """The full grid of one experiment campaign."""

    name: str
    workloads: tuple[WorkloadSpec, ...]
    topologies: tuple[str, ...] = ("fully_connected",)
    processors: tuple[int, ...] = (4,)
    npfs: tuple[int, ...] = (1,)
    npls: tuple[int, ...] = (0,)
    ccrs: tuple[float, ...] = (1.0,)
    seeds: tuple[int, ...] = (0,)
    failures: tuple[FailureSpec, ...] = ()
    measures: tuple[str, ...] = ("ftbar", "non_ft")
    mean_execution: float = 10.0
    options: Mapping[str, bool] = field(default_factory=dict)
    reliability: ReliabilitySpec | None = None
    #: Default execution backend (``repro campaign run --backend``
    #: overrides).  Not part of any job's digest: the same campaign
    #: computes the same records whatever transport ran it.
    backend: str = "local"

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "topologies", tuple(self.topologies))
        object.__setattr__(self, "processors", tuple(self.processors))
        object.__setattr__(self, "npfs", tuple(self.npfs))
        object.__setattr__(self, "npls", tuple(self.npls))
        if any(npl < 0 for npl in self.npls):
            raise SerializationError("npl values must be >= 0")
        object.__setattr__(self, "ccrs", tuple(float(c) for c in self.ccrs))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "failures", tuple(self.failures))
        object.__setattr__(self, "measures", tuple(self.measures))
        object.__setattr__(self, "options", dict(self.options))
        if not self.workloads:
            raise SerializationError("a campaign needs at least one workload")
        for topology in self.topologies:
            if topology not in TOPOLOGIES:
                raise SerializationError(
                    f"unknown topology {topology!r}; expected one of {TOPOLOGIES}"
                )
        for measure in self.measures:
            if measure not in MEASURES:
                raise SerializationError(
                    f"unknown measure {measure!r}; expected one of {MEASURES}"
                )
        unknown = set(self.options) - set(SchedulerOptions._fields)
        if unknown:
            raise SerializationError(f"unknown scheduler options: {sorted(unknown)}")
        for name, value in self.options.items():
            # Every scheduler option is a boolean switch.
            if not isinstance(value, bool):
                raise SerializationError(
                    f"invalid campaign spec: field 'options.{name}' must be "
                    f"a boolean, got {value!r}"
                )
        if "reliability" in self.measures and self.reliability is None:
            object.__setattr__(self, "reliability", ReliabilitySpec())
        if self.backend not in BACKENDS:
            raise SerializationError(
                f"unknown execution backend {self.backend!r}; "
                f"expected one of {BACKENDS}"
            )

    @property
    def grid_size(self) -> int:
        """Number of grid points before job deduplication."""
        return (
            len(self.workloads)
            * len(self.topologies)
            * len(self.processors)
            * len(self.npfs)
            * len(self.npls)
            * len(self.ccrs)
            * len(self.seeds)
        )

    def coordinates(self) -> Iterator[tuple]:
        """Iterate the grid in its canonical (deterministic) order."""
        return itertools.product(
            self.workloads,
            self.topologies,
            self.processors,
            self.npfs,
            self.npls,
            self.ccrs,
            self.seeds,
        )

    def scheduler_options(self) -> SchedulerOptions:
        """The scheduler configuration every job of the campaign uses."""
        return SchedulerOptions(**self.options)


# ----------------------------------------------------------------------
# JSON round trip
# ----------------------------------------------------------------------

def campaign_to_dict(spec: CampaignSpec) -> dict:
    """Serialize a campaign spec to a JSON-compatible document."""
    document = asdict(spec)
    document["format_version"] = SPEC_FORMAT_VERSION
    document["workloads"] = [asdict(w) for w in spec.workloads]
    document["failures"] = [asdict(f) for f in spec.failures]
    document["reliability"] = (
        asdict(spec.reliability) if spec.reliability is not None else None
    )
    return document


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(check):
    return lambda value: isinstance(value, (list, tuple)) and all(
        map(check, value)
    )


#: Expected type of a spec field, as errors name it -> its check.
_KINDS = {
    "a string": lambda value: isinstance(value, str),
    "an integer": _is_int,
    "an integer or null": lambda value: value is None or _is_int(value),
    "a number": _is_number,
    "a number or null": lambda value: value is None or _is_number(value),
    "a boolean": lambda value: isinstance(value, bool),
    "an object": lambda value: isinstance(value, Mapping),
    "an object or null": lambda value: (
        value is None or isinstance(value, Mapping)
    ),
    "a list of strings": _list_of(lambda value: isinstance(value, str)),
    "a list of integers": _list_of(_is_int),
    "a list of numbers": _list_of(_is_number),
    "a list of objects": _list_of(lambda value: isinstance(value, Mapping)),
}

_CAMPAIGN_FIELDS = {
    "name": "a string", "workloads": "a list of objects",
    "topologies": "a list of strings", "processors": "a list of integers",
    "npfs": "a list of integers", "npls": "a list of integers",
    "ccrs": "a list of numbers", "seeds": "a list of integers",
    "failures": "a list of objects", "measures": "a list of strings",
    "mean_execution": "a number", "options": "an object",
    "reliability": "an object or null", "backend": "a string",
}
_WORKLOAD_FIELDS = {
    "family": "a string", "size": "an integer", "arity": "an integer",
    "heterogeneous": "a boolean", "max_predecessors": "an integer",
}
_FAILURE_FIELDS = {"processors": "a list of integers", "at": "a number"}
_RELIABILITY_FIELDS = {
    "probabilities": "a list of numbers", "crash_times": "a string",
    "boundary_limit": "an integer", "max_failures": "an integer or null",
    "detection": "a string", "max_link_failures": "an integer or null",
    "link_probability": "a number or null", "method": "a string",
    "confidence": "a number", "budget": "an integer or null",
    "seed": "an integer",
}


def _read(
    document, fields: Mapping[str, str], where: str,
    required: tuple[str, ...] = (), strict: bool = True,
) -> dict:
    """The ``fields`` present in ``document``, each type-checked.

    Errors name the field's path and the expected type; with ``strict``
    an unknown field is an error too.
    """
    if not isinstance(document, Mapping):
        raise SerializationError(
            f"invalid campaign spec: {where.rstrip('.') or 'the document'} "
            f"must be a JSON object, got {type(document).__name__}"
        )
    unknown = sorted(set(document) - set(fields)) if strict else []
    if unknown:
        raise SerializationError(
            f"invalid campaign spec: unknown fields {unknown} in "
            f"{where.rstrip('.')!r}"
        )
    for name in required:
        if name not in document:
            raise SerializationError(
                f"invalid campaign spec: missing the required field "
                f"{where + name!r}"
            )
    for name, kind in fields.items():
        if name in document and not _KINDS[kind](document[name]):
            raise SerializationError(
                f"invalid campaign spec: field {where + name!r} must be "
                f"{kind}, got {document[name]!r}"
            )
    return {name: document[name] for name in fields if name in document}


def campaign_from_dict(document: Mapping) -> CampaignSpec:
    """Rebuild a campaign spec from its document form.

    Every field is type-checked on the way in, so a malformed document
    fails with one :class:`SerializationError` naming the field and the
    expected type.
    """
    values = _read(
        document, _CAMPAIGN_FIELDS, "", ("name", "workloads"), strict=False
    )
    values["workloads"] = tuple(
        WorkloadSpec(**_read(
            entry, _WORKLOAD_FIELDS, f"workloads[{index}].", ("family", "size")
        ))
        for index, entry in enumerate(values["workloads"])
    )
    failures = []
    for index, entry in enumerate(values.get("failures", ())):
        failure = _read(
            entry, _FAILURE_FIELDS, f"failures[{index}].", ("processors",)
        )
        failures.append(FailureSpec(
            tuple(failure["processors"]), float(failure.get("at", 0.0))
        ))
    values["failures"] = tuple(failures)
    if "mean_execution" in values:
        values["mean_execution"] = float(values["mean_execution"])
    if values.get("reliability") is not None:
        reliability = _read(
            values["reliability"], _RELIABILITY_FIELDS, "reliability."
        )
        # Documents written while ``method`` was a field carry "auto".
        if reliability.pop("method", "auto") != "auto":
            raise SerializationError(
                "invalid campaign spec: field 'reliability.method' was "
                "retired; only \"auto\" is accepted (each level's size "
                "picks exact or sampled certification)"
            )
        values["reliability"] = ReliabilitySpec(**reliability)
    return CampaignSpec(**values)


def load_campaign(path: str | Path) -> CampaignSpec:
    """Read a campaign spec from a JSON file."""
    return campaign_from_dict(load_json(path))


def save_campaign(spec: CampaignSpec, path: str | Path) -> None:
    """Write a campaign spec as pretty-printed JSON."""
    save_json(campaign_to_dict(spec), path)
