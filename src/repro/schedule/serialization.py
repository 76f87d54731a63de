"""JSON (de)serialization of every model in the library.

All converters go through plain ``dict``/``list`` documents so they can
be written with the standard :mod:`json` module.  Infinite execution
times (the ``Dis`` constraints) are encoded as the string ``"inf"``
because strict JSON has no infinity literal.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import SerializationError
from repro.graphs.algorithm import AlgorithmGraph
from repro.hardware.architecture import Architecture
from repro.hardware.link import Link, LinkKind
from repro.problem import ProblemSpec
from repro.schedule.schedule import Schedule
from repro.timing.comm_times import CommunicationTimes
from repro.timing.constraints import RealTimeConstraints
from repro.timing.exec_times import ExecutionTimes

_FORMAT_VERSION = 1


def _encode_time(value: float) -> float | str:
    return "inf" if math.isinf(value) else value


def _decode_time(value: Any) -> float:
    if value == "inf":
        return math.inf
    if isinstance(value, (int, float)):
        return float(value)
    raise SerializationError(f"invalid time value {value!r}")


_JSON_TYPES = {
    list: "an array", str: "a string", bool: "a boolean", int: "a number",
    float: "a number", type(None): "null",
}


def _require_object(document: Any, kind: str) -> None:
    """Reject a document (or section) that is not a JSON object."""
    if not isinstance(document, Mapping):
        found = _JSON_TYPES.get(type(document), type(document).__name__)
        raise SerializationError(
            f"invalid {kind} document: expected an object, got {found}"
        )


# ----------------------------------------------------------------------
# algorithm
# ----------------------------------------------------------------------

def algorithm_to_dict(algorithm: AlgorithmGraph) -> dict:
    """Serialize an algorithm graph to a JSON-compatible document."""
    return {
        "name": algorithm.name,
        "operations": [
            {"name": op.name, "kind": op.kind.value}
            for op in algorithm.operations()
        ],
        "dependencies": [
            {
                "source": source,
                "target": target,
                "data_size": algorithm.data_size(source, target),
            }
            for source, target in algorithm.dependencies()
        ],
    }


def algorithm_from_dict(document: Mapping) -> AlgorithmGraph:
    """Rebuild an algorithm graph from its document form."""
    _require_object(document, "algorithm")
    try:
        graph = AlgorithmGraph(document.get("name", "algorithm"))
        for entry in document["operations"]:
            graph.add_operation(entry["name"], entry.get("kind", "comp"))
        for entry in document.get("dependencies", []):
            graph.add_dependency(
                entry["source"], entry["target"], entry.get("data_size", 1.0)
            )
        return graph
    except (KeyError, TypeError) as error:
        raise SerializationError(f"invalid algorithm document: {error}") from error


# ----------------------------------------------------------------------
# architecture
# ----------------------------------------------------------------------

def architecture_to_dict(architecture: Architecture) -> dict:
    """Serialize an architecture graph to a JSON-compatible document."""
    return {
        "name": architecture.name,
        "processors": list(architecture.processor_names()),
        "links": [
            {
                "name": link.name,
                "endpoints": list(link.sorted_endpoints()),
                "kind": link.kind.value,
            }
            for link in architecture.links()
        ],
    }


def architecture_from_dict(document: Mapping) -> Architecture:
    """Rebuild an architecture from its document form."""
    _require_object(document, "architecture")
    try:
        architecture = Architecture(document.get("name", "architecture"))
        for processor in document["processors"]:
            architecture.add_processor(processor)
        for entry in document.get("links", []):
            architecture.add_link(
                Link(
                    entry["name"],
                    frozenset(entry["endpoints"]),
                    LinkKind(entry.get("kind", "point-to-point")),
                )
            )
        return architecture
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"invalid architecture document: {error}") from error


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------

def exec_times_to_dict(table: ExecutionTimes) -> dict:
    """Serialize an execution-time table (``inf`` becomes ``"inf"``)."""
    return {
        "entries": [
            {"operation": op, "processor": proc, "time": _encode_time(duration)}
            for (op, proc), duration in sorted(table.entries().items())
        ]
    }


def exec_times_from_dict(document: Mapping) -> ExecutionTimes:
    """Rebuild an execution-time table from its document form."""
    _require_object(document, "exec-times")
    try:
        table = ExecutionTimes()
        for entry in document["entries"]:
            table.set(
                entry["operation"], entry["processor"], _decode_time(entry["time"])
            )
        return table
    except (KeyError, TypeError) as error:
        raise SerializationError(f"invalid exec-times document: {error}") from error


def comm_times_to_dict(table: CommunicationTimes) -> dict:
    """Serialize a communication-time table."""
    return {
        "entries": [
            {
                "source": edge[0],
                "target": edge[1],
                "link": link,
                "time": duration,
            }
            for (edge, link), duration in sorted(table.entries().items())
        ]
    }


def comm_times_from_dict(document: Mapping) -> CommunicationTimes:
    """Rebuild a communication-time table from its document form."""
    _require_object(document, "comm-times")
    try:
        table = CommunicationTimes()
        for entry in document["entries"]:
            table.set(
                (entry["source"], entry["target"]),
                entry["link"],
                _decode_time(entry["time"]),
            )
        return table
    except (KeyError, TypeError) as error:
        raise SerializationError(f"invalid comm-times document: {error}") from error


def rtc_to_dict(rtc: RealTimeConstraints) -> dict:
    """Serialize real-time constraints."""
    return {
        "global_deadline": rtc.global_deadline,
        "operation_deadlines": dict(rtc.operation_deadlines),
    }


def rtc_from_dict(document: Mapping) -> RealTimeConstraints:
    """Rebuild real-time constraints from their document form."""
    _require_object(document, "rtc")
    try:
        return RealTimeConstraints(
            global_deadline=document.get("global_deadline"),
            operation_deadlines=dict(document.get("operation_deadlines", {})),
        )
    except (TypeError, AttributeError) as error:
        raise SerializationError(f"invalid rtc document: {error}") from error


# ----------------------------------------------------------------------
# problem
# ----------------------------------------------------------------------

def problem_to_dict(problem: ProblemSpec) -> dict:
    """Serialize a full scheduling problem.

    ``npl`` is emitted only when nonzero so documents (and the content
    hashes derived from them) of pre-link-tolerance problems are
    byte-identical to what earlier versions produced — campaign caches
    keep their entries, while any ``npl >= 1`` problem hashes apart.
    """
    document = {
        "format_version": _FORMAT_VERSION,
        "name": problem.name,
        "npf": problem.npf,
        "algorithm": algorithm_to_dict(problem.algorithm),
        "architecture": architecture_to_dict(problem.architecture),
        "exec_times": exec_times_to_dict(problem.exec_times),
        "comm_times": comm_times_to_dict(problem.comm_times),
        "rtc": rtc_to_dict(problem.rtc),
    }
    if problem.npl:
        document["npl"] = problem.npl
    return document


def _hypothesis(document: Mapping, key: str) -> int:
    """A failure hypothesis (``npf`` / ``npl``, default 0): an int >= 0.

    Strings, booleans and floats are rejected rather than coerced:
    ``int("1")``, ``int(True)`` and ``int(1.7)`` would each silently
    schedule a hypothesis the document does not state.
    """
    value = document.get(key, 0)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SerializationError(
            f"{key} must be an integer >= 0, got {value!r}"
        )
    return value


def problem_from_dict(document: Mapping) -> ProblemSpec:
    """Rebuild a full scheduling problem from its document form."""
    _require_object(document, "problem")
    try:
        return ProblemSpec(
            name=document.get("name", "problem"),
            npf=_hypothesis(document, "npf"),
            npl=_hypothesis(document, "npl"),
            algorithm=algorithm_from_dict(document["algorithm"]),
            architecture=architecture_from_dict(document["architecture"]),
            exec_times=exec_times_from_dict(document["exec_times"]),
            comm_times=comm_times_from_dict(document["comm_times"]),
            rtc=rtc_from_dict(document.get("rtc", {})),
        )
    except KeyError as error:
        raise SerializationError(f"invalid problem document: {error}") from error


# ----------------------------------------------------------------------
# schedule
# ----------------------------------------------------------------------

def schedule_to_dict(schedule: Schedule) -> dict:
    """Serialize a static schedule with all its events.

    Like :func:`problem_to_dict`, the ``npl`` hypothesis and per-comm
    ``route`` indices are emitted only when nonzero, keeping the
    documents (and content hashes) of ``npl = 0`` schedules identical
    to what earlier versions produced.
    """
    document = {
        "format_version": _FORMAT_VERSION,
        "name": schedule.name,
        "npf": schedule.npf,
        "processors": list(schedule.processor_names()),
        "links": list(schedule.link_names()),
        "operations": [
            {
                "operation": e.operation,
                "replica": e.replica,
                "processor": e.processor,
                "start": e.start,
                "end": e.end,
                "duplicated": e.duplicated,
            }
            for e in schedule.all_operations()
        ],
        "comms": [
            {
                "source": c.source,
                "target": c.target,
                "source_replica": c.source_replica,
                "target_replica": c.target_replica,
                "link": c.link,
                "start": c.start,
                "end": c.end,
                "source_processor": c.source_processor,
                "target_processor": c.target_processor,
                "hop_index": c.hop_index,
                **({"route": c.route} if c.route else {}),
            }
            for c in schedule.all_comms()
        ],
    }
    if schedule.npl:
        document["npl"] = schedule.npl
    return document


def schedule_from_dict(document: Mapping) -> Schedule:
    """Rebuild a static schedule from its document form.

    Replica indices are re-derived from placement order, so the document
    must list operations sorted by start date (which
    :func:`schedule_to_dict` guarantees).
    """
    _require_object(document, "schedule")
    try:
        schedule = Schedule(
            processors=document["processors"],
            links=document.get("links", []),
            npf=_hypothesis(document, "npf"),
            npl=_hypothesis(document, "npl"),
            name=document.get("name", "schedule"),
        )
        events = sorted(
            document.get("operations", []),
            key=lambda e: (e["operation"], e["replica"]),
        )
        for entry in events:
            schedule.place_operation(
                entry["operation"],
                entry["processor"],
                entry["start"],
                entry["end"] - entry["start"],
                duplicated=bool(entry.get("duplicated", False)),
            )
        for entry in document.get("comms", []):
            schedule.place_comm(
                entry["source"],
                entry["target"],
                int(entry["source_replica"]),
                int(entry["target_replica"]),
                entry["link"],
                entry["start"],
                entry["end"] - entry["start"],
                entry["source_processor"],
                entry["target_processor"],
                hop_index=int(entry.get("hop_index", 0)),
                route=int(entry.get("route", 0)),
            )
        return schedule
    except (KeyError, TypeError) as error:
        raise SerializationError(f"invalid schedule document: {error}") from error


# ----------------------------------------------------------------------
# content hashing
# ----------------------------------------------------------------------

CONTENT_HASH_VERSION = 1


def _canonical_value(value: Any) -> Any:
    """Normalize a document so logically-equal documents compare equal.

    Dict keys are sorted by the JSON encoder; lists are sorted by the
    canonical dump of their elements because every list in our documents
    (operations, dependencies, timing entries, links, events) is a *set*
    whose dump order depends on insertion order — the source of the
    byte-level flakiness between equal problems built in different
    orders.
    """
    if isinstance(value, Mapping):
        return {key: _canonical_value(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        normalized = [_canonical_value(item) for item in value]
        return sorted(normalized, key=lambda item: canonical_json(item))
    if isinstance(value, float) and value.is_integer() and not math.isinf(value):
        return int(value)  # 3.0 and 3 hash identically
    return value


def canonical_json(document: Any) -> str:
    """Dump a document to its canonical JSON string (stable byte-wise)."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def content_hash(kind: str, document: Mapping) -> str:
    """SHA-256 of the version-tagged canonical form of a document."""
    payload = (
        f"repro:{kind}:v{CONTENT_HASH_VERSION}:"
        + canonical_json(_canonical_value(document))
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def problem_content_hash(problem: ProblemSpec) -> str:
    """Stable identity of a scheduling problem.

    Two :class:`~repro.problem.ProblemSpec` instances describing the
    same problem hash identically regardless of the order operations,
    dependencies or timing entries were inserted in.  The campaign cache
    uses this as its key.
    """
    return content_hash("problem", problem_to_dict(problem))


def schedule_content_hash(schedule: Schedule) -> str:
    """Stable identity of a static schedule (event order insensitive)."""
    return content_hash("schedule", schedule_to_dict(schedule))


# ----------------------------------------------------------------------
# file helpers
# ----------------------------------------------------------------------

def save_json(document: Mapping, path: str | Path) -> None:
    """Write a document as pretty-printed JSON."""
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True))


def load_json(path: str | Path) -> dict:
    """Read a JSON document from disk."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise SerializationError(f"invalid JSON in {path}: {error}") from error
