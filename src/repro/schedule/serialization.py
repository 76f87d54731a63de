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
    # Booleans are rejected like in ``_hypothesis``: ``isinstance(True,
    # int)`` holds, and ``float(True)`` would load ``true`` as 1.0.
    if value == "inf":
        return math.inf
    if isinstance(value, (int, float)) and not isinstance(value, bool):
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


# The two table loaders fill the table's dict in one loop instead of one
# ``set`` call per entry.  They accept exactly what ``set`` accepts and
# hand a rejected value to ``set``, which raises its own error.  The
# table's ``_version`` ends at the entry count, as after that many
# ``set`` calls: the compiled kernel keys its row cache on it.

def exec_times_from_dict(document: Mapping) -> ExecutionTimes:
    """Rebuild an execution-time table from its document form."""
    _require_object(document, "exec-times")
    isinf = math.isinf
    try:
        table = ExecutionTimes()
        times = table._times
        count = 0
        for entry in document["entries"]:
            operation, processor = entry["operation"], entry["processor"]
            value = entry["time"]
            duration = value if type(value) is float else _decode_time(value)
            if not duration > 0 and not isinf(duration):
                table.set(operation, processor, duration)
            times[(operation, processor)] = duration
            count += 1
        table._version = count
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
        times = table._times
        count = 0
        for entry in document["entries"]:
            source, target, link = entry["source"], entry["target"], entry["link"]
            value = entry["time"]
            duration = value if type(value) is float else _decode_time(value)
            if not 0 < duration < math.inf:
                table.set((source, target), link, duration)
            times[((str(source), str(target)), link)] = duration
            count += 1
        table._version = count
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

# The canonical form is compact, ASCII-only JSON with sorted object keys
# in which every array is sorted by its elements' canonical strings:
# each list in our documents (operations, dependencies, timing entries,
# links, events) is a *set* whose dump order depends on insertion order
# — the source of byte-level flakiness between equal problems built in
# different orders.  Integral finite floats are written as ints, so 3.0
# and 3 hash identically.  Changing a single byte of this form orphans
# every campaign cache entry; ``tests/test_content_hash.py`` pins it.

_encode_string = json.encoder.encode_basestring_ascii


def _json_float(value: float) -> str:
    """A float written the way :mod:`json` writes it."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _canonical_float(value: float) -> str:
    if value.is_integer():  # False for inf and NaN
        return int.__repr__(int(value))
    return _json_float(value)


def _canonical_key(key: Any) -> str:
    """An object key converted the way :mod:`json` converts it."""
    if isinstance(key, str):
        text = key
    elif key is True or key is False:
        text = "true" if key else "false"
    elif key is None:
        text = "null"
    elif isinstance(key, int):
        text = int.__repr__(key)
    elif isinstance(key, float):
        text = _json_float(key)  # keys get no integral-float rule
    else:
        raise TypeError(
            f"keys must be str, int, float, bool or None, "
            f"not {type(key).__name__}"
        )
    return _encode_string(text)


def _canonical_object(mapping: Mapping) -> str:
    keys = sorted(mapping)
    if not keys:
        return "{}"
    # str keys sort only among str keys, so the first key tells.
    encode_key = _encode_string if type(keys[0]) is str else _canonical_key
    # ``canonical_json`` inlined here and in arrays: a leaf costs one call.
    encoder = _CANONICAL_BY_TYPE.get
    parts = []
    for key in keys:
        value = mapping[key]
        parts.append(
            encode_key(key) + ":" + encoder(type(value), _canonical_other)(value)
        )
    return "{" + ",".join(parts) + "}"


def _canonical_array(items: list | tuple) -> str:
    encoder = _CANONICAL_BY_TYPE.get
    return "[" + ",".join(sorted([
        encoder(type(item), _canonical_other)(item) for item in items
    ])) + "]"


def _canonical_other(value: Any) -> str:
    """Subclasses of the JSON types, and non-dict mappings."""
    if isinstance(value, Mapping):
        return _canonical_object(value)
    if isinstance(value, (list, tuple)):
        return _canonical_array(value)
    if isinstance(value, str):
        return _encode_string(value)
    if isinstance(value, float):
        return _canonical_float(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


#: The encoder of each exact JSON type; any other type goes through
#: :func:`_canonical_other`.
_CANONICAL_BY_TYPE = {
    str: _encode_string,
    int: int.__repr__,
    float: _canonical_float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    dict: _canonical_object,
    list: _canonical_array,
    tuple: _canonical_array,
}


def canonical_json(value: Any) -> str:
    """The canonical JSON string of ``value``, built bottom-up once.

    This is the form :func:`content_hash` digests.
    """
    return _CANONICAL_BY_TYPE.get(type(value), _canonical_other)(value)


def canonical_hash(kind: str, *parts: str) -> str:
    """SHA-256 of the version-tagged canonical form ``"".join(parts)``.

    The parts stream into the digest one by one, so a caller can splice
    values into a canonical text without concatenating it.
    """
    digest = hashlib.sha256(f"repro:{kind}:v{CONTENT_HASH_VERSION}:".encode())
    for part in parts:
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


def content_hash(kind: str, document: Mapping) -> str:
    """SHA-256 of the version-tagged canonical form of a document."""
    return canonical_hash(kind, canonical_json(document))


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
