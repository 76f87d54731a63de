"""The trace JSONL schema and its zero-dependency validator.

Every line of a trace file is one JSON object matching
:data:`TRACE_LINE_SCHEMA` — a JSON-Schema document restricted to the
keywords this repo needs (``type``, ``required``, ``properties``,
``additionalProperties``, ``enum``, ``oneOf``, ``items``, ``minimum``).
:func:`validate_line` interprets exactly that subset, so the schema is
both the machine-checked contract (CI's ``obs-smoke`` job validates
every traced line against it) and the documentation of record
(rendered in ``docs/observability.md``).

Line types
----------
``meta``
    First line of every stream: schema name/version, the producing
    pid, the wall-clock instant anchoring the monotonic timestamps and,
    for the process tracer (:func:`repro.obs.enable`), the start-up
    cost paid before tracing began (``startup_cpu_s``,
    ``modules_loaded``).
``span``
    One finished timing span.  Real spans carry ``t0``/``t1``/``dur``
    on the monotonic clock; *aggregate* spans (``agg.count`` present)
    carry only the summed ``dur`` of many sub-step occurrences.
``event``
    A point-in-time occurrence (a structured warning, a campaign job
    completion, a worker heartbeat) bound to the enclosing span.
``metrics``
    A :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dump,
    written at tracer shutdown.

Versioning: ``v`` is bumped on any breaking change to these shapes;
consumers must ignore lines whose ``v`` they do not know rather than
fail (append-only evolution, like the campaign store).
"""

from __future__ import annotations

from repro.obs.spans import SCHEMA_NAME, SCHEMA_VERSION

_ATTRS = {"type": "object"}

#: JSON Schema (subset) for one trace line.
TRACE_LINE_SCHEMA: dict = {
    "oneOf": [
        {
            "type": "object",
            "required": ["type", "v", "schema", "pid", "started_wall"],
            "properties": {
                "type": {"enum": ["meta"]},
                "v": {"type": "integer", "minimum": 1},
                "schema": {"enum": [SCHEMA_NAME]},
                "clock": {"type": "string"},
                "pid": {"type": "integer", "minimum": 0},
                "started_wall": {"type": "number"},
                "started": {"type": "number"},
                "startup_cpu_s": {"type": "number", "minimum": 0},
                "modules_loaded": {"type": "integer", "minimum": 0},
                "attrs": _ATTRS,
            },
            "additionalProperties": False,
        },
        {
            "type": "object",
            "required": ["type", "v", "name", "id", "dur"],
            "properties": {
                "type": {"enum": ["span"]},
                "v": {"type": "integer", "minimum": 1},
                "name": {"type": "string"},
                "id": {"type": "integer", "minimum": 1},
                "parent": {"type": "integer", "minimum": 1},
                "t0": {"type": "number"},
                "t1": {"type": "number"},
                "dur": {"type": "number"},
                "agg": {
                    "type": "object",
                    "required": ["count"],
                    "properties": {
                        "count": {"type": "integer", "minimum": 0},
                        "disjoint": {"type": "boolean"},
                    },
                    "additionalProperties": False,
                },
                "attrs": _ATTRS,
            },
            "additionalProperties": False,
        },
        {
            "type": "object",
            "required": ["type", "v", "name", "t"],
            "properties": {
                "type": {"enum": ["event"]},
                "v": {"type": "integer", "minimum": 1},
                "name": {"type": "string"},
                "t": {"type": "number"},
                "span": {"type": "integer", "minimum": 1},
                "attrs": _ATTRS,
            },
            "additionalProperties": False,
        },
        {
            "type": "object",
            "required": ["type", "v", "t", "snapshot"],
            "properties": {
                "type": {"enum": ["metrics"]},
                "v": {"type": "integer", "minimum": 1},
                "t": {"type": "number"},
                "snapshot": {"type": "object"},
            },
            "additionalProperties": False,
        },
    ]
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def _check(instance, schema: dict, path: str, errors: list[str]) -> bool:
    """Validate ``instance`` against the supported JSON-Schema subset.

    Appends human-readable messages to ``errors``; returns True when
    this subtree validated clean.
    """
    ok = True
    if "oneOf" in schema:
        branches = schema["oneOf"]
        # Dispatch on the discriminator first for readable errors: a
        # line with a known "type" reports that branch's mismatches
        # instead of four branch failures.
        kind = instance.get("type") if isinstance(instance, dict) else None
        for branch in branches:
            expected = branch.get("properties", {}).get("type", {}).get("enum")
            if expected and kind in expected:
                return _check(instance, branch, path, errors)
        for branch in branches:
            scratch: list[str] = []
            if _check(instance, branch, path, scratch):
                return True
        errors.append(f"{path}: matches no schema branch (type={kind!r})")
        return False
    expected_type = schema.get("type")
    if expected_type is not None:
        python_type = _TYPES[expected_type]
        if not isinstance(instance, python_type) or (
            expected_type in ("integer", "number")
            and isinstance(instance, bool)
        ):
            errors.append(
                f"{path}: expected {expected_type}, "
                f"got {type(instance).__name__}"
            )
            return False
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in {schema['enum']}")
        ok = False
    if "minimum" in schema and isinstance(instance, (int, float)):
        if instance < schema["minimum"]:
            errors.append(f"{path}: {instance!r} < minimum {schema['minimum']}")
            ok = False
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
                ok = False
        properties = schema.get("properties", {})
        for key, value in instance.items():
            if key in properties:
                if not _check(value, properties[key], f"{path}.{key}", errors):
                    ok = False
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}: unexpected key {key!r}")
                ok = False
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            if not _check(item, schema["items"], f"{path}[{index}]", errors):
                ok = False
    return ok


def validate_line(line: dict) -> list[str]:
    """Validation errors of one trace line ([] when schema-valid).

    Lines carrying a schema version newer than this library knows are
    accepted untouched (forward compatibility — consumers must skip,
    not fail).
    """
    if isinstance(line, dict):
        version = line.get("v")
        if isinstance(version, int) and version > SCHEMA_VERSION:
            return []
    errors: list[str] = []
    _check(line, TRACE_LINE_SCHEMA, "line", errors)
    return errors


def validate_trace(lines) -> list[str]:
    """Validate a whole trace: per-line schema plus stream invariants.

    Stream invariants: the first line is a ``meta`` line, and every
    ``parent`` / ``span`` reference points at a span id already seen
    (spans export on *exit*, children before parents — so a reference
    may point forward; it must simply exist in the stream).
    """
    errors: list[str] = []
    lines = list(lines)
    span_ids = {
        line.get("id")
        for line in lines
        if isinstance(line, dict) and line.get("type") == "span"
    }
    for number, line in enumerate(lines):
        for problem in validate_line(line):
            errors.append(f"line {number + 1}: {problem}")
        if isinstance(line, dict):
            reference = line.get("parent", line.get("span"))
            if reference is not None and reference not in span_ids:
                errors.append(
                    f"line {number + 1}: dangling span reference {reference}"
                )
    if not lines:
        errors.append("empty trace (no meta line)")
    elif not (isinstance(lines[0], dict) and lines[0].get("type") == "meta"):
        errors.append("line 1: stream must start with a meta line")
    return errors
