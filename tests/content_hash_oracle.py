"""Two-pass canonical form: the oracle of the content hashes.

The reference :func:`repro.schedule.serialization.content_hash` is
pinned against (``tests/test_content_hash.py``).  It normalizes a whole
document first — mappings become key-sorted dicts, lists and tuples
are sorted by the canonical dump of their elements, integral finite
floats become ints — and then dumps the result with
``json.dumps(sort_keys=True)``.  Sorting each list by its elements'
dumps re-dumps every subtree once per nesting level, so it is slow, and
it is kept only as the oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Mapping

from repro.schedule.serialization import CONTENT_HASH_VERSION


def canonical_value(value: Any) -> Any:
    """Normalize a document so logically-equal documents compare equal."""
    if isinstance(value, Mapping):
        return {key: canonical_value(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        normalized = [canonical_value(item) for item in value]
        return sorted(normalized, key=lambda item: canonical_json(item))
    if isinstance(value, float) and value.is_integer() and not math.isinf(value):
        return int(value)  # 3.0 and 3 hash identically
    return value


def canonical_json(document: Any) -> str:
    """Dump a document to its canonical JSON string (stable byte-wise)."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def oracle_content_hash(kind: str, document: Mapping) -> str:
    """SHA-256 of the version-tagged canonical form of a document."""
    payload = (
        f"repro:{kind}:v{CONTENT_HASH_VERSION}:"
        + canonical_json(canonical_value(document))
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
