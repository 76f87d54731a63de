"""Injection plans: which faults fire where, decided by a seeded hash.

A *plan* is a JSON document listing triggers.  Each trigger names a
failpoint site (see :data:`FAILPOINT_SITES`), a firing condition —
``probability`` (hash-derived), ``nth`` hit, and/or a ``worker``
identity pattern — and an action: raise an ``OSError`` (``ENOSPC`` et
al.), truncate a write mid-record, corrupt bytes in place, sleep past a
lease TTL, or kill the process outright.

Determinism is the whole point: the per-site RNG is not ``random`` but
SHA-256 over ``(plan seed, site, token)``, where the token is the
content *key* a call site passes (usually the job digest) or, keyless,
the site's hit index.  Keyed triggers therefore fire on the **same
payloads** whatever the worker count or interleaving — a failing chaos
run replays bit-identically from its plan and seed alone.
"""

from __future__ import annotations

import builtins
import errno as errno_module
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import FaultPlanError

#: Every failpoint site threaded through the codebase, with the crash
#: window it models.  ``repro chaos sites`` prints this catalog;
#: :func:`load_plan` validates trigger sites against it.
FAILPOINT_SITES: dict[str, str] = {
    "store.append.write": (
        "result-store line write — torn/partial JSONL appends "
        "(key: job digest or event kind)"
    ),
    "store.append.fsync": (
        "result-store durability barrier — fsync failure after a clean "
        "write (key: job digest or event kind)"
    ),
    "cache.get.read": (
        "schedule-cache entry read — I/O error serving a memoized "
        "document (key: job digest)"
    ),
    "cache.put.write": (
        "schedule-cache temp-file write — torn entry bytes or ENOSPC "
        "(key: job digest)"
    ),
    "cache.put.replace": (
        "schedule-cache atomic rename — crash between temp write and "
        "publish (key: job digest)"
    ),
    "directory.claim.create": (
        "claim-file O_EXCL create — I/O error in the claim race window "
        "(key: job digest)"
    ),
    "directory.claim.write": (
        "claim-file payload write — torn claim document (key: job digest)"
    ),
    "directory.heartbeat.renew": (
        "lease heartbeat tick — stall (sleep past the TTL) or an error "
        "killing the daemon thread (key: job digest)"
    ),
    "directory.worker.claimed": (
        "between winning a claim and starting the job (key: job digest)"
    ),
    "directory.worker.record": (
        "between finishing a job and recording it to the shard "
        "(key: job digest)"
    ),
    "directory.worker.release": (
        "between recording a job and releasing its claim "
        "(key: job digest)"
    ),
    "worker.execute": (
        "job execution entry — slow or dying compute, any backend "
        "(key: job digest)"
    ),
    "merge.write": (
        "canonical-merge temp-file write — torn merged store "
        "(key: output file name)"
    ),
    "merge.replace": (
        "canonical-merge atomic rename — crash between temp write and "
        "publish (key: output file name)"
    ),
}

#: Supported trigger actions.
ACTIONS = ("raise", "torn_write", "corrupt", "sleep", "kill")

#: Actions the call site must cooperate with (the failpoint returns a
#: :class:`~repro.faultinject.runtime.Fault` instead of acting itself).
DATA_ACTIONS = ("torn_write", "corrupt")


def derive_unit(seed: int, site: str, token: object) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one (site, token).

    SHA-256 over a domain-separated string, first 8 bytes as an
    integer — stable across processes, platforms and Python versions,
    unlike anything touching ``random`` or ``hash()``.
    """
    digest = hashlib.sha256(
        f"repro-fault:{seed}:{site}:{token}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultTrigger:
    """One line of an injection plan: site × condition × action."""

    site: str
    action: str
    #: Hash-derived firing probability over the site's key (or hit index).
    probability: float | None = None
    #: Fire exactly on the site's Nth hit in this process (1-based).
    nth: int | None = None
    #: ``fnmatch`` pattern over the worker identity; no match, no fire.
    worker: str | None = None
    #: ``errno`` name raised by ``raise`` / ``torn_write`` faults.
    errno_name: str = "EIO"
    #: Exception class name for non-OSError ``raise`` faults.
    exception: str | None = None
    #: ``sleep`` action duration.
    seconds: float = 0.05
    #: ``torn_write`` cut point as a fraction of the payload.
    fraction: float = 0.5
    #: ``kill`` action exit status.
    exit_code: int = 86
    #: Max fires of this trigger per process (``None`` = unlimited).
    limit: int | None = None

    @property
    def errno_code(self) -> int:
        return getattr(errno_module, self.errno_name)

    def exception_class(self) -> type[BaseException] | None:
        if self.exception is None:
            return None
        return getattr(builtins, self.exception)


@dataclass(frozen=True)
class InjectionPlan:
    """A named, seeded set of fault triggers."""

    seed: int
    triggers: tuple[FaultTrigger, ...]
    name: str = ""

    def triggers_for(self, site: str) -> tuple[FaultTrigger, ...]:
        return tuple(t for t in self.triggers if t.site == site)

    def sites(self) -> set[str]:
        return {t.site for t in self.triggers}


def _number(entry: dict, key: str, where: str, convert, default=None):
    """``entry[key]`` converted by ``convert``; one-line error if it is
    not a number (``default`` when absent or null)."""
    value = entry.get(key)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FaultPlanError(f"{where} {key} must be a number, got {value!r}")
    return convert(value)


def _validate_trigger(entry: dict, index: int, strict: bool) -> FaultTrigger:
    where = f"trigger #{index + 1}"
    if not isinstance(entry, dict):
        raise FaultPlanError(f"{where} must be an object, got {entry!r}")
    unknown = set(entry) - {
        "site", "action", "probability", "nth", "worker", "errno",
        "exception", "seconds", "fraction", "exit_code", "limit",
    }
    if unknown:
        raise FaultPlanError(f"{where} has unknown fields {sorted(unknown)}")
    site = entry.get("site")
    if not isinstance(site, str) or not site:
        raise FaultPlanError(f"{where} needs a 'site' string")
    if strict and site not in FAILPOINT_SITES:
        raise FaultPlanError(
            f"{where} names unknown site {site!r}; known sites: "
            f"{', '.join(sorted(FAILPOINT_SITES))}"
        )
    action = entry.get("action")
    if action not in ACTIONS:
        raise FaultPlanError(
            f"{where} action {action!r} is not one of {ACTIONS}"
        )
    probability = _number(entry, "probability", where, float)
    if probability is not None and not (0.0 < probability <= 1.0):
        raise FaultPlanError(f"{where} probability must be in (0, 1]")
    nth = _number(entry, "nth", where, int)
    if nth is not None and nth < 1:
        raise FaultPlanError(f"{where} nth must be >= 1 (1-based hits)")
    if probability is None and nth is None and entry.get("worker") is None:
        raise FaultPlanError(
            f"{where} would fire on every hit everywhere — give it a "
            "'probability', an 'nth' hit, or a 'worker' pattern"
        )
    errno_name = str(entry.get("errno", "EIO"))
    if not isinstance(getattr(errno_module, errno_name, None), int):
        raise FaultPlanError(f"{where} names unknown errno {errno_name!r}")
    exception = entry.get("exception")
    if exception is not None:
        candidate = getattr(builtins, str(exception), None)
        if not (isinstance(candidate, type)
                and issubclass(candidate, BaseException)):
            raise FaultPlanError(
                f"{where} names unknown exception class {exception!r}"
            )
    fraction = _number(entry, "fraction", where, float, 0.5)
    if not (0.0 < fraction < 1.0):
        raise FaultPlanError(f"{where} fraction must be in (0, 1)")
    seconds = _number(entry, "seconds", where, float, 0.05)
    if seconds < 0:
        raise FaultPlanError(f"{where} seconds must be >= 0")
    limit = _number(entry, "limit", where, int)
    if limit is not None and limit < 1:
        raise FaultPlanError(f"{where} limit must be >= 1")
    return FaultTrigger(
        site=site,
        action=str(action),
        probability=probability,
        nth=nth,
        worker=entry.get("worker"),
        errno_name=errno_name,
        exception=None if exception is None else str(exception),
        seconds=seconds,
        fraction=fraction,
        exit_code=_number(entry, "exit_code", where, int, 86),
        limit=limit,
    )


def plan_from_dict(
    document: dict, *, seed: int | None = None, strict: bool = True
) -> InjectionPlan:
    """Build a validated plan; ``seed`` overrides the document's."""
    if not isinstance(document, dict):
        raise FaultPlanError(f"a plan must be an object, got {document!r}")
    raw_triggers = document.get("triggers")
    if not isinstance(raw_triggers, list):
        raise FaultPlanError("a plan needs a 'triggers' list")
    effective_seed = seed if seed is not None else document.get("seed", 0)
    try:
        effective_seed = int(effective_seed)
    except (TypeError, ValueError):
        raise FaultPlanError(f"plan seed must be an integer, got "
                             f"{effective_seed!r}") from None
    triggers = tuple(
        _validate_trigger(entry, index, strict)
        for index, entry in enumerate(raw_triggers)
    )
    return InjectionPlan(
        seed=effective_seed,
        triggers=triggers,
        name=str(document.get("name", "")),
    )


def plan_to_dict(plan: InjectionPlan) -> dict:
    """The JSON form of a plan (round-trips through ``plan_from_dict``)."""
    triggers = []
    for trigger in plan.triggers:
        entry: dict = {"site": trigger.site, "action": trigger.action}
        if trigger.probability is not None:
            entry["probability"] = trigger.probability
        if trigger.nth is not None:
            entry["nth"] = trigger.nth
        if trigger.worker is not None:
            entry["worker"] = trigger.worker
        if trigger.errno_name != "EIO":
            entry["errno"] = trigger.errno_name
        if trigger.exception is not None:
            entry["exception"] = trigger.exception
        if trigger.action == "sleep":
            entry["seconds"] = trigger.seconds
        if trigger.action == "torn_write":
            entry["fraction"] = trigger.fraction
        if trigger.action == "kill" and trigger.exit_code != 86:
            entry["exit_code"] = trigger.exit_code
        if trigger.limit is not None:
            entry["limit"] = trigger.limit
        triggers.append(entry)
    document: dict = {"seed": plan.seed, "triggers": triggers}
    if plan.name:
        document["name"] = plan.name
    return document


def load_plan(
    path: str | Path, *, seed: int | None = None, strict: bool = True
) -> InjectionPlan:
    """Load and validate a plan file; ``seed`` overrides the file's."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise FaultPlanError(f"cannot read plan {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise FaultPlanError(f"plan {path} is not valid JSON: {error}") from error
    return plan_from_dict(document, seed=seed, strict=strict)
