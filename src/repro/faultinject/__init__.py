"""Deterministic failpoint injection for the campaign I/O stack.

The paper's subject is surviving faults; this package makes the
*infrastructure* prove the same property.  Named failpoint sites are
threaded through every crash-consequential path — result-store appends,
cache writes, claim files, heartbeats, merges — and stay zero-cost
no-ops until a seeded :class:`~repro.faultinject.plan.InjectionPlan` is
configured, after which faults fire deterministically: same plan, same
seed, same faults, whatever the worker count or interleaving.

Three layers:

* :mod:`repro.faultinject.plan` — the JSON plan model, validation, and
  the SHA-256-derived per-(site, key) RNG;
* :mod:`repro.faultinject.runtime` — the process-wide registry behind
  :func:`failpoint`, with per-process hit counters, fire-once-per-key
  bookkeeping and an append-only fired-fault log;
* :mod:`repro.faultinject.chaos` — the ``repro chaos run`` harness:
  run a campaign under injection, assert the merged store is
  byte-identical to a clean serial run (imported lazily — it depends
  on the campaign layer, which depends on this package).

See ``docs/robustness.md`` for the failure-mode matrix, the site
catalog and a plan-writing guide.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "plan": (
        "ACTIONS", "DATA_ACTIONS", "FAILPOINT_SITES", "FaultTrigger",
        "InjectionPlan", "derive_unit", "load_plan", "plan_from_dict",
        "plan_to_dict",
    ),
    "runtime": (
        "Fault", "InjectedFault", "active_plan", "configure",
        "configure_from_env", "deconfigure", "failpoint", "fired_faults",
        "hit_counts", "is_active", "set_worker",
    ),
})

__all__ = [
    "ACTIONS",
    "DATA_ACTIONS",
    "FAILPOINT_SITES",
    "Fault",
    "FaultTrigger",
    "InjectedFault",
    "InjectionPlan",
    "active_plan",
    "configure",
    "configure_from_env",
    "deconfigure",
    "derive_unit",
    "failpoint",
    "fired_faults",
    "hit_counts",
    "is_active",
    "load_plan",
    "plan_from_dict",
    "plan_to_dict",
    "set_worker",
]
