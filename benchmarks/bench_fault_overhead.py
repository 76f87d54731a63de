"""Pin the chaos-off overhead of the failpoint instrumentation.

The fault-injection layer promises an **off-by-default no-op fast
path**: with no plan configured, every ``failpoint(site, key=...)``
threaded through the campaign I/O stack costs one module-global load
plus a ``None`` check — the same discipline the obs layer's
``NOOP_SPAN`` fast path keeps (``bench_obs_overhead.py``).  This bench
turns that promise into a recorded, CI-enforced number:

1. time the exact disabled-path idiom in a tight loop for the per-site
   cost;
2. count the failpoint hits one pinned serial campaign actually makes,
   by running it once under an **empty-trigger** plan (every hit is
   counted, nothing fires);
3. project the disabled cost over those hits against the measured
   clean campaign run and assert the overhead stays **under 1 %**.

CI's ``chaos-smoke`` job runs this module on every push.  A plain run
checks the bound and prints; ``--record`` also merges the results into
``BENCH_runtime.json`` under ``fault_overhead``::

    PYTHONPATH=src python benchmarks/bench_fault_overhead.py [--record]
"""

from __future__ import annotations

import gc
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.campaign import CampaignSpec, WorkloadSpec, run_campaign
from repro.faultinject import (
    configure,
    deconfigure,
    failpoint,
    hit_counts,
    is_active,
    plan_from_dict,
)

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

#: Enforced ceiling on the projected chaos-off overhead of one campaign.
OVERHEAD_BOUND = 0.01

#: The pinned workload: four fast serial jobs through the full
#: store/cache/execute failpoint path.
_SPEC = CampaignSpec(
    name="fault-overhead",
    workloads=(
        WorkloadSpec(family="in_tree", size=3),
        WorkloadSpec(family="out_tree", size=3),
    ),
    processors=(2, 3),
    seeds=(0,),
    measures=("ftbar", "non_ft"),
)


def measure_disabled_site(
    iterations: int = 200_000, repeats: int = 5
) -> float:
    """Best-of per-site cost of a failpoint with injection disabled."""
    assert not is_active(), "overhead bench must run with injection off"
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        for _ in range(iterations):
            failpoint("bench.disabled.site", key="digest")
        best = min(best, time.perf_counter() - started)
    return best / iterations


def count_campaign_hits() -> int:
    """Failpoint hits of one campaign run (empty plan: count, fire nothing)."""
    configure(plan_from_dict({"seed": 0, "triggers": []}))
    try:
        with tempfile.TemporaryDirectory() as scratch:
            run_campaign(
                _SPEC,
                jobs=1,
                store=Path(scratch) / "results.jsonl",
                cache=Path(scratch) / "cache",
                backend="serial",
            )
        return sum(hit_counts().values())
    finally:
        deconfigure()


def measure_campaign(repeats: int = 5) -> float:
    """Best-of wall time of the clean (injection-off) campaign run."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        with tempfile.TemporaryDirectory() as scratch:
            started = time.perf_counter()
            run_campaign(
                _SPEC,
                jobs=1,
                store=Path(scratch) / "results.jsonl",
                cache=Path(scratch) / "cache",
                backend="serial",
            )
            best = min(best, time.perf_counter() - started)
    return best


def run_overhead_bench(repeats: int = 5) -> dict:
    """Measure, project, enforce; return the ``fault_overhead`` payload."""
    deconfigure()
    site_s = measure_disabled_site()
    hits = count_campaign_hits()
    run_s = measure_campaign(repeats)
    projected_s = hits * site_s
    overhead = projected_s / run_s
    payload = {
        "disabled_site_ns": round(site_s * 1e9, 2),
        "failpoint_hits_per_campaign": hits,
        "campaign_run_s": round(run_s, 6),
        "noop_overhead_projected": round(overhead, 6),
        "bound": OVERHEAD_BOUND,
        "jobs": 4,
    }
    assert overhead < OVERHEAD_BOUND, (
        f"chaos-off failpoint overhead {overhead:.4%} exceeds the "
        f"{OVERHEAD_BOUND:.0%} bound: {payload}"
    )
    return payload


def bench_fault_noop_overhead(benchmark):
    """pytest-benchmark entry: time the disabled site, enforce the bound."""
    deconfigure()
    per_call = benchmark(failpoint, "bench.disabled.site", "digest")
    assert per_call is None
    run_overhead_bench(repeats=2)


def main(argv: list[str]) -> int:
    repeats = 5
    if "--quick" in argv:
        repeats = 2
    section = run_overhead_bench(repeats)
    if "--record" in argv:
        payload = (
            json.loads(_RESULT_PATH.read_text())
            if _RESULT_PATH.exists() else {}
        )
        payload["fault_overhead"] = section
        _RESULT_PATH.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
    print(json.dumps(section, indent=1, sort_keys=True))
    print(
        f"\nchaos-off failpoints: {section['disabled_site_ns']:.0f} ns/site "
        f"x {section['failpoint_hits_per_campaign']} hits = "
        f"{section['noop_overhead_projected']:.4%} of a "
        f"{section['campaign_run_s']*1e3:.1f} ms campaign "
        f"(bound {section['bound']:.0%})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
