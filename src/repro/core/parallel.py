"""Worker-thread plumbing for the compiled kernel's parallel sweep.

The selection sweep's per-candidate work (sorting each σ row, extracting
the ``Npf + 1``-th smallest) is embarrassingly parallel over rows and is
numpy-bound, so threads — not processes — are the right vehicle: numpy
releases the GIL inside its sort kernels and the workers operate on
disjoint row blocks of one shared array (no pickling, no copies).

Determinism: the workers only ever *compute* per-row values into
preassigned slots; the reduction (argmax with the sequential tie-break
order) stays serial in the caller.  Result arrays are therefore
bit-identical at any worker count — which the ``kernel-parallel-smoke``
CI job pins against the serial run.

Executors are memoized per worker count and reused across runs; threads
are daemonic (an interpreter exit never hangs on the pool).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported when a pool is first built
    from concurrent.futures import ThreadPoolExecutor

_EXECUTORS: dict[int, ThreadPoolExecutor] = {}


def resolve_workers(requested: int | None) -> int:
    """Effective worker count: explicit option, else environment, else 0.

    Values below 2 mean "stay serial" (a 1-worker pool would only add
    dispatch overhead).
    """
    if requested is None:
        try:
            requested = int(os.environ.get("REPRO_SWEEP_WORKERS", "0"))
        except ValueError:
            requested = 0
    return requested if requested >= 2 else 0


def get_executor(workers: int) -> ThreadPoolExecutor:
    """Shared thread pool for ``workers`` threads (memoized)."""
    executor = _EXECUTORS.get(workers)
    if executor is None:
        from concurrent.futures import ThreadPoolExecutor

        executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-sweep"
        )
        _EXECUTORS[workers] = executor
    return executor


def shard_ranges(count: int, workers: int) -> list[tuple[int, int]]:
    """Split ``range(count)`` into up to ``workers`` contiguous blocks."""
    if count <= 0:
        return []
    workers = min(workers, count)
    step = -(-count // workers)
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def run_sharded(workers: int, count: int, task) -> None:
    """Run ``task(lo, hi)`` over contiguous shards on the shared pool.

    Blocks until every shard finished; exceptions propagate to the
    caller (re-raised by ``result()``).
    """
    shards = shard_ranges(count, workers)
    if len(shards) <= 1:
        if shards:
            task(0, count)
        return
    executor = get_executor(workers)
    futures = [executor.submit(task, lo, hi) for lo, hi in shards]
    for future in futures:
        future.result()
