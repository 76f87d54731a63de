"""Traced stand-in for ``python -m repro``: one CLI command under spans.

Usage: ``python perfbench/shim.py SPANS.json <repro arguments...>``.  Times
the import of ``repro.cli``, wraps the public layer boundaries
(:mod:`tracer`), runs ``repro.cli.main`` and writes the spans (absolute
``perf_counter`` times, comparable across processes on one host) and the
layer counters to ``SPANS.json``.  Exits with the command's own code.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracer as tr  # noqa: E402


def main() -> int:
    recorder = tr.Recorder()
    with recorder.span("import"):
        from repro import cli
    patches = tr.install(recorder)
    try:
        with recorder.span("cli.main"):
            code = cli.main(sys.argv[2:])
    finally:
        patches.remove()
        tr.drain_engines(recorder)
    ended = time.perf_counter()
    with open(sys.argv[1], "w") as handle:
        json.dump({
            "started": STARTED,
            "ended": ended,
            "spans": recorder.spans,
            "counters": recorder.counters,
        }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
