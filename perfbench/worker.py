"""One benchmark process for one workload.

Imports the library, generates the workload's inputs and fills the caches,
then (unless --setup-only) runs passes for about --seconds and prints one
JSON line with every raw sample.  `run.py` starts it; the time from the
start of this process to `setup_end` (a system-wide monotonic clock) is one
set-up sample.

With --trace 1 the wrappers of `spans.py` are installed during set-up and
during every other pass; the passes in between run untraced, so the tracing
overhead is measured in the same process.
"""
from __future__ import annotations

import argparse
import json
import resource
import time

import workloads
from spans import Tracer


def _pass(workload: str, state: dict, tracer: Tracer | None) -> dict:
    cpu_started = time.process_time()
    if tracer is None:
        started = time.perf_counter()
        gate = workloads.run_pass(workload, state)
        wall = time.perf_counter() - started
    else:
        tracer.reset()
        tracer.install()
        gates = []
        try:
            wall = tracer.root(lambda: gates.append(workloads.run_pass(workload, state, tracer)))
        finally:
            tracer.uninstall()
        gate = gates[0]
    record = {
        "traced": tracer is not None,
        "wall_s": wall,
        "cpu_s": time.process_time() - cpu_started,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "digests": gate.digests,
        "walls": gate.walls,
    }
    if tracer is not None:
        record.update(self_s=dict(tracer.self_s), calls=dict(tracer.calls),
                      counts=dict(tracer.counts))
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        state, cold = workloads.setup(args.workload, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out: dict = {"setup_end": time.monotonic(), "cold_s": cold}
    if tracer is not None:
        out.update(setup_self_s=dict(tracer.self_s), wrapped=tracer.wrapped,
                   missing=tracer.missing)
    if not args.setup_only:
        passes = []
        started = time.monotonic()
        while True:
            round_started = time.monotonic()
            passes.append(_pass(args.workload, state, None))
            if tracer is not None:
                passes.append(_pass(args.workload, state, tracer))
            now = time.monotonic()
            if now - started + (now - round_started) > args.seconds:
                break
        out["passes"] = passes
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
