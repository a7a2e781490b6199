"""senslab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from `src/`.
Workloads and metrics are listed in BENCHMARK.json and explained, with the
layer each per-layer metric belongs to, in perfbench/design.json.

--trace 0 starts SETUP_SAMPLES fresh processes.  Each one imports the
library, builds the inputs from the seed and fills the caches, which is one
`setup_s` sample; the last one then runs warm passes for about --seconds.
--trace 1 starts one process that alternates untraced and traced passes and
reports the per-layer metrics.  Every pass checks its outputs; the last
line of stdout is the result, the line before it a report with every sample,
quartile, output hash and the list of wrapped functions.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, all processes included
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _worker(args, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run one worker process; returns (set-up seconds, its JSON output)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: "1" for name in SINGLE_THREAD})
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - started), text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_end"] - started, out


def _summary(values: list[float]) -> dict:
    values = [float(v) for v in values]
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def _gate(passes: list[dict]) -> tuple[int, list[str]]:
    """Checks of every pass, plus one replay check per task and later pass:
    a seeded pass must hash to the same outputs every time."""
    attempted = sum(p["attempted"] for p in passes)
    failed = [name for p in passes for name in p["failed"]]
    first = passes[0]["digests"]
    for p in passes[1:]:
        for task, digest in p["digests"].items():
            attempted += 1
            if digest != first.get(task):
                failed.append(f"{task}: outputs differ between passes")
    return attempted, failed


def _layer_value(name: str, out: dict, traced: list[dict], plain: list[dict]) -> float:
    """Resolve a per-layer metric name against the traced samples."""
    def median_of(key: str, field: str) -> float:
        return statistics.median(p[field].get(key, 0) for p in traced)

    if name == "trace.overhead_s":
        return (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in plain))
    if name == "trace.unattributed_s":
        return median_of("unattributed", "self_s")
    base, _, stat = name.rpartition(".")
    if stat == "cold_s":
        return out["cold_s"].get(base, 0.0)
    if stat == "wall_s":
        return median_of(base, "walls")
    if stat == "self_s":
        setup = out["setup_self_s"].get(base, 0.0) if base.startswith("families.") else 0.0
        return setup + median_of(base, "self_s")
    if stat == "calls":
        return median_of(base, "calls")
    if stat == "correct_ratio":
        evals = median_of(f"{base}.evals", "counts")
        return median_of(f"{base}.correct", "counts") / evals if evals else 0.0
    return median_of(name, "counts")


def _measure(args, bench: dict) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        _, out = _worker(args, deadline, setup_only=False)
        passes = out["passes"]
        traced = [p for p in passes if p["traced"]]
        plain = [p for p in passes if not p["traced"]]
        metrics = {m["name"]: {"value": _layer_value(m["name"], out, traced, plain),
                               "unit": m["unit"]} for m in bench["per_layer"]}
        detail = {
            "traced_pass_s": _summary([p["wall_s"] for p in traced]),
            "untraced_pass_s": _summary([p["wall_s"] for p in plain]),
            "cold_s": out["cold_s"],
            "setup_self_s": out["setup_self_s"],
            "pass_wall_s": traced[0]["wall_s"],
            "pass_self_s": traced[0]["self_s"],
            "pass_calls": traced[0]["calls"],
            "pass_counts": traced[0]["counts"],
            "wrapped": out["wrapped"],
            "missing": out["missing"],
        }
    else:
        setups = [_worker(args, deadline, setup_only=True)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup_s, out = _worker(args, deadline, setup_only=False)
        setups.append(setup_s)
        passes = out["passes"]
        summaries = {
            "pass_s": _summary([p["wall_s"] for p in passes]),
            "cpu_s": _summary([p["cpu_s"] for p in passes]),
            "setup_s": _summary(setups),
            "peak_rss_mib": _summary([out["peak_rss_mib"]]),
        }
        metrics = {m["name"]: {"value": summaries[m["name"]]["median"], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        detail = {"summaries": summaries, "cold_s": out["cold_s"]}
    attempted, failed = _gate(passes)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "fail_ratio": len(failed) / attempted,
        "failed_checks": failed[:20], "digests": passes[0]["digests"],
        "battery_wall_s": passes[0]["walls"], **detail,
    }
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "senslab" / "__init__.py").is_file():
            raise BenchError(f"no library source at {ROOT / 'src' / 'senslab'}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        report, result = _measure(args, bench)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
