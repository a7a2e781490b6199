"""Command-line entry point.

Machine-readable output goes to stdout as JSON lines (one report per
command); human summaries and timings go to stderr so reports stay
byte-identical across runs with the same inputs and seed.  Exit codes:
0 success, 1 failed assertion/extension/verification, 2 usage or format
errors.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import counting, evaluate, families, noise, reconstruct, selfcorrect, verify
from .core import (
    MAX_N,
    Point,
    profile,
    seeded_rng,
)
from .io import FormatError, read_ball_advice, read_truth_table, write_truth_table


# ---------------------------------------------------------------------------
# report plumbing

def _json_default(o):
    if isinstance(o, Fraction):
        return f"{o.numerator}/{o.denominator}"
    raise TypeError(f"cannot serialize {type(o)!r}")


def emit(command: str, parameters: dict, outputs: dict, ok: bool = True, seed: int | None = None) -> None:
    report = {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "outputs": outputs,
        "ok": ok,
    }
    print(json.dumps(report, sort_keys=True, default=_json_default))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as e:  # argparse reports a ValueError as a usage error
        raise ValueError(str(e)) from e


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p != ""]


def _parse_x(text: str, n: int) -> Point:
    x = Point.from_bits(text)
    if x.n != n:
        raise ValueError(f"point {text!r} has {x.n} coordinates, function has {n}")
    return x


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args: argparse.Namespace) -> int:
    kw: dict = {}
    if args.value is not None:
        kw["value"] = args.value
    if args.var is not None:
        kw["var"] = args.var
    if args.support is not None:
        kw["support"] = _int_list(args.support)
    if args.s is not None:
        kw["s"] = args.s
    if args.depth is not None:
        kw["depth"] = args.depth
    if args.inner is not None:
        kw["inner"] = read_truth_table(args.inner)
    if args.positions is not None:
        kw["positions"] = _int_list(args.positions)
    if args.family in ("random-dt", "random"):
        kw["seed"] = args.seed
    f = families.gen_family(args.family, args.n, **kw)
    write_truth_table(f, args.out)
    outputs = {"path": args.out, "n": f.n, "ones": f.count_ones()}
    if f.n <= 6:
        outputs["bits"] = f.bits_string()
    emit("gen", {"family": args.family, "n": args.n, **{k: v for k, v in kw.items() if k != "inner"}},
         outputs, seed=args.seed)
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    f = read_truth_table(args.infile)
    p = profile(f)
    outputs = {
        "n": f.n,
        "s": p.s, "s0": p.s0, "s1": p.s1,
        "deg": p.deg, "deg2": p.deg2,
        "mu0": p.mu0, "mu1": p.mu1,
        "relevant": sorted(p.relevant),
    }
    emit("measure", {"in": args.infile}, outputs)
    _note(f"s={p.s} deg={p.deg} deg2={p.deg2} relevant={len(p.relevant)}/{f.n}")
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    advice = read_ball_advice(args.advice)
    params = {"rule": args.rule, "advice": args.advice, "out": args.out}
    if args.rule == "maj":
        outcome = reconstruct.majority_extend(advice)
        if not outcome.ok:
            emit("extend", params,
                 {"status": "failed", "reason": outcome.reason,
                  "failed_point": outcome.failed_point.bits()},
                 ok=False)
            return 1
        if args.out:
            write_truth_table(outcome.value, args.out)
        outputs = {"status": "extended", "ones": outcome.value.count_ones()}
        if advice.n <= 6:
            outputs["bits"] = outcome.value.bits_string()
        emit("extend", params, outputs)
        return 0
    if args.rule == "par":
        ext = reconstruct.parity_extend(advice)
        boolean = ext.is_boolean()
        outputs: dict = {"status": "extended", "boolean": boolean}
        if args.out:
            if boolean:
                write_truth_table(ext.as_truth_table(), args.out)
            else:
                with open(args.out, "w") as fh:
                    for i, v in enumerate(ext.values):
                        fh.write(f"{i} {int(v)}\n")
        if advice.n <= 6:
            outputs["values"] = ext.values.tolist()
        emit("extend", params, outputs)
        return 0
    # f2
    ext = reconstruct.f2_extend(advice)
    if args.out:
        write_truth_table(ext, args.out)
    outputs = {"status": "extended", "ones": ext.count_ones()}
    if advice.n <= 6:
        outputs["bits"] = ext.bits_string()
    emit("extend", params, outputs)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    advice = read_ball_advice(args.advice)
    x = _parse_x(args.x, advice.n)
    params = {"algo": args.algo, "advice": args.advice, "s": args.s, "x": args.x}
    if args.algo == "bottom-up":
        value, stats = evaluate.bottom_up_eval(advice, args.s, x)
    elif args.algo == "top-down":
        value, stats = evaluate.top_down_eval(advice, args.s, x)
    elif args.algo == "parallel":
        stats = evaluate.EvalStats()
        rng = seeded_rng(args.seed, "cli-parallel")
        value = evaluate.parallel_eval(advice, args.s, x, rng, stats)
    else:  # amplified
        params["target"] = str(args.target)
        stats = evaluate.EvalStats()
        rng = seeded_rng(args.seed, "cli-amplified")
        value = evaluate.amplified_eval(advice, args.s, x, args.target, rng, stats)
    outputs: dict = {"value": value}
    if args.stats:
        outputs["stats"] = {
            "points_computed": stats.points_computed,
            "points_by_weight": {str(k): v for k, v in sorted(stats.points_by_weight.items())},
            "ball_shifts": stats.ball_shifts,
            "majority_votes": stats.majority_votes,
            "rng_draws": stats.rng_draws,
            "max_depth": stats.max_depth,
        }
    emit("eval", params, outputs,
         seed=args.seed if args.algo in ("parallel", "amplified") else None)
    return 0


def cmd_ns(args: argparse.Namespace) -> int:
    f = read_truth_table(args.infile)
    delta = args.delta
    params = {"in": args.infile, "delta": str(delta)}
    if args.x is not None:
        x = _parse_x(args.x, f.n)
        params["x"] = args.x
        value = noise.noise_sensitivity_at(f, x, delta)
        emit("ns", params, {"value": value})
        return 0
    vals = noise.noise_sensitivity_all(f, delta)
    avg = sum(vals, Fraction(0)) / len(vals)
    worst = max(range(len(vals)), key=lambda i: vals[i])
    emit("ns", params, {
        "average": avg,
        "max": vals[worst],
        "argmax": Point(f.n, worst).bits(),
    })
    return 0


def cmd_lambda(args: argparse.Namespace) -> int:
    f = read_truth_table(args.infile)
    members = np.nonzero(f.values)[0].tolist()
    params = {"in": args.infile, "delta": str(args.delta), "theta": str(args.theta)}
    rep = noise.hypercontractivity_check(f.n, members, args.delta, args.theta)
    outputs = {
        "set_size": len(members),
        "lambda_size": len(rep.lam),
        "mu_S": rep.mu_S,
        "mu_Lambda": rep.mu_Lambda,
        "expansion_rhs": rep.rhs,
        "expansion_holds": rep.holds,
        "corollary_premise": rep.premise,
        "corollary_bound": rep.bound,
    }
    if len(rep.lam) <= 64:
        outputs["lambda_members"] = sorted(rep.lam)
    emit("lambda", params, outputs, ok=rep.holds)
    return 0 if rep.holds else 1


def cmd_correct(args: argparse.Namespace) -> int:
    r = read_truth_table(args.infile)
    params_obj = selfcorrect.CorrectorParams(
        s=args.s,
        delta=args.delta,
        k=args.k,
        epsilon=args.eps,
    )
    if args.mode == "global":
        truth = read_truth_table(args.truth) if args.truth else None
        res = selfcorrect.global_correct(r, params_obj, truth=truth)
        if args.out:
            write_truth_table(res.table, args.out)
        outputs = {
            "converged": res.converged,
            "iterations": res.iterations,
            "ties": len(res.ties),
            "recovered": None if truth is None else res.table == truth,
        }
        if res.trace is not None:
            outputs["trace"] = res.trace
        ok = res.converged and (truth is None or res.table == truth)
        emit("correct", {"mode": "global", "in": args.infile, "s": args.s,
                         "delta": str(params_obj.delta), "k": params_obj.k}, outputs, ok=ok)
        return 0 if ok else 1
    # local: the input table acts as the (possibly corrupted) oracle
    if args.x is None:
        raise ValueError("local mode needs --x")
    x = _parse_x(args.x, r.n)
    oracle = selfcorrect.CorruptedOracle(r, frozenset())
    rng = seeded_rng(args.seed, "cli-local")
    value, used = selfcorrect.local_correct(oracle, x, params_obj, rng)
    emit("correct", {"mode": "local", "in": args.infile, "s": args.s, "x": args.x,
                     "delta": str(params_obj.delta), "epsilon": str(params_obj.epsilon),
                     "k": args.k},
         {"value": value, "queries": used}, seed=args.seed)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.s is None:
        census = counting.build_census(args.n, allow_long=args.allow_long)
        outputs = {
            "n": census.n,
            "counts": census.counts,
            "lower": census.lower,
            "upper": census.upper,
        }
    else:
        # refuses n before s, as the whole census does; counts the one class
        count = counting.enumerate_class(args.n, args.s, allow_long=args.allow_long)
        lower, upper = counting.count_bounds(args.n, args.s)
        outputs = {"n": args.n, "s": args.s, "count": count, "lower": lower, "upper": upper}
    emit("enumerate", {"n": args.n, "s": args.s, "allow_long": args.allow_long}, outputs)
    return 0


def cmd_interpolate(args: argparse.Namespace) -> int:
    k = args.k if args.k is not None else counting.interpolation_sample_size(args.n, args.s)
    rng = seeded_rng(args.seed, "cli-interpolate")
    res = counting.interpolation_experiment(args.n, args.s, k, args.trials, rng)
    emit("interpolate",
         {"n": args.n, "s": args.s, "k": k, "trials": args.trials},
         {
             "interpolation_successes": res.interpolation_successes,
             "hitting_successes": res.hitting_successes,
             "success_fraction": res.success_fraction,
             "agree_on_every_trial": res.agree_on_every_trial,
         },
         seed=args.seed)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    numbers = verify.SUITES[args.suite]
    if args.n is not None and 1 not in numbers:
        raise ValueError(f"--n sizes criterion 1 only; suite {args.suite!r} does not run it")
    for num in numbers:
        started = time.monotonic()
        if num == 1 and args.n is not None:
            result = verify.run_criterion(1, args.n)
        else:
            result = verify.run_criterion(num)
        elapsed = time.monotonic() - started
        emit("verify", {"suite": args.suite, "criterion": result.criterion},
             {"name": result.name, "ok": result.ok, "detail": result.detail},
             ok=result.ok)
        _note(f"criterion {result.criterion} ({result.name}): "
              f"{'PASS' if result.ok else 'FAIL'} [{elapsed:.1f}s]")
        if not result.ok:  # fail fast; the detail carries the offending instance
            return 1
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="senslab",
        description="Exact toolkit for low-sensitivity Boolean functions "
        f"(n capped at {MAX_N}).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named function family to a .tt file")
    p.add_argument("--family", required=True, choices=[
        "constant", "dictator", "or", "and", "parity", "majority", "tribes",
        "addressing", "junta-lift", "random-dt", "random",
    ])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--value", type=int, choices=(0, 1), help="constant: output value")
    p.add_argument("--var", type=int, help="dictator: 1-based variable")
    p.add_argument("--support", help="parity: comma-separated 1-based variables")
    p.add_argument("--s", type=int, help="tribes/addressing: block size / sensitivity")
    p.add_argument("--depth", type=int, help="random-dt: tree depth")
    p.add_argument("--inner", help="junta-lift: .tt file with the inner function")
    p.add_argument("--positions", help="junta-lift: comma-separated 1-based targets")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("measure", help="print the complexity profile of a .tt file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("extend", help="extend ball advice to the whole cube")
    p.add_argument("--rule", required=True, choices=["maj", "par", "f2"])
    p.add_argument("--advice", required=True, help=".ball advice file")
    p.add_argument("--out", help="output path (.tt, or index/value lines for non-Boolean par)")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("eval", help="evaluate one point from radius-limited advice")
    p.add_argument("--algo", required=True,
                   choices=["bottom-up", "top-down", "parallel", "amplified"])
    p.add_argument("--advice", required=True, help=".ball advice file (center 0)")
    p.add_argument("--s", type=int, required=True, help="promised sensitivity bound")
    p.add_argument("--x", required=True, help="input point as a bitstring (coordinate 1 first)")
    p.add_argument("--target", type=_fraction, default=Fraction(1, 20),
                   help="amplified: target error probability (p/q in (0, 1/20])")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--stats", action="store_true", help="include instrumentation counters")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ns", help="exact noise sensitivity of a .tt file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--delta", type=_fraction, required=True, help="noise rate p/q in (0, 1/2]")
    p.add_argument("--x", help="single point as a bitstring (default: summary over all points)")
    p.set_defaults(func=cmd_ns)

    p = sub.add_parser("lambda", help="noisy-neighborhood expansion of the 1-set of a .tt file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--delta", type=_fraction, required=True)
    p.add_argument("--theta", type=_fraction, required=True)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("correct", help="self-correct a corrupted truth table")
    p.add_argument("--mode", required=True, choices=["global", "local"])
    p.add_argument("--in", dest="infile", required=True, help="corrupted .tt file")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--delta", type=_fraction, help="smoothing rate (default 1/(20s))")
    p.add_argument("--k", type=int, help="iteration / recursion depth override")
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 10), help="local failure budget")
    p.add_argument("--x", help="local: query point bitstring")
    p.add_argument("--truth", help="global: reference .tt for recovery reporting")
    p.add_argument("--out", help="global: write the corrected table here")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("enumerate", help="census of sensitivity classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, help="report only this class")
    p.add_argument("--allow-long", action="store_true",
                   help="permit the n=5 census (a few seconds)")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("interpolate", help="random-sample interpolation experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--k", type=int, help="sample size (default 3*2^(2s)*C(n,<=4s))")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("verify", help="run acceptance batteries")
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.add_argument("--n", type=int, help="override the exhaustive ball battery size (<= 4)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as e:  # OSError: a missing, unreadable or directory path
        _note(f"error: {e}")
        return 2
    except ValueError as e:
        _note(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
