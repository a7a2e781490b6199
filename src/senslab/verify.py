"""Verification batteries: one callable per acceptance-grade check.

Each battery pins its own sizes, trial counts, tolerances and seeds, so the
test suite and the CLI `verify` subcommand run the identical experiment.  A
battery stops at the first offending instance and serializes it into the
detail string it returns as (ok, detail).  CRITERIA names and numbers the
batteries, and run_criterion(k) wraps battery k's verdict in a CheckResult.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt

import numpy as np

from . import counting, evaluate, families, noise, reconstruct, selfcorrect
from .core import (
    Point,
    TruthTable,
    _coordinate_flips,
    degree,
    relevant_variables,
    restrict_to_ball,
    seeded_rng,
    sensitivity,
    weights_vector,
)

SEED = 1009  # master seed for every randomized battery


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# shared corpus

def standard_corpus(n: int) -> list[tuple[str, TruthTable]]:
    """Named mid-size functions used by the noise / cross-measure batteries."""
    out = [
        ("dictator", families.dictator(n, 1)),
        ("or", families.or_fn(n)),
        ("and", families.and_fn(n)),
        ("parity", families.parity(n)),
        ("addressing-2", families.addressing(2, n)),
        ("junta-maj3", families.junta_lift(families.majority(3), n)),
    ]
    if n % 2 == 1:
        out.append(("majority", families.majority(n)))
    for b in (2, 3):
        if n % b == 0:
            out.append((f"tribes-{b}", families.tribes(b, n)))
    if n >= 4:
        out.append(("addressing-3", families.addressing(3, n)))
    for d in (1, 2, 3):
        out.append((f"random-dt-{d}", families.random_dt(n, d, seed=SEED + d)))
    out.append(("random", families.random_function(n, seed=SEED)))
    return out


def _nonconstant_dt(n: int, depth: int, seed: int) -> TruthTable:
    while True:
        f = families.random_dt(n, depth, seed=seed)
        if sensitivity(f).s >= 1:
            return f
        seed += 1


# ---------------------------------------------------------------------------
# criterion 1: exhaustive ball reconstruction at n = 4

def criterion_ball(n: int = 4) -> tuple[bool, str]:
    if not 1 <= n <= 4:
        raise ValueError(f"exhaustive ball battery needs 1 <= n <= 4, got n={n}")
    tables = counting.all_tables(n)
    sens = counting.per_function_sensitivity(tables, n)
    pairs = 0
    for s in sorted(set(sens.tolist())):
        rows = np.nonzero(sens == s)[0]
        group = tables[rows]
        r = min(2 * s, n)
        for center in range(1 << n):
            ext, tie = reconstruct.majority_extend_batch(n, center, r, group)
            bad = (tie >= 0) | (ext != group).any(axis=1)
            if bad.any():
                j = int(np.flatnonzero(bad)[0])
                i = int(rows[j])
                why = "tie" if tie[j] >= 0 else "wrong value"
                return False, f"table {i} (s={s}) not recovered from B({center}, {r}): {why}"
            pairs += len(group)
    # bind the batch engine to the scalar rule on random (function, center) pairs
    rng = seeded_rng(SEED, "ball")
    for _ in range(200):
        i = int(rng.integers(len(tables)))
        center = Point(n, int(rng.integers(1 << n)))
        f = TruthTable(n, tables[i])
        r = min(2 * sensitivity(f).s, n)
        out = reconstruct.majority_extend(restrict_to_ball(f, center, r))
        if not (out.ok and out.value == f):
            return False, f"scalar extension of table {i} from B({center.index}, {r}) disagrees"
    return True, (f"all {pairs} (function, center) extensions exact at n={n}; "
                  "200 scalar spot checks bind the batch engine")


# ---------------------------------------------------------------------------
# criteria 2-3: brute-forced reconstruction radii vs the formulas

def criterion_maj_radius() -> tuple[bool, str]:
    checked = 0
    for n in range(1, 5):
        tables = counting.all_tables(n)
        sens = counting.per_function_sensitivity(tables, n)
        first = reconstruct.r_bruteforce_batch(n, tables, "maj")
        expect = np.minimum(2 * sens, n)
        if (first != expect).any():
            i = int(np.nonzero(first != expect)[0][0])
            return False, f"n={n} table {i}: brute radius {first[i]} != min(2s, n) = {expect[i]}"
        checked += len(tables)
    rng = seeded_rng(SEED, "maj-radius")
    for n in (5, 6):
        tables = rng.integers(0, 2, size=(500, 1 << n)).astype(np.uint8)
        sens = counting.per_function_sensitivity(tables, n)
        first = reconstruct.r_bruteforce_batch(n, tables, "maj")
        expect = np.minimum(2 * sens, n)
        if (first != expect).any():
            i = int(np.nonzero(first != expect)[0][0])
            return False, f"n={n} random table {i}: brute radius {first[i]} != {expect[i]}"
        for i in rng.choice(500, size=20, replace=False).tolist():
            got = reconstruct.r_maj_bruteforce(TruthTable(n, tables[i]))
            if got != first[i]:
                return False, f"n={n} table {i}: scalar brute force {got} != batch {first[i]}"
        checked += len(tables)
    return True, (f"brute-force majority radius equals min(2s, n) on {checked} functions "
                  "(exhaustive n <= 4, 500 random each at n = 5, 6)")


def criterion_par_radius() -> tuple[bool, str]:
    checked = 0
    for n in range(1, 5):
        tables = counting.all_tables(n)
        deg = counting.per_function_degree(tables, n)
        all_centers = reconstruct.r_bruteforce_batch(n, tables, "par")
        single = reconstruct.r_bruteforce_batch(n, tables, "par", [0])
        if (all_centers != deg).any():
            i = int(np.nonzero(all_centers != deg)[0][0])
            return False, (f"n={n} table {i}: all-center parity radius {all_centers[i]} "
                           f"!= deg {deg[i]}")
        if (single != all_centers).any():
            i = int(np.nonzero(single != all_centers)[0][0])
            return False, (f"n={n} table {i}: center-0 radius {single[i]} "
                           f"!= all-center {all_centers[i]}")
        checked += len(tables)
    return True, (f"brute-force parity radius equals deg(f) on all {checked} functions with "
                  "n <= 4; single-center and all-center radii identical")


# ---------------------------------------------------------------------------
# criteria 4-5: evaluator agreement and the top-down visit bound

EVAL_SIZES = (8, 12)
EVAL_SENS = (1, 2, 3)
EVAL_FUNCTIONS = 50


def criterion_evaluators() -> tuple[bool, str]:
    rng = seeded_rng(SEED, "evaluators")
    checked = 0
    for n in EVAL_SIZES:
        for s in EVAL_SENS:
            for i in range(EVAL_FUNCTIONS):
                f = families.random_dt(n, s, seed=SEED + i)
                bu = evaluate.bottom_up_all(f, s)
                td = evaluate.top_down_all(f, s)
                if not (bu == f and td == f):
                    which = "bottom-up" if bu != f else "top-down"
                    return False, f"{which} disagrees with truth: n={n} s={s} tree #{i}"
                checked += 1
            # scalar engines on sampled points, bound to the batched sweeps
            f = families.random_dt(n, s, seed=SEED)
            advice = restrict_to_ball(f, Point(n, 0), min(2 * s, n))
            for _ in range(2):
                x = Point(n, int(rng.integers(1 << n)))
                vb, _ = evaluate.bottom_up_eval(advice, s, x)
                vt, _ = evaluate.top_down_eval(advice, s, x)
                if not vb == vt == f(x):
                    return False, f"scalar evaluators disagree at n={n} s={s} x={x.index}"
    return True, (f"bottom-up, top-down and the truth table agree on all 2^n points of "
                  f"{checked} random decision trees (n in {EVAL_SIZES}, depth in {EVAL_SENS})")


def criterion_visit_bound() -> tuple[bool, str]:
    rng = seeded_rng(SEED, "visit-bound")
    total = 0
    for n in EVAL_SIZES:
        w = weights_vector(n).astype(np.int64)
        for s in EVAL_SENS:
            prof = evaluate.top_down_visit_profile(n, s)
            # bound[d, k] = C(d - k + 2s, d - k) for k <= d, else 0
            bound = np.zeros((n + 1, n + 1), dtype=np.int64)
            for d in range(n + 1):
                for k in range(d + 1):
                    bound[d, k] = comb(d - k + 2 * s, d - k)
            viol = prof > bound[w]
            if viol.any():
                x, k = (int(v[0]) for v in np.nonzero(viol))
                return False, (f"n={n} s={s} x={x}: {prof[x, k]} weight-{k} points visited, "
                               f"bound C({w[x] - k + 2 * s}, {w[x] - k}) = {bound[w[x], k]}")
            total += prof.shape[0]
            # the profile rows are exactly the instrumented scalar counts
            f = families.random_dt(n, s, seed=SEED)
            advice = restrict_to_ball(f, Point(n, 0), min(2 * s, n))
            for _ in range(3):
                x = int(rng.integers(1 << n))
                _, stats = evaluate.top_down_eval(advice, s, Point(n, x))
                counted = {k: int(c) for k, c in enumerate(prof[x]) if c}
                if stats.points_by_weight != counted:
                    return False, (f"n={n} s={s} x={x}: instrumented counts "
                                   f"{stats.points_by_weight} != profile row {counted}")
    return True, (f"visit counts within C(d-k+2s, d-k) at every weight for all {total} "
                  "start points (the visit set depends only on x, s, n); instrumented "
                  "runs match the profile rows exactly")


# ---------------------------------------------------------------------------
# criterion 6: parallel evaluator error law, s = 1 at n = 16 and s = 2 at n = 22

def parallel_corpus() -> list[tuple[str, int, TruthTable]]:
    """Criterion 6's functions as (name, s, f).  Each recurses somewhere: the s = 1
    half at n = 16 (weights 11..16), the s = 2 half at n = 22 (weights 21..22,
    still one cleared bit per sample since floor(22/21) = 1)."""
    n, m = 16, 22
    return [
        ("dictator", 1, families.dictator(n, 1)),
        ("dictator-neg", 1, families.dictator(n, 9).complement()),
        ("random-dt-1", 1, _nonconstant_dt(n, 1, SEED)),
        ("addressing-2", 2, families.addressing(2, m)),
        ("junta-maj3", 2, families.junta_lift(families.majority(3), m, [3, 8, 14])),
        ("junta-parity2", 2, families.junta_lift(families.parity(2), m, [5, 11])),
        ("random-dt-2a", 2, families.random_dt(m, 2, seed=SEED + 1)),
        ("random-dt-2b", 2, families.random_dt(m, 2, seed=SEED + 2)),
        ("random-dt-2c", 2, families.random_dt(m, 2, seed=SEED + 3)),
        ("random-dt-2d", 2, families.random_dt(m, 2, seed=SEED + 4)),
    ]


def criterion_parallel_error() -> tuple[bool, str]:
    """Pr[parallel evaluation errs at x] <= 1/20 at every x, from the exact law."""
    # the law's round-off is below 4e-11 (derived at evaluate.parallel_eval_law), so
    # a point passes only if its error clears 1/20 by more than that
    allowed = 1 / 20 - 1e-10
    worst: dict[tuple[int, int], float] = {}  # (s, n) -> worst Pr[error]
    corpus = parallel_corpus()
    for fname, s, f in corpus:
        if f.n <= 10 * s:
            return False, f"{fname}: n={f.n} <= 10s, recurses at no point"
        if sensitivity(f).s > s:
            return False, f"{fname}: sensitivity above claimed {s}"
        err = np.abs(evaluate.parallel_eval_law(f, s) - f.values)
        x = int(err.argmax())
        if err[x] > allowed:
            return False, f"{fname}: Pr[error] at point {x} is {err[x]:.6f}, above 1/20 - 1e-10"
        worst[s, f.n] = max(worst.get((s, f.n), 0.0), float(err[x]))
    errors = ", ".join(f"{e:.6f} (s={s}, n={n})" for (s, n), e in worst.items())
    return True, (f"{len(corpus)} corpus functions, each recursing somewhere: exact worst "
                  f"Pr[error] {errors} <= 1/20 at every point")


# ---------------------------------------------------------------------------
# criteria 7-8: exact noise stability and downward mismatch bounds

NOISE_SIZES = (6, 9, 10)


def criterion_noise_stability() -> tuple[bool, str]:
    total = 0
    for n in NOISE_SIZES:
        for fname, f in standard_corpus(n):
            s = sensitivity(f).s
            if s == 0:
                continue
            for delta in (Fraction(1, 20 * s), Fraction(1, 4 * s)):
                bound = 2 * delta * s
                below = noise.noise_sensitivity_below(f, delta, bound)
                if not below.all():
                    x = int(np.argmin(below))  # the first failing point
                    value = noise.noise_sensitivity_at(f, Point(n, x), delta)
                    return False, (f"{fname} at n={n}, delta={delta}: NS(x={x}) = "
                                   f"{value} not < 2*delta*s = {bound}")
                total += len(below)
    return True, (f"{total} exact pointwise noise-sensitivity values strictly below "
                  f"2*delta*s (corpus at n in {NOISE_SIZES}, delta in 1/(20s), 1/(4s))")


def criterion_downward() -> tuple[bool, str]:
    total = 0
    for n in NOISE_SIZES:
        w = weights_vector(n).astype(np.int64)
        t = np.arange(n + 1, dtype=np.int64)
        chooser = np.array(
            [[comb(d, tt) if tt <= d else 0 for tt in range(n + 1)] for d in range(n + 1)],
            dtype=np.int64,
        )
        for fname, f in standard_corpus(n):
            s = sensitivity(f).s
            table = noise.downward_mismatch_table(f)
            # mism/C(d,t) <= s*t/(d-t), cross-multiplied to integers
            lhs = table * (w[:, None] - t[None, :])
            rhs = s * t[None, :] * chooser[w]
            valid = (w[:, None] >= s) & (t[None, :] <= w[:, None])
            viol = valid & (lhs > rhs)
            if viol.any():
                x, tt = (int(v[0]) for v in np.nonzero(viol))
                return False, (f"{fname} at n={n}: x={x} (wt {w[x]}), t={tt}: "
                               f"{table[x, tt]}/{chooser[w[x], tt]} mismatches exceeds st/(d-t)")
            total += int(valid.sum())
    return True, (f"{total} exact downward-mismatch bounds hold on every point with "
                  f"wt >= s, every walk length (corpus at n in {NOISE_SIZES})")


# ---------------------------------------------------------------------------
# criterion 9: small-set expansion of the noise operator

SSE_N = 12
SSE_SETS_SMALL = 150
SSE_SETS_ANY = 50


def criterion_sse() -> tuple[bool, str]:
    n, delta = SSE_N, Fraction(1, 20)
    rng = seeded_rng(SEED, "sse")
    sets = []
    for _ in range(SSE_SETS_SMALL):
        size = int(rng.integers(1, 65))
        sets.append(rng.choice(1 << n, size=size, replace=False).tolist())
    for _ in range(SSE_SETS_ANY):
        size = int(rng.integers(1, (1 << n) + 1))
        sets.append(rng.choice(1 << n, size=size, replace=False).tolist())
    checked = 0
    premise_hits = 0
    for members in sets:
        for rep in noise.expansion_reports(n, members, delta, (Fraction(2, 5), Fraction(1, 10))):
            if not rep.holds:
                return False, (f"|S|={len(members)}, theta={rep.theta}: mu(Lambda)="
                               f"{rep.mu_Lambda} exceeds (mu(S)/theta^2)^(1+2delta)={rep.rhs}")
            if rep.premise and not rep.bound:
                return False, (f"|S|={len(members)}, theta={rep.theta}: corollary premise "
                               "holds but mu(Lambda) > mu(S)^(1+delta)")
            premise_hits += rep.premise
            checked += 1
    return True, (f"{checked} expansion instances hold at n={n}, delta=1/20, theta in "
                  f"(2/5, 1/10); corollary premise met {premise_hits} times and its bound "
                  "held every time")


# ---------------------------------------------------------------------------
# criteria 10-11: self-correction

CORRECT_N = 12
CORRECT_DELTA = Fraction(1, 8)
CORRECT_FUNCTIONS = 10


def criterion_global_correction() -> tuple[bool, str]:
    n = CORRECT_N
    recovered = 0
    for s in (1, 2):
        count = 1 << (n - 6 * s)  # 2^(-6s) fraction of the cube
        params = selfcorrect.CorrectorParams(s=s, delta=CORRECT_DELTA)
        k = params.default_k(n)
        for i in range(CORRECT_FUNCTIONS):
            f = families.random_dt(n, s, seed=SEED + 100 * s + i)
            rng = seeded_rng(SEED, "global", s, i)
            _, r = selfcorrect.corrupt(f, Fraction(count, 1 << n), rng)
            res = selfcorrect.global_correct(r, params, truth=f, check_contraction=True)
            if res.table != f:
                return False, f"s={s} tree #{i}: not recovered within k={k} (trace {res.trace})"
            if not res.contraction_ok:
                return False, (f"s={s} tree #{i}: error set escaped Lambda_(delta,2/5) "
                               f"(trace {res.trace})")
            if not (res.converged and res.iterations <= k):
                return False, f"s={s} tree #{i}: no fixpoint within k={k} iterations"
            recovered += 1
    return True, (f"{recovered}/20 corrupted tables (64 flips at s=1, 1 flip at s=2, "
                  f"n={n}) recovered exactly with delta={CORRECT_DELTA}, k=15/21; "
                  "every error set stayed inside Lambda_(delta,2/5) of its predecessor")


LOCAL_TRIALS = 1000
LOCAL_CLEAN_K = 3
LOCAL_ADVERSARIAL_K = 4


def criterion_local_correction() -> tuple[bool, str]:
    n = CORRECT_N
    f = families.dictator(n, 1)
    params = selfcorrect.CorrectorParams(s=1)  # delta=1/20, epsilon=1/10
    c = params.local_c()
    eps = float(params.epsilon)
    sigma = sqrt(eps * (1 - eps) / LOCAL_TRIALS)
    bound = eps + 3 * sigma
    # clean oracle: failure rate within the guarantee at every probed point
    clean = selfcorrect.CorruptedOracle(f, frozenset())
    for x_idx in (0, (1 << n) - 1, 0b101010101010):
        x = Point(n, x_idx)
        rng = seeded_rng(SEED, "local-clean", x_idx)
        outs = selfcorrect.local_correct_batch(
            clean, x, params, LOCAL_TRIALS, rng, k=LOCAL_CLEAN_K
        )
        rate = float((outs != f(x)).mean())
        if rate > bound:
            return False, f"clean oracle at x={x_idx}: failure rate {rate} > {bound:.4f}"
    rng = seeded_rng(SEED, "local-scalar")
    _, used = selfcorrect.local_correct(clean, Point(n, 0), params, rng, k=LOCAL_CLEAN_K)
    if used != c**LOCAL_CLEAN_K:
        return False, f"clean query count {used} != {c**LOCAL_CLEAN_K}"
    # adversarial corruption sitting exactly on the query point
    x = Point(n, 0)
    oracle, _ = selfcorrect.corrupt_targeted(f, x, 1)
    k = LOCAL_ADVERSARIAL_K
    rng = seeded_rng(SEED, "local-adversarial")
    before = oracle.query_count
    outs = selfcorrect.local_correct_batch(oracle, x, params, LOCAL_TRIALS, rng, k=k)
    used = oracle.query_count - before
    if used != LOCAL_TRIALS * c**k:
        return False, f"adversarial query count {used} != {LOCAL_TRIALS} * {c**k}"
    good = int((outs == f(x)).sum())
    if good < 990:
        return False, f"adversarial recovery {good}/{LOCAL_TRIALS} below 990"
    _, used_scalar = selfcorrect.local_correct(oracle, x, params, rng, k=k)
    if used_scalar != c**k:
        return False, f"scalar query count {used_scalar} != {c**k}"
    return True, (f"clean failure rate <= {bound:.4f} at 3 probe points; corrupted query "
                  f"point recovered {good}/{LOCAL_TRIALS} times with exactly c^k = {c**k} "
                  "queries per call")


# ---------------------------------------------------------------------------
# criteria 12-13: counting and cross-measure inequalities

def criterion_counting() -> tuple[bool, str]:
    for n in range(1, 5):
        census = counting.build_census(n)
        for s in range(n + 1):
            if not census.lower[s] <= census.counts[s] <= census.upper[s]:
                return False, (f"n={n}, s={s}: count {census.counts[s]} outside "
                               f"[{census.lower[s]}, {census.upper[s]}]")
        anchors = {0: 2, 1: 2 + 2 * n, n: 1 << (1 << n)}
        for s, expect in anchors.items():
            if census.counts[s] != expect:
                return False, f"n={n}: |F({s},{n})| = {census.counts[s]}, expected {expect}"
    return True, ("class counts within the product/degree bounds for every s at n <= 4; "
                  "|F(0,n)| = 2, |F(1,n)| = 2 + 2n, |F(n,n)| = 2^(2^n) anchors exact")


def criterion_cross_measures() -> tuple[bool, str]:
    n = 4
    tables = counting.all_tables(n)
    sens = counting.per_function_sensitivity(tables, n).astype(np.int64)
    deg = counting.per_function_degree(tables, n).astype(np.int64)
    relcnt = sum(flips.any(axis=1) for flips in _coordinate_flips(tables, n))
    if (sens > 4 * deg * deg).any():
        i = int(np.nonzero(sens > 4 * deg * deg)[0][0])
        return False, f"n=4 table {i}: s = {sens[i]} > 4*deg^2 = {4 * deg[i] ** 2}"
    if (deg > sens * sens).any():
        i = int(np.nonzero(deg > sens * sens)[0][0])
        return False, f"n=4 table {i}: deg = {deg[i]} > s^2 = {sens[i] ** 2} (Huang)"
    if (relcnt > sens * 4**sens).any():
        i = int(np.nonzero(relcnt > sens * 4**sens)[0][0])
        return False, (f"n=4 table {i}: {relcnt[i]} relevant variables > s*4^s = "
                       f"{sens[i] * 4 ** sens[i]}")
    checked = len(tables)
    for nn in NOISE_SIZES:
        for fname, f in standard_corpus(nn):
            s = sensitivity(f).s
            d = degree(f)
            rel = len(relevant_variables(f))
            if not (s <= 4 * d * d and d <= s * s and rel <= s * 4**s):
                return False, (f"{fname} at n={nn}: s={s}, deg={d}, relevant={rel} "
                               "violate a cross-measure bound")
            checked += 1
    return True, (f"s <= 4*deg^2, deg <= s^2 (Huang) and |relevant| <= s*4^s on all {checked} "
                  f"functions (full n=4 census plus the corpus at n in {NOISE_SIZES})")


# ---------------------------------------------------------------------------
# suite runner

CRITERIA: dict[int, tuple[str, object]] = {
    1: ("ball-reconstruction", criterion_ball),
    2: ("majority-radius", criterion_maj_radius),
    3: ("parity-radius", criterion_par_radius),
    4: ("evaluator-agreement", criterion_evaluators),
    5: ("topdown-visit-bound", criterion_visit_bound),
    6: ("parallel-error", criterion_parallel_error),
    7: ("noise-stability", criterion_noise_stability),
    8: ("downward-mismatch", criterion_downward),
    9: ("small-set-expansion", criterion_sse),
    10: ("global-correction", criterion_global_correction),
    11: ("local-correction", criterion_local_correction),
    12: ("class-counts", criterion_counting),
    13: ("cross-measures", criterion_cross_measures),
}

SUITES: dict[str, list[int]] = {
    "ball": [1],
    "rules": [2, 3],
    "evaluators": [4, 5, 6],
    "noise": [7, 8, 9],
    "selfcorrect": [10, 11],
    "counting": [12, 13],
    "all": sorted(CRITERIA),
}


def run_criterion(number: int, *args) -> CheckResult:
    """Run battery `number` of CRITERIA on `args` (criterion 1 takes n) and name its
    (ok, detail) verdict."""
    name, battery = CRITERIA[number]
    return CheckResult(number, name, *battery(*args))
