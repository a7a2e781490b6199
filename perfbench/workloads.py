"""The three workloads: inputs made from the seed, cold cache fills, and one
pass over a fixed task list whose outputs are checked and hashed.

`setup` generates every input and fills the library's first-call caches, so
a timed pass repeats neither (the fills are reported per function as
`<module>.<function>.cold_s`).  `TASKS[workload]` is the pass: each task
calls the library's public functions, records checks on a `Gate`, and hashes
its outputs so that two commits can be compared.
"""
from __future__ import annotations

import hashlib
import time
from fractions import Fraction
from math import comb, sqrt

import numpy as np

from senslab import core, evaluate, families, noise, selfcorrect, verify
from senslab.core import Point, TruthTable, seeded_rng

WORKLOADS = ("large-n-kernels", "batteries", "sampling-exact")

# large-n-kernels: butterflies on one huge table, sweeps on two at n - 2
KERNEL_N = 22
SWEEP_N = 20
SWEEP_S = (2, 3)
KERNEL_DELTA = Fraction(1, 20)
KERNEL_PROBES = 16

# batteries: every criterion except 6 (one pass of it takes about 250 s);
# the cache fills below are those of criteria 4 and 5 (n in 8, 12; s in 1-3)
BATTERIES = (1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13)
BATTERY_SWEEP_N = (8, 12)
BATTERY_SWEEP_S = (1, 2, 3)

# sampling-exact
PARALLEL_N = 16
PARALLEL_TRIALS = 40
LOCAL_N = 16
LOCAL_K = 4
LOCAL_TRIALS = 1000
LOCAL_PROBES = (0, (1 << LOCAL_N) - 1, 0xAAAA)
LOCAL_CORRUPTION = Fraction(1, 1024)
EXACT_N = 13
SSE_SETS = 16
GLOBAL_FUNCTIONS = 4
GLOBAL_DELTA = Fraction(1, 8)
TIE_N = 12
SINGLETON_N = 11


class Gate:
    """The correctness gate of one pass.  Every check counts as attempted; a
    false check, or a task that raises, counts as failed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed: list[str] = []
        self.digests: dict[str, str] = {}
        self.walls: dict[str, float] = {}
        self._hash = None

    def check(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def digest(self, *parts) -> None:
        for part in parts:
            if isinstance(part, np.ndarray):
                self._hash.update(str((part.dtype.str, part.shape)).encode())
                self._hash.update(np.ascontiguousarray(part).tobytes())
            else:
                self._hash.update(repr(part).encode())

    def run(self, name: str, task, state) -> None:
        self._hash = hashlib.sha256()
        try:
            task(state, self)
        except Exception as exc:  # a task that raises is a failed check
            self.check(f"{name}: raised {type(exc).__name__}: {exc}", False)
        self.digests[name] = self._hash.hexdigest()

    def timed(self, name: str, fn, *args):
        """Call fn inside a span of its own when tracing, and keep its wall time."""
        started = time.perf_counter()
        try:
            if self.tracer is not None:
                return self.tracer.span(name, fn, *args)
            return fn(*args)
        finally:
            self.walls[name] = time.perf_counter() - started


def _cold(cold: dict, name: str, fn, *args) -> None:
    """Time a first-call cache fill; `name` is the function's home."""
    started = time.perf_counter()
    fn(*args)
    cold[name] = cold.get(name, 0.0) + time.perf_counter() - started


def _nonconstant_dt(n: int, depth: int, seed: int) -> TruthTable:
    while True:
        f = families.random_dt(n, depth, seed)
        if 0 < f.count_ones() < (1 << n):
            return f
        seed += 1


# ---------------------------------------------------------------------------
# large-n-kernels

def _setup_kernels(seed: int, cold: dict) -> dict:
    f = families.random_function(KERNEL_N, seed)
    dts = {s: families.random_dt(SWEEP_N, s, seed) for s in SWEEP_S}
    rng = seeded_rng(seed, "bench-probes")
    probes = rng.integers(0, 1 << KERNEL_N, size=KERNEL_PROBES).tolist()
    sweep_probes = rng.integers(0, 1 << SWEEP_N, size=KERNEL_PROBES).tolist()
    _cold(cold, "evaluate.set_bits_table", evaluate.set_bits_table, SWEEP_N)
    _cold(cold, "core.weights_vector", core.weights_vector, SWEEP_N)
    _cold(cold, "core.weights_vector", core.weights_vector, KERNEL_N)
    return {"f": f, "dts": dts, "probes": probes, "sweep_probes": sweep_probes}


def _task_mobius(st, gate):
    f = st["f"]
    coeffs = core.mobius_coefficients(f)
    back = core.zeta_transform(coeffs)
    gate.check("zeta(mobius(f)) == f", np.array_equal(back.values, f.values))
    gate.digest(coeffs.values)


def _task_mobius_f2(st, gate):
    f = st["f"]
    coeffs = core.mobius_coefficients_f2(f)
    back = core.mobius_coefficients_f2(coeffs)
    gate.check("F2 transform is self-inverse", np.array_equal(back.values, f.values))
    gate.digest(coeffs.values)


def _task_walsh(st, gate):
    f = st["f"]
    spectrum = noise.walsh_hadamard(f.values)
    back = noise.walsh_hadamard(spectrum)
    # integer-valued floats below 2^53: the round trip is exact
    gate.check("WHT(WHT(f)) == 2^n f", np.array_equal(back, f.values * float(1 << f.n)))
    gate.digest(spectrum)


def _exact_float_noise(values: np.ndarray, n: int, x: int, delta: Fraction) -> float:
    """Reference T_{1-2delta} f(x) from the distance census of x alone."""
    dist = np.bitwise_count(np.arange(1 << n, dtype=np.uint32) ^ np.uint32(x))
    census = np.bincount(dist, weights=values.astype(np.float64), minlength=n + 1)
    d = float(delta)
    return float(sum(c * d**k * (1 - d) ** (n - k) for k, c in enumerate(census)))


def _task_noise_operator(st, gate):
    f = st["f"]
    t = noise.noise_operator(f, KERNEL_DELTA).values
    gate.check("T f within [0, 1]", bool(t.min() > -1e-9 and t.max() < 1 + 1e-9))
    gate.check("E[T f] == E[f]", abs(t.mean() - f.values.mean()) < 1e-9)
    for x in st["probes"][:2]:
        ref = _exact_float_noise(f.values, f.n, x, KERNEL_DELTA)
        gate.check(f"T f({x}) matches the census", abs(t[x] - ref) < 1e-9)
    gate.digest(np.round(t, 9))


def _task_pointwise(st, gate):
    f = st["f"]
    ps = core.pointwise_sensitivity(f)
    gate.check("sum of s(f, x) is even", int(ps.sum(dtype=np.int64)) % 2 == 0)
    for x in st["probes"]:
        gate.check(f"s(f, {x}) matches sensitivity_at",
                   int(ps[x]) == core.sensitivity_at(f, Point(f.n, x)))
    gate.digest(ps)


def _task_top_down(st, gate):
    for s, g in st["dts"].items():
        out = evaluate.top_down_all(g, s)
        gate.check(f"top_down_all == truth (s={s})", np.array_equal(out.values, g.values))
        gate.digest(out.values)


def _task_downward(st, gate):
    g = st["dts"][SWEEP_S[0]]
    table = noise.downward_mismatch_table(g)
    gate.check("M[x, 0] == 0", not table[:, 0].any())
    for x in st["sweep_probes"]:
        w = int(x).bit_count()
        for t in (1, 2):
            if t <= w:
                ref = noise.downward_mismatch(g, Point(g.n, x), t) * comb(w, t)
                gate.check(f"M[{x}, {t}] matches enumeration", int(table[x, t]) == ref)
    gate.digest(table)


# ---------------------------------------------------------------------------
# batteries

def _setup_batteries(seed: int, cold: dict) -> dict:
    # the batteries pin their inputs to verify.SEED; `seed` does not reach them
    for n in BATTERY_SWEEP_N:
        _cold(cold, "evaluate.set_bits_table", evaluate.set_bits_table, n)
        for s in BATTERY_SWEEP_S:
            if hasattr(evaluate, "_shift_plan"):  # a private cache a refactor may drop
                _cold(cold, "evaluate._shift_plan", evaluate._shift_plan, n, 2 * s)
    for n in range(1, max(BATTERY_SWEEP_N) + 1):
        _cold(cold, "core.weights_vector", core.weights_vector, n)
    _cold(cold, "evaluate.majority_threshold_c", selfcorrect.CorrectorParams(s=1).local_c)
    return {}


def _task_batteries(st, gate):
    for k in BATTERIES:
        name = verify.CRITERIA[k][0]
        result = gate.timed(f"verify.{name}", verify.run_criterion, k)
        gate.check(f"criterion {k} ({name}) ok", result.ok)
        gate.digest(k, result.ok, result.detail)


# ---------------------------------------------------------------------------
# sampling-exact

def _setup_sampling(seed: int, cold: dict) -> dict:
    # the corpus of criterion 6, with the seed choosing the decision trees
    n = PARALLEL_N
    corpus = [
        ("dictator", 1, families.dictator(n, 1)),
        ("dictator-neg", 1, families.dictator(n, 9).complement()),
        ("random-dt-1", 1, _nonconstant_dt(n, 1, seed)),
        ("addressing-2", 2, families.addressing(2, n)),
        ("junta-maj3", 2, families.junta_lift(families.majority(3), n, [3, 8, 14])),
        ("junta-parity2", 2, families.junta_lift(families.parity(2), n, [5, 11])),
    ] + [(f"random-dt-2{c}", 2, families.random_dt(n, 2, seed + i))
         for i, c in enumerate("abcd", start=1)]
    local_f = _nonconstant_dt(LOCAL_N, 1, seed)
    oracle, _ = selfcorrect.corrupt(local_f, LOCAL_CORRUPTION, seeded_rng(seed, "bench-local"))
    exact_f = _nonconstant_dt(EXACT_N, 2, seed)
    rng = seeded_rng(seed, "bench-sse")
    sets = [rng.choice(1 << EXACT_N, size=int(rng.integers(1, 65)), replace=False).tolist()
            for _ in range(SSE_SETS)]
    corrupted = []
    for s in (1, 2):
        for i in range(GLOBAL_FUNCTIONS):
            f = families.random_dt(EXACT_N, s, seed + 100 * s + i)
            rate = Fraction(1 << (EXACT_N - 6 * s), 1 << EXACT_N)
            _, r = selfcorrect.corrupt(f, rate, seeded_rng(seed, "bench-global", s, i))
            corrupted.append((s, f, r))
    rng = seeded_rng(seed, "bench-ties")
    balanced = np.zeros(1 << TIE_N, dtype=np.uint8)
    balanced[rng.permutation(1 << TIE_N)[: 1 << (TIE_N - 1)]] = 1
    singleton = int(rng.integers(1 << SINGLETON_N))
    _cold(cold, "evaluate.set_bits_table", evaluate.set_bits_table, PARALLEL_N)
    for n in (PARALLEL_N, LOCAL_N, EXACT_N, TIE_N, SINGLETON_N):
        _cold(cold, "core.weights_vector", core.weights_vector, n)
    local_params = selfcorrect.CorrectorParams(s=1)
    _cold(cold, "evaluate.majority_threshold_c", evaluate.parallel_sample_count)
    _cold(cold, "evaluate.majority_threshold_c", local_params.local_c)
    return {
        "seed": seed,
        "corpus": corpus,
        "points": np.arange(1 << PARALLEL_N, dtype=np.int64),
        "oracle": oracle,
        "local_params": local_params,
        "exact_f": exact_f,
        "sets": sets,
        "corrupted": corrupted,
        "balanced": TruthTable(TIE_N, balanced),
        "singleton": singleton,
    }


def _task_parallel(st, gate):
    for name, s, f in st["corpus"]:
        rng = seeded_rng(st["seed"], "bench-parallel", name)
        out = evaluate.parallel_eval_batch(f, s, st["points"], PARALLEL_TRIALS, rng)
        errors = int((out != f.values[st["points"]][:, None]).sum())
        gate.check(f"{name}: aggregate error <= 1/20", Fraction(errors, out.size) <= Fraction(1, 20))
        gate.digest(np.packbits(out))


def _task_local(st, gate):
    oracle, params = st["oracle"], st["local_params"]
    c = params.local_c()
    eps = float(params.epsilon)
    bound = eps + 3 * sqrt(eps * (1 - eps) / LOCAL_TRIALS)
    for x in LOCAL_PROBES:
        rng = seeded_rng(st["seed"], "bench-local", x)
        before = oracle.query_count
        outs = selfcorrect.local_correct_batch(
            oracle, Point(LOCAL_N, x), params, LOCAL_TRIALS, rng, k=LOCAL_K
        )
        used = oracle.query_count - before
        gate.check(f"x={x}: queries == trials * c^k", used == LOCAL_TRIALS * c**LOCAL_K)
        rate = float((outs != oracle.truth.values[x]).mean())
        gate.check(f"x={x}: failure rate <= eps + 3 sigma", rate <= bound)
        gate.digest(np.packbits(outs))


def _task_noise_sensitivity(st, gate):
    f, delta = st["exact_f"], Fraction(1, 40)
    ns = noise.noise_sensitivity_all(f, delta)
    t = noise.noise_operator(f, delta).values
    ref = np.where(f.values == 1, 1 - t, t)
    worst = max(abs(float(v) - r) for v, r in zip(ns, ref.tolist()))
    gate.check("exact NS matches the float path within 1e-9", worst < 1e-9)
    gate.digest([(v.numerator, v.denominator) for v in ns])


def _task_census(st, gate):
    f = st["exact_f"]
    census = noise.distance_census(f.values, f.n)
    gate.check("census row sums == ones count",
               bool((census.sum(axis=1) == f.count_ones()).all()))
    gate.digest(census)


def _task_hypercontractivity(st, gate):
    for i, members in enumerate(st["sets"]):
        for theta in (Fraction(2, 5), Fraction(1, 10)):
            rep = noise.hypercontractivity_check(EXACT_N, members, Fraction(1, 20), theta)
            gate.check(f"set {i}, theta={theta}: hypercontractivity holds", rep.holds)
            gate.digest(rep.mu_Lambda)


def _task_global(st, gate):
    for s, f, r in st["corrupted"]:
        params = selfcorrect.CorrectorParams(s=s, delta=GLOBAL_DELTA)
        res = selfcorrect.global_correct(r, params, truth=f, check_contraction=True)
        gate.check(f"s={s}: table recovered", res.table == f)
        gate.check(f"s={s}: errors stay inside Lambda", res.contraction_ok)
        gate.check(f"s={s}: fixpoint reached", res.converged)
        gate.digest(res.iterations, res.trace, sorted(res.ties))


def _task_ties(st, gate):
    g = st["balanced"]
    out, ties = selfcorrect.majority_step(g, Fraction(1, 2))
    gate.check("every point of a balanced table ties at delta=1/2", len(ties) == 1 << g.n)
    gate.check("ties keep the previous value", out == g)
    n = SINGLETON_N
    lam = noise.lambda_set(n, [st["singleton"]], Fraction(1, 2), Fraction(1, 1 << n))
    gate.check("Lambda of a singleton at theta=2^-n is the cube", len(lam) == 1 << n)
    gate.digest(sorted(ties), sorted(lam))


SETUP = {
    "large-n-kernels": _setup_kernels,
    "batteries": _setup_batteries,
    "sampling-exact": _setup_sampling,
}

TASKS = {
    "large-n-kernels": [
        ("mobius-zeta", _task_mobius),
        ("mobius-f2", _task_mobius_f2),
        ("walsh-hadamard", _task_walsh),
        ("noise-operator", _task_noise_operator),
        ("pointwise-sensitivity", _task_pointwise),
        ("top-down", _task_top_down),
        ("downward-mismatch", _task_downward),
    ],
    "batteries": [("batteries", _task_batteries)],
    "sampling-exact": [
        ("parallel-sampler", _task_parallel),
        ("local-correct", _task_local),
        ("noise-sensitivity", _task_noise_sensitivity),
        ("distance-census", _task_census),
        ("hypercontractivity", _task_hypercontractivity),
        ("global-correct", _task_global),
        ("band-ties", _task_ties),
    ],
}


def setup(workload: str, seed: int) -> tuple[dict, dict]:
    """Inputs for `workload` at `seed`, and the cold fill time per cache."""
    cold: dict[str, float] = {}
    return SETUP[workload](seed, cold), cold


def run_pass(workload: str, state: dict, tracer=None) -> Gate:
    gate = Gate(tracer)
    for name, task in TASKS[workload]:
        gate.run(name, task, state)
    return gate
