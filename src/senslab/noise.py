"""Noise-operator machinery.

`T_rho` with rho = 1-2*delta replaces each coordinate independently: y_i = x_i
with probability 1-delta and flipped with probability delta.  Two evaluation
paths are kept deliberately: a float character-transform path (O(n 2^n)) and
an exact rational direct sum (big-integer weights p^d (q-p)^(n-d) over q^n for
delta = p/q).  Threshold decisions landing within 1e-9 of the float threshold
are re-run on the exact path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable

import numpy as np

from .core import (
    PAIRWISE_MAX_N,
    Point,
    TruthTable,
    _butterfly,
    check_n,
    lower_shadow,
    popcount,
    weight,
    weights_vector,
)

THRESHOLD_BAND = 1e-9
ENUM_GUARD = 1 << 20


def noise_rate(value) -> Fraction:
    """Validate a noise rate delta as an exact rational in (0, 1/2]."""
    delta = Fraction(value)
    if not 0 < delta <= Fraction(1, 2):
        raise ValueError(f"noise rate {delta} outside (0, 1/2]")
    return delta


@dataclass(frozen=True)
class RealFunction:
    n: int
    values: np.ndarray  # float64, length 2^n

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != (1 << self.n,):
            raise ValueError("bad length")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def sample_noisy(x: Point, delta, rng: np.random.Generator) -> Point:
    """One draw of y ~ N_{1-2delta}(x): each bit flipped with probability
    exactly delta = p/q (integer rejection, no float rounding)."""
    delta = noise_rate(delta)
    p, q = delta.numerator, delta.denominator
    flips = rng.integers(0, q, size=x.n) < p
    mask = int(sum(1 << i for i in range(x.n) if flips[i]))
    return Point(x.n, x.index ^ mask)


# ---------------------------------------------------------------------------
# float path: character transform

def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalized transform W[S] = sum_x (-1)^{|x & S|} v[x]; self-inverse
    up to the factor 2^n."""
    def step(lo, hi):
        diff = lo - hi
        lo += hi
        hi[...] = diff

    return _butterfly(np.array(values, dtype=np.float64, order="C"), step)


def noise_operator(f: TruthTable, delta) -> RealFunction:
    """T_{1-2delta} f on the float path."""
    delta = noise_rate(delta)
    check_n(f.n)
    rho = 1.0 - 2.0 * float(delta)
    coeffs = walsh_hadamard(f.values.astype(np.float64)) / (1 << f.n)
    levels = np.bitwise_count(np.arange(1 << f.n, dtype=np.uint32)).astype(np.float64)
    coeffs *= rho ** levels
    return RealFunction(f.n, walsh_hadamard(coeffs))


# ---------------------------------------------------------------------------
# exact path: distance census + big-integer weights

def distance_census(values: np.ndarray, n: int) -> np.ndarray:
    """census[x, d] = #{y : d(x,y) = d and values[y] = 1}.  O(4^n), guarded."""
    check_n(n, PAIRWISE_MAX_N)
    idx = np.arange(1 << n)
    census = np.zeros((1 << n, n + 1), dtype=np.int64)
    vals = np.asarray(values, dtype=np.int64)
    for mask in range(1 << n):
        census[:, popcount(mask)] += vals[idx ^ mask]
    return census


def _point_census(values: np.ndarray, n: int, index: int) -> list[int]:
    idx = np.arange(1 << n)
    dist = np.bitwise_count((idx ^ index).astype(np.uint32))
    return [int(np.asarray(values, dtype=np.int64)[dist == d].sum()) for d in range(n + 1)]


def _census_to_fraction(census_row, n: int, delta: Fraction) -> Fraction:
    p, q = delta.numerator, delta.denominator
    num = sum(int(c) * p**d * (q - p) ** (n - d) for d, c in enumerate(census_row))
    return Fraction(num, q**n)


def exact_noise_value(f_or_values, x: Point, delta) -> Fraction:
    """T_{1-2delta} f(x) as an exact rational (single point, O(2^n))."""
    delta = noise_rate(delta)
    values = f_or_values.values if isinstance(f_or_values, TruthTable) else f_or_values
    return _census_to_fraction(_point_census(values, x.n, x.index), x.n, delta)


def exact_noise_values(f: TruthTable, delta) -> list[Fraction]:
    """All of T_{1-2delta} f as exact rationals (O(4^n), guarded)."""
    delta = noise_rate(delta)
    census = distance_census(f.values, f.n)
    return [_census_to_fraction(row, f.n, delta) for row in census]


def noise_sensitivity_at(f: TruthTable, x: Point, delta) -> Fraction:
    """NS_delta[f](x) = Pr_{y ~ N_{1-2delta}(x)}[f(y) != f(x)], exact."""
    t = exact_noise_value(f, x, delta)
    return t if f(x) == 0 else 1 - t


def noise_sensitivity_all(f: TruthTable, delta) -> list[Fraction]:
    tvals = exact_noise_values(f, delta)
    return [t if f.values[i] == 0 else 1 - t for i, t in enumerate(tvals)]


def noise_sensitivity(f: TruthTable, delta) -> Fraction:
    """Average of NS_delta[f](x) over uniform x, exact."""
    return sum(noise_sensitivity_all(f, delta), Fraction(0)) / (1 << f.n)


# ---------------------------------------------------------------------------
# downward walks

def downward_sample(x: Point, t: int, rng: np.random.Generator) -> Point:
    """Uniform over D(x, t): clear a uniform t-subset of the one-coordinates."""
    w = weight(x)
    if not 0 <= t <= w:
        raise ValueError(f"t={t} exceeds weight {w}")
    ones = [i for i in range(x.n) if (x.index >> i) & 1]
    chosen = rng.choice(len(ones), size=t, replace=False)
    mask = int(sum(1 << ones[int(j)] for j in chosen))
    return Point(x.n, x.index ^ mask)


def downward_mismatch(f: TruthTable, x: Point, t: int) -> Fraction:
    """Pr_{y in D(x,t)}[f(y) != f(x)] by full enumeration (guarded)."""
    w = weight(x)
    if not 0 <= t <= w:
        raise ValueError(f"t={t} exceeds weight {w}")
    total = comb(w, t)
    if total > ENUM_GUARD:
        raise ValueError(
            f"|D(x,t)| = {total} exceeds enumeration guard; use the sampled variant"
        )
    fx = f(x)
    bad = sum(f(y) != fx for y in lower_shadow(x, t))
    return Fraction(bad, total)


def downward_mismatch_sampled(
    f: TruthTable, x: Point, t: int, rng: np.random.Generator, samples: int = 10_000
) -> tuple[Fraction, float]:
    """Monte Carlo estimate plus its binomial standard error."""
    fx = f(x)
    bad = sum(f(downward_sample(x, t, rng)) != fx for _ in range(samples))
    p = bad / samples
    return Fraction(bad, samples), (p * (1 - p) / samples) ** 0.5


def ones_by_codistance(values: np.ndarray, n: int) -> np.ndarray:
    """z[x, j] = sum of values[y] over subsets y of x with wt(x) - wt(y) = j,
    by a bit-at-a-time subset DP (O(n^2 2^n))."""
    z = np.zeros((n + 1, 1 << n), dtype=np.int64)
    z[0] = values
    # row j holds codistance j; a superset gains one codistance per added bit
    _butterfly(z, lambda lo, hi: np.add(hi[1:], lo[:-1], out=hi[1:]))
    return np.ascontiguousarray(z.T)


def downward_mismatch_table(f: TruthTable) -> np.ndarray:
    """M[x, t] = #{y in D(x,t) : f(y) != f(x)} for every x and t at once."""
    check_n(f.n)
    ones = ones_by_codistance(f.values, f.n)
    w = weights_vector(f.n).astype(np.int64)
    # |D(x,t)| = C(wt(x), t); mismatches are the zeros there when f(x)=1
    chooser = np.array(
        [[comb(d, t) for t in range(f.n + 1)] for d in range(f.n + 1)], dtype=np.int64
    )
    totals = chooser[w]
    table = np.where(f.values.astype(bool)[:, None], totals - ones, ones)
    table[totals == 0] = 0
    return table


# ---------------------------------------------------------------------------
# Lambda sets and the small-set expansion checks

def _indicator(n: int, members: Iterable) -> np.ndarray:
    vals = np.zeros(1 << n, dtype=np.uint8)
    for m in members:
        vals[m.index if isinstance(m, Point) else int(m)] = 1
    return vals


def lambda_set(n: int, members: Iterable, delta, theta) -> frozenset[int]:
    """Lambda_{delta,theta}(S) = {x : Pr_{y ~ N_{1-2delta}(x)}[y in S] >= theta},
    decided on the float path with exact re-checks inside the 1e-9 band."""
    delta = noise_rate(delta)
    theta = Fraction(theta)
    check_n(n, PAIRWISE_MAX_N)
    ind = _indicator(n, members)
    tvals = noise_operator(TruthTable(n, ind), delta).values
    theta_f = float(theta)
    out = set(np.nonzero(tvals >= theta_f + THRESHOLD_BAND)[0].tolist())
    boundary = np.nonzero(np.abs(tvals - theta_f) <= THRESHOLD_BAND)[0]
    for i in boundary.tolist():
        if exact_noise_value(ind, Point(n, int(i)), delta) >= theta:
            out.add(int(i))
    return frozenset(int(i) for i in out)


@dataclass(frozen=True)
class SseReport:
    mu_S: Fraction
    mu_Lambda: Fraction
    rhs: float
    holds: bool
    lam: frozenset[int]


def hypercontractivity_check(n: int, members: Iterable, delta, theta) -> SseReport:
    """mu(Lambda_{delta,theta}(S)) <= (mu(S)/theta^2)^(1+2delta), compared
    exactly by raising both sides to the power q for delta = p/q."""
    delta = noise_rate(delta)
    theta = Fraction(theta)
    lam = lambda_set(n, members, delta, theta)
    mu_s = Fraction(len(set(m.index if isinstance(m, Point) else int(m) for m in members)), 1 << n)
    mu_l = Fraction(len(lam), 1 << n)
    p, q = delta.numerator, delta.denominator
    base = mu_s / theta**2
    holds = mu_l**q <= base ** (q + 2 * p)
    return SseReport(
        mu_S=mu_s,
        mu_Lambda=mu_l,
        rhs=float(base) ** (1 + 2 * float(delta)),
        holds=bool(holds),
        lam=lam,
    )


@dataclass(frozen=True)
class CorSseReport:
    mu_S: Fraction
    mu_Lambda: Fraction
    premise: bool
    bound: bool


def sse_corollary_check(n: int, members: Iterable, delta, theta) -> CorSseReport:
    """Premise mu(S) <= theta^(4+2/delta) implies mu(Lambda) <= mu(S)^(1+delta);
    both sides exact via integer powers."""
    delta = noise_rate(delta)
    theta = Fraction(theta)
    p, q = delta.numerator, delta.denominator
    lam = lambda_set(n, members, delta, theta)
    mu_s = Fraction(len(set(m.index if isinstance(m, Point) else int(m) for m in members)), 1 << n)
    mu_l = Fraction(len(lam), 1 << n)
    premise = mu_s**p <= theta ** (4 * p + 2 * q)
    bound = mu_l**q <= mu_s ** (q + p)
    return CorSseReport(mu_S=mu_s, mu_Lambda=mu_l, premise=bool(premise), bound=bool(bound))
