"""Noise-operator machinery.

`T_rho` with rho = 1-2*delta replaces each coordinate independently: y_i = x_i
with probability 1-delta and flipped with probability delta.  The float path
is the character transform; the exact path is the integer step
[[q-p, p], [p, q-p]] (delta = p/q) on the same butterfly, giving q^n T_rho f
at every point.  Threshold decisions (Lambda-sets, the majority step, NS(x) < b)
take the float path outside a 1e-9 band and settle the points inside it exactly:
a few by their distance census, many by one pass of the integer step.

The distance census and the downward mismatch table are ranked subset DPs over
rows indexed by distance (codistance); they share one banded int32 butterfly,
`_codistance_rows`, and return C-contiguous int32 tables of shape (2^n, n+1).
Every entry counts points at one distance, at most C(24, 12) < 2^31; a caller that
multiplies entries widens them first.  The downward table is finished in one pass
over column blocks of BLOCK_BYTES: each block turns counts of ones into mismatches
where f = 1 and is written, transposed, into the output while it is still in cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable

import numpy as np

from .core import (
    BLOCK_BYTES,
    PAIRWISE_MAX_N,
    Point,
    TruthTable,
    _butterfly,
    _exact_int,
    _point_indices,
    check_n,
    exact_fraction,
    lower_shadow,
    weight,
    weights_vector,
)

# Float threshold decisions within this band are re-decided exactly.  The forward
# transform of 0/1 values is exact, and Cauchy-Schwarz on the damped spectrum bounds
# the round-off of `noise_operator` by (n+2) 2^-53 2^(n/2), 1.2e-11 at n = 24.
THRESHOLD_BAND = 1e-9
ENUM_GUARD = 1 << 20
# int32 codistance rows plus the int32 output of downward_mismatch_table, 8 (n+1) 2^n
# bytes: 1.5 GiB at n = 23 runs and 3.1 GiB at n = 24 is refused
DOWNWARD_TABLE_MAX_BYTES = 1 << 31


def noise_rate(value) -> Fraction:
    """Validate a noise rate delta as an exact rational in (0, 1/2]; a float is refused."""
    delta = exact_fraction(value, "noise rate must be an exact rational, not the float {!r}")
    if not 0 < delta <= Fraction(1, 2):
        raise ValueError(f"noise rate {delta} outside (0, 1/2]")
    return delta


@dataclass(frozen=True)
class RealFunction:
    n: int
    values: np.ndarray  # float64, length 2^n

    def __post_init__(self):
        arr = np.asarray(self.values)
        # check before the cast: float64 would parse strings and take complex parts
        if arr.dtype.kind not in "biuf":
            raise ValueError(f"values must be real numbers, not dtype {arr.dtype}")
        if arr.shape != (1 << self.n,):
            raise ValueError("bad length")
        arr = arr.astype(np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


# ---------------------------------------------------------------------------
# float path: character transform

def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalized transform W[S] = sum_x (-1)^{|x & S|} v[x]; self-inverse
    up to the factor 2^n."""
    def step(lo, hi, h):
        diff = lo - hi
        lo += hi
        hi[...] = diff

    return _butterfly(np.array(values, dtype=np.float64, order="C"), step)


def noise_operator(f: TruthTable, delta) -> RealFunction:
    """T_{1-2delta} f on the float path."""
    delta = noise_rate(delta)
    rho = 1.0 - 2.0 * float(delta)
    coeffs = walsh_hadamard(f.values)
    coeffs /= 1 << f.n
    coeffs *= (rho ** np.arange(f.n + 1))[weights_vector(f.n)]
    return RealFunction(f.n, walsh_hadamard(coeffs))


# ---------------------------------------------------------------------------
# exact path: the integer noise step on the butterfly

def _noise_numerators(values: np.ndarray, n: int, delta: Fraction) -> np.ndarray:
    """q^n * T_{1-2delta} f at every point for delta = p/q: one butterfly pass of the
    integer step [[q-p, p], [p, q-p]] on the 0/1 table, in core._exact_int(q^n) (no
    partial sum exceeds q^n; Python ints past int64)."""
    p, q = delta.numerator, delta.denominator
    arr = np.array(values, dtype=_exact_int(q**n))

    def step(lo, hi, h):
        lo[...], hi[...] = (q - p) * lo + p * hi, p * lo + (q - p) * hi

    return _butterfly(arr, step)


def _census_numerators(values: np.ndarray, n: int, delta: Fraction, points) -> np.ndarray:
    """q^n * T_{1-2delta} f at each of `points` from its distance census to the ones of
    f: O(2^n) numpy work and memory per point, Python ints only in the n+1 weights."""
    p, q = delta.numerator, delta.denominator
    ones, w = np.flatnonzero(values), weights_vector(n)
    census = [np.bincount(w[ones ^ x], minlength=n + 1).tolist() for x in points]
    terms = np.array([p**d * (q - p) ** (n - d) for d in range(n + 1)], dtype=object)
    return np.array(census, dtype=object).reshape(-1, n + 1) @ terms


def _noise_signs(values: np.ndarray, n: int, delta: Fraction, thetas: list) -> np.ndarray:
    """Exact signs (int8) of T_{1-2delta} f(x) - theta at every x, one row per theta:
    the float path outside THRESHOLD_BAND; inside, b * N(x) vs a * q^n in Python ints
    (N = q^n T f, theta = a/b), one set of N serving the band points of every theta."""
    gaps = noise_operator(TruthTable(n, values), delta).values - np.array(thetas, float)[:, None]
    signs = np.sign(gaps).astype(np.int8)
    band = np.flatnonzero((np.abs(gaps) <= THRESHOLD_BAND).any(axis=0))
    if len(band):
        # A fixed-width butterfly pass (the work dtype of _noise_numerators, from
        # core._exact_int) costs 1.2n-2.3n censuses at n = 8..15 and 1.0n-1.2n at n = 16..22
        # in int64 (blocked); a Python-int pass 39n-45n at n = 15..18 (2-vCPU VM, best of
        # 3).  The factors below stay within 2x of the crossover at every n; both engines
        # are exact, so a wrong pick only costs time.
        if len(band) <= (64 if _exact_int(delta.denominator**n) == object else 2) * n:
            nums = _census_numerators(values, n, delta, band.tolist())
        else:
            nums = _noise_numerators(values, n, delta)[band].astype(object)
        for row, theta in zip(signs, thetas):
            row[band] = np.sign(nums * theta.denominator - theta.numerator * delta.denominator**n)
    return signs


def _codistance_rows(values: np.ndarray, n: int, step) -> np.ndarray:
    """Rows z[j] (j = 0..n) of a ranked subset butterfly started from z[0] = values:
    stage h calls step(lo, hi, k) with k = log2(h) + 1, and only rows 1..k can be
    nonzero after it (the ranked zeta transform's rank-j layer stays zero until j
    bits are in), so step touches rows 0..k only.  k is read from the stage's h,
    not from the views' shape: in a blocked stage the last axis is not h long."""
    # int32: an entry counts points at one distance from x, at most C(24, 12) < 2^31
    z = np.zeros((n + 1, 1 << n), dtype=np.int32)
    z[0] = values
    return _butterfly(z, lambda lo, hi, h: step(lo, hi, h.bit_length()))


def _one_sided_step(lo, hi, k):
    # a superset gains one codistance per added bit
    np.add(hi[1 : k + 1], lo[:k], out=hi[1 : k + 1])


def distance_census(values: np.ndarray, n: int) -> np.ndarray:
    """census[x, d] = #{y : d(x,y) = d and values[y] = 1} by the two-sided codistance
    butterfly (O(n^2 2^n), guarded): each coordinate moves a partner's row d to d+1.
    Returned as a C-contiguous int32 (2^n, n+1) table, the rows transposed."""
    check_n(n, PAIRWISE_MAX_N)

    def step(lo, hi, k):
        moved = hi[1 : k + 1] + lo[:k]
        np.add(lo[1 : k + 1], hi[:k], out=lo[1 : k + 1])
        hi[1 : k + 1] = moved

    return np.ascontiguousarray(_codistance_rows(values, n, step).T)


def noise_sensitivity_at(f: TruthTable, x: Point, delta) -> Fraction:
    """NS_delta[f](x) = Pr_{y ~ N_{1-2delta}(x)}[f(y) != f(x)], exact (one census, O(2^n))."""
    delta, fx = noise_rate(delta), f(x)
    t = Fraction(_census_numerators(f.values, f.n, delta, [x.index])[0], delta.denominator**f.n)
    return t if fx == 0 else 1 - t


def noise_sensitivity_all(f: TruthTable, delta) -> list[Fraction]:
    """NS_delta[f](x) at every x, exact, by one pass of the integer step (guarded)."""
    delta = noise_rate(delta)
    check_n(f.n, PAIRWISE_MAX_N)
    denom = delta.denominator**f.n
    nums = _noise_numerators(f.values, f.n, delta).tolist()
    return [Fraction(denom - num if v else num, denom) for num, v in zip(nums, f.values.tolist())]


def noise_sensitivity_below(f: TruthTable, delta, bound) -> np.ndarray:
    """NS_delta[f](x) < bound at every x (bool), by the exact signs of T_{1-2delta} f - bound
    where f = 0 and of T_{1-2delta} f - (1 - bound) where f = 1; a float bound is refused."""
    delta = noise_rate(delta)
    bound = exact_fraction(bound, "bound must be an exact rational, not the float {!r}")
    below, above = _noise_signs(f.values, f.n, delta, [bound, 1 - bound])
    return np.where(f.values == 1, above > 0, below < 0)


# ---------------------------------------------------------------------------
# downward walks

def downward_mismatch(f: TruthTable, x: Point, t: int) -> Fraction:
    """Pr_{y in D(x,t)}[f(y) != f(x)] by full enumeration (guarded)."""
    fx, w = f(x), weight(x)
    if not 0 <= t <= w:
        raise ValueError(f"t={t} exceeds weight {w}")
    total = comb(w, t)
    if total > ENUM_GUARD:
        raise ValueError(
            f"|D(x,t)| = {total} exceeds enumeration guard; use downward_mismatch_table"
        )
    bad = sum(f(y) != fx for y in lower_shadow(x, t))
    return Fraction(bad, total)


def downward_mismatch_table(f: TruthTable) -> np.ndarray:
    """M[x, t] = #{y in D(x,t) : f(y) != f(x)} for every x and t at once, as a
    C-contiguous int32 (2^n, n+1) table (widen it before multiplying entries).

    Row t of the codistance DP counts the ones of f in D(x, t); where f(x) = 1 the
    mismatches are the zeros there, C(wt(x), t) minus that count, formed in place.
    For t > wt(x) both terms are 0.  Block by block of columns, the C(wt(x), t)
    are gathered by weight, subtracted where f = 1, and the block is written
    transposed into the output.  The rows and the output take 8 (n+1) 2^n bytes;
    refused before allocating when that passes DOWNWARD_TABLE_MAX_BYTES (n = 24)."""
    n = f.n
    nbytes = (4 + 4) * (n + 1) << n
    if nbytes > DOWNWARD_TABLE_MAX_BYTES:
        raise ValueError(f"downward_mismatch_table at n={n} would allocate {nbytes / 2**30:.1f} GiB, "
                         f"over the {DOWNWARD_TABLE_MAX_BYTES / 2**30:.0f} GiB limit")
    z = _codistance_rows(f.values, n, _one_sided_step)
    w = weights_vector(n)
    ones = f.values.view(bool)
    sizes = np.array([[comb(d, t) for d in range(n + 1)] for t in range(n + 1)], dtype=np.int32)
    out = np.empty((1 << n, n + 1), dtype=np.int32)
    cols = BLOCK_BYTES // out[0].nbytes  # output rows of one block
    for a in range(0, 1 << n, cols):
        blk = z[:, a : a + cols]
        np.subtract(sizes[:, w[a : a + cols]], blk, out=blk, where=ones[a : a + cols])
        out[a : a + cols] = blk.T
    return out


# ---------------------------------------------------------------------------
# Lambda sets and the small-set expansion checks

@dataclass(frozen=True)
class SseReport:
    """mu(S), Lambda_{delta,theta}(S) and mu(Lambda).  The three bounds are decided exactly
    on access, by integer powers for delta = p/q whose size grows with q (lambda_set never
    reads them): `holds` is mu(Lambda) <= (mu(S)/theta^2)^(1+2delta), the corollary's
    `premise` mu(S) <= theta^(4+2/delta) and its `bound` mu(Lambda) <= mu(S)^(1+delta)."""

    mu_S: Fraction
    mu_Lambda: Fraction
    lam: frozenset[int]
    delta: Fraction
    theta: Fraction

    @property
    def rhs(self) -> float:
        return float(self.mu_S / self.theta**2) ** (1 + 2 * float(self.delta))

    @property
    def holds(self) -> bool:
        p, q = self.delta.numerator, self.delta.denominator
        return bool(self.mu_Lambda**q <= (self.mu_S / self.theta**2) ** (q + 2 * p))

    @property
    def premise(self) -> bool:
        p, q = self.delta.numerator, self.delta.denominator
        return bool(self.mu_S**p <= self.theta ** (4 * p + 2 * q))

    @property
    def bound(self) -> bool:
        p, q = self.delta.numerator, self.delta.denominator
        return bool(self.mu_Lambda**q <= self.mu_S ** (q + p))


def expansion_reports(n: int, members: Iterable, delta, thetas: Iterable) -> list[SseReport]:
    """One SseReport per theta for S = members: the members are read once, into an
    index array, and T_{1-2delta} 1_S is computed once for every theta."""
    refusal = "threshold theta must be an exact rational, not the float {!r}"
    delta, thetas = noise_rate(delta), [exact_fraction(theta, refusal) for theta in thetas]
    for theta in thetas:
        if not 0 < theta <= 1:
            raise ValueError(f"threshold theta {theta} outside (0, 1]")
    check_n(n, PAIRWISE_MAX_N)
    ind = np.zeros(1 << n, dtype=np.uint8)
    ind[_point_indices(n, members)] = 1
    size = 1 << n
    mu_s = Fraction(int(np.count_nonzero(ind)), size)
    lams = [np.flatnonzero(signs >= 0) for signs in _noise_signs(ind, n, delta, thetas)]
    return [SseReport(mu_s, Fraction(len(lam), size), frozenset(lam.tolist()), delta, theta)
            for theta, lam in zip(thetas, lams)]


def lambda_set(n: int, members: Iterable, delta, theta) -> frozenset[int]:
    """Lambda_{delta,theta}(S) = {x : Pr_{y ~ N_{1-2delta}(x)}[y in S] >= theta}, exact."""
    return expansion_reports(n, members, delta, [theta])[0].lam


def hypercontractivity_check(n: int, members: Iterable, delta, theta) -> SseReport:
    """mu(Lambda_{delta,theta}(S)) <= (mu(S)/theta^2)^(1+2delta), exactly."""
    return expansion_reports(n, members, delta, [theta])[0]

