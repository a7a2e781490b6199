"""Extension of ball advice to total functions.

Three rules:
  * majority: a point at distance k+1 from the center takes the majority of
    its k+1 neighbors at distance k; an exact tie (only possible when k+1 is
    even) aborts with the offending point.
  * parity: the unique multilinear integer extension whose coefficients above
    the advice radius all vanish (integer-valued, not necessarily Boolean).
  * f2: the same construction mod 2 (always Boolean).

Parity and f2, scalar and batched, share one engine, _low_degree_extend.
The majority rule processes points in increasing distance from the center,
then increasing index, so failures are deterministic.  r_bruteforce_batch
is the one brute-force radius scan for both rules; a row leaves it once its
least radius is found, or, within a radius, once one center fails it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BallAdvice,
    IntegerFunction,
    Point,
    TruthTable,
    _mobius_int,
    _zeta_f2,
    _zeta_int,
    check_n,
    degree,
    restrict_to_ball,
    sensitivity,
    weights_vector,
)

TIE = "tie"
OUT_OF_RANGE = "out-of-range"

BRUTE_FORCE_MAX_N = 10


@dataclass(frozen=True)
class ExtensionOutcome:
    value: TruthTable | IntegerFunction | None
    failed_point: Point | None = None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.value is not None

    @classmethod
    def extended(cls, value) -> "ExtensionOutcome":
        return cls(value=value)

    @classmethod
    def failed(cls, point: Point, reason: str) -> "ExtensionOutcome":
        return cls(value=None, failed_point=point, reason=reason)


# ---------------------------------------------------------------------------
# majority rule

def _spheres_by_distance(n: int, center: int) -> list[list[int]]:
    """out[k] = indices at distance k from center, increasing index."""
    dist = weights_vector(n)[np.arange(1 << n) ^ center]
    return [np.nonzero(dist == k)[0].tolist() for k in range(n + 1)]


def _outward_majority(vals: np.ndarray, n: int, center: int, r: int) -> Point | None:
    """Fill every point beyond distance r from center in place, one sphere
    at a time, with the majority of its inward neighbors.  Returns the first
    tie point (vals is then only partly filled), or None."""
    spheres = _spheres_by_distance(n, center)
    for k in range(r, n):
        for idx in spheres[k + 1]:
            diff = idx ^ center
            ones = 0
            for i in range(n):
                if (diff >> i) & 1:
                    ones += int(vals[idx ^ (1 << i)])
            if 2 * ones > k + 1:
                vals[idx] = 1
            elif 2 * ones < k + 1:
                vals[idx] = 0
            else:
                return Point(n, int(idx))
    return None


def majority_extend(advice: BallAdvice) -> ExtensionOutcome:
    vals = advice.dense()
    tie = _outward_majority(vals, advice.n, advice.center.index, advice.radius)
    if tie is not None:
        return ExtensionOutcome.failed(tie, TIE)
    return ExtensionOutcome.extended(TruthTable(advice.n, vals))


def majority_extend_batch(
    n: int, center: int, radius: int, tables: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run the majority rule on many functions at once.

    `tables` is (num_functions, 2^n) uint8 holding each function's values on
    B(center, radius) (entries outside the ball are ignored).  Returns the
    extended tables and a boolean tie mask; rows with a tie keep arbitrary
    values from the tie level onward and must only be read through the mask.
    """
    check_n(n)
    tables = np.array(tables, dtype=np.uint8, copy=True)
    tie = np.zeros(tables.shape[0], dtype=bool)
    spheres = _spheres_by_distance(n, center)
    for k in range(radius, n):
        m = k + 1
        for idx in spheres[m]:
            diff = idx ^ center
            neigh = [idx ^ (1 << i) for i in range(n) if (diff >> i) & 1]
            ones = tables[:, neigh].sum(axis=1, dtype=np.int64)
            tie |= 2 * ones == m
            tables[:, idx] = (2 * ones > m).astype(np.uint8)
    return tables, tie


# ---------------------------------------------------------------------------
# parity and F2 rules

def _low_degree_extend(
    n: int, center: int, radius: int, tables: np.ndarray, mod2: bool
) -> np.ndarray:
    """The extension with every multilinear coefficient (mod 2 with `mod2`)
    of weight > radius zero, over the last axis; leading axes are a batch.
    Entries outside B(center, radius) are ignored.

    Translates to center 0 (real and F2 degree are invariant under
    y -> y xor center), zeroes the high coefficients and re-evaluates: two
    butterflies.  This equals the level-by-level rule that forces each point
    at ball level >= radius+1 to make its own coefficient vanish.
    """
    idx = np.arange(1 << n) ^ center
    high = weights_vector(n) > radius
    moved = np.where(high, 0, np.asarray(tables)[..., idx])
    if mod2:
        coeffs = _zeta_f2(moved.astype(np.uint8, order="C"))
        coeffs[..., high] = 0
        return _zeta_f2(coeffs)[..., idx]
    coeffs = _mobius_int(moved.astype(np.int64, order="C"))
    coeffs[..., high] = 0
    return _zeta_int(coeffs)[..., idx]


def parity_extend(advice: BallAdvice) -> IntegerFunction:
    return IntegerFunction(advice.n, _low_degree_extend(
        advice.n, advice.center.index, advice.radius, advice.dense(), mod2=False))


def f2_extend(advice: BallAdvice) -> TruthTable:
    return TruthTable(advice.n, _low_degree_extend(
        advice.n, advice.center.index, advice.radius, advice.dense(), mod2=True))


def parity_extend_batch(n: int, center: int, radius: int, tables: np.ndarray) -> np.ndarray:
    """Parity rule over many functions: rows are full tables whose values
    outside B(center, radius) are ignored.  Returns int64 extensions."""
    return _low_degree_extend(n, center, radius, tables, mod2=False)


def f2_extend_batch(n: int, center: int, radius: int, tables: np.ndarray) -> np.ndarray:
    return _low_degree_extend(n, center, radius, tables, mod2=True)


# ---------------------------------------------------------------------------
# sphere advice

def sphere_extend(
    n: int, center: Point, s: int, values: dict[int, int]
) -> ExtensionOutcome:
    """Recover a sensitivity-s function from its values on the sphere
    S(center, 2s) alone, for s <= n/4: extend outward with the majority rule,
    then rebuild everything from the far ball around the antipodal point
    (distance >= n-2s from the center means distance <= 2s from the
    antipode, so that ball is fully known once the outward pass finishes)."""
    check_n(n)
    if 4 * s > n:
        return ExtensionOutcome.failed(center, OUT_OF_RANGE)
    r = 2 * s
    expected = _spheres_by_distance(n, center.index)[r]
    if sorted(values) != expected:
        raise ValueError("advice domain is not exactly the radius-2s sphere")
    vals = np.full(1 << n, 255, dtype=np.uint8)
    for i, v in values.items():
        if v not in (0, 1):
            raise ValueError("sphere values must be bits")
        vals[i] = v
    tie = _outward_majority(vals, n, center.index, r)
    if tie is not None:
        return ExtensionOutcome.failed(tie, TIE)
    anti = Point(n, center.index ^ ((1 << n) - 1))
    far_idx = np.nonzero(weights_vector(n)[np.arange(1 << n) ^ anti.index] <= r)[0]
    far = {int(i): int(vals[i]) for i in far_idx}
    return majority_extend(BallAdvice(anti, r, far))


# ---------------------------------------------------------------------------
# minimal reconstruction radii

def r_maj(f: TruthTable) -> int:
    return min(2 * sensitivity(f).s, f.n)


def r_par(f: TruthTable) -> int:
    return degree(f)


def _extends_everywhere_maj(f: TruthTable, r: int) -> bool:
    for c in range(1 << f.n):
        out = majority_extend(restrict_to_ball(f, Point(f.n, c), r))
        if not out.ok or out.value != f:
            return False
    return True


def r_maj_bruteforce(f: TruthTable) -> int:
    """Smallest r such that the majority rule recovers f from B(x0, r) for
    every center x0.  Gated to small n; the scalar reference for
    r_bruteforce_batch."""
    check_n(f.n, BRUTE_FORCE_MAX_N)
    for r in range(f.n + 1):
        if _extends_everywhere_maj(f, r):
            return r
    raise AssertionError("radius n always extends")


def r_bruteforce_batch(n: int, tables: np.ndarray, rule: str, centers=None) -> np.ndarray:
    """Least radius at which `rule` ("maj" or "par") recovers each row of
    `tables` from B(x0, r) for every center x0 in `centers` (all by
    default), scanning radii upward; -1 where no radius does.

    Rows leave the scan as soon as they are settled: a radius extends only
    the rows with no least radius yet, and each center only the rows that
    every earlier center at this radius recovered.
    """
    centers = range(1 << n) if centers is None else centers
    tables = np.asarray(tables)
    first = np.full(len(tables), -1, dtype=np.int64)
    for r in range(n + 1):
        live = np.flatnonzero(first < 0)
        rows = tables[live]
        for center in centers:
            if not len(live):
                break
            if rule == "maj":
                ext, ties = majority_extend_batch(n, center, r, rows)
                ok = ~ties & (ext == rows).all(axis=1)
            else:
                ok = (parity_extend_batch(n, center, r, rows) == rows).all(axis=1)
            live, rows = live[ok], rows[ok]
        first[live] = r
    return first


def r_par_bruteforce(f: TruthTable, all_centers: bool = True) -> int:
    """Smallest r such that the parity rule recovers f from B(x0, r), either
    for every center or for x0 = 0 only."""
    check_n(f.n, BRUTE_FORCE_MAX_N)
    centers = None if all_centers else [0]
    return int(r_bruteforce_batch(f.n, f.values[None, :], "par", centers)[0])
