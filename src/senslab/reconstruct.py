"""Extension of ball advice to total functions.

Three rules:
  * majority: a point at distance k+1 from the center takes the majority of
    its k+1 neighbors at distance k; an exact tie (only possible when k+1 is
    even) aborts with the offending point.
  * parity: the unique multilinear integer extension whose coefficients above
    the advice radius all vanish (integer-valued, not necessarily Boolean).
  * f2: the same construction mod 2 (always Boolean).

Points are processed in increasing distance from the center, then increasing
index, so failures are deterministic.
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
    popcount,
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

def _truncate_extend(padded: np.ndarray, n: int, radius: int, mod2: bool) -> np.ndarray:
    """Zero every multilinear coefficient of weight > radius and re-evaluate.

    Equivalent to applying the level-by-level rule that forces each point at
    ball level >= radius+1 to make its own coefficient vanish (induction on
    the level), but runs as two butterfly transforms.
    """
    w = weights_vector(n)
    if mod2:
        coeffs = _zeta_f2(padded.astype(np.uint8, order="C"))
        coeffs[..., w > radius] = 0
        return _zeta_f2(coeffs)
    coeffs = _mobius_int(padded.astype(np.int64, order="C"))
    coeffs[..., w > radius] = 0
    return _zeta_int(coeffs)


def _conjugated_extend(advice: BallAdvice, mod2: bool) -> np.ndarray:
    """Translate the advice to center 0, extend, translate back.  Both real
    and F2 degree are invariant under y -> y xor x0, so the translated
    extension pulls back to the unique low-degree extension at the original
    center."""
    n, c = advice.n, advice.center.index
    idx = np.arange(1 << n)
    padded = np.zeros(1 << n, dtype=np.int64)
    for i, v in advice.values.items():
        padded[i ^ c] = v
    ext = _truncate_extend(padded, n, advice.radius, mod2)
    return ext[idx ^ c]


def parity_extend(advice: BallAdvice) -> IntegerFunction:
    return IntegerFunction(advice.n, _conjugated_extend(advice, mod2=False))


def f2_extend(advice: BallAdvice) -> TruthTable:
    return TruthTable(advice.n, _conjugated_extend(advice, mod2=True).astype(np.uint8))


def parity_extend_batch(n: int, center: int, radius: int, tables: np.ndarray) -> np.ndarray:
    """Parity rule over many functions: rows are full tables whose values
    outside B(center, radius) are ignored.  Returns int64 extensions."""
    idx = np.arange(1 << n)
    dist = weights_vector(n)[idx ^ center]
    padded = np.where(dist <= radius, tables, 0).astype(np.int64)[:, idx ^ center]
    ext = _truncate_extend(padded, n, radius, mod2=False)
    return ext[:, idx ^ center]


def f2_extend_batch(n: int, center: int, radius: int, tables: np.ndarray) -> np.ndarray:
    idx = np.arange(1 << n)
    dist = weights_vector(n)[idx ^ center]
    padded = np.where(dist <= radius, tables, 0).astype(np.uint8)[:, idx ^ center]
    ext = _truncate_extend(padded, n, radius, mod2=True)
    return ext[:, idx ^ center]


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
    every center x0.  Gated to small n."""
    check_n(f.n, BRUTE_FORCE_MAX_N)
    for r in range(f.n + 1):
        if _extends_everywhere_maj(f, r):
            return r
    raise AssertionError("radius n always extends")


def r_par_bruteforce(f: TruthTable, all_centers: bool = True) -> int:
    """Smallest r such that the parity rule recovers f from B(x0, r), either
    for every center or for x0 = 0 only."""
    check_n(f.n, BRUTE_FORCE_MAX_N)
    centers = range(1 << f.n) if all_centers else [0]
    for r in range(f.n + 1):
        if all(
            parity_extend(restrict_to_ball(f, Point(f.n, c), r)) == f
            for c in centers
        ):
            return r
    raise AssertionError("radius n always extends")
