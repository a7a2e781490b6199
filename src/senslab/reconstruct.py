"""Extension of ball advice to total functions.

Three rules:
  * majority: a point at distance k+1 from the center takes the majority of
    its k+1 neighbors at distance k; an exact tie (only possible when k+1 is
    even) aborts with the offending point.
  * parity: the unique multilinear integer extension whose coefficients above
    the advice radius all vanish (integer-valued, not necessarily Boolean).
  * f2: the same construction mod 2 (always Boolean).

Each rule has one engine, and its scalar calls are one-row batches.
Parity and f2 share _low_degree_extend, which folds the translation to the
center into the butterfly stages; core lays the batch out, and a tall one
comes back as a point-major (transposed) view.  The majority rule,
majority_extend_batch, fills one sphere around the center at a time; a point
at distance m sums its m inward neighbours by clearing the lowest set bit of
its offset from the center m times (the walk of evaluate.top_down_all), so a
call holds a few index vectors per sphere and no neighbour table.  It reports
a row's first tie in (distance, index) order, so failures are deterministic;
majority_extend, sphere_extend and r_maj_bruteforce call it with one row.
r_bruteforce_batch is the one brute-force radius scan for both rules; a row
leaves it once its least radius is found, or, within a radius, once one
center fails it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BallAdvice,
    IntegerFunction,
    Point,
    TruthTable,
    _batch_array,
    _butterfly,
    _check_tables,
    _exact_int,
    check_n,
    degree,
    distances,
    lower_neighbors,
    sensitivity,
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


def _check_extension(n: int, center: int, radius: int, tables) -> np.ndarray:
    """`tables` by core._check_tables, refused unless center lies in [0, 2^n) and radius
    in [0, n]; O(1), the one argument check of every rule."""
    tables = _check_tables(tables, n)
    if not 0 <= center < 1 << n:
        raise ValueError(f"center {center} outside [0, {1 << n}) for n={n}")
    if not 0 <= radius <= n:
        raise ValueError(f"radius {radius} outside [0, {n}]")
    return tables


# ---------------------------------------------------------------------------
# majority rule

def majority_extend_batch(
    n: int, center: int, radius: int, tables: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run the majority rule on many functions at once, one sphere at a time.

    `tables` is (num_functions, 2^n) uint8 holding each function's values on
    B(center, radius) (entries outside the ball are ignored).  A point at
    distance m reads only its m inward neighbours on the sphere at distance
    m - 1, one per set bit of its offset from the center: m gathers, one per
    step of core.lower_neighbors, so no (|S|, m) table is built.  Returns the
    extended tables and, per row, the index of the first tie point in
    (distance, index) order, or -1; a row with a tie holds arbitrary values
    from the tie level onward.
    """
    tables = np.array(_check_extension(n, center, radius, tables), dtype=np.uint8, copy=True)
    if tables.ndim != 2:
        raise ValueError(f"the majority rule needs a 2-D batch, not shape {tables.shape}")
    tie = np.full(len(tables), -1, dtype=np.int64)
    dist = distances(n, center)
    for m in range(radius + 1, n + 1):
        idx = np.flatnonzero(dist == m)
        ones = np.zeros((len(tables), len(idx)), dtype=np.uint8)  # m <= 24 votes
        for q in lower_neighbors(idx, m, center):
            ones += tables[:, q]
        tables[:, idx] = 2 * ones > m
        ties = 2 * ones == m
        first = (tie < 0) & ties.any(axis=1)
        tie[first] = idx[ties[first].argmax(axis=1)]
    return tables, tie


def _one_row_outcome(n: int, tables: np.ndarray, tie: np.ndarray) -> ExtensionOutcome:
    if tie[0] >= 0:
        return ExtensionOutcome(None, Point(n, int(tie[0])), TIE)
    return ExtensionOutcome(TruthTable(n, tables[0]))


def majority_extend(advice: BallAdvice) -> ExtensionOutcome:
    return _one_row_outcome(advice.n, *majority_extend_batch(
        advice.n, advice.center.index, advice.radius, advice.values[None, :]))


# ---------------------------------------------------------------------------
# parity and F2 rules

def _low_degree_extend(
    n: int, center: int, radius: int, tables: np.ndarray, mod2: bool
) -> np.ndarray:
    """The extension with every multilinear coefficient (mod 2 with `mod2`)
    of weight > radius zero, over the last axis; leading axes are a batch.
    Entries outside B(center, radius) are ignored.

    Translated to center 0 (real and F2 degree are invariant under
    y -> y xor center), this zeroes the high coefficients and re-evaluates: two
    butterflies.  This equals the level-by-level rule that forces each point
    at ball level >= radius+1 to make its own coefficient vanish.  The
    translation never moves data: a stage whose bit is set in the center runs
    with lo and hi swapped, and the points and coefficients of weight > radius
    about the center are the same index set, `far`.

    Over the integers the work dtype is core._exact_int(M 3^n), with M the largest
    |entry| of `tables` (outside the ball too, since every entry is cast before the
    far ones are zeroed): int8 for 0/1 rows to n = 4, int16 to n = 9, int32 to
    n = 19; rows holding 255 outside the ball take int16 to n = 4.  The result
    stays in that dtype; parity_extend_batch widens it.
    """
    tables = _check_extension(n, center, radius, tables)
    far = distances(n, center) > radius

    def stage(ufunc):
        def op(lo, hi, h):
            if h & center:
                lo, hi = hi, lo
            ufunc(hi, lo, out=hi)
        return op

    # Mobius then zeta; mod 2 both are xor
    if mod2:
        ops, dtype = [stage(np.bitwise_xor)] * 2, np.uint8
    else:
        top = max(int(tables.max(initial=0)), -int(tables.min(initial=0)))
        ops, dtype = [stage(np.subtract), stage(np.add)], _exact_int(top * 3**n)
    x = _batch_array(tables, dtype)
    for op in ops:
        x[..., far] = 0
        _butterfly(x, op)
    return x


def parity_extend(advice: BallAdvice) -> IntegerFunction:
    return IntegerFunction(advice.n, _low_degree_extend(
        advice.n, advice.center.index, advice.radius, advice.values, mod2=False))


def f2_extend(advice: BallAdvice) -> TruthTable:
    return TruthTable(advice.n, _low_degree_extend(
        advice.n, advice.center.index, advice.radius, advice.values, mod2=True))


def parity_extend_batch(n: int, center: int, radius: int, tables: np.ndarray) -> np.ndarray:
    """Parity rule over many functions: rows are full tables whose values
    outside B(center, radius) are ignored.  Returns the int64 extensions,
    one row each, widened from the engine's work dtype in its layout: for a tall
    batch they are a transposed view."""
    return _low_degree_extend(n, center, radius, tables, mod2=False).astype(np.int64, order="K")


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
    if s < 0:
        raise ValueError(f"sensitivity bound s must be >= 0, got {s}")
    if 4 * s > n:
        return ExtensionOutcome(None, center, OUT_OF_RANGE)
    r = 2 * s
    if sorted(values) != np.flatnonzero(distances(n, center.index) == r).tolist():
        raise ValueError("advice domain is not exactly the radius-2s sphere")
    vals = np.zeros((1, 1 << n), dtype=np.uint8)
    for i, v in values.items():
        if v not in (0, 1):
            raise ValueError("sphere values must be bits")
        vals[0, i] = v
    vals, tie = majority_extend_batch(n, center.index, r, vals)
    if tie[0] < 0:
        anti = center.index ^ ((1 << n) - 1)
        vals, tie = majority_extend_batch(n, anti, r, vals)
    return _one_row_outcome(n, vals, tie)


# ---------------------------------------------------------------------------
# minimal reconstruction radii

def r_maj(f: TruthTable) -> int:
    return min(2 * sensitivity(f).s, f.n)


def r_par(f: TruthTable) -> int:
    return degree(f)


def r_maj_bruteforce(f: TruthTable) -> int:
    """Smallest r such that the majority rule recovers f from B(x0, r) for
    every center x0.  Gated to small n."""
    check_n(f.n, BRUTE_FORCE_MAX_N)
    return int(r_bruteforce_batch(f.n, f.values[None, :], "maj")[0])


def r_bruteforce_batch(n: int, tables: np.ndarray, rule: str, centers=None) -> np.ndarray:
    """Least radius at which `rule` ("maj" or "par") recovers each row of
    `tables` from B(x0, r) for every center x0 in `centers` (all by
    default), scanning radii upward; -1 where no radius does.

    Rows leave the scan as soon as they are settled: a radius extends only
    the rows with no least radius yet, and each center only the rows that
    every earlier center at this radius recovered.
    """
    if rule not in ("maj", "par"):
        raise ValueError(f"unknown rule {rule!r}: expected 'maj' or 'par'")
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
                ext, tie = majority_extend_batch(n, center, r, rows)
                ok = (tie < 0) & (ext == rows).all(axis=1)
            else:
                # compared in the engine's narrow dtype, along its batch-innermost layout
                ext = _low_degree_extend(n, center, r, rows, mod2=False)
                ok = (ext.T == rows.T).all(axis=0)
            live, rows = live[ok], rows[ok]
        first[live] = r
    return first

