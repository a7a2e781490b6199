"""Exhaustive enumeration of the sensitivity classes F(s, n) at tiny n.

F(s, n) is the set of Boolean functions on n variables with s(f) <= s.  At
n <= 4 the whole space (2^16 tables) is scanned as a numpy matrix; n = 5
(2^32 candidates) is opt-in and runs a bit-parallel filter where each uint32
chunk element *is* a truth table and per-point sensitivities accumulate in
bit-sliced carry-save counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

import numpy as np

from .core import TruthTable, _check_tables, _degrees, _sensitivity_counts, sensitivity

ENUM_MAX_N = 4
LONG_ENUM_N = 5


def all_tables(n: int) -> np.ndarray:
    """(2^{2^n}, 2^n) uint8 matrix: row t is the truth table of function t
    (bit x of t = value at point x)."""
    if n > ENUM_MAX_N:
        raise ValueError(f"full function space needs n <= {ENUM_MAX_N}")
    count = 1 << (1 << n)
    return ((np.arange(count, dtype=np.uint32)[:, None] >> np.arange(1 << n)[None, :]) & 1).astype(np.uint8)


def per_function_sensitivity(tables: np.ndarray, n: int) -> np.ndarray:
    """s(f) for every row of a (rows, 2^n) table matrix."""
    return _sensitivity_counts(_check_tables(tables, n), n).max(axis=1)


def per_function_degree(tables: np.ndarray, n: int) -> np.ndarray:
    """deg(f) (uint8, 0 for the zero function) for every row of a (rows, 2^n) 0/1 matrix."""
    return _degrees(tables, n)


def _chunk_class_ok(arr: np.ndarray) -> list[np.ndarray]:
    """Per-s membership masks for an array of uint32-encoded 5-variable
    tables: out[s][i] is True iff s(table arr[i]) <= s.  Bit x of each uint32
    is the value at point x; per-point sensitivities accumulate in three
    bit-sliced carry-save counter planes (max count is n = 5)."""
    n = LONG_ENUM_N
    size = 1 << n
    arr = np.asarray(arr, dtype=np.uint32)
    c0 = np.zeros_like(arr)
    c1 = np.zeros_like(arr)
    c2 = np.zeros_like(arr)
    for i in range(n):
        step = np.uint32(1 << i)
        m = np.uint32(sum(1 << pos for pos in range(size) if not (pos >> i) & 1))
        shuffled = ((arr >> step) & m) | ((arr & m) << step)
        diff = arr ^ shuffled
        t0 = c0 & diff
        c0 ^= diff
        t1 = c1 & t0
        c1 ^= t0
        c2 |= t1
    zero = np.uint32(0)
    viol = [
        c2 | c1 | c0,        # some point has count > 0
        c2 | c1,             # count > 1
        c2 | (c1 & c0),      # count > 2
        c2,                  # count > 3
        c2 & c0,             # count > 4
    ]
    return [v == zero for v in viol] + [np.ones(len(arr), dtype=bool)]


def _bit_parallel_class_counts(n: int, chunk_bits: int = 22) -> list[int]:
    """|F(s, 5)| for all s by scanning all 2^32 tables in uint32 chunks."""
    assert n == LONG_ENUM_N
    totals = [0] * (n + 1)
    chunk = 1 << chunk_bits
    for start in range(0, 1 << (1 << n), chunk):
        arr = np.arange(start, start + chunk, dtype=np.uint64).astype(np.uint32)
        ok = _chunk_class_ok(arr)
        for s in range(n + 1):
            totals[s] += int(np.count_nonzero(ok[s]))
    return totals


def enumerate_class(n: int, s: int, allow_long: bool = False) -> int:
    """|F(s, n)| by exhaustive scan."""
    if not 0 <= s <= n:
        raise ValueError(f"s={s} out of range")
    return build_census(n, allow_long).counts[s]


def class_members(n: int, s: int) -> Iterator[TruthTable]:
    """Stream the members of F(s, n) in increasing table-index order."""
    if n > ENUM_MAX_N:
        raise ValueError(f"member streaming needs n <= {ENUM_MAX_N}")
    tables = all_tables(n)
    sens = per_function_sensitivity(tables, n)
    for row in np.nonzero(sens <= s)[0]:
        yield TruthTable(n, tables[row])


def count_bounds(n: int, s: int) -> tuple[int, int]:
    """Exact big-integer (lower, upper) bounds on |F(s, n)|.

    Lower: max of the centered-subcube family C(n,s) 2^(2^s - 1) and the
    addressing family (n-s+1)^(2^(s-1)); the addressing term needs s >= 1
    (its exponent is fractional at s = 0) and is taken as 1 there.
    Upper: 2^(C(n, <=2s)) — a function is determined by a radius-2s ball.
    """
    if not 0 <= s <= n:
        raise ValueError(f"s={s} out of range")
    subcube = comb(n, s) * (1 << ((1 << s) - 1))
    addressing = (n - s + 1) ** (1 << (s - 1)) if s >= 1 else 1
    upper = 1 << sum(comb(n, i) for i in range(min(2 * s, n) + 1))
    return max(subcube, addressing), upper


@dataclass(frozen=True)
class ClassCensus:
    n: int
    counts: list[int]          # counts[s] = |F(s, n)|
    lower: list[int]
    upper: list[int]


def build_census(n: int, allow_long: bool = False) -> ClassCensus:
    if 1 <= n <= ENUM_MAX_N:
        sens = per_function_sensitivity(all_tables(n), n)
        counts = [int((sens <= s).sum()) for s in range(n + 1)]
    elif n == LONG_ENUM_N and allow_long:
        counts = _bit_parallel_class_counts(n)
    else:
        raise ValueError(f"census needs 1 <= n <= 4, or n = 5 with allow_long; got n={n}")
    bounds = [count_bounds(n, s) for s in range(n + 1)]
    return ClassCensus(
        n=n,
        counts=counts,
        lower=[b[0] for b in bounds],
        upper=[b[1] for b in bounds],
    )


def xor_sensitivity_check(f1: TruthTable, f2: TruthTable) -> bool:
    if f1.n != f2.n:
        raise ValueError("dimension mismatch")
    return sensitivity(f1 ^ f2).s <= sensitivity(f1).s + sensitivity(f2).s


INTERPOLATION_C = 3


def interpolation_sample_size(n: int, s: int, c: int = INTERPOLATION_C) -> int:
    """k = C * 2^(2s) * C(n, <=4s) with the experiment default C = 3."""
    return c * (1 << (2 * s)) * sum(comb(n, i) for i in range(min(4 * s, n) + 1))


@dataclass(frozen=True)
class InterpolationResult:
    trials: int
    interpolation_successes: int
    hitting_successes: int
    agree_on_every_trial: bool

    @property
    def success_fraction(self) -> Fraction:
        return Fraction(self.interpolation_successes, self.trials)


def interpolation_experiment(
    n: int,
    s: int,
    k: int,
    trials: int,
    rng: np.random.Generator,
    fixed_sample: np.ndarray | None = None,
) -> InterpolationResult:
    """Draw k uniform points (with replacement) per trial; interpolation
    succeeds when every pair of distinct members of F(s,n) differs somewhere
    on the sample, hitting succeeds when every nonzero member of F(2s,n) has
    a one on the sample.  Hitting implies interpolation (the xor of a
    distinguishing pair lies in F(2s,n)); the converse is checked
    empirically, not assumed."""
    if not 1 <= n <= ENUM_MAX_N or s < 0 or trials < 1:
        raise ValueError(f"interpolation experiment needs 1 <= n <= {ENUM_MAX_N}, s >= 0 and "
                         f"trials >= 1; got n={n}, s={s}, trials={trials}")
    tables = all_tables(n)
    sens = per_function_sensitivity(tables, n)
    small = tables[sens <= s]
    double = tables[sens <= min(2 * s, n)]
    nonzero_double = double[double.any(axis=1)]
    interp_ok = 0
    hit_ok = 0
    agree = True
    for _ in range(trials):
        if fixed_sample is not None:
            sample = np.asarray(fixed_sample, dtype=np.int64)
        else:
            sample = rng.integers(0, 1 << n, size=k)
        proj = small[:, sample]
        interp = len(np.unique(proj, axis=0)) == len(small)
        hit = bool(nonzero_double[:, sample].any(axis=1).all()) if len(nonzero_double) else True
        if hit and not interp:
            raise AssertionError("hitting trial failed to interpolate")
        interp_ok += interp
        hit_ok += hit
        agree &= interp == hit
    return InterpolationResult(
        trials=trials,
        interpolation_successes=interp_ok,
        hitting_successes=hit_ok,
        agree_on_every_trial=agree,
    )
