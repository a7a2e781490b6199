"""The sensitivity classes F(s, n) at tiny n: exact counts, bounds, and the
random-sample interpolation experiment.

F(s, n) is the set of Boolean functions on n variables with s(f) <= s.  Its
count is built by gluing restrictions up from n = 0: each member of F(s, k+1)
is a pair of members of F(s, k), its two halves along the last coordinate.
Tables travel as packed codes (bit x = value at point x), and the last level
is counted over word pairs without being built.  n <= 4 takes milliseconds;
n = 5 is opt-in and takes a few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .core import _check_tables, _degrees, _sensitivity_counts

ENUM_MAX_N = 4
LONG_ENUM_N = 5
# Pairs per row block of the last glue level: a few 2^22-entry temporaries of
# 2-byte words, about 8 MiB each, at n = 5.
GLUE_BLOCK_PAIRS = 1 << 22


def all_tables(n: int) -> np.ndarray:
    """(2^{2^n}, 2^n) uint8 matrix: row t is the truth table of function t
    (bit x of t = value at point x)."""
    if n > ENUM_MAX_N:
        raise ValueError(f"full function space needs n <= {ENUM_MAX_N}")
    return _unpack(np.arange(1 << (1 << n), dtype=np.uint32), n)


def per_function_sensitivity(tables: np.ndarray, n: int) -> np.ndarray:
    """s(f) for every row of a (rows, 2^n) table matrix."""
    return _sensitivity_counts(_check_tables(tables, n), n).max(axis=1)


def per_function_degree(tables: np.ndarray, n: int) -> np.ndarray:
    """deg(f) (uint8, 0 for the zero function) for every row of a (rows, 2^n) 0/1 matrix."""
    return _degrees(tables, n)


def _unpack(codes: np.ndarray, n: int) -> np.ndarray:
    """(rows, 2^n) uint8 tables of packed codes: bit x of codes[i] is the value at x.
    Unpacked from the codes' little-endian bytes, so the output is the only large array."""
    octets = np.ascontiguousarray(codes, dtype=codes.dtype.newbyteorder("<")).view(np.uint8)
    return np.unpackbits(octets.reshape(len(codes), codes.itemsize), axis=1, count=1 << n,
                         bitorder="little")


def _tight(codes: np.ndarray, k: int, s: int) -> np.ndarray:
    """Packed masks of the points where each k-variable table has sensitivity s or more."""
    high = _sensitivity_counts(_unpack(codes, k), k) >= s
    return np.bitwise_or.reduce(high.astype(codes.dtype) << np.arange(1 << k, dtype=codes.dtype), axis=1)


def _glue(codes: np.ndarray, tight: np.ndarray, k: int) -> np.ndarray:
    """F(s, k+1) as codes f0 | f1 << 2^k: the pairs of members of F(s, k) whose
    xor is zero where either is tight."""
    ok = ((codes[:, None] ^ codes[None, :]) & (tight[:, None] | tight[None, :])) == 0
    f0, f1 = np.nonzero(ok)
    return codes[f0] | (codes[f1] << np.uint32(1 << k))


def _count_glued(codes: np.ndarray, tight: np.ndarray, k: int) -> int:
    """|F(s, k+1)| from the members of F(s, k), without building it.  The pair
    test is symmetric, so each row block meets its own square and the rows
    after it, whose pairs count twice; codes shrink to 2^k-bit words."""
    word = np.dtype(f"u{max(1, (1 << k) // 8)}")
    codes, tight = codes.astype(word), tight.astype(word)
    rows = max(1, GLUE_BLOCK_PAIRS // len(codes))
    total = 0
    for a in range(0, len(codes), rows):
        b = min(a + rows, len(codes))
        bad = codes[a:b, None] ^ codes[None, a:]
        bad &= tight[a:b, None] | tight[None, a:]
        total += bad[:, : b - a].size - int(np.count_nonzero(bad[:, : b - a]))
        total += 2 * (bad[:, b - a :].size - int(np.count_nonzero(bad[:, b - a :])))
    return total


def _class_count(n: int, s: int) -> int:
    """|F(s, n)| by gluing restrictions from n = 0.  Restricting a coordinate cannot
    raise sensitivity, and s(f, (x, b)) = s(f_b, x) + [f0(x) != f1(x)], so F(s, k+1)
    is the pairs (f0, f1) from F(s, k) with f0 ^ f1 zero on the points where f0 or
    f1 already has sensitivity s."""
    if s >= n:
        return 1 << (1 << n)
    codes = np.arange(2, dtype=np.uint32)  # F(s, 0): the two constants
    for k in range(n - 1):
        codes = _glue(codes, _tight(codes, k, s), k)
    return _count_glued(codes, _tight(codes, n - 1, s), n - 1)


def _check_census_n(n: int, allow_long: bool) -> None:
    if not (1 <= n <= ENUM_MAX_N or (n == LONG_ENUM_N and allow_long)):
        raise ValueError(f"census needs 1 <= n <= 4, or n = 5 with allow_long; got n={n}")


def enumerate_class(n: int, s: int, allow_long: bool = False) -> int:
    """|F(s, n)| by gluing restrictions."""
    _check_census_n(n, allow_long)
    if not 0 <= s <= n:
        raise ValueError(f"s={s} out of range")
    return _class_count(n, s)


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
    _check_census_n(n, allow_long)
    counts = [_class_count(n, s) for s in range(n + 1)]
    bounds = [count_bounds(n, s) for s in range(n + 1)]
    return ClassCensus(
        n=n,
        counts=counts,
        lower=[b[0] for b in bounds],
        upper=[b[1] for b in bounds],
    )


INTERPOLATION_C = 3
# Bytes of one trial's projection of F(min(2s, n), n) onto k sample points, one
# uint8 per member and point.  The F(s, n) projection and np.unique's sorted copy
# of it sit beside it, so a process peaks below twice this: at n = 4, s = 3 the
# default k = 3072 projects 192 MiB and peaks at 318 MiB, and k = 4096, the most
# this limit admits there, peaks at 411 MiB.  2^28 admits the default k for every
# s <= 3 at n <= 4.
INTERPOLATION_MAX_BYTES = 1 << 28
# The work of one experiment, trials * k * (|F(min(2s, n), n)| + INTERPOLATION_SAMPLE_BYTES), in
# bytes.  A projected byte cost 0.9-7 ns at the default k of every n >= 2 measured (n = 4, s = 3:
# 2.4 ns, 0.49 s a trial; n = 3, s = 7: 6.7 ns), so 2^33 runs for at most about a minute, and it
# admits the default --trials 100 at n = 4 for s <= 2.
INTERPOLATION_MAX_WORK = 1 << 33
# What a sample costs that its members do not share (its draw, gathers and sort overhead): a sample
# cost 58-68 ns at n = 1 (4 members) and 92 ns at n = 2 (16), so up to 57 ns beyond about 3 ns a
# member, 8 bytes at 7 ns a byte.
INTERPOLATION_SAMPLE_BYTES = 8


def interpolation_sample_size(n: int, s: int, c: int = INTERPOLATION_C) -> int:
    """k = C * 2^(2s) * C(n, <=4s) with the experiment default C = 3.  Refused once
    2^(2s) alone reaches INTERPOLATION_MAX_BYTES: the experiment refuses such a k
    (F(2s, n) holds the two constants), and near s = 10^12 the integer would not fit
    in memory."""
    if 2 * s >= INTERPOLATION_MAX_BYTES.bit_length() - 1:
        raise ValueError(f"default sample size at s={s} passes the interpolation limit "
                         f"of {INTERPOLATION_MAX_BYTES} bytes")
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
) -> InterpolationResult:
    """Draw k uniform points (with replacement) per trial; interpolation
    succeeds when every pair of distinct members of F(s,n) differs somewhere
    on the sample, hitting succeeds when every nonzero member of F(2s,n) has
    a one on the sample.  Hitting implies interpolation (the xor of a
    distinguishing pair lies in F(2s,n)); the converse is checked
    empirically, not assumed.  Refused before the first draw when a trial
    would project F(min(2s, n), n) onto more than INTERPOLATION_MAX_BYTES, or
    all trials together past INTERPOLATION_MAX_WORK."""
    if not 1 <= n <= ENUM_MAX_N or s < 0 or trials < 1:
        raise ValueError(f"interpolation experiment needs 1 <= n <= {ENUM_MAX_N}, s >= 0 and "
                         f"trials >= 1; got n={n}, s={s}, trials={trials}")
    tables = all_tables(n)
    sens = per_function_sensitivity(tables, n)
    small = tables[sens <= s]
    double = tables[sens <= min(2 * s, n)]
    nonzero_double = double[double.any(axis=1)]
    if k * len(double) > INTERPOLATION_MAX_BYTES:
        raise ValueError(f"interpolation sample of {k} points projects {len(double)} members onto "
                         f"{k * len(double)} bytes per trial, over the {INTERPOLATION_MAX_BYTES} limit")
    work = trials * k * (len(double) + INTERPOLATION_SAMPLE_BYTES)
    if work > INTERPOLATION_MAX_WORK:
        raise ValueError(f"{trials} interpolation trials project {trials * k * len(double)} bytes and "
                         f"draw {trials * k} samples, {work} priced bytes in all, "
                         f"over the {INTERPOLATION_MAX_WORK} limit")
    interp_ok = 0
    hit_ok = 0
    agree = True
    for _ in range(trials):
        sample = rng.integers(0, 1 << n, size=k)
        # each member's projection is one opaque k-byte row: np.unique sorts them
        # with memcmp, where unique(axis=0) builds a structured dtype of k fields
        proj = np.take(small, sample, axis=1)
        distinct = len(np.unique(proj.view(f"V{k}"))) if k else 1
        interp = distinct == len(small)
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
