"""Self-correction of low-sensitivity functions from corrupted copies.

Global: iterate a noisy-majority smoothing step over the whole table; each
step thresholds T_{1-2delta} at 1/2 with exact rational decisions near the
boundary (exact ties keep the previous value and are reported, never guessed).

Local: answer a single point by building a c-regular depth-k tree whose
children are noisy samples of their parent, querying the corrupted oracle at
the c^k leaves only, and folding majorities upward.  local_correct_batch runs
many such trees level by level as arrays; local_correct is one trial of it.

Both take k = CorrectorParams.default_k(n) rounds unless k is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import ceil, log2

import numpy as np

from .core import BLOCK_BYTES, Point, TruthTable, _point_indices, distances, exact_fraction
from .evaluate import majority_threshold_c
from .noise import _noise_signs, lambda_set, noise_rate


@dataclass
class CorruptedOracle:
    truth: TruthTable
    # given as indices or Points of the truth's cube (an integer array is checked in
    # numpy, core._point_indices), kept as a frozenset of indices
    corrupted: frozenset[int]
    query_count: int = 0
    # the corrupted table: truth.values with every member of `corrupted` flipped
    _values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        indices = _point_indices(self.truth.n, self.corrupted)
        self.corrupted = frozenset(indices.tolist())
        self._values = self.truth.values.copy()
        self._values[indices] ^= 1
        self._values.setflags(write=False)

    def answer_batch(self, indices: np.ndarray) -> np.ndarray:
        self.query_count += len(indices)
        return self._values[indices]

    def corrupted_table(self) -> TruthTable:
        return TruthTable(self.truth.n, self._values)


K_FACTOR = 4  # default k = K_FACTOR * s * log2(n/s); the analysis leaves it open
LOCAL_TRIAL_CHUNK = 200  # trials per batch chunk; it fixes the seeded stream
# c^k oracle queries per local correction.  A batch chunk of up to this many leaves
# holds about 5/c bytes a leaf plus about 0.6 MiB of blocks (0.78-0.82 bytes a leaf
# measured at c = 7, 7^8 leaves, n = 12..24, and 1.3 and 2.0 at 7^7 and 200 x 7^4
# leaves), so about 70 MiB at this limit for c = 7.
MAX_LOCAL_QUERIES = 10**8


@dataclass(frozen=True)
class CorrectorParams:
    """Correction parameters: k defaults to default_k(n) when not given."""

    s: int
    delta: Fraction = None  # type: ignore[assignment]
    k: int | None = None
    epsilon: Fraction = Fraction(1, 10)

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("self-correction needs s >= 1")
        d = noise_rate(self.delta if self.delta is not None else Fraction(1, 20 * self.s))
        object.__setattr__(self, "delta", d)
        refusal = "epsilon must be an exact rational in (0, 1), not {!r}"
        epsilon = exact_fraction(self.epsilon, refusal)
        if not 0 < epsilon < 1:
            raise ValueError(refusal.format(self.epsilon))
        object.__setattr__(self, "epsilon", epsilon)
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")

    def default_k(self, n: int) -> int:
        """k = K_FACTOR * s * log2(n/s), rounded up, at least 1."""
        return max(1, ceil(K_FACTOR * self.s * log2(n / self.s)))

    def local_c(self) -> int:
        return majority_threshold_c(Fraction(1, 4), self.epsilon)


# ---------------------------------------------------------------------------
# corruption helpers

def corrupt(
    f: TruthTable, rate, rng: np.random.Generator
) -> tuple[CorruptedOracle, TruthTable]:
    """Flip a uniformly random set of round(rate * 2^n) points."""
    rate = exact_fraction(rate, "corruption rate must be an exact rational, not the float {!r}")
    if not 0 <= rate <= 1:
        raise ValueError("corruption rate must lie in [0, 1]")
    size = 1 << f.n
    count = round(rate * size)
    chosen = rng.choice(size, size=count, replace=False) if count else np.empty(0, dtype=np.int64)
    oracle = CorruptedOracle(f, chosen)
    return oracle, oracle.corrupted_table()


def corrupt_targeted(f: TruthTable, x: Point, count: int) -> tuple[CorruptedOracle, TruthTable]:
    """Adversarial placement: corrupt the `count` points nearest to x
    (increasing distance, then index) — the region local queries sample."""
    if not 0 <= count <= (1 << f.n):
        raise ValueError("count out of range")
    f(x)  # refuses a Point of another cube
    # a stable sort by distance keeps ties in index order
    nearest = np.argsort(distances(f.n, x.index), kind="stable")[:count]
    oracle = CorruptedOracle(f, nearest)
    return oracle, oracle.corrupted_table()


def error_set(g: TruthTable, f: TruthTable) -> frozenset[int]:
    if g.n != f.n:
        raise ValueError("dimension mismatch")
    return frozenset(int(i) for i in np.nonzero(g.values != f.values)[0])


# ---------------------------------------------------------------------------
# global corrector

def majority_step(g: TruthTable, delta) -> tuple[TruthTable, frozenset[int]]:
    """One smoothing step: out(x) = [T_{1-2delta} g(x) > 1/2], exact on the
    boundary; exact ties keep g(x) and are reported."""
    signs = _noise_signs(g.values, g.n, noise_rate(delta), [Fraction(1, 2)])[0]
    ties = np.flatnonzero(signs == 0)
    out = (signs > 0).astype(np.uint8)
    out[ties] = g.values[ties]
    return TruthTable(g.n, out), frozenset(ties.tolist())


@dataclass
class GlobalResult:
    table: TruthTable
    converged: bool
    iterations: int
    trace: list[int] | None = None
    ties: frozenset[int] = frozenset()
    contraction_ok: bool | None = None


def global_correct(
    r: TruthTable,
    params: CorrectorParams,
    truth: TruthTable | None = None,
    check_contraction: bool = False,
) -> GlobalResult:
    """Iterate majority_step at most k times (params.k, else default_k(n)), stopping at
    the first step that changes nothing; `ties` collects the exact ties of every step.

    Only with `truth` (test mode) are `trace` and `contraction_ok` set: the trace holds
    |S_t| = |{x : f_t(x) != f(x)}| for the start and each changed state, each S_t computed
    once, and `check_contraction` verifies S_t <= Lambda_{delta,2/5}(S_{t-1}) exactly at
    each change (n <= PAIRWISE_MAX_N)."""
    k = params.k if params.k is not None else params.default_k(r.n)
    cur = r
    err = error_set(cur, truth) if truth is not None else None
    trace = [len(err)] if truth is not None else None
    ties: set[int] = set()
    contraction_ok: bool | None = True if (truth is not None and check_contraction) else None
    converged = False
    iterations = 0
    for _ in range(k):
        nxt, step_ties = majority_step(cur, params.delta)
        ties |= step_ties
        iterations += 1
        if nxt == cur:
            converged = True
            break
        if truth is not None:
            nxt_err = error_set(nxt, truth)
            trace.append(len(nxt_err))
            if check_contraction:
                contraction_ok &= nxt_err <= lambda_set(r.n, err, params.delta, Fraction(2, 5))
            err = nxt_err
        cur = nxt
    return GlobalResult(
        table=cur,
        converged=converged,
        iterations=iterations,
        trace=trace,
        ties=frozenset(ties),
        contraction_ok=contraction_ok,
    )


# ---------------------------------------------------------------------------
# local corrector

def _tree_shape(params: CorrectorParams, n: int, k: int | None) -> tuple[int, int]:
    """Depth k (params.k or default_k(n) when not given) and arity c of the local
    tree; refuses a tree of more than MAX_LOCAL_QUERIES leaves."""
    if k is None:
        k = params.k if params.k is not None else params.default_k(n)
    if k < 0:
        raise ValueError(f"local tree depth k={k} must be >= 0")
    c = params.local_c()
    if c**k > MAX_LOCAL_QUERIES:
        raise ValueError(f"local correction would issue c^k = {c}^{k} queries; pass a smaller --k")
    return k, c


def local_correct(
    oracle: CorruptedOracle,
    x: Point,
    params: CorrectorParams,
    rng: np.random.Generator,
    k: int | None = None,
) -> tuple[int, int]:
    """Answer f(x) from the corrupted oracle via a c-regular depth-k sampled
    tree (children are noisy copies of the parent; leaves query the oracle):
    one trial of local_correct_batch.  Returns (bit, queries_used);
    queries_used is exactly c^k."""
    before = oracle.query_count
    bit = local_correct_batch(oracle, x, params, 1, rng, k=k)[0]
    return int(bit), oracle.query_count - before


@lru_cache(maxsize=8)
def _flip_table(p: int, q: int) -> tuple[int, np.ndarray | None]:
    """(m, table) for flips at rate p/q: m, at most 8, is the number of base-q digits
    one draw in [0, q^m) carries, the largest with q^m <= 2^18 (a table of at most
    256 KiB); bit i of table[v] is set iff digit i of v (least significant first) is
    below p.  At m = 1 (q > 512) the table is None: a draw flips iff it is below p."""
    m = max((m for m in range(1, 9) if q**m <= 1 << 18), default=1)
    if m == 1:
        return 1, None
    # v = q*rest + digit 0, so table[v] = bit(digit 0) | table'[rest] << 1
    bit = (np.arange(q) < p).view(np.uint8)
    table = bit
    for _ in range(m - 1):
        table = ((table[:, None] << 1) | bit).ravel()
    table.setflags(write=False)
    return m, table


def local_correct_batch(
    oracle: CorruptedOracle,
    x: Point,
    params: CorrectorParams,
    trials: int,
    rng: np.random.Generator,
    k: int | None = None,
) -> np.ndarray:
    """`trials` independent local corrections of the same point, expanded
    level-by-level as arrays (local_correct is one trial).  A Point of another
    cube is refused before any draw or query.

    A row's n flips are read from base-q digits, for delta = p/q and m from
    _flip_table (4 at q = 20, 3 at q = 40, 8 at q = 2, and 1 for q > 512): bit
    m*j + i flips when digit i of word j (least significant first) is below p,
    and the last word's digits past bit n - 1 are drawn and ignored.  A uniform
    word in [0, q^m) has m independent uniform digits, so each bit flips
    independently with probability exactly p/q.  The seeded stream is one
    `rng.integers` call per level of L noisy copies:
      * m = 1: size (L, n) in [0, q), one word a draw; uint32 draws when
        q <= 2^32 and int64 otherwise;
      * m >= 2: size (L, ceil(w/2)) in [0, q^2m), uint64, for the w = ceil(n/m)
        words of a row: draw d carries word 2d as its low base-q^m digit and
        word 2d + 1 as its high one, and an odd w leaves the last high digit
        drawn and ignored.  q^2m <= 2^36, and numpy draws uint64 below 2^32
        with 32-bit Lemire rejection, as it does uint32.
    That call is made in row blocks of about BLOCK_BYTES, which gives the same
    values and leaves the same generator state: bounded draws are made one
    value at a time, and the bit generator keeps its spare 32-bit half between
    calls.  So no array grows with leaves x n: a level holds its int32 points
    and the last level is answered and folded block by block, each block a
    whole number of sibling groups."""
    oracle.truth(x)  # refuses a Point of another cube
    n = oracle.truth.n
    k, c = _tree_shape(params, n, k)
    p, q = params.delta.numerator, params.delta.denominator
    m, table = _flip_table(p, q)
    words = -(-n // m)  # m-digit words a row
    if table is None:
        span, per_row, draw_dtype = q, n, np.uint32 if q <= 1 << 32 else np.int64
    else:
        qm = np.uint64(q**m)  # the range of one word
        span, per_row, draw_dtype = q ** (2 * m), -(-words // 2), np.uint64
    # rows per block: whole sibling groups whose draws would fill at most BLOCK_BYTES
    # at one 4-byte draw a coordinate (8 for int64 draws); at m > 1 a block's draws,
    # words and masks fill well under it
    groups = max(1, BLOCK_BYTES // (c * n * (8 if draw_dtype is np.int64 else 4)))
    block = groups * c
    spare = (1 << (n - m * (words - 1))) - 1  # the last word's digits below n

    def noisy(kids: np.ndarray) -> np.ndarray:
        """Flip each bit of each of `kids` (int32 points) at rate delta, in place."""
        draws = rng.integers(0, span, size=(len(kids), per_row), dtype=draw_dtype)
        if table is None:
            # m = 1: bit j flips iff draw j is below p.  Rows padded to 32 flags pack
            # in one flat pass (a per-row packbits axis is slower), 4 bytes a row,
            # read as one little-endian int32
            flips = np.zeros((len(kids), 32), dtype=bool)
            np.less(draws, p, out=flips[:, :n])
            kids ^= np.packbits(flips.reshape(-1), bitorder="little").view("<i4")
            return kids
        # one draw column at a time (faster than decoding the strided whole array):
        # its high word is v // q^m and its low word v - q^m (v // q^m); each word's
        # m-bit pattern is shifted to bits m*j.. and xored in
        v, low, high = np.empty((3, len(kids)), dtype=np.uint64)
        flips, shifted = np.empty(len(kids), dtype=np.uint8), np.empty(len(kids), dtype=np.int32)
        for j in range(words):
            if j % 2 == 0:
                np.copyto(v, draws[:, j // 2])
                np.floor_divide(v, qm, out=high)
                np.subtract(v, np.multiply(high, qm, out=low), out=low)
            table.take((high if j % 2 else low).view(np.int64), out=flips)
            if j == words - 1:
                flips &= spare
            kids ^= np.left_shift(flips, m * j, out=shifted, dtype=np.int32)
        return kids

    # a sibling group's votes, summed by one matmul; uint8 sums hold c < 256 votes
    ones_c = np.ones(c, dtype=np.uint8 if c < 256 else np.int64)

    def majority(votes: np.ndarray) -> np.ndarray:
        return (votes.reshape(-1, c) @ ones_c > c // 2).view(np.uint8)  # c is odd

    # a chunk holds at most MAX_LOCAL_QUERIES leaves; _tree_shape makes it >= 1 tree
    chunk = min(LOCAL_TRIAL_CHUNK, MAX_LOCAL_QUERIES // c**k)
    out = np.empty(trials, dtype=np.uint8)
    for done in range(0, trials, chunk):
        pts = np.full(min(chunk, trials - done), x.index, dtype=np.int32)
        for _ in range(k - 1):
            pts = np.repeat(pts, c)
            for lo in range(0, len(pts), block):
                noisy(pts[lo : lo + block])
        if k == 0:
            votes = oracle.answer_batch(pts)
        else:
            # each block's leaves are the c noisy copies of `groups` points
            votes = np.empty(len(pts), dtype=np.uint8)
            for lo in range(0, len(pts), groups):
                leaves = noisy(np.repeat(pts[lo : lo + groups], c))
                votes[lo : lo + groups] = majority(oracle.answer_batch(leaves))
            for _ in range(k - 1):
                votes = majority(votes)
        out[done : done + len(votes)] = votes
    return out
