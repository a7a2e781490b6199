"""Advice-based evaluators.

Three ways to evaluate a sensitivity-s function anywhere on the cube given
its values near 0^n:

  * bottom-up: slide a radius-2s ball along a shortest path from 0^n to x,
    one coordinate flip at a time (one-coordinates of x in increasing index
    order); each point entering the ball takes the majority of its 2s+1
    neighbors in the previous ball.  bottom_up_eval walks one x and
    bottom_up_all sweeps every x, both on the per-bit plans of _bit_plan.
    The sweep keeps only the rows something reads: a shift by bit k reads
    offsets with no bit below k and the output reads offset 0, so the ball
    at x with top bit k is read only at offsets above bit k.
  * top-down: a point of weight > 2s takes the majority of 2s+1 of its lower
    neighbors (clear the lowest set bits one at a time); top_down_eval folds the
    levels x reaches (_reach, the parallel sampler's walk), top_down_all the cube.
  * parallel: randomized recursive majority over samples from the lower
    shadow D(x, t) with t = floor(wt(x)/(10s+1)); per-call error <= 1/20,
    amplified by independent repetition.  parallel_eval_batch is the one
    sampler, and parallel_eval and amplified_eval are calls of it.
    parallel_eval_law gives its exact output law at every x.

All majorities here have odd arity, so no tie rule is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, log

import numpy as np

from .core import (
    BallAdvice,
    Point,
    TruthTable,
    _point_indices,
    all_set_bit_positions,
    check_n,
    exact_fraction,
    lower_neighbors,
    weight,
    weights_vector,
)


@dataclass
class EvalStats:
    points_computed: int = 0
    points_by_weight: dict[int, int] = field(default_factory=dict)
    ball_shifts: int = 0
    majority_votes: int = 0
    rng_draws: int = 0
    max_depth: int = 0

    def record_points(self, indices: np.ndarray) -> None:
        """Count every index as a computed point, by its weight."""
        for w, k in enumerate(np.bincount(np.bitwise_count(indices)).tolist()):
            if k:
                self.points_by_weight[w] = self.points_by_weight.get(w, 0) + k
        self.points_computed += len(indices)


# ---------------------------------------------------------------------------
# majority sample counts

# Hoeffding: Pr[Bin(c, mu) > c/2] <= exp(-2c(1/2 - mu)^2), so the search ends by
# c = H + 1 with H = ceil(ln(1/delta) / (2(1/2 - mu)^2)).  It takes at most H/2 + 1
# steps, and step m multiplies integers of about 2m log2(b) bits (mu = a/b) by small
# ones: O(H^2 log b) bit operations in all, about 0.2 s at H = 10^4 and b = 4
# (Python ints, 2-vCPU VM).  A larger H means mu too close to 1/2 and is refused.
THRESHOLD_C_LIMIT = 10_000


@lru_cache(maxsize=None)
def _threshold_c(mu: Fraction, delta_target: Fraction) -> int:
    a, b = mu.numerator, mu.denominator
    hoeffding = ceil((log(delta_target.denominator) - log(delta_target.numerator))
                     / (2 * float(Fraction(1, 2) - mu) ** 2))
    if hoeffding > THRESHOLD_C_LIMIT:
        raise ValueError(f"majority over mu={mu} needs up to c={hoeffding} samples, "
                         f"above the limit {THRESHOLD_C_LIMIT}")
    # c = 2m + 1; tail = b^c Pr[Bin(c, mu) > c/2] = sum_{j > c/2} C(c, j) a^j (b-a)^(c-j),
    # exact.  Two more samples change the majority only from a count of m (both
    # successes) or m + 1 (both failures), so
    # tail(c + 2) = b^2 tail(c) - C(c, m) (a(b-a))^(m+1) (b - 2a).
    pair = a * (b - a)
    c, tail, scale, step = 1, a, b, pair  # step = C(c, m) (a(b-a))^(m+1)
    while tail * delta_target.denominator > delta_target.numerator * scale:
        m = c // 2
        tail = b * b * tail - step * (b - 2 * a)
        scale *= b * b
        step = step * pair * (c + 2) * (c + 1) // ((m + 2) * (m + 1))
        c += 2
    return c


def majority_threshold_c(mu, delta_target) -> int:
    """Smallest odd c with Pr[Bin(c, mu) > c/2] <= delta_target (exact integer
    binomial tails; odd so the majority is never tied).  Refuses a search whose
    Hoeffding bound on c exceeds THRESHOLD_C_LIMIT."""
    mu = exact_fraction(mu, "mu must be an exact rational, not the float {!r}")
    delta_target = exact_fraction(delta_target,
                                  "delta_target must be an exact rational, not the float {!r}")
    if not 0 <= mu < Fraction(1, 2):
        raise ValueError("mu must lie in [0, 1/2)")
    if not 0 < delta_target < 1:
        raise ValueError("delta_target must lie in (0, 1)")
    return _threshold_c(mu, delta_target)


# ---------------------------------------------------------------------------
# bottom-up

def _require_s(s: int) -> None:
    if s < 0:
        raise ValueError(f"sensitivity bound s must be >= 0, got {s}")


def _require_advice(advice: BallAdvice, s: int, factor: int, x: Point) -> int:
    _require_s(s)
    if advice.center.index != 0:
        raise ValueError("advice must be centered at 0^n")
    if x.n != advice.n or not 0 <= x.index < 1 << advice.n:
        raise ValueError(f"query point {x} is not a point of the advice's {advice.n}-cube")
    need = min(factor * s, advice.n)
    if advice.radius < need:
        raise ValueError(f"advice radius {advice.radius} < required {need}")
    return need


def bottom_up_eval(advice: BallAdvice, s: int, x: Point) -> tuple[int, EvalStats]:
    """Ball-shifting evaluation; returns (f(x), stats).

    Walks the whole ball, one _bit_plan per set bit of x: the ball is a
    uint8 array in offset order, and each set bit, in increasing order,
    shifts it once.  points_computed counts initial advice reads plus every
    majority-filled point.
    """
    stats = EvalStats()
    r = _require_advice(advice, s, 2, x)
    if weight(x) <= advice.radius:
        stats.record_points(np.array([x.index]))
        return advice[x], stats

    masks = np.flatnonzero(weights_vector(x.n) <= r)  # the offsets of B(0, r)
    ball = advice.values[masks]  # the advice is centered at 0, so offsets are indices
    stats.record_points(masks)
    rank = np.arange(len(masks))
    center = 0
    for i in (i for i in range(x.n) if (x.index >> i) & 1):
        # one bit's plan at a time, uncached: a walk needs only x's set bits
        copy_src, new_rows, gather = _bit_plan(masks, masks, rank, x.n, r, i)
        center ^= 1 << i
        shifted = ball[np.maximum(copy_src, 0)]
        shifted[new_rows] = 2 * ball[gather].sum(axis=1) > gather.shape[1]
        ball = shifted
        stats.record_points(center ^ masks[new_rows])
        stats.majority_votes += len(new_rows)
        stats.ball_shifts += 1
    return int(ball[0]), stats


def _bit_plan(rows: np.ndarray, masks: np.ndarray, rank: np.ndarray, n: int, r: int, i: int):
    """The gather plan of one shift by bit i, (copy_src, new_rows, gather).

    masks are the sorted offsets of B(0, r), and a ball around c holds the
    value at c ^ masks[j] in row rank[j].  Shifting c -> c ^ (1 << i) fills
    one row per offset m of `rows`: it copies the old row of m ^ bit when
    wt(m ^ bit) <= r and otherwise (wt(m) = r, bit not in m) takes a
    majority over the r+1 old rows {m ^ bit ^ (1 << j) : j set in m ^ bit}.
    """
    def row_of(offsets):
        return rank[np.searchsorted(masks, offsets)]

    old = rows ^ (1 << i)
    kept = np.bitwise_count(old) <= r
    copy_src = np.full(len(rows), -1)
    copy_src[kept] = row_of(old[kept])
    new_rows = np.flatnonzero(~kept)
    fresh = old[new_rows]  # weight r + 1
    # searched column by column: for sorted rows each column's queries rise with
    # fresh, which keeps the search in cache (row by row took 1.6x as long at
    # n = 20, r = 4, 2-vCPU VM)
    gather = np.array([row_of(q) for q in lower_neighbors(fresh, r + 1)]).T
    return copy_src, new_rows, gather


@lru_cache(maxsize=8)
def _shift_plan(n: int, r: int):
    """The sweep's offsets of B(0, r) and its n per-bit plans, demand-pruned.

    The offsets are ordered by lowest set bit, highest first (0 first), so
    for every k the offsets with no set bit below k are a prefix.  plans[k]
    fills the block [2^k, 2^(k+1)) only at the offsets above bit k, the
    first len(plans[k][0]), and reads the balls before it only at the
    offsets with no bit below k.
    """
    masks = np.flatnonzero(weights_vector(n) <= r)
    low = np.where(masks == 0, n, np.bitwise_count((masks & -masks) - 1))  # uint8, <= n
    order = np.argsort(n - low, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    offs = masks[order]
    return offs, [_bit_plan(offs[:np.count_nonzero(low > k)], masks, rank, n, r, k)
                  for k in range(n)]


def bottom_up_all(f: TruthTable, s: int) -> TruthTable:
    """Run the ball-shifting evaluator at every input at once.

    Walks share prefixes: with flips in increasing index order, the ball at x
    is one shift (by x's highest set bit) past the ball at x minus that bit,
    so a single sweep in increasing index order fills a table of balls.

    Only demanded rows are kept.  A shift by bit k reads only offsets whose
    bits are all >= k, and the output reads only offset 0, so a ball at x in
    [2^k, 2^(k+1)) is read only at offsets above bit k: a prefix of
    _shift_plan's order.  The table after bit k is offset-major,
    (prefix, 2^(k+1)): balls[j, c] is the value at c ^ offs[j], and one
    shift moves whole contiguous rows of length 2^k.  After bit n - 1 the
    prefix is offset 0 alone, f's table.
    """
    _require_s(s)
    n = f.n
    r = min(2 * s, n)
    if r >= n:
        return TruthTable(n, f.values)
    offs, plans = _shift_plan(n, r)
    balls = f.values[offs][:, None]  # the advice: f on B(0, r), column 0
    for hb, (copy_src, new_rows, gather) in enumerate(plans):
        # balls [2^hb, 2^(hb+1)) are one shift by bit hb past balls [0, 2^hb)
        grown = np.empty((len(copy_src), 2 << hb), dtype=np.uint8)
        grown[:, :1 << hb] = balls[:len(copy_src)]
        cur = grown[:, 1 << hb:]
        # a fancy-index gather, not np.take(out=cur): np.take would first copy
        # the strided cur into a contiguous buffer
        cur[...] = balls[np.maximum(copy_src, 0)]
        if len(new_rows):
            votes = np.zeros((len(new_rows), 1 << hb), dtype=np.uint8)
            for col in gather.T:
                votes += balls[col]
            cur[new_rows] = 2 * votes > gather.shape[1]
        balls = grown
    return TruthTable(n, balls[0])


# ---------------------------------------------------------------------------
# top-down

def _reach(n: int, starts: dict[int, np.ndarray], stop: int, arity: int):
    """The points that trees rooted at starts[d] (roots of weight d >= stop) reach,
    level by level down to weight stop, where a point of weight d > stop has its
    first min(arity, d) core.lower_neighbors as children.  Returns (rank, reach, kids):
      * reach[d], the reached points of weight d, each once;
      * rank[x], x's place in reach[wt(x)]: one dense int32 map over the cube, from
        np.zeros, so only the pages written are touched;
      * kids[d] for d > stop: (len(reach[d]), min(arity, d)) int32, row r the ranks of
        the r-th point's children, so column j clears the j-th lowest set bit.
    """
    rank = np.zeros(1 << n, dtype=np.int32)
    reach, kids, lower = {}, {}, []
    for d in range(max(starts), stop - 1, -1):
        at = np.concatenate([starts.get(d, np.empty(0, dtype=np.int64)), *lower])
        first = np.arange(len(at), dtype=np.int32)
        rank[at] = first
        at = at[rank[at] == first]  # one of each point
        rank[at] = np.arange(len(at))
        if lower:
            kids[d + 1] = np.stack([rank[q] for q in lower], axis=1)
        reach[d] = at
        lower = list(lower_neighbors(at, min(arity, d))) if d > stop else []
    return rank, reach, kids


def top_down_eval(advice: BallAdvice, s: int, x: Point) -> tuple[int, EvalStats]:
    """The majority of the first 2s+1 core.lower_neighbors of each point, on the
    levels x reaches down to the cutoff min(2s, n) (_reach), folded up from the advice."""
    cutoff = _require_advice(advice, s, 2, x)  # min(2s, n), at most the radius
    w = weight(x)
    root = {w: np.array([x.index])}
    # at or below the cutoff one advice read, without _reach's 2^n rank map
    reach, kids = (root, {}) if w <= cutoff else _reach(x.n, root, cutoff, 2 * s + 1)[1:]
    votes = advice.values[reach[min(w, cutoff)]]
    by_weight = {d: len(at) for d, at in reach.items()}
    stats = EvalStats(sum(by_weight.values()), by_weight)
    stats.majority_votes = stats.points_computed - len(votes)
    for d in range(cutoff + 1, w + 1):
        votes = votes[kids[d]].sum(axis=1) > s
    return int(votes[0]), stats


def top_down_visit_profile(n: int, s: int) -> np.ndarray:
    """profile[x, k] = number of distinct weight-k points top_down_eval at x
    visits.  The visit set is determined by (x, s, n) alone — every point above
    the cutoff reads the same 2s+1 lower neighbors whatever the advice values
    are — so one bitset closure over the cube covers every possible run.  It is
    computed here apart from _reach's walk, so each checks the other."""
    check_n(n, 13)
    _require_s(s)
    r = min(2 * s, n)
    words = ((1 << n) + 63) // 64
    closure = np.zeros((1 << n, words), dtype=np.uint64)
    w = weights_vector(n)
    idx = np.arange(1 << n)
    closure[idx, idx // 64] |= np.uint64(1) << (idx % 64).astype(np.uint64)
    for level in range(r + 1, n + 1):
        # the lower neighbours of top_down_all, on visit sets
        pts = np.flatnonzero(w == level)
        acc = closure[pts]
        for q in lower_neighbors(pts, 2 * s + 1):
            acc |= closure[q]
        closure[pts] = acc
    profile = np.zeros((1 << n, n + 1), dtype=np.int64)
    for k in range(n + 1):
        mask = np.zeros(words, dtype=np.uint64)
        members = idx[w == k]
        np.bitwise_or.at(mask, members // 64, np.uint64(1) << (members % 64).astype(np.uint64))
        profile[:, k] = np.bitwise_count(closure & mask[None, :]).sum(axis=1)
    return profile


@lru_cache(maxsize=None)
def set_bits_table(n: int) -> np.ndarray:
    """table[x, j] = position of the j-th lowest set bit of x (255 padding),
    read-only and cached per n; core.all_set_bit_positions builds it by
    doubling, 2^n * n bytes.

    No library path reads it: the sweeps and the parallel sampler take
    core.lower_neighbors instead.  perfbench times its cold build."""
    t = all_set_bit_positions(n)
    t.setflags(write=False)
    return t


def top_down_all(f: TruthTable, s: int) -> TruthTable:
    """Levelwise batched top-down: weight w points only read weight w-1.

    The rule of top_down_eval, for a whole level at once: a point takes the
    majority over its first 2s+1 core.lower_neighbors."""
    _require_s(s)
    n = f.n
    r = min(2 * s, n)
    if r >= n:
        return TruthTable(n, f.values)
    w = weights_vector(n)
    out = f.values.copy()  # every point above weight r is written before it is read
    for level in range(r + 1, n + 1):
        pts = np.flatnonzero(w == level)
        votes = np.zeros(len(pts), dtype=np.uint8)  # at most 2s + 1 <= n votes
        for q in lower_neighbors(pts, 2 * s + 1):
            votes += out[q]
        out[pts] = votes > s
    return TruthTable(n, out)


# ---------------------------------------------------------------------------
# parallel

PARALLEL_BASE_ERROR = Fraction(1, 20)
PARALLEL_SAMPLE_ERROR = Fraction(1, 5)
# The most draws one parallel-evaluation call may make, counted from the weights of its
# points before its first draw or allocation: the draws of the recursive tree the paper's
# sampler walks (_parallel_draws).  parallel_eval_batch settles the 56 such draws under a
# weight-12 node with 7 random integers, and costs about 1-2 ns and 1-1.5 bytes of arrays
# per counted draw of a trial (n = 16..18, every point, one trial; 2-vCPU VM), so a call at
# the limit takes well under a second and at most about 0.2 GB.
PARALLEL_MAX_DRAWS = 1 << 27


@lru_cache(maxsize=None)
def parallel_sample_count() -> int:
    """c(1/5, 1/20): samples per recursion level, validated and searched once."""
    return majority_threshold_c(PARALLEL_SAMPLE_ERROR, PARALLEL_BASE_ERROR)


@lru_cache(maxsize=None)
def _parallel_draws(n: int, s: int) -> tuple[int, ...]:
    """draws[d] = the draws of one parallel evaluation at a point of weight d: none at
    or below the cutoff min(10s, n), else c children, each one draw and an evaluation
    at weight d - floor(d/(10s+1))."""
    c, cutoff, draws = parallel_sample_count(), min(10 * s, n), [0] * (n + 1)
    for d in range(cutoff + 1, n + 1):
        draws[d] = c * (1 + draws[d - d // (10 * s + 1)])
    return tuple(draws)


def parallel_eval(
    advice: BallAdvice, s: int, x: Point, rng: np.random.Generator,
    stats: EvalStats | None = None,
) -> int:
    """Randomized recursive-majority evaluation; error probability <= 1/20.

    One trial of parallel_eval_batch at x (_advice_trials).  A call whose tree would
    pass PARALLEL_MAX_DRAWS draws is refused before its first draw.
    """
    return int(_advice_trials(advice, s, x, 1, rng, stats)[0])


def amplified_eval(
    advice: BallAdvice, s: int, x: Point, target_error, rng: np.random.Generator,
    stats: EvalStats | None = None,
) -> int:
    """The majority of c(1/20, target_error) independent parallel_eval runs at x: one
    parallel_eval_batch call with that many trials, refused before the first draw when
    the runs together would pass PARALLEL_MAX_DRAWS."""
    target = exact_fraction(target_error, "target error must be an exact rational, not the float {!r}")
    if not 0 < target <= PARALLEL_BASE_ERROR:
        raise ValueError("target error must lie in (0, 1/20]")
    c = majority_threshold_c(PARALLEL_BASE_ERROR, target)
    votes = _advice_trials(advice, s, x, c, rng, stats)
    return 1 if 2 * int(votes.sum()) > c else 0


def _advice_trials(advice: BallAdvice, s: int, x: Point, trials: int,
                   rng: np.random.Generator, stats: EvalStats | None) -> np.ndarray:
    """parallel_eval_batch's `trials` outputs at x, on the advice's table with 0 written
    outside the ball: the batch reads f only at weights <= min(10s, n), inside it.

    Every call the draw limit admits has t = 1 at every level (parallel_eval_batch), so
    a trial at a weight w above the cutoff min(10s, n) is a full c-ary tree of depth
    D = w - cutoff, and stats gains, a trial, c^D reads at the cutoff weight,
    (c^D - 1)/(c - 1) majority votes and _parallel_draws[w] draws."""
    if s < 1:
        raise ValueError("parallel evaluation needs s >= 1")
    cutoff = _require_advice(advice, s, 10, x)
    f = TruthTable(advice.n, (advice.values == 1).view(np.uint8))
    out = parallel_eval_batch(f, s, np.array([x.index]), trials, rng)[0]
    if stats is not None:
        c, w = parallel_sample_count(), weight(x)
        depth = max(w - cutoff, 0)
        leaves = trials * c**depth
        stats.points_computed += leaves
        stats.points_by_weight[min(w, cutoff)] = stats.points_by_weight.get(min(w, cutoff), 0) + leaves
        stats.majority_votes += trials * (c**depth - 1) // (c - 1)
        stats.rng_draws += trials * _parallel_draws(advice.n, s)[w]
        stats.max_depth = max(stats.max_depth, depth)
    return out


def _majority_tail(c: int, a, b):
    """sum over j > c/2 of C(c, j) a^j b^(c-j).  With floats (a, 1 - a) it is the
    majority tail Pr[Bin(c, a) > c/2]; with integers (k, L - k) it is that tail at
    a = k/L times L^c, exactly.

    As a function of a with b = 1 - a its derivative is c C(c-1, m) a^m (1-a)^m for
    c = 2m + 1, that is 140 a^3 (1-a)^3 <= 140/64 < 2.2 at c = 7."""
    return sum(comb(c, j) * a**j * b ** (c - j) for j in range(c // 2 + 1, c + 1))


@lru_cache(maxsize=None)
def _tail_numerators(leaf: int, c: int) -> np.ndarray:
    """N[k] = _majority_tail(c, k, L - k) for k = 0..L, L = leaf, read-only and cached
    per (L, c).  uint32 while (L + 1) L^c < 2^32, else int64: the dtype of
    parallel_eval_batch's draws at weights L and L + 1."""
    numer = np.array([_majority_tail(c, k, leaf - k) for k in range(leaf + 1)],
                     dtype=np.uint32 if (leaf + 1) * leaf**c < 1 << 32 else np.int64)
    numer.setflags(write=False)
    return numer


def _leaf_numerators(f: TruthTable, leaf: int, c: int, at: np.ndarray) -> np.ndarray:
    """N[k] at each x of `at`, points of weight L = leaf, with k the lower neighbours
    of x where f = 1: a weight-L node that votes over c uniform lower neighbours
    outputs 1 with probability exactly N[k] / L^c (_tail_numerators)."""
    k = np.zeros(len(at), dtype=np.uint8)
    for q in lower_neighbors(at, leaf):
        k += f.values[q]
    return _tail_numerators(leaf, c)[k]


def _tree_tables(f: TruthTable, leaf: int, c: int, starts: dict[int, np.ndarray]):
    """The tables of one parallel_eval_batch call, over the points its trees reach.

    starts[d] holds the roots of weight d, for d from L = leaf to the highest weight
    with a root, and every point's children are all its lower neighbours (_reach).
    Returns (rank, kids, below, above):
      * rank and kids[d] for L + 1 < d, from _reach;
      * below: N[k(x)] (_leaf_numerators) at the reached points of weight L;
      * above: A(x), the sum of N[k(y)] over the L + 1 lower neighbours y of x, at the
        reached points of weight L + 1.  A(x) <= (L + 1) L^c fits the dtype of N.
    """
    rank, reach, kids = _reach(f.n, starts, leaf, f.n)
    below = _leaf_numerators(f, leaf, c, reach[leaf])
    children = kids.pop(leaf + 1, np.zeros((0, 0), dtype=np.int32))  # none when max(starts) = L
    above = below[children].sum(axis=1, dtype=below.dtype)
    return rank, kids, below, above


def parallel_eval_batch(
    f: TruthTable, s: int, points: np.ndarray, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized parallel evaluation: `trials` independent runs per input
    point; returns a (len(points), trials) uint8 array of outputs.

    The one sampler of the paper's recursion (parallel_eval and amplified_eval are
    calls of it): each node draws c independent samples, and subtrees draw fresh
    samples (no memoization), since reusing a sample across branches would correlate
    the votes the analysis needs independent.  parallel_eval_law is its exact law.

    Every call the draw limit admits has t = floor(wt/(10s+1)) = 1 at every node: at
    s = 1 weight 20 already takes 3.3e8 draws, over PARALLEL_MAX_DRAWS, and t = 2
    first appears at weight 22 (2.3e9 draws); at s >= 2, t = 2 needs weight >= 42,
    above n <= 24.  So each sample clears one uniformly chosen set bit.  A node of
    weight L = cutoff + 1 votes over c uniform lower neighbours, all read from f.
    With k of its L lower neighbours where f = 1 it outputs 1 with probability exactly
    N[k] / L^c, where N[k] = _majority_tail(c, k, L - k), so one uniform draw in
    [0, L^c) that falls below N[k] decides it, and weight-L nodes are never built.  A
    sample of a weight-(L + 1) node x is then a uniform child's vote, 1 with
    probability A(x) / ((L + 1) L^c) where A(x) sums N over x's L + 1 lower
    neighbours, so one draw below A(x) decides it.  Nodes are ranks into the tables
    of the points the trees reach (_tree_tables), built once per call.

    Stream contract: trials run one after another.  In one trial the nodes of
    weight d are the points of weight d in input order, followed by the children
    of the weight-(d + 1) nodes in (node, sample) order, and the weights are
    drawn from the highest down, one call each:
      * d > L + 1: rng.integers(0, d, size=(nodes, c), dtype=np.uint8); pick j
        clears the node's j-th lowest set bit (j from 0);
      * d = L + 1: rng.integers(0, (L + 1) L^c, size=(nodes, c)); a node's
        draw votes 1 iff it is below A(node);
      * d = L: rng.integers(0, L^c, size=points of weight L); a point votes 1
        iff its draw is below N[k(point)].
    The draws of the last two are uint32 while (L + 1) L^c < 2^32 (12 * 11^7 at
    s = 1) and int64 beyond.  The votes fold back up weight by weight.  Seeded
    outputs replay byte for byte.

    Points are refused, not coerced, unless they are indices of the n-cube
    (core._point_indices): no negative index wraps and no float is truncated.  A
    call whose draws, or those of one trial when trials = 0, would pass
    PARALLEL_MAX_DRAWS is refused before its first draw or allocation.
    """
    if s < 1:
        raise ValueError("parallel evaluation needs s >= 1")
    n = f.n
    points = _point_indices(n, points)
    weights = weights_vector(n)[points]
    draws = max(trials, 1) * sum(k * d for k, d in zip(
        np.bincount(weights, minlength=n + 1).tolist(), _parallel_draws(n, s)))
    if draws > PARALLEL_MAX_DRAWS:
        raise ValueError(f"parallel evaluation at n={n}, s={s} would make {draws} draws, "
                         f"over the limit of {PARALLEL_MAX_DRAWS}")
    c = parallel_sample_count()
    results = np.empty((len(points), trials), dtype=np.uint8)
    results[:] = f.values[points][:, None]
    leaf = min(10 * s, n) + 1  # L, the lowest weight that recurses
    roots = {d: np.flatnonzero(weights == d) for d in range(leaf, n + 1)}
    top = max((d for d, at in roots.items() if len(at)), default=None)
    if top is None:
        return results

    rank, kids, below, above = _tree_tables(
        f, leaf, c, {d: points[roots[d]] for d in range(leaf, top + 1)})
    span = leaf**c  # the c samples of a weight-L node, as one draw
    # the node count of each weight depends on the weights alone, so every trial
    # refills the same arrays: a trial allocates (and page-faults) only its draws
    nodes, size = {}, 0
    for d in range(top, leaf, -1):
        size = len(roots[d]) + c * size
        nodes[d] = np.empty(size, dtype=np.int32)
        nodes[d][: len(roots[d])] = rank[points[roots[d]]]
    # weight L + 1 holds the most nodes: `size` picks lead to them, c * size draws leave them
    flat_buf, vote_buf = np.empty(size, dtype=np.int32), np.empty(c * size, dtype=bool)
    ones_c = np.ones(c, dtype=np.uint8)  # a row's votes, summed by one matmul
    at_leaf = roots[leaf]
    leaf_thresh = below[rank[points[at_leaf]]]
    for tr in range(trials):
        for d in range(top, leaf + 1, -1):
            node = nodes[d]
            flat = np.multiply(node[:, None], d, out=flat_buf[: c * len(node)].reshape(-1, c))
            flat += rng.integers(0, d, size=(len(node), c), dtype=np.uint8)
            # every flat index is in range; "clip" skips the buffered out of "raise"
            kids[d].take(flat, out=nodes[d - 1][len(roots[d - 1]) :].reshape(-1, c), mode="clip")
        if top > leaf:
            node = nodes[leaf + 1]
            draw = rng.integers(0, (leaf + 1) * span, size=(len(node), c), dtype=below.dtype)
            votes = np.less(draw, above.take(node)[:, None],
                            out=vote_buf[: draw.size].reshape(-1, c))
            for d in range(leaf + 1, top + 1):
                won = votes.view(np.uint8) @ ones_c > c // 2  # c is odd
                results[roots[d], tr] = won[: len(roots[d])]
                votes = won[len(roots[d]) :].reshape(-1, c)
        if len(at_leaf):
            results[at_leaf, tr] = rng.integers(0, span, size=len(at_leaf), dtype=below.dtype) < leaf_thresh
    return results


def parallel_eval_law(f: TruthTable, s: int) -> np.ndarray:
    """p(x) = Pr[parallel evaluation of f at x outputs 1] at every x, float64.

    The exact output law of parallel_eval and parallel_eval_batch, one weight
    level at a time.  A point at or below the cutoff min(10s, n) reads f.  Above
    it t = floor(wt/(10s+1)) = 1, and each of the c = parallel_sample_count()
    independent subtrees starts at a uniform lower neighbour, so with a(x) the
    mean of p over the lower neighbours (core.lower_neighbors, all wt(x) of
    them), p(x) = Pr[Bin(c, a(x)) > c/2].

    Round-off: the mean of d <= 24 values in [0, 1] adds at most 24 units of
    2^-53 to the error of its inputs, and the tail at most 16 more.  The tail's
    derivative is below 2.2 (_majority_tail), so one level turns an error e into
    at most 2.2 e + 69 * 2^-53.  At most 11 levels recurse (s = 1,
    n <= 21), so |p - exact| < 69 * 2^-53 * 2.2^11 / 1.2 < 4e-11.

    Refuses s < 1, and an n where a recursing level has t >= 2 (n >= 20s + 2,
    so s = 1 at n >= 22).
    """
    if s < 1:
        raise ValueError("parallel evaluation needs s >= 1")
    n = f.n
    if n >= 2 * (10 * s + 1):
        raise ValueError(f"the law clears one bit per sample, but weight {20 * s + 2} "
                         f"clears two at s={s}; n={n} needs n <= {20 * s + 1}")
    c = parallel_sample_count()
    w = weights_vector(n)
    p = f.values.astype(np.float64)
    for level in range(min(10 * s, n) + 1, n + 1):
        pts = np.flatnonzero(w == level)
        a = np.zeros(len(pts))
        for q in lower_neighbors(pts, level):
            a += p[q]
        a /= level
        p[pts] = _majority_tail(c, a, 1 - a)
    return p
