import hashlib
import tracemalloc
from math import comb

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.stats import binom

from senslab import evaluate, verify
from senslab.cli import main
from senslab.core import (
    Point, TruthTable, lower_neighbors, restrict_to_ball, seeded_rng, sensitivity,
    weights_vector,
)
from senslab.evaluate import (
    PARALLEL_MAX_DRAWS,
    EvalStats,
    _bit_plan,
    _shift_plan,
    amplified_eval,
    bottom_up_all,
    bottom_up_eval,
    majority_threshold_c,
    parallel_eval,
    parallel_eval_batch,
    parallel_eval_law,
    parallel_sample_count,
    set_bits_table,
    top_down_all,
    top_down_eval,
    top_down_visit_profile,
)
from senslab.families import dictator, random_dt, random_function, tribes
from senslab.io import write_ball_advice


def _advice(f, s, factor=2):
    return restrict_to_ball(f, Point(f.n, 0), min(factor * s, f.n))


# ---------------------------------------------------------------------------
# majority thresholds

def test_threshold_c_frozen_values():
    assert majority_threshold_c(Fraction(1, 5), Fraction(1, 20)) == 7
    assert majority_threshold_c(Fraction(1, 4), Fraction(1, 10)) == 7
    assert majority_threshold_c(Fraction(1, 4), Fraction(1, 100)) == 19
    assert majority_threshold_c(Fraction(1, 20), Fraction(1, 20)) == 1
    assert parallel_sample_count() == 7


@pytest.mark.parametrize("mu,target", [("1/5", "1/20"), ("1/4", "1/100"), ("1/3", "1/7")])
def test_threshold_c_against_scipy(mu, target):
    mu, target = Fraction(mu), Fraction(target)
    c = majority_threshold_c(mu, target)
    assert binom.sf(c // 2, c, float(mu)) <= float(target) + 1e-12
    if c > 1:
        assert binom.sf((c - 2) // 2, c - 2, float(mu)) > float(target) - 1e-12


def _threshold_c_fraction(mu: Fraction, target: Fraction) -> int:
    """The search as a sum of Fraction terms: the reference the integer tail must match."""
    from math import comb

    c = 1
    while sum(comb(c, j) * mu**j * (1 - mu) ** (c - j) for j in range(c // 2 + 1, c + 1)) > target:
        c += 2
    return c


@pytest.mark.parametrize("mu", ["0", "1/20", "1/5", "1/4", "1/3", "2/5", "3/7", "11/25"])
@pytest.mark.parametrize("target", ["1/2", "7/10", "1/3", "1/10", "1/20", "1/100", "3/1000"])
def test_threshold_c_matches_fraction_search(mu, target):
    mu, target = Fraction(mu), Fraction(target)
    assert majority_threshold_c(mu, target) == _threshold_c_fraction(mu, target)


def test_threshold_c_tiny_targets_are_fast():
    # c = 935 took seconds as a Fraction sum; Hoeffding caps it at 1106
    assert majority_threshold_c(Fraction(1, 4), Fraction(1, 10**60)) == 935


def test_threshold_c_refuses_searches_past_the_hoeffding_limit():
    from senslab.evaluate import THRESHOLD_C_LIMIT

    # mu -> 1/2: ln(3) / (2 * 10^-6) is about 5.5e5 samples
    with pytest.raises(ValueError, match=f"above the limit {THRESHOLD_C_LIMIT}"):
        majority_threshold_c(Fraction(499, 1000), Fraction(1, 3))
    with pytest.raises(ValueError, match="above the limit"):
        majority_threshold_c(Fraction(1, 4), Fraction(1, 10**10000))
    # just inside the limit: ln(10^3) / (2 (1/2 - 19/40)^2) = 5527
    assert majority_threshold_c(Fraction(19, 40), Fraction(1, 1000)) < THRESHOLD_C_LIMIT


def test_threshold_c_validation():
    with pytest.raises(ValueError):
        majority_threshold_c(Fraction(1, 2), Fraction(1, 10))
    with pytest.raises(ValueError):
        majority_threshold_c(Fraction(1, 5), Fraction(0))


def test_threshold_c_refuses_floats():
    # Fraction(0.1) is 3602879701896397/2^55, not 1/10
    with pytest.raises(ValueError, match="mu must be an exact rational, not the float 0.1"):
        majority_threshold_c(0.1, Fraction(1, 20))
    with pytest.raises(ValueError, match="delta_target must be an exact rational, not the float 0.05"):
        majority_threshold_c(Fraction(1, 10), 0.05)


# ---------------------------------------------------------------------------
# bottom-up

def test_bottom_up_direct_read():
    f = tribes(2, 6)
    v, stats = bottom_up_eval(_advice(f, 3), 3, Point(6, 0b101101))
    assert v == f(0b101101)
    assert stats.points_computed == 1 and stats.ball_shifts == 0


def test_bottom_up_walk():
    f = dictator(8)
    x = Point(8, 0b11111111)
    v, stats = bottom_up_eval(_advice(f, 1), 1, x)
    assert v == 1
    assert stats.ball_shifts == 8
    assert stats.majority_votes > 0


def test_bottom_up_requires_center_zero():
    f = dictator(4)
    adv = restrict_to_ball(f, Point(4, 1), 2)
    with pytest.raises(ValueError):
        bottom_up_eval(adv, 1, Point(4, 15))


def test_bottom_up_requires_radius():
    f = dictator(6)
    with pytest.raises(ValueError):
        bottom_up_eval(restrict_to_ball(f, Point(6, 0), 1), 1, Point(6, 63))


def _sampled(evaluate_at):
    def run(advice, s, x):
        return evaluate_at(advice, s, x, seeded_rng(3, "bad-point"))
    return run


@pytest.mark.parametrize("evaluator", [
    bottom_up_eval, top_down_eval, _sampled(parallel_eval),
    _sampled(lambda advice, s, x, rng: amplified_eval(advice, s, x, Fraction(1, 100), rng)),
], ids=["bottom-up", "top-down", "parallel", "amplified"])
@pytest.mark.parametrize("x", [Point(5, 31), Point(4, 99), Point(4, -1), Point(3, 7)])
def test_scalar_evaluators_reject_points_off_the_cube(evaluator, x):
    with pytest.raises(ValueError, match="not a point of the advice's 4-cube"):
        evaluator(_advice(dictator(4), 1), 1, x)


@pytest.mark.parametrize("evaluator", [bottom_up_eval, top_down_eval])
def test_scalar_evaluators_reject_negative_s(evaluator):
    # radius n covers every point, so only the check on s can refuse
    with pytest.raises(ValueError, match="s must be >= 0"):
        evaluator(_advice(dictator(8), 4), -1, Point(8, 0b11111111))


@pytest.mark.parametrize("sweep", [
    lambda s: bottom_up_all(dictator(6), s),
    lambda s: top_down_all(dictator(6), s),
    lambda s: top_down_visit_profile(6, s),
], ids=["bottom_up_all", "top_down_all", "top_down_visit_profile"])
def test_batch_sweeps_reject_negative_s(sweep):
    with pytest.raises(ValueError, match="s must be >= 0, got -1"):
        sweep(-1)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=2))
@settings(max_examples=20, deadline=None)
def test_bottom_up_all_matches_truth(seed, s):
    f = random_dt(8, s, seed=seed)
    assert bottom_up_all(f, s) == f


@pytest.mark.parametrize("n, s", [(6, 1), (6, 2), (8, 1), (8, 2), (8, 3)])
def test_bottom_up_all_matches_walk_on_random_tables(n, s):
    # a random table is not low-sensitivity, so the sweep does not return f
    # here: every value must still be the one the scalar walk computes
    f = random_function(n, seed=10 * n + s)
    advice = _advice(f, s)
    swept = bottom_up_all(f, s).values
    walked = [bottom_up_eval(advice, s, Point(n, x))[0] for x in range(1 << n)]
    assert swept.tolist() == walked
    assert (swept != f.values).any()


def _bottom_up_full_table(f, s):
    """The sweep with every ball whole: a (|B(0, 2s)|, 2^n) table, one
    _bit_plan per bit over all offsets.  The reference bottom_up_all must
    match bit for bit."""
    n, r = f.n, min(2 * s, f.n)
    if r >= n:
        return f.values.copy()
    masks = np.flatnonzero(weights_vector(n) <= r)
    rank = np.arange(len(masks))
    balls = np.empty((len(masks), 1 << n), dtype=np.uint8)
    balls[:, 0] = f.values[masks]
    for hb in range(n):
        prev = balls[:, :1 << hb]
        cur = balls[:, 1 << hb:2 << hb]
        copy_src, new_rows, gather = _bit_plan(masks, masks, rank, n, r, hb)
        cur[...] = prev[np.maximum(copy_src, 0)]
        if len(new_rows):
            votes = np.zeros((len(new_rows), 1 << hb), dtype=np.uint8)
            for col in gather.T:
                votes += prev[col]
            cur[new_rows] = 2 * votes > gather.shape[1]
    return balls[0].copy()


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_bottom_up_all_matches_full_table(n, s, seed):
    f = TruthTable(n, np.random.default_rng(seed).integers(0, 2, size=1 << n, dtype=np.uint8))
    assert bottom_up_all(f, s).values.tobytes() == _bottom_up_full_table(f, s).tobytes()


# sha256 of bottom_up_all(random_function(n, 7), s).values, taken from the
# full-table sweep; at (16, 3) that table is 931 MiB, so only the hash is kept
BOTTOM_UP_SHA256 = {
    (8, 3): "8055f2fe2343e2847e03c7c7b8c9e6ab13c55f294a72f4ff6049ebd5728edc0b",
    (10, 4): "46ab5fff9e2f73aff69d762faac4eaddfa01969ba8943937eb92e76071e61974",
    (12, 3): "703c409e0496e3de3a4968aa7471a454e2555c39c876979226d505d69077dc18",
    (13, 2): "891022b3a1e22426f0a00634d69fdb1b0b2839fa6a3331413ff789ef8f97e963",
    (16, 3): "cb93304ab545b06bd2a8dd77ddffa235f1a1cb9b1621127e82322fa6b98fc3c7",
}


@pytest.mark.parametrize("n,s", sorted(BOTTOM_UP_SHA256))
def test_bottom_up_all_pinned(n, s):
    f = random_function(n, 7)
    out = bottom_up_all(f, s).values
    assert out.dtype == np.uint8 and out.shape == (1 << n,)
    assert hashlib.sha256(out.tobytes()).hexdigest() == BOTTOM_UP_SHA256[n, s]
    assert (out != f.values).any()
    if n < 16:
        assert out.tobytes() == _bottom_up_full_table(f, s).tobytes()


@pytest.mark.parametrize("n", [16, 18])
def test_bottom_up_all_memory_scales_with_rows_read(n):
    # the full table would be |B(0, 6)| * 2^n bytes: 931 MiB at n = 16
    f = random_dt(n, 3, seed=n)
    _shift_plan.cache_clear()
    tracemalloc.start()
    try:
        out = bottom_up_all(f, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == f
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# top-down

def test_lower_neighbor_order():
    assert list(lower_neighbors(0b111, 2)) == [0b110, 0b101]
    assert list(lower_neighbors(0b1010, 2)) == [0b1000, 0b0010]
    # about a center: the set bits of x ^ center, lowest first
    assert list(lower_neighbors(0b0110, 2, 0b0011)) == [0b0111, 0b0010]
    # an index array walks each entry as the ints do
    walk = lower_neighbors(np.array([0b111, 0b1010, 0b0110]), 2)
    assert [q.tolist() for q in walk] == [[0b110, 0b1000, 0b0100], [0b101, 0b0010, 0b0010]]


def test_top_down_advice_read_is_single_point():
    f = tribes(2, 8)
    s = sensitivity(f).s
    v, stats = top_down_eval(_advice(f, s), s, Point(8, 0b1001))
    assert v == f(0b1001)
    assert stats.points_computed == 1
    assert stats.points_by_weight == {2: 1}


def test_top_down_recursion_dictator():
    f = dictator(6)
    v, stats = top_down_eval(_advice(f, 1), 1, Point(6, 0b111111))
    assert v == 1
    assert stats.majority_votes > 0
    assert stats.points_by_weight[6] == 1


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_top_down_all_matches_truth(seed, s):
    f = random_dt(8, s, seed=seed)
    assert top_down_all(f, s) == f


# sha256 of top_down_all(random_function(n, 7), s).values: a high-sensitivity f
# makes the sweep differ from f, so the order of the lower neighbours is pinned
TOP_DOWN_SHA256 = {
    (10, 1): "b72366dc209ea1343f77a719596a855f35893eb7f988009a29a5b70668433e3d",
    (10, 2): "63cf0fe51736b3752168fcdb49beff5c0227263ca4e3aa0dd8e974479586292e",
    (10, 3): "97f205d6f744fbe05dad08bdf1e8b3329bbcccba1be7c33928f4cb33d3bdc3a3",
    (16, 1): "bfbfb5f3058b59c5ae36116c14acbb9432c36b9a20559ab33c820bc1f9092e77",
    (16, 2): "e7580e36085150a38208b018105fe951dab1996fe9e54ae78f3618ad52e4f32c",
    (16, 3): "630ffe24f02743f321910f69a40bfabf4c190601bc2f501736e2e295e412859f",
    (20, 1): "fc3b9a3b44690090894fc848dac48ae16ea0149c6aa50df98fc769283fc4a998",
    (20, 2): "90d9daa3de04812560c3948ec6425b050e62cbf578628a6938750a15d1ffb46c",
    (20, 3): "5ec8e2026634f4f85094f0a74c53be1b6a34b585d0e12868fe4b12d637ce07a6",
}


@pytest.mark.parametrize("n,s", sorted(TOP_DOWN_SHA256))
def test_top_down_all_pinned(n, s):
    f = random_function(n, 7)
    out = top_down_all(f, s).values
    assert out.dtype == np.uint8 and out.shape == (1 << n,)
    assert hashlib.sha256(out.tobytes()).hexdigest() == TOP_DOWN_SHA256[n, s]
    assert (out != f.values).any()


@pytest.mark.parametrize("s", [1, 2, 3])
def test_top_down_all_matches_scalar_eval(s):
    f = random_function(10, 7)
    swept = top_down_all(f, s)
    advice = _advice(f, s)
    prof = top_down_visit_profile(10, s)
    for x in range(1 << 10):
        v, stats = top_down_eval(advice, s, Point(10, x))
        assert v == swept.values[x]
        assert stats.points_by_weight == {k: int(c) for k, c in enumerate(prof[x]) if c}


@pytest.mark.parametrize("n,s,total", [(22, 3, 245_157), (24, 3, 480_700)])
def test_top_down_eval_meets_the_visit_bound_past_the_profile(n, s, total):
    # from 1^n the walk reaches C(n - k + 2s, n - k) points of each weight k >= 2s,
    # the visit bound with equality, C(n + 1, 2s + 1) in all; the dense int32 rank
    # map (4 * 2^n bytes) is the one array over the cube
    f, x = random_dt(n, s, seed=n), Point(n, (1 << n) - 1)
    advice = _advice(f, s)
    tracemalloc.start()
    try:
        v, stats = top_down_eval(advice, s, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v == f(x)
    assert stats.points_by_weight == {k: comb(n - k + 2 * s, n - k) for k in range(2 * s, n + 1)}
    assert stats.points_computed == comb(n + 1, 2 * s + 1) == total
    assert peak < 8 << n, peak


# sha256 of top_down_visit_profile(n, s) (int64, shape (2^n, n + 1))
VISIT_PROFILE_SHA256 = {
    (10, 0): "6696a8204f01c6232791a76577df636cbeff9a77315362b513fb106d54e5382c",
    (10, 1): "63eed107bc624efca8d47ff8c3f30fe23a67b0c8e45cf49a91f57c3d68ff9981",
    (10, 2): "962fb7c5fe8f454eed0afb293e6b3636f0db026f8182121017fde96feb1a6e52",
    (10, 3): "50680d51860c347b053b3c8aacf91a42aaf104597ecaf0304e3a4aa41723b674",
    (10, 4): "35708b734951eb3a6692225d3ad4a2902a3edb9b7640204b49c215ca8b4b9587",
    (10, 5): "2823789b02b4750baaa8026ce87d6f4214d19cad854700fedcc02e88f9ce7868",
    (12, 0): "a5447acbbf6e6670c25d7ce5ebcbc86513c048919a0509968739d3af5b52bcca",
    (12, 1): "6c65cbc9b777fac09a17b968987aa76bf5a3870f0aa8fb1e70423d2d0342395d",
    (12, 2): "521b3cee89b5719b2a04d81e38a0ecd2ae5fb2d1b102f929b91f0547ff81dcd9",
    (12, 3): "d7aed474f0873c7d38f7216854bfe30931ec2ae419beee4c91b31447b8c0ad25",
    (12, 4): "b4d05cdf68366611e77a8bde836683e3d92418e2f97e45a907bb8a9cb87c23a6",
    (12, 5): "1d2cf52f501003d9e8a5ebc982959404e3bc65e963a2cd893cae8c0855aa8e52",
    (12, 6): "d35d7bbed81d85c4271308408eec0bf5aedfaf10096f5939fb1034b0fd2357a2",
}


@pytest.mark.parametrize("n,s", sorted(VISIT_PROFILE_SHA256))
def test_visit_profile_pinned(n, s):
    prof = top_down_visit_profile(n, s)
    assert prof.dtype == np.int64 and prof.shape == (1 << n, n + 1)
    assert hashlib.sha256(prof.tobytes()).hexdigest() == VISIT_PROFILE_SHA256[n, s]


def test_visit_profile_low_weight_rows():
    prof = top_down_visit_profile(8, 2)
    for x in (0, 3, 0b1100):  # wt <= 4 = 2s: a single advice read
        row = np.zeros(9, dtype=prof.dtype)
        row[bin(x).count("1")] = 1
        assert (prof[x] == row).all()


def test_visit_profile_matches_instrumented_run():
    f = random_dt(8, 2, seed=99)
    prof = top_down_visit_profile(8, 2)
    x = Point(8, 0b11111111)
    _, stats = top_down_eval(_advice(f, 2), 2, x)
    expect = {k: int(c) for k, c in enumerate(prof[x.index]) if c}
    assert stats.points_by_weight == expect


def test_set_bits_table_padding():
    t = set_bits_table(3)
    assert t[0b101].tolist() == [0, 2, 255]
    assert t[0b111].tolist() == [0, 1, 2]


@pytest.mark.parametrize("n", range(1, 17))
def test_set_bits_table_matches_set_bit_positions(n):
    t = set_bits_table(n)
    assert t.dtype == np.uint8 and t.shape == (1 << n, n) and not t.flags.writeable
    x = np.arange(1 << n)
    # past wt(x) the walk stays at x, the 255 padding
    expect = [np.where(q == x, 255, np.bitwise_count((x ^ q) - 1)) for q in lower_neighbors(x, n)]
    assert t.tobytes() == np.stack(expect, axis=1).astype(np.uint8).tobytes()


# ---------------------------------------------------------------------------
# randomized evaluators

def test_parallel_deterministic_region():
    # with min(10s, n) = n every call is an advice read
    f = tribes(2, 8)
    rng = seeded_rng(1, "par")
    adv = restrict_to_ball(f, Point(8, 0), 8)
    assert all(parallel_eval(adv, 1, Point(8, x), rng) == f(x) for x in range(256))


def test_parallel_replay_identical():
    f = dictator(12)
    adv = restrict_to_ball(f, Point(12, 0), 10)
    xs = [Point(12, (1 << 12) - 1), Point(12, 0b111111111110)]
    runs = []
    for _ in range(2):
        rng = seeded_rng(17, "replay")
        runs.append([parallel_eval(adv, 1, x, rng) for x in xs for _ in range(20)])
    assert runs[0] == runs[1]


def test_amplified_exhaustive_dictator():
    f = dictator(12)
    adv = restrict_to_ball(f, Point(12, 0), 10)
    rng = seeded_rng(23, "amp")
    target = Fraction(1, 4096)
    got = [amplified_eval(adv, 1, Point(12, x), target, rng) for x in range(4096)]
    assert got == [f(x) for x in range(4096)]


def test_amplified_target_range():
    f = dictator(6)
    adv = restrict_to_ball(f, Point(6, 0), 6)
    rng = seeded_rng(1, "amp-range")
    with pytest.raises(ValueError):
        amplified_eval(adv, 1, Point(6, 0), Fraction(1, 10), rng)


def test_amplified_refuses_a_float_target():
    adv = restrict_to_ball(dictator(6), Point(6, 0), 6)
    with pytest.raises(ValueError, match="target error must be an exact rational, not the float 0.01"):
        amplified_eval(adv, 1, Point(6, 0), 0.01, seeded_rng(1, "amp-float"))


def test_parallel_batch_deterministic_region():
    f = random_dt(10, 1, seed=5)
    pts = np.arange(1 << 10)
    out = parallel_eval_batch(f, 1, pts, 3, seeded_rng(2, "batch"))
    assert out.shape == (1 << 10, 3)
    assert (out == f.values[:, None]).all()


@pytest.mark.parametrize("points", [[-1], [4095.7], [4096], np.array([-1]), np.array([4095.7]),
                                    np.array([4096], dtype=np.uint16)],
                         ids=["negative", "float", "past-end", "negative-array", "float-array", "past-end-array"])
def test_parallel_batch_refuses_points_off_the_cube(points):
    # -1 used to wrap to 4095, 4095.7 to be truncated to 4095, 4096 to raise IndexError
    rng = seeded_rng(3, "off-cube")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="member") as err:
        parallel_eval_batch(dictator(12), 1, points, 2, rng)
    assert "\n" not in str(err.value) and rng.bit_generator.state == state


def test_parallel_batch_error_rate_high_weight():
    f = dictator(12)
    pts = np.array([(1 << 12) - 1, (1 << 12) - 2])
    out = parallel_eval_batch(f, 1, pts, 200, seeded_rng(3, "batch-err"))
    errors = (out != f.values[pts][:, None]).sum(axis=1)
    assert errors.max() <= 10  # per-sample error ~1/11, majority-of-7 ~0.002


def test_parallel_one_level_law():
    # at n = 12, s = 1 a weight-11 point p votes over c uniform lower
    # neighbours, all inside the advice region, so Pr[eval(p) = 1] =
    # Pr[Bin(c, a(p)) > c/2] with a(p) the share of them where f = 1
    f = random_dt(12, 1, seed=5)
    assert 0 < f.values.sum() < 1 << 12
    c, trials = parallel_sample_count(), 4000
    pts = np.array([4095 ^ (1 << i) for i in range(12)])
    share = np.array([np.mean([f(p ^ (1 << j)) for j in range(12) if p >> j & 1]) for p in pts])
    law = binom.sf(c // 2, c, share)
    assert law.min() == 0 and 0.99 < law.max() < 1  # a sure point and a random one
    assert np.abs(parallel_eval_law(f, 1)[pts] - law).max() <= 1e-15
    sigma = np.sqrt(law * (1 - law) / trials)
    freq = parallel_eval_batch(f, 1, pts, trials, seeded_rng(5, "law")).mean(axis=1)
    assert (np.abs(freq - law) <= 4 * sigma).all()
    adv = restrict_to_ball(f, Point(12, 0), 10)
    rng = seeded_rng(5, "law-scalar")
    for i in (int(law.argmin()), int(law.argmax())):
        hits = sum(parallel_eval(adv, 1, Point(12, int(pts[i])), rng) for _ in range(trials))
        assert abs(hits / trials - law[i]) <= 4 * sigma[i]

    # full depth: at n = 14, s = 1 a random function recurses through weights
    # 11..14, and its law is mid-range there.  20000 trials make 4 sigma smaller
    # than 0.0146, the 3-sigma slack of the 2000-trial sampling criterion 6 ran
    # before it read the law
    g = random_function(14, seed=0)
    law = parallel_eval_law(g, 1)
    w = weights_vector(14)
    mid = np.flatnonzero((0.09 < law) & (law < 0.91))
    pts = np.concatenate([mid[w[mid] == k][:8] for k in range(11, 15)])
    assert sorted(set(w[pts].tolist())) == [11, 12, 13, 14] and len(pts) == 25
    trials = 20000
    sigma = np.sqrt(law[pts] * (1 - law[pts]) / trials)
    assert (4 * sigma < 0.0146).all()
    freq = parallel_eval_batch(g, 1, pts, trials, seeded_rng(5, "law-deep")).mean(axis=1)
    assert (np.abs(freq - law[pts]) <= 4 * sigma).all()

    # two levels deep in criterion 6's own regime, s = 2 at n = 22, where
    # t = floor(22/21) = floor(21/21) = 1: every point of weight 21 and 22 of its
    # random-dt-2c, in one batch call
    h = random_dt(22, 2, seed=verify.SEED + 3)
    pts, trials = np.flatnonzero(weights_vector(22) >= 21), 4000
    law = parallel_eval_law(h, 2)[pts]
    assert len(pts) == 23 and 0.99 < law.max() < 1
    sigma = np.sqrt(law * (1 - law) / trials)
    assert (4 * sigma < 0.0146).all()
    freq = parallel_eval_batch(h, 2, pts, trials, seeded_rng(5, "law-22")).mean(axis=1)
    assert (np.abs(freq - law) <= 4 * sigma).all()


def _fraction_tail(a: Fraction) -> Fraction:
    """Pr[Bin(7, a) > 7/2] in exact rationals."""
    c = parallel_sample_count()
    return sum(comb(c, k) * a**k * (1 - a) ** (c - k) for k in range(c // 2 + 1, c + 1))


@pytest.mark.parametrize("n", [12, 13])
def test_parallel_law_matches_fractions(n):
    # the same recursion in exact rationals; the derived round-off bound is 4e-11
    f = random_function(n, seed=n)
    exact = [Fraction(int(v)) for v in f.values]
    for x in sorted(range(1 << n), key=lambda x: x.bit_count()):
        d = x.bit_count()
        if d > 10:
            exact[x] = _fraction_tail(sum(exact[x ^ (1 << j)] for j in range(n) if x >> j & 1) / d)
    law = parallel_eval_law(f, 1)
    assert max(abs(Fraction(float(v)) - e) for v, e in zip(law, exact)) <= Fraction(1, 10**14)


def test_majority_tail_numerators_are_the_fraction_tail():
    # N[k] / 11^7 is the tail at a = k/11 exactly, and it fits the uint32 draws
    for k in range(12):
        numer = evaluate._majority_tail(7, k, 11 - k)
        assert Fraction(numer, 11**7) == _fraction_tail(Fraction(k, 11))
        assert 0 <= numer <= 11**7 and 12 * 11**7 < 2**32
    assert evaluate._majority_tail(7, 0.25, 0.75) == float(_fraction_tail(Fraction(1, 4)))


@pytest.mark.parametrize("n", [12, 14])
def test_leaf_numerators_are_the_law_at_weight_11(n):
    # a weight-11 node decides its vote from one draw in [0, 11^7) against N[k(x)],
    # so N[k(x)] / 11^7 must be the law there, and the exact tail of x's share k/11
    f = random_function(n, seed=n)
    at = np.flatnonzero(weights_vector(n) == 11)
    below = evaluate._leaf_numerators(f, 11, parallel_sample_count(), at)
    assert below.dtype == np.uint32 and below.shape == at.shape
    assert np.abs(below / 11**7 - parallel_eval_law(f, 1)[at]).max() <= 1e-15
    for x, numer in zip(at.tolist(), below.tolist()):
        share = Fraction(sum(f(x ^ (1 << j)) for j in range(n) if x >> j & 1), 11)
        assert Fraction(numer, 11**7) == _fraction_tail(share)


def test_parallel_law_refusals():
    with pytest.raises(ValueError, match="s >= 1"):
        parallel_eval_law(dictator(12), 0)
    with pytest.raises(ValueError, match="n <= 21"):
        parallel_eval_law(dictator(22), 1)  # weight 22 clears two bits per sample
    assert parallel_eval_law(dictator(21), 1).shape == (1 << 21,)


def test_parallel_criterion_fails_a_function_that_never_recurses(monkeypatch):
    # at n = 16 the s = 2 cutoff is min(20, 16) = 16: no point recurses
    monkeypatch.setattr(verify, "parallel_corpus", lambda: [("dt-16", 2, random_dt(16, 2, seed=5))])
    result = verify.run_criterion(6)
    assert not result.ok and result.detail == "dt-16: n=16 <= 10s, recurses at no point"


# ---------------------------------------------------------------------------
# the draw limit: counted from the weights, checked before the first draw

@pytest.mark.parametrize("n,s,weights", [(12, 1, (10, 11, 12)), (14, 1, (13, 14)), (22, 2, (21, 22))])
def test_parallel_draw_counts_match_the_samplers(n, s, weights):
    draws, f = evaluate._parallel_draws(n, s), random_dt(n, s, seed=n)
    rng = seeded_rng(n, "draw-count")
    for w in weights:
        stats = EvalStats()
        parallel_eval(_advice(f, s, 10), s, Point(n, (1 << w) - 1), rng, stats)
        assert stats.rng_draws == draws[w]
    # the batch makes the calls its docstring lists: a second generator replays
    # them, node by node, to the same outputs and the same next bytes; the last
    # three points put roots at the two highest weights
    pts = np.concatenate([np.arange(1 << n)[::37], np.arange(1 << n)[-3:]])
    rng, ref = seeded_rng(n, "draw-count-batch"), seeded_rng(n, "draw-count-batch")
    out = parallel_eval_batch(f, s, pts, 3, rng)
    assert (out == _documented_batch(f, s, pts, 3, ref)).all()
    assert rng.bytes(8) == ref.bytes(8)



class _ScriptedDraws:
    """A stand-in generator: each integers() call must carry the next expected
    (high, size, dtype) and returns the next scripted values."""

    def __init__(self, calls):
        self.calls = list(calls)

    def integers(self, low, high, size, dtype):
        (want_high, want_size, want_dtype), values = self.calls.pop(0)
        assert (low, high, size, np.dtype(dtype)) == (0, want_high, want_size, np.dtype(want_dtype))
        return np.array(values, dtype=dtype).reshape(size)


def test_parallel_batch_votes_below_the_numerator():
    # a draw at a node's threshold votes 0 and one just below it votes 1, both for
    # the draws of a weight-12 node's children (A(x), the sum of N[k] over its 12
    # lower neighbours) and for a weight-11 point (N[k(x)])
    f = random_function(12, seed=5)
    c, span = parallel_sample_count(), 11**7
    top, x = 4095, 4095 ^ 1 << 3
    below = evaluate._leaf_numerators(f, 11, c, np.array([top ^ 1 << j for j in range(12)]))
    total, at_x = int(below.sum()), int(below[3])  # x is top's lower neighbour j = 3
    assert 0 < total < 12 * span and at_x > 0
    calls = []
    for shift in (0, -1):
        calls.append(((12 * span, (1, c), np.uint32), [total + shift] * c))
        calls.append(((span, 1, np.uint32), [at_x + shift]))
    out = parallel_eval_batch(f, 1, np.array([top, x]), 2, _ScriptedDraws(calls))
    assert out.tolist() == [[0, 1], [0, 1]]


@pytest.mark.parametrize("n", [12, 14])
def test_weight_12_thresholds_are_the_mean_child_law(n):
    # a draw in [0, 12 * 11^7) votes 1 below A(x), so A(x) / (12 * 11^7) must be
    # the mean of N / 11^7 over x's 12 children, the exact law of the vote of a
    # uniformly picked child, at every weight-12 point; weight 11 keeps N, the
    # exact tail there (test_leaf_numerators_are_the_law_at_weight_11)
    f = random_function(n, seed=n + 1)
    c, span = parallel_sample_count(), 11**7
    w = weights_vector(n)
    at11, at12 = np.flatnonzero(w == 11), np.flatnonzero(w == 12)
    rank, kids, below, above = evaluate._tree_tables(f, 11, c, {12: at12, 11: at11[:0]})
    assert kids == {} and below.dtype == above.dtype == np.uint32
    assert sorted(rank[at11].tolist()) == list(range(len(at11)))  # the roots reach every child
    assert (below[rank[at11]] == evaluate._leaf_numerators(f, 11, c, at11)).all()
    for x in at12.tolist():
        children = [x ^ (1 << j) for j in range(n) if x >> j & 1]
        mean = sum(Fraction(int(below[rank[y]]), span) for y in children) / 12
        assert Fraction(int(above[rank[x]]), 12 * span) == mean


def _documented_batch(f, s, pts, trials, rng):
    """parallel_eval_batch from its stream contract, one node at a time, with
    L = min(10s, n) + 1: per trial, from the highest weight down, uint8 picks above
    weight L + 1, one draw in [0, (L + 1) L^7) per child of a weight-(L + 1) node x,
    which votes 1 iff it is below A(x) = the sum of N[k] over x's L + 1 lower
    neighbours, and one draw in [0, L^7) per point of weight L."""
    c, leaf = parallel_sample_count(), min(10 * s, f.n) + 1
    span = leaf**c
    dtype = np.uint32 if (leaf + 1) * span < 2**32 else np.int64
    pts = [int(x) for x in pts]

    def lower(x):  # lower(x)[j] clears the j-th lowest set bit of x
        return [x ^ (1 << j) for j in range(f.n) if x >> j & 1]

    def numer(x):  # N[k(x)]: the vote of a weight-L node, times L^7
        k = sum(f(y) for y in lower(x))
        return sum(comb(c, j) * k**j * (leaf - k) ** (c - j) for j in range(c // 2 + 1, c + 1))

    out = np.tile(f.values[pts][:, None], trials)
    weights = [x.bit_count() for x in pts]
    top = max(weights)
    for tr in range(trials):
        roots = {d: [x for x, wt in zip(pts, weights) if wt == d] for d in range(leaf, top + 1)}
        votes, kids = {}, []
        for d in range(top, leaf, -1):
            nodes = roots[d] + kids
            if d > leaf + 1:
                picks = rng.integers(0, d, size=(len(nodes), c), dtype=np.uint8).tolist()
                kids = [lower(x)[j] for x, row in zip(nodes, picks) for j in row]
            else:
                draws = rng.integers(0, (leaf + 1) * span, size=(len(nodes), c), dtype=dtype)
                votes[d] = [sum(v < sum(map(numer, lower(x))) for v in row) > c // 2
                            for x, row in zip(nodes, draws.tolist())]
        for d in range(leaf + 2, top + 1):
            below = votes[d - 1][len(roots[d - 1]):]
            votes[d] = [sum(below[i : i + c]) > c // 2 for i in range(0, len(below), c)]
        draws = rng.integers(0, span, size=len(roots[leaf]), dtype=dtype).tolist()
        votes[leaf] = [v < numer(x) for x, v in zip(roots[leaf], draws)]
        place = dict.fromkeys(votes, 0)
        for i, wt in enumerate(weights):
            if wt >= leaf:
                out[i, tr] = votes[wt][place[wt]]
                place[wt] += 1
    return out


def test_parallel_samplers_refuse_a_call_over_the_draw_limit():
    f16, advice = dictator(16), _advice(dictator(20), 1, 10)
    draws, draws20 = evaluate._parallel_draws(16, 1), evaluate._parallel_draws(20, 1)
    # one run at weight 20 passes the limit, and so do amplified_eval's 3 runs at weight 19
    assert draws20[20] > PARALLEL_MAX_DRAWS >= draws20[19] and 3 * draws20[19] > PARALLEL_MAX_DRAWS
    assert majority_threshold_c(Fraction(1, 20), Fraction(1, 100)) == 3
    # perfbench's call (n = 16, every point, 40 trials) is admitted, 118 trials are not
    per_trial = sum(comb(16, w) * d for w, d in enumerate(draws))
    assert 40 * per_trial <= PARALLEL_MAX_DRAWS < 118 * per_trial
    f19, every19 = dictator(19), np.arange(1 << 19)
    weights_vector(19), weights_vector(20)  # the cached weights, outside the traced calls
    cases = [
        lambda rng: parallel_eval(advice, 1, Point(20, (1 << 20) - 1), rng),
        lambda rng: amplified_eval(advice, 1, Point(20, (1 << 19) - 1), Fraction(1, 100), rng),
        lambda rng: parallel_eval_batch(f16, 1, every19[: 1 << 16], 118, rng),
        lambda rng: parallel_eval_batch(f19, 1, every19, 1, rng),
        lambda rng: parallel_eval_batch(f19, 1, every19, 0, rng),
    ]
    for i, call in enumerate(cases):
        rng, fresh = seeded_rng(i, "limit"), seeded_rng(i, "limit")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="draws, over the limit of"):
                call(rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rng.bytes(8) == fresh.bytes(8)  # no draw
        assert peak < 8 * 2**20, (i, peak)  # no level arrays (n = 19 would take about 3 GiB)


def test_every_admitted_call_clears_one_bit_a_sample():
    # t = floor(w/(10s+1)) = 2 first at w = 22 for s = 1 and at w = 42 > 24 for s >= 2;
    # at s = 1 the limit refuses every point of weight 20 and up, so no admitted tree
    # reaches a weight with t = 2
    for n in range(20, 25):
        draws = evaluate._parallel_draws(n, 1)
        assert all(draws[w] > PARALLEL_MAX_DRAWS for w in range(20, n + 1))
    assert all(w // (10 * s + 1) <= 1 for s in range(2, 13) for w in range(25))


@pytest.mark.parametrize("n,s", [(14, 1), (22, 2)])
def test_parallel_batch_reads_f_only_up_to_the_cutoff(n, s):
    # parallel_eval's table is 0 outside the advice ball, so the batch may read f only
    # at weights <= min(10s, n): tables that differ above it give the same outputs
    # and leave the stream at the same place
    f = random_function(n, seed=n)
    above = weights_vector(n) > min(10 * s, n)
    g = TruthTable(n, np.where(above, 1 - f.values, f.values))
    pts = np.flatnonzero(above)[::7]
    runs = []
    for table in (f, g):
        rng = seeded_rng(n, "cutoff-reads")
        runs.append((parallel_eval_batch(table, s, pts, 5, rng).tobytes(), rng.bytes(8)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("s,w,seed", [(1, 15, 3), (2, 24, 3)])
def test_one_point_calls_at_n24_stay_small(s, w, seed):
    # the tables cover only the points the tree reaches; the dense int32 rank map
    # (4 * 2^n bytes) is the one array over the cube.  A whole-cube set-bit table alone
    # would take 24 * 2^n bytes
    n = 24
    f, x = random_dt(n, s, seed=seed), np.array([(1 << w) - 1])
    weights_vector(n)  # the cached weights, outside the traced call
    tracemalloc.start()
    try:
        out = parallel_eval_batch(f, s, x, 3, seeded_rng(n, "n24"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 3) and peak < 8 << n, peak


def test_eval_parallel_over_the_draw_limit_exits_two(tmp_path, capsys):
    ball = str(tmp_path / "d20.ball")
    write_ball_advice(_advice(dictator(20), 1, 10), ball)
    assert main(["eval", "--algo", "parallel", "--advice", ball, "--s", "1", "--x", "1" * 20]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: parallel evaluation at n=20, s=1 would make 329554456 draws")
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# seeded streams: parallel_eval_batch must replay byte for byte

def _stream_digest(out, rng):
    """sha256 of the outputs, the next 8 bytes of the stream (which pins how
    many draws the call took), dtype and shape."""
    return hashlib.sha256(out.tobytes()).hexdigest(), rng.bytes(8).hex(), str(out.dtype), out.shape


def _parallel_stream_case(name):
    dneg16 = dictator(16, 9).complement()
    if name == "dictator-neg-16":
        return dneg16, 1, np.arange(1 << 16), 2
    if name == "random-dt-12-reversed-duplicates":
        pts = np.concatenate([np.arange(1 << 12)[::-1], [4095, 4095, 2047, 0, 2047]])
        return random_dt(12, 1, seed=5), 1, pts, 200
    if name == "random-dt-20-random-points":
        pts = seeded_rng(41, "golden", "pts20").integers(0, 1 << 20, size=2000)
        return random_dt(20, 1, seed=3), 1, pts, 4
    if name == "empty":
        return dneg16, 1, np.empty(0, dtype=np.int64), 5
    assert name == "s2-never-recurses"
    return random_dt(16, 2, seed=5), 2, np.arange(1 << 16), 3


PARALLEL_STREAMS = {
    "dictator-neg-16": (
        "882a487058112219fb95c1357241d7107b1738e366dcb69c64ea42f697dd2d1b", "c3f6b10e6ba2c793",
        "uint8", (65536, 2)),
    "random-dt-12-reversed-duplicates": (
        "342a474740a8b9de67b657b0c088aab3f250d4ba95a689558777d1f0555095bf", "b44a0595c0d3e5a0",
        "uint8", (4101, 200)),
    "random-dt-20-random-points": (
        "1d4e623bad6f090bee5ab7ab97fc6f76cca486d3f75da302b57a02a926026239", "02958d3cdfa263b0",
        "uint8", (2000, 4)),
    "empty": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "d441c3a6811d9a34",
        "uint8", (0, 5)),
    "s2-never-recurses": (
        "157a6268d0b39e3ac3c2ed0099a4a28bffc5ba587833781de3c65df7f7204915", "430a1aa80754ffc5",
        "uint8", (65536, 3)),
}


@pytest.mark.parametrize("name", sorted(PARALLEL_STREAMS))
def test_parallel_batch_stream_is_pinned(name):
    f, s, pts, trials = _parallel_stream_case(name)
    rng = seeded_rng(41, "golden", name)
    out = parallel_eval_batch(f, s, pts, trials, rng)
    assert _stream_digest(out, rng) == PARALLEL_STREAMS[name]


# parallel_eval and amplified_eval: outputs, every EvalStats field and the next
# 8 bytes of the stream
SCALAR_SAMPLERS_GOLDEN = "d5d64bb1e1e31aed85e60d5b06bce73d5002bea91149545a2992cb10a8394580"


def test_scalar_samplers_are_pinned():
    rng = seeded_rng(47, "golden-scalar-samplers")
    h = hashlib.sha256()
    cases = [
        (_advice(random_dt(12, 1, seed=5), 1, 10), 1, (10, 11, 12)),
        (_advice(random_dt(16, 1, seed=7), 1, 10), 1, (11, 12, 13)),
        (_advice(random_dt(24, 1, seed=3), 1, 10), 1, (11, 13)),
        (_advice(random_dt(24, 2, seed=3), 2, 10), 2, (21, 24)),
    ]
    for advice, s, weights in cases:
        for w in weights:
            x = Point(advice.n, sum(1 << int(i) for i in rng.choice(advice.n, size=w, replace=False)))
            for amplify in (False, True):
                stats = EvalStats()
                v = (amplified_eval(advice, s, x, Fraction(1, 100), rng, stats) if amplify
                     else parallel_eval(advice, s, x, rng, stats))
                row = (int(v), stats.points_computed, sorted(stats.points_by_weight.items()),
                       stats.ball_shifts, stats.majority_votes, stats.rng_draws, stats.max_depth)
                h.update(repr(row).encode())
    h.update(rng.bytes(8))
    assert h.hexdigest() == SCALAR_SAMPLERS_GOLDEN


# bottom_up_eval on random advice (not the restriction of any sensitivity-s
# function, so the walk's output is not a truth table to compare with):
# values and every EvalStats field, over advice radii 2s and 2s+1
BOTTOM_UP_GOLDEN = "5dba1312592271cd6718c8d61d312508a094c84e9ba93a0ba678f46052d32112"


def test_bottom_up_eval_is_pinned():
    rng = seeded_rng(43, "golden-bottom-up")
    h = hashlib.sha256()
    for n in (5, 8, 11):
        for s in (0, 1, 2, 3):
            for extra in (0, 1):
                f = random_function(n, seed=17 * n + 3 * s + extra)
                advice = restrict_to_ball(f, Point(n, 0), min(2 * s + extra, n))
                for x in rng.integers(0, 1 << n, size=6).tolist() + [(1 << n) - 1]:
                    v, stats = bottom_up_eval(advice, s, Point(n, x))
                    row = (int(v), stats.points_computed, sorted(stats.points_by_weight.items()),
                           stats.ball_shifts, stats.majority_votes, stats.rng_draws, stats.max_depth)
                    h.update(repr(row).encode())
    assert h.hexdigest() == BOTTOM_UP_GOLDEN
