import hashlib
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from senslab.core import Point, seeded_rng
from senslab.families import dictator, random_dt, random_function, tribes
from senslab.selfcorrect import (
    CorrectorParams,
    CorruptedOracle,
    corrupt,
    corrupt_targeted,
    error_set,
    global_correct,
    local_correct,
    local_correct_batch,
    _flip_table,
    majority_step,
)


# ---------------------------------------------------------------------------
# oracles and corruption models

def test_oracle_answers_and_counts():
    f = dictator(4)
    oracle = CorruptedOracle(f, frozenset({3, 7}))
    batch = oracle.answer_batch(np.array([3, 5, 7]))
    assert batch.tolist() == [f(3) ^ 1, f(5), f(7) ^ 1]
    assert oracle.query_count == 3
    assert error_set(oracle.corrupted_table(), f) == frozenset({3, 7})


def test_oracle_batch_repeats_without_a_mask_per_call():
    f = random_dt(20, 2, seed=3)
    oracle = CorruptedOracle(f, frozenset({5, 1 << 19}))
    idx = np.array([5, 6, 1 << 19])
    expect = [f(5) ^ 1, f(6), f(1 << 19) ^ 1]
    tracemalloc.start()
    try:
        first = oracle.answer_batch(idx)
        second = oracle.answer_batch(idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.dtype == second.dtype == np.uint8
    assert first.tolist() == second.tolist() == expect
    assert oracle.query_count == 6
    assert peak < (1 << 20) // 8  # far below one 2^n-entry mask


def test_oracle_rejects_out_of_range():
    with pytest.raises(ValueError):
        CorruptedOracle(dictator(3), frozenset({9}))


@pytest.mark.parametrize("member", [0.7, True], ids=["float", "bool"])
def test_oracle_refuses_members_that_are_not_point_indices(member):
    # int() would corrupt point 0 for 0.7 and point 1 for True
    with pytest.raises(ValueError, match=f"member of type {type(member).__name__} is not a point index"):
        CorruptedOracle(dictator(8), {member})


@pytest.mark.parametrize("members", [np.array([3, -1]), np.array([256]), np.array([0.0, 3.0])],
                         ids=["negative", "past-end", "float"])
def test_oracle_refuses_bad_index_arrays(members):
    with pytest.raises(ValueError, match="member"):
        CorruptedOracle(dictator(8), members)


def test_oracle_takes_an_index_array():
    oracle = CorruptedOracle(dictator(8), np.array([7, 3, 255], dtype=np.uint8))
    assert oracle.corrupted == frozenset({3, 7, 255})
    assert error_set(oracle.corrupted_table(), dictator(8)) == oracle.corrupted


def test_corrupt_exact_count():
    f = random_dt(12, 2, seed=4)
    rng = seeded_rng(6, "corrupt")
    oracle, table = corrupt(f, Fraction(1, 64), rng)
    assert len(oracle.corrupted) == 64
    assert (table.values != f.values).sum() == 64
    _, clean = corrupt(f, 0, rng)
    assert clean == f


def test_corrupt_targeted_takes_nearest():
    f = dictator(4)
    oracle, _ = corrupt_targeted(f, Point(4, 0), 5)
    assert oracle.corrupted == frozenset({0, 1, 2, 4, 8})
    oracle, _ = corrupt_targeted(f, Point(4, 0), 1)
    assert oracle.corrupted == frozenset({0})


def test_corrupt_targeted_refuses_a_point_of_another_cube():
    with pytest.raises(ValueError, match="is not a point of the 8-cube"):
        corrupt_targeted(dictator(8), Point(4, 3), 2)


def test_corrupt_refuses_a_float_rate():
    rng = seeded_rng(6, "corrupt")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="corruption rate must be an exact rational, not the float 0.25"):
        corrupt(dictator(8), 0.25, rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# smoothing step

def test_majority_step_fixpoint_on_clean_tables():
    for f, s in ((dictator(8), 1), (tribes(2, 8), 3), (random_dt(10, 2, seed=2), 2)):
        out, ties = majority_step(f, Fraction(1, 20 * max(s, 1)))
        assert out == f and not ties


def test_majority_step_exact_tie_keeps_value():
    # at delta = 1/2 the smoothed value is exactly 1/2 everywhere
    f = dictator(1)
    out, ties = majority_step(f, Fraction(1, 2))
    assert out == f
    assert ties == frozenset({0, 1})


def test_single_flip_removed_at_strong_smoothing():
    f = dictator(12)
    _, table = corrupt_targeted(f, Point(12, 0), 1)
    out, ties = majority_step(table, Fraction(1, 5))
    assert out == f and not ties


def test_single_flip_survives_weak_smoothing():
    # (19/20)^12 > 1/2: the corrupted point's own weight outvotes its
    # neighborhood, so the flip is a fixpoint of the step
    f = dictator(12)
    _, table = corrupt_targeted(f, Point(12, 0), 1)
    out, _ = majority_step(table, Fraction(1, 20))
    assert out == table


# ---------------------------------------------------------------------------
# global correction

def test_params_validation_and_defaults():
    p = CorrectorParams(s=2)
    assert p.delta == Fraction(1, 40)
    assert p.epsilon == Fraction(1, 10)
    assert CorrectorParams(s=1).default_k(12) == 15
    assert CorrectorParams(s=1).local_c() == 7
    with pytest.raises(ValueError):
        CorrectorParams(s=0)
    with pytest.raises(ValueError):
        CorrectorParams(s=1, k=0)
    with pytest.raises(ValueError):
        CorrectorParams(s=1, delta=Fraction(2, 3))
    assert CorrectorParams(s=1, epsilon="1/4").epsilon == Fraction(1, 4)
    for bad in (0.1, 0, 1, Fraction(3, 2), -Fraction(1, 10)):
        with pytest.raises(ValueError, match="epsilon"):
            CorrectorParams(s=1, epsilon=bad)
    with pytest.raises(ValueError, match="noise rate must be an exact rational"):
        CorrectorParams(s=1, delta=0.05)


def test_global_correct_already_clean():
    f = tribes(2, 6)
    res = global_correct(f, CorrectorParams(s=3, delta=Fraction(1, 8)), truth=f)
    assert res.converged and res.table == f
    assert res.trace == [0]


def test_global_correct_recovers_with_contraction():
    f = random_dt(10, 1, seed=12)
    rng = seeded_rng(31, "global")
    _, table = corrupt(f, Fraction(4, 1024), rng)
    params = CorrectorParams(s=1, delta=Fraction(1, 8))
    res = global_correct(table, params, truth=f, check_contraction=True)
    assert res.table == f
    assert res.converged
    assert res.contraction_ok
    assert res.trace[0] == 4 and res.trace[-1] == 0
    assert res.iterations <= params.default_k(10)


def test_global_correct_trace_none_without_truth():
    f = dictator(6)
    res = global_correct(f, CorrectorParams(s=1, delta=Fraction(1, 8)))
    assert res.trace is None and res.contraction_ok is None


# ---------------------------------------------------------------------------
# local correction

def test_local_k0_is_direct_read():
    f = tribes(2, 6)
    oracle = CorruptedOracle(f, frozenset())
    rng = seeded_rng(9, "local")
    with pytest.raises(ValueError):
        CorrectorParams(s=3, k=0)
    value, used = local_correct(oracle, Point(6, 5), CorrectorParams(s=3), rng, k=0)
    assert (value, used) == (f(5), 1)


def test_local_query_count_exact():
    f = dictator(10)
    oracle = CorruptedOracle(f, frozenset())
    rng = seeded_rng(9, "local-count")
    before = oracle.query_count
    value, used = local_correct(oracle, Point(10, 1023), CorrectorParams(s=1), rng, k=3)
    assert used == 7**3
    assert oracle.query_count - before == used
    assert value == 1


# local_correct's bits at x = 718 for seeds 0..5, per k; the tree's draws are made
# level by level, as in local_correct_batch
LOCAL_SCALAR_BITS = {0: "111111", 1: "111111", 2: "111111", 4: "011111"}


def test_local_correct_is_one_trial_of_the_batch():
    oracle, _ = corrupt(random_function(10, seed=5), Fraction(1, 16), seeded_rng(7, "wrap", "corrupt"))
    params = CorrectorParams(s=1)
    x = Point(10, 718)
    for k, pinned in LOCAL_SCALAR_BITS.items():
        bits = ""
        for seed in range(len(pinned)):
            scalar_rng, batch_rng = seeded_rng(seed, "wrap", k), seeded_rng(seed, "wrap", k)
            before = oracle.query_count
            bit, used = local_correct(oracle, x, params, scalar_rng, k=k)
            assert type(bit) is int and used == oracle.query_count - before == 7**k
            assert [bit] == local_correct_batch(oracle, x, params, 1, batch_rng, k=k).tolist()
            assert scalar_rng.bytes(8) == batch_rng.bytes(8)
            bits += str(bit)
        assert bits == pinned, k


def test_local_correction_refuses_huge_trees():
    from senslab.selfcorrect import MAX_LOCAL_QUERIES

    oracle = CorruptedOracle(dictator(12), frozenset())
    params = CorrectorParams(s=1)  # c = 7, default k = 15 at n = 12
    assert 7**10 > MAX_LOCAL_QUERIES >= 7**9
    with pytest.raises(ValueError, match=r"c\^k = 7\^15 queries"):
        local_correct(oracle, Point(12, 0), params, seeded_rng(1, "guard"))
    with pytest.raises(ValueError, match=r"c\^k = 7\^10 queries"):
        local_correct_batch(oracle, Point(12, 0), params, 1, seeded_rng(1, "guard"), k=10)
    assert oracle.query_count == 0


@pytest.mark.parametrize("k", [-1, -3])
def test_local_correction_refuses_a_negative_depth(k):
    # a depth-k tree has c^k leaves; k < 0 used to run a depth-1 tree of 7 queries
    oracle = CorruptedOracle(dictator(8), frozenset())
    rng = seeded_rng(1, "negative-depth")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"local tree depth k={k} must be >= 0"):
        local_correct(oracle, Point(8, 3), CorrectorParams(s=1), rng, k=k)
    assert oracle.query_count == 0 and rng.bit_generator.state == state


@pytest.mark.parametrize("x", [Point(11, 5), Point(13, 4096), Point(12, 4096)], ids=repr)
def test_local_correction_refuses_a_point_of_another_cube(x):
    # Point(11, 5) used to be answered as point 5 of the 12-cube, and
    # Point(13, 4096) raised IndexError after query_count had gone up
    oracle = CorruptedOracle(dictator(12), frozenset())
    rng = seeded_rng(1, "other-cube")
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="is not a point of the 12-cube"):
        local_correct_batch(oracle, x, CorrectorParams(s=1), 3, rng, k=2)
    with pytest.raises(ValueError, match="is not a point of the 12-cube"):
        local_correct(oracle, x, CorrectorParams(s=1), rng, k=2)
    assert oracle.query_count == 0 and rng.bit_generator.state == state


def test_local_majority_counts_more_than_255_votes():
    # at epsilon = 1e-18 a node takes the majority of c = 267 noisy copies; about
    # 254 of them read f(x) on a clean oracle, so a uint8 vote sum would wrap
    f = random_dt(12, 1, seed=21)
    oracle = CorruptedOracle(f, frozenset())
    params = CorrectorParams(s=1, epsilon=Fraction(1, 10**18))
    assert params.local_c() == 267
    for x in (0, 4095, 0b101101110010):
        out = local_correct_batch(oracle, Point(12, x), params, 60, seeded_rng(3, "wide-c", x), k=1)
        assert (out == f(x)).all()
    assert oracle.query_count == 3 * 60 * 267


def test_local_batch_chunks_stay_under_the_query_guard(monkeypatch):
    from senslab import selfcorrect

    oracle = CorruptedOracle(dictator(8), frozenset())
    params = CorrectorParams(s=1)  # c = 7
    monkeypatch.setattr(selfcorrect, "MAX_LOCAL_QUERIES", 3 * 7**3)
    sizes = []
    answer = oracle.answer_batch
    monkeypatch.setattr(oracle, "answer_batch", lambda idx: sizes.append(len(idx)) or answer(idx))
    out = local_correct_batch(oracle, Point(8, 5), params, 10, seeded_rng(1, "chunks"), k=3)
    assert out.shape == (10,)
    assert sizes == [3 * 7**3] * 3 + [7**3]
    assert oracle.query_count == 10 * 7**3


def test_local_batch_counts_and_accuracy():
    f = random_dt(8, 1, seed=21)
    oracle = CorruptedOracle(f, frozenset())
    x = Point(8, 255)
    out = local_correct_batch(oracle, x, CorrectorParams(s=1), 200, seeded_rng(13, "lb"), k=2)
    assert out.shape == (200,)
    assert oracle.query_count == 200 * 7**2
    assert (out == f(x)).mean() >= 0.95


def test_local_corrects_corrupted_query_point():
    # needs (1-delta)^n < 1/2 (here (19/20)^12 = 0.54, barely above, so one
    # extra level): otherwise samples sit on the corrupted point itself
    f = dictator(12)
    x = Point(12, 0)
    oracle, _ = corrupt_targeted(f, x, 1)
    out = local_correct_batch(oracle, x, CorrectorParams(s=1), 200, seeded_rng(14, "la"), k=4)
    assert (out == f(x)).mean() >= 0.97


@pytest.mark.parametrize("n,k,trials", [(16, 7, 1), (12, 4, 200)])
def test_local_batch_memory_does_not_grow_with_leaves_times_n(n, k, trials):
    # one tree of 7^7 leaves, and one full LOCAL_TRIAL_CHUNK of criterion 11's
    # adversarial shape; the level-wise (L, n) draw matrix took 85-106 bytes a leaf
    f = random_function(n, seed=2)
    oracle, _ = corrupt_targeted(f, Point(n, 0), 1)
    params = CorrectorParams(s=1)
    local_correct_batch(oracle, Point(n, 0), params, 1, seeded_rng(1, "warm"), k=1)
    tracemalloc.start()
    try:
        out = local_correct_batch(oracle, Point(n, 0), params, trials, seeded_rng(2, "mem"), k=k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (trials,)
    assert peak <= 4 * trials * 7**k  # measured 1.29 and 2.00 bytes a leaf


# ---------------------------------------------------------------------------
# seeded streams: local_correct_batch must replay byte for byte

@pytest.mark.parametrize("q,dtype", [(20, np.uint32), (20**4, np.uint32), (3 * 10**9 + 7, np.uint32),
                                     ((1 << 40) + 1, np.int64), (2**16, np.uint64), (20**8, np.uint64)])
def test_bounded_draws_split_by_rows(q, dtype):
    # local_correct_batch draws each level's matrix in row blocks and relies on
    # this: the blocks give the same values and leave the same state
    whole_rng, split_rng = seeded_rng(3, "split", q), seeded_rng(3, "split", q)
    whole = whole_rng.integers(0, q, size=(101, 13), dtype=dtype)
    split = [split_rng.integers(0, q, size=(rows, 13), dtype=dtype) for rows in (1, 7, 33, 3, 57)]
    assert np.array_equal(whole, np.concatenate(split))
    assert whole_rng.bit_generator.state == split_rng.bit_generator.state
    assert whole_rng.bytes(8) == split_rng.bytes(8)


LOCAL_STREAMS = {  # (n, k): (sha256 of outputs, next 8 stream bytes, dtype, shape)
    (13, 2): ("54ba76ba4002bed5373de657bdd079299a5b6a57598efbe204a85feadda458ce", "af324de46a7303e8",
              "uint8", (450,)),
    (13, 4): ("b3cf491230a84c2604fa2cd7184062bbceb2dca7b41a09578fde3dcef0833cfe", "038c74581a51ca9f",
              "uint8", (450,)),
    (16, 2): ("797e415a62a397b8dc0ff38e492b1d63fac591c923f6ef1c88dacda4de4b14c1", "01cd2ee77be38127",
              "uint8", (450,)),
    (16, 4): ("074a0ab4b2328a2d3c59aa0c2874b66ffbfe7b79831ae1817b10744ee7f10b44", "27965862d8f141e4",
              "uint8", (450,)),
}


def test_local_batch_runs_with_a_denominator_above_32_bits():
    # q > 2^32 takes 64-bit draws; a flip at rate 1/q is all but impossible here
    f = random_function(10, seed=3)
    oracle = CorruptedOracle(f, frozenset())
    x = Point(10, 0b1011001110)
    params = CorrectorParams(s=1, delta=Fraction(1, (1 << 40) + 1))
    out = local_correct_batch(oracle, x, params, 30, seeded_rng(5, "wide"), k=2)
    assert out.dtype == np.uint8 and out.shape == (30,)
    assert (out == f(x)).all()
    assert oracle.query_count == 30 * 7**2


@pytest.mark.parametrize("n,k", sorted(LOCAL_STREAMS))
def test_local_batch_stream_is_pinned(n, k):
    # 450 trials is not a multiple of LOCAL_TRIAL_CHUNK, and 13 bits do not fill
    # whole bytes; the random truth table keeps the outputs stream-dependent
    oracle, _ = corrupt(random_function(n, seed=11), Fraction(1, 64), seeded_rng(41, "golden", "corrupt", n))
    x = Point(n, (1 << n) - 7)
    rng = seeded_rng(41, "golden", "local", n, k)
    out = local_correct_batch(oracle, x, CorrectorParams(s=1), 450, rng, k=k)
    digest = (hashlib.sha256(out.tobytes()).hexdigest(), rng.bytes(8).hex(), str(out.dtype), out.shape)
    assert digest == LOCAL_STREAMS[n, k]
    assert oracle.query_count == 450 * 7**k


# ---------------------------------------------------------------------------
# the flip law: one draw in [0, q^m) carries the flips of m coordinates

@pytest.mark.parametrize("p,q,m", [(1, 20, 4), (1, 40, 3), (1, 8, 6), (1, 2, 8), (3, 7, 6)])
def test_flip_table_gives_each_pattern_its_exact_weight(p, q, m):
    # the q^m draw values are equally likely, so the law of the m flips is exactly
    # Bernoulli(p/q)^m iff pattern P is the entry of p^|P| (q-p)^(m-|P|) values
    got, table = _flip_table(p, q)
    assert got == m and table.shape == (q**m,) and not table.flags.writeable
    counts = np.bincount(table, minlength=1 << m)
    assert len(counts) == 1 << m
    for pattern, count in enumerate(counts.tolist()):
        ones = pattern.bit_count()
        assert count == p**ones * (q - p) ** (m - ones), pattern


def test_flip_table_is_not_built_past_q_512():
    assert _flip_table(1, 512)[0] == 2
    assert _flip_table(1, 513) == (1, None)
    assert _flip_table(1, (1 << 40) + 1) == (1, None)


@pytest.mark.parametrize("n,delta", [(13, Fraction(1, 20)), (13, Fraction(3, 7)), (5, Fraction(1, 2)),
                                     (24, Fraction(1, 40)), (13, Fraction(255, 512)),
                                     (11, Fraction(100, 1009)), (20, Fraction(500, 1009)),
                                     (17, Fraction(1 << 39, (1 << 40) + 1))], ids=str)
def test_noisy_copies_replay_the_documented_digits(n, delta, monkeypatch):
    # at m >= 2 a row's uint64 draw d carries words 2d and 2d + 1 as its base-q^m
    # digits, and a row flips bit m*j + i iff base-q digit i of word j is below p;
    # the high word of the last draw when the row's word count is odd, and digits
    # past bit n - 1, are drawn, do flip, and must change nothing.  q = 2 at n = 5
    # draws below 2^32, q = 40 at n = 24 four draws a row.  The last three cases take
    # the packed m = 1 path, the last one with int64 draws
    p, q = delta.numerator, delta.denominator
    m = _flip_table(p, q)[0]
    words = -(-n // m)
    per_row, r, dtype = (n, 1, np.int64) if m == 1 else (-(-words // 2), 2, np.uint64)
    oracle = CorruptedOracle(dictator(n), frozenset())
    leaves = []
    answer = oracle.answer_batch
    monkeypatch.setattr(oracle, "answer_batch", lambda idx: leaves.append(idx.copy()) or answer(idx))
    x = 0b1011001110101 % (1 << n)
    rng, replay = seeded_rng(8, "digits", n, q), seeded_rng(8, "digits", n, q)
    local_correct_batch(oracle, Point(n, x), CorrectorParams(s=1, delta=delta), 300, rng, k=1)
    expect, spare_flips = [], 0
    for row in replay.integers(0, q ** (m * r), size=(300 * 7, per_row), dtype=dtype).tolist():
        flips = [draw // q**i % q < p for draw in row for i in range(m * r)]
        spare_flips += sum(flips[n:])
        expect.append(x ^ sum(1 << bit for bit in range(n) if flips[bit]))
    assert np.concatenate(leaves).tolist() == expect
    assert rng.bit_generator.state == replay.bit_generator.state
    assert spare_flips > 0 or n == m * r * per_row


class _ScriptedDraws:
    """A stand-in generator: each integers() call must carry the expected
    (high, size, dtype) and returns the scripted values."""

    def __init__(self, high, size, dtype, values):
        self.want, self.values = (0, high, size, np.dtype(dtype)), values

    def integers(self, low, high, size, dtype):
        assert (low, high, size, np.dtype(dtype)) == self.want
        return np.array(self.values, dtype=dtype).reshape(size)


@pytest.mark.parametrize("n,delta", [(16, Fraction(1, 20)), (13, Fraction(255, 512))], ids=str)
def test_noisy_words_are_flip_table_entries(n, delta, monkeypatch):
    # scripted uint64 draws at 0, Q - 1, Q, Q^2 - 1 and random values, Q = q^m: draw
    # d is word 2d + Q * word 2d + 1 of its row, and word j moves bits m*j.. by
    # exactly its _flip_table entry (cut at bit n - 1)
    p, q = delta.numerator, delta.denominator
    m, table = _flip_table(p, q)
    qm, words = q**m, -(-n // m)
    per_row = -(-words // 2)
    edges = [0, qm - 1, qm, qm**2 - 1, qm**2 - qm, qm + 1, qm * (qm - 1) - 1]
    rows = [[v] * per_row for v in edges]
    rows += seeded_rng(4, "scripted-words", n).integers(0, qm**2, size=(7, per_row), dtype=np.uint64).tolist()
    oracle = CorruptedOracle(dictator(n), frozenset())
    leaves = []
    answer = oracle.answer_batch
    monkeypatch.setattr(oracle, "answer_batch", lambda idx: leaves.append(idx.tolist()) or answer(idx))
    x = (1 << n) - 1 - 0b1001110
    rng = _ScriptedDraws(qm**2, (14, per_row), np.uint64, rows)
    local_correct_batch(oracle, Point(n, x), CorrectorParams(s=1, delta=delta), 2, rng, k=1)
    expect = []
    for row in rows:
        mask = 0
        for j in range(words):
            word = row[j // 2] // qm ** (j % 2) % qm
            mask |= int(table[word]) << (m * j)
        expect.append(x ^ (mask & ((1 << n) - 1)))
    assert leaves == [expect]


@pytest.mark.parametrize("block_bytes", [1, 1000, 1 << 16])
def test_local_batch_is_identical_across_row_blocks(block_bytes, monkeypatch):
    # BLOCK_BYTES sets the rows of each draw call and must not enter the stream;
    # at the default one block holds a whole level here
    from senslab import selfcorrect

    oracle, _ = corrupt(random_function(13, seed=4), Fraction(1, 64), seeded_rng(2, "blocks", "corrupt"))
    x, params = Point(13, 4321), CorrectorParams(s=1)
    whole_rng, split_rng = seeded_rng(2, "blocks"), seeded_rng(2, "blocks")
    whole = local_correct_batch(oracle, x, params, 60, whole_rng, k=3)
    monkeypatch.setattr(selfcorrect, "BLOCK_BYTES", block_bytes)
    split = local_correct_batch(oracle, x, params, 60, split_rng, k=3)
    assert whole.tobytes() == split.tobytes()
    assert whole_rng.bit_generator.state == split_rng.bit_generator.state
