import hashlib
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from senslab import counting
from senslab.core import TruthTable, seeded_rng, sensitivity
from senslab.counting import (
    INTERPOLATION_MAX_BYTES,
    INTERPOLATION_MAX_WORK,
    INTERPOLATION_SAMPLE_BYTES,
    all_tables,
    build_census,
    count_bounds,
    enumerate_class,
    interpolation_experiment,
    interpolation_sample_size,
    per_function_degree,
    per_function_sensitivity,
)
from senslab.families import dictator, parity, random_dt


# ---------------------------------------------------------------------------
# reference scans

def class_members(n, s):
    """Reference: the members of F(s, n) by a scan of every table, in increasing table-index order."""
    tables = all_tables(n)
    sens = per_function_sensitivity(tables, n)
    for row in np.nonzero(sens <= s)[0]:
        yield TruthTable(n, tables[row])


def _chunk_class_ok(arr):
    """Reference: per-s membership masks for uint32-encoded 5-variable tables:
    out[s][i] is True iff s(table arr[i]) <= s.  Bit x of each uint32 is the
    value at point x; per-point sensitivities accumulate in three bit-sliced
    carry-save counter planes (max count is n = 5)."""
    n = 5
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


def _glued_members(n, s):
    """The codes of F(s, n), glued level by level as the census glues them."""
    codes = np.arange(2, dtype=np.uint32)
    for k in range(n):
        codes = counting._glue(codes, counting._tight(codes, k, s), k)
    return codes


# ---------------------------------------------------------------------------
# censuses

def test_all_tables_shape():
    t = all_tables(3)
    assert t.shape == (256, 8)
    assert len(np.unique(t, axis=0)) == 256


@pytest.mark.parametrize("n", range(5))
def test_all_tables_rows_are_the_bits_of_their_codes(n):
    t = all_tables(n)
    codes = np.arange(1 << (1 << n))
    assert t.dtype == np.uint8 and t.flags.c_contiguous
    assert np.array_equal(t, (codes[:, None] >> np.arange(1 << n)) & 1)


def test_all_tables_peak_memory():
    # unpacked from the codes' bytes: at n = 4 the 1 MiB output is the only large array
    tracemalloc.start()
    try:
        all_tables(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak


def test_small_class_sizes():
    assert enumerate_class(2, 0) == 2
    assert enumerate_class(2, 1) == 6  # constants + (anti)dictators
    assert enumerate_class(2, 2) == 16
    assert enumerate_class(3, 1) == 8  # 2 + 2n


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_glued_counts_match_the_scan(n):
    sens = per_function_sensitivity(all_tables(n), n)
    scan = [int((sens <= s).sum()) for s in range(n + 1)]
    assert build_census(n).counts == scan
    assert [enumerate_class(n, s) for s in range(n + 1)] == scan
    assert all(type(c) is int for c in build_census(n).counts)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_glued_members_match_the_scan(n):
    # codes are table indices, so each glued level is the scan's member set
    sens = per_function_sensitivity(all_tables(n), n)
    for s in range(n + 1):
        assert np.array_equal(np.sort(_glued_members(n, s)), np.nonzero(sens <= s)[0])


def test_n5_census_pinned():
    census = build_census(5, allow_long=True)
    assert census.counts == [2, 12, 2472, 25850380, 1843434662, 1 << 32]
    assert all(type(c) is int for c in census.counts)
    assert all(lo <= c <= hi for lo, c, hi in zip(census.lower, census.counts, census.upper))
    assert [enumerate_class(5, s, allow_long=True) for s in range(4)] == census.counts[:4]
    with pytest.raises(ValueError, match="census needs"):
        enumerate_class(5, 1)  # needs allow_long


@pytest.mark.parametrize("s", [0, 1, 2])
def test_glued_n5_members_match_the_bit_sliced_filter(s):
    # members of F(s, 5) and every table one point away from one: the filter and
    # membership in the glued set agree on all of them
    members = _glued_members(5, s)
    assert len(members) == [2, 12, 2472][s]
    flips = np.uint32(1) << np.arange(32, dtype=np.uint32)
    codes = np.unique(np.concatenate([members, (members[:, None] ^ flips).ravel()]))
    assert np.array_equal(_chunk_class_ok(codes)[s], np.isin(codes, members))


def test_census_anchors():
    for n in (1, 2, 3, 4):
        census = build_census(n)
        assert census.counts[0] == 2
        assert census.counts[-1] == 1 << (1 << n)
        assert all(a <= b for a, b in zip(census.counts, census.counts[1:]))
        for s in range(n + 1):
            assert census.lower[s] <= census.counts[s] <= census.upper[s]
    with pytest.raises(ValueError):
        build_census(5)  # needs allow_long
    for n in (-1, 0):
        with pytest.raises(ValueError, match="census needs"):
            build_census(n)


def test_count_bounds_examples():
    lo, hi = count_bounds(4, 1)
    assert lo == 8 and hi == 1 << 11
    assert lo <= 10 <= hi  # the true |F(1,4)| = 2 + 2n
    assert count_bounds(4, 0) == (1, 2)
    with pytest.raises(ValueError):
        count_bounds(4, 5)


def test_class_members_iterates_functions():
    members = list(class_members(2, 1))
    assert len(members) == 6
    assert all(sensitivity(f).s <= 1 for f in members)


def test_per_function_measures_match_scalar():
    from senslab.core import degree

    tables = all_tables(3)
    sens = per_function_sensitivity(tables, 3)
    degs = per_function_degree(tables, 3)
    for row in (0, 17, 100, 255):
        f = TruthTable(3, tables[row])
        assert sens[row] == sensitivity(f).s
        assert degs[row] == degree(f)


def test_per_function_degree_of_an_empty_batch():
    degs = per_function_degree(np.zeros((0, 8), dtype=np.uint8), 3)
    assert degs.dtype == np.uint8 and degs.shape == (0,)


@pytest.mark.parametrize("measure", [per_function_sensitivity, per_function_degree])
@pytest.mark.parametrize("n", [2, 4])
def test_per_function_measures_refuse_the_wrong_length(measure, n):
    # all_tables(3) has rows of 8 points; read as n = 2 they used to give wrong values
    with pytest.raises(ValueError, match=f"last axis of {1 << n} for n={n}"):
        measure(all_tables(3), n)


def test_per_function_degree_census_pinned():
    degs = per_function_degree(all_tables(4), 4)
    assert degs.dtype == np.uint8 and degs.shape == (1 << 16,)
    digest = hashlib.sha256(degs.tobytes()).hexdigest()
    assert digest == "ca7f20570cedca37b6af09e8c2958b20e55c8b47cac0ab5fe736e9811c8f70b8"


def test_chunk_filter_matches_scalar_sensitivity():
    rng = seeded_rng(12, "chunk")
    codes = rng.integers(0, 1 << 32, size=400, dtype=np.uint32)
    masks = _chunk_class_ok(codes)
    for j, code in enumerate(codes):
        bits = np.array([(int(code) >> i) & 1 for i in range(32)], dtype=np.uint8)
        s = sensitivity(TruthTable(5, bits)).s
        for bound in range(6):
            assert masks[bound][j] == (s <= bound)


def test_xor_sensitivity_subadditive():
    pairs = [(dictator(4), dictator(4, 2)), (parity(4), parity(4))]
    pairs += [(random_dt(6, 2, seed=seed), random_dt(6, 3, seed=seed + 50)) for seed in range(5)]
    for f, g in pairs:
        assert sensitivity(f ^ g).s <= sensitivity(f).s + sensitivity(g).s


# ---------------------------------------------------------------------------
# interpolation experiment

class FixedSample:
    """A stand-in generator whose every draw is `sample`."""

    def __init__(self, sample):
        self.sample = np.asarray(sample, dtype=np.int64)

    def integers(self, low, high, size):
        assert size == len(self.sample)
        return self.sample


def test_interpolation_full_sample_always_succeeds():
    res = interpolation_experiment(3, 1, 8, 5, FixedSample(np.arange(8)))
    assert res.interpolation_successes == 5
    assert res.hitting_successes == 5
    assert res.success_fraction == 1
    assert res.agree_on_every_trial


def test_interpolation_empty_sample_always_fails():
    res = interpolation_experiment(3, 1, 0, 4, seeded_rng(1, "interp"))
    assert res.interpolation_successes == 0
    assert res.hitting_successes == 0


def test_interpolation_default_size_reliable():
    k = interpolation_sample_size(4, 1)
    assert k == 3 * 4 * (1 + 4 + 6 + 4 + 1)  # 3 * 2^2 * C(4, <=4)
    rng = seeded_rng(7, "interp-random")
    res = interpolation_experiment(4, 1, k, 100, rng)
    assert res.success_fraction >= Fraction(99, 100)


def test_interpolation_refuses_a_huge_sample_before_drawing():
    rng = seeded_rng(0, "x")
    state = rng.bit_generator.state
    members = enumerate_class(3, 2)  # F(min(2s, n), n) at s = 1
    k = INTERPOLATION_MAX_BYTES // members + 1
    with pytest.raises(ValueError, match=f"projects {members} members onto {k * members} bytes "
                                         "per trial, over the 268435456 limit") as e:
        interpolation_experiment(3, 1, k, 1, rng)
    assert "\n" not in str(e.value)
    assert rng.bit_generator.state == state


def test_interpolation_refuses_too_many_trials_before_drawing():
    rng = seeded_rng(0, "x")
    state = rng.bit_generator.state
    members = enumerate_class(3, 2)
    trials = INTERPOLATION_MAX_WORK // (4 * (members + INTERPOLATION_SAMPLE_BYTES)) + 1
    with pytest.raises(ValueError, match=f"{trials} interpolation trials project {trials * 4 * members} bytes"):
        interpolation_experiment(3, 1, 4, trials, rng)
    assert rng.bit_generator.state == state


def test_interpolation_distinct_rows_match_the_row_unique():
    # each member's projection is compared as one opaque row; unique(axis=0) is the reference
    tables = all_tables(4)
    small = tables[per_function_sensitivity(tables, 4) <= 1]
    rng = np.random.default_rng(5)
    outcomes = set()
    for k in (1, 2, 3, 4, 6, 9, 40):
        sample = rng.integers(0, 16, size=k)
        expect = len(np.unique(small[:, sample], axis=0)) == len(small)
        res = interpolation_experiment(4, 1, k, 1, FixedSample(sample))
        assert res.interpolation_successes == expect
        outcomes.add(expect)
    assert outcomes == {False, True}


def test_interpolation_default_size_limit():
    assert interpolation_sample_size(1, 13) == 3 * 4**13 * 2
    for s in (14, 10**12):
        with pytest.raises(ValueError, match=f"default sample size at s={s} passes"):
            interpolation_sample_size(1, s)


def test_interpolation_guard():
    with pytest.raises(ValueError):
        interpolation_experiment(5, 1, 4, 1, seeded_rng(0, "x"))
    for n, s, trials in ((0, 0, 1), (3, -1, 1), (3, 1, 0), (3, 1, -1)):
        with pytest.raises(ValueError, match="interpolation"):
            interpolation_experiment(n, s, 4, trials, seeded_rng(0, "x"))
