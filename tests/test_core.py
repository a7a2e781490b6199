import ast
import re
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
import hypothesis.strategies as st

from senslab import cli, core, noise, reconstruct, verify
from senslab.core import (
    BallAdvice,
    IntegerFunction,
    _mobius_int,
    _sensitivity_counts,
    _zeta_f2,
    _zeta_int,
    Point,
    TruthTable,
    all_neighbors,
    ball_indices,
    ball_points,
    bias,
    check_bias_bound,
    check_n,
    degree,
    degree_f2,
    distances,
    is_subcube,
    lower_shadow,
    mobius_coefficients,
    mobius_coefficients_f2,
    point,
    pointwise_sensitivity,
    profile,
    relevant_variables,
    restrict_to_ball,
    seeded_rng,
    sensitivity,
    sensitivity_at,
    set_bit_positions,
    sphere_points,
    zeta_transform,
)
from senslab.counting import all_tables
from senslab.families import (
    and_fn, constant, dictator, majority, or_fn, parity, random_dt, random_function,
)
from senslab.noise import walsh_hadamard
from senslab.reconstruct import parity_extend_batch

bitstrings = st.text(alphabet="01", min_size=1, max_size=10)
tables = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.binary(min_size=1 << n, max_size=1 << n).map(
        lambda raw: TruthTable(n, np.frombuffer(raw, dtype=np.uint8) % 2)
    )
)


# ---------------------------------------------------------------------------
# points and encodings

def test_bit_convention():
    # coordinate 1 is the leftmost character and the lowest-order bit
    assert Point.from_bits("110") == Point(3, 3)
    assert Point.from_bits("001") == Point(3, 4)
    assert Point(3, 3).bits() == "110"
    assert Point(4, 1).bits() == "1000"


@given(bitstrings)
def test_bits_roundtrip(b):
    assert Point.from_bits(b).bits() == b


def test_point_validation():
    with pytest.raises(ValueError):
        point(3, 8)
    with pytest.raises(ValueError):
        point(3, -1)


@pytest.mark.parametrize("bits", ["", "0" * 40])
def test_point_from_bits_checks_n(bits):
    with pytest.raises(ValueError, match="outside supported range"):
        Point.from_bits(bits)


def test_neighbor_enumerations():
    x = Point(3, 7)  # 111
    assert {y.index for y in all_neighbors(x)} == {3, 5, 6}
    assert {y.index for y in lower_shadow(x, 1)} == {3, 5, 6}
    assert {y.index for y in lower_shadow(x, 3)} == {0}
    with pytest.raises(ValueError):
        lower_shadow(Point(3, 1), 2)


def test_ball_and_sphere_sizes():
    assert ball_indices(5, 0, 0) == [0]
    assert len(ball_indices(5, 0, 2)) == 1 + 5 + 10
    assert ball_indices(4, 3, 1) == sorted([3, 2, 1, 7, 11])
    assert len(sphere_points(Point(4, 0), 2)) == 6
    assert [p.index for p in ball_points(Point(3, 0), 3)] == list(range(8))


def _reference_sphere(n, center, r):
    # the enumeration by coordinate subsets, kept as the reference
    return sorted(center ^ sum(1 << p for p in pos) for pos in combinations(range(n), r))


@pytest.mark.parametrize("n", range(1, 7))
def test_ball_and_sphere_match_subset_enumeration(n):
    for center in range(1 << n):
        ball = []
        for r in range(n + 1):
            sphere = _reference_sphere(n, center, r)
            ball = sorted(ball + sphere)
            assert [p.index for p in sphere_points(Point(n, center), r)] == sphere
            assert ball_indices(n, center, r) == ball
            assert all(type(i) is int for i in ball)


def test_distances_match_popcount_at_large_n():
    for n, center in ((1, 1), (7, 0b1010101), (24, 0xABCDEF), (24, (1 << 24) - 1)):
        dist = distances(n, center)
        assert dist.dtype == np.uint8 and dist.shape == (1 << n,)
        probe = np.random.default_rng(n).integers(0, 1 << n, size=1000)
        assert dist[probe].tolist() == [(int(i) ^ center).bit_count() for i in probe]
    with pytest.raises(ValueError, match="out of range"):
        distances(4, 16)


def test_set_bit_positions():
    table = set_bit_positions(np.array([0, 1, 6, 0b101001], dtype=np.int64), 6, 3)
    assert table.dtype == np.uint8
    assert table.tolist() == [[255, 255, 255], [0, 255, 255], [1, 2, 255], [0, 3, 5]]


# ---------------------------------------------------------------------------
# truth tables

def test_truth_table_basics():
    f = TruthTable.from_bits(2, "0111")  # OR on 2 variables
    assert f == or_fn(2)
    assert f(Point(2, 0)) == 0 and f(3) == 1
    assert f.bits_string() == "0111"
    assert f.count_ones() == 3
    assert f.complement().bits_string() == "1000"
    assert (f ^ f).count_ones() == 0
    g = TruthTable.from_indices(2, [1, 2, 3])
    assert g == f
    h = TruthTable.from_callable(2, lambda bits: int(any(bits)))
    assert h == f


@pytest.mark.parametrize("bad", [-1, 3.7, True, 4, None], ids=repr)
def test_from_indices_refuses_bad_members(bad):
    with pytest.raises(ValueError, match="member"):
        TruthTable.from_indices(2, [0, bad])


@pytest.mark.parametrize("bad", [np.array([0, -1]), np.array([4], dtype=np.uint64), np.array([0, 3.7]),
                                 np.array([True])], ids=["negative", "uint64-past-end", "float", "bool"])
def test_from_indices_refuses_bad_arrays(bad):
    # an integer array is checked in numpy; any other dtype takes the member path
    with pytest.raises(ValueError, match="member"):
        TruthTable.from_indices(2, bad)


def test_from_indices_accepts_integer_arrays():
    for ones in (np.array([5, 1, 1], dtype=np.int32), np.array([1, 5], dtype=np.uint8), np.empty(0, dtype=int)):
        assert TruthTable.from_indices(3, ones) == TruthTable.from_indices(3, ones.tolist())


def test_from_indices_accepts_iterators_and_points():
    f = TruthTable.from_indices(3, iter([Point(3, 5), 1, np.int32(1)]))
    assert f.values.tolist() == [0, 1, 0, 0, 0, 1, 0, 0]
    assert TruthTable.from_indices(3, []).count_ones() == 0


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(2, np.zeros(3, dtype=np.uint8))
    with pytest.raises(ValueError):
        TruthTable.from_bits(2, "0121")


@pytest.mark.parametrize("values", [[256, 1], [0.7, 1.0], [-1, 0], [2, 1], [float("nan"), 1]])
def test_truth_table_rejects_non_bits(values):
    # a uint8 cast would turn 256 and 0.7 into valid-looking bits
    with pytest.raises(ValueError, match="0/1"):
        TruthTable(1, values)


def test_truth_table_accepts_bits_of_any_type():
    for values in ([False, True], [0, 1], np.array([0, 1], dtype=np.int64), [0.0, 1.0]):
        f = TruthTable(1, values)
        assert f.values.dtype == np.uint8 and f.bits_string() == "01"


@pytest.mark.parametrize(
    "values", [[0.5, 1, 2, 3], [2**70, 1, 2, 3], [2**63, 0, 0, 0], ["0", "1", "2", "3"]]
)
def test_integer_function_rejects_before_cast(values):
    # an int64 cast would truncate 0.5 and overflow on 2**70
    with pytest.raises(ValueError, match="integers in the int64 range"):
        IntegerFunction(2, values)


def test_integer_function_accepts_ints_and_bools():
    for values in ([0, -1, 2, 3], [True, False, True, True], np.arange(4, dtype=np.uint64)):
        c = IntegerFunction(2, values)
        assert c.values.dtype == np.int64 and c.values.tolist() == [int(v) for v in values]


# ---------------------------------------------------------------------------
# sensitivity

def test_sensitivity_known_values():
    assert sensitivity(parity(4)) == (4, 4, 4)
    assert sensitivity(dictator(5)) == (1, 1, 1)
    assert sensitivity(constant(3, 0)) == (0, 0, 0)
    assert sensitivity(and_fn(3)) == (3, 1, 3)
    assert sensitivity(or_fn(3)) == (3, 3, 1)
    assert sensitivity(majority(3)) == (2, 2, 2)


def test_sensitivity_at_corners():
    f = or_fn(4)
    assert sensitivity_at(f, Point(4, 0)) == 4
    assert sensitivity_at(f, Point(4, 1)) == 1
    assert sensitivity_at(f, Point(4, 15)) == 0


@given(tables)
def test_pointwise_matches_scalar(f):
    assert pointwise_sensitivity(f).flags.c_contiguous
    assert [int(v) for v in pointwise_sensitivity(f)] == [
        sensitivity_at(f, Point(f.n, i)) for i in range(1 << f.n)
    ]


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("batch", [(), (5,), (3, 2)])
def test_sensitivity_counts_match_gather_definition(n, batch):
    rng = seeded_rng(n, "swar", len(batch))
    values = rng.integers(0, 2, size=batch + (1 << n,), dtype=np.uint8)
    idx = np.arange(1 << n)
    expected = sum(
        (values != values[..., idx ^ (1 << i)]).astype(np.uint8) for i in range(n)
    )
    counts = _sensitivity_counts(values, n)
    assert counts.dtype == np.uint8 and counts.shape == values.shape
    assert counts.flags.c_contiguous
    assert np.array_equal(counts, expected)


# ---------------------------------------------------------------------------
# multilinear coefficients

def test_mobius_majority3():
    # maj(x1,x2,x3) = x1x2 + x1x3 + x2x3 - 2 x1x2x3
    c = mobius_coefficients(majority(3))
    assert {i: int(v) for i, v in enumerate(c.values) if v} == {3: 1, 5: 1, 6: 1, 7: -2}


@given(tables)
def test_zeta_inverts_mobius(f):
    c = mobius_coefficients(f)
    assert zeta_transform(c) == f


def evaluate_multilinear(c: IntegerFunction, x: Point) -> int:
    """Reference: the sum of c_S over S contained in the support of x."""
    total = 0
    for mask, coeff in enumerate(c.values):
        if coeff and (mask & x.index) == mask:
            total += int(coeff)
    return total


@given(tables)
@settings(max_examples=30)
def test_multilinear_evaluation(f):
    c = mobius_coefficients(f)
    assert all(evaluate_multilinear(c, Point(f.n, i)) == f(i) for i in range(1 << f.n))


@pytest.mark.parametrize("bound,dtype", [
    (0, np.int8), (2**7 - 1, np.int8), (2**7, np.int16), (2**15 - 1, np.int16), (2**15, np.int32),
    (2**31 - 1, np.int32), (2**31, np.int64), (2**63 - 1, np.int64), (2**63, object), (2**70, object),
])
def test_exact_int_is_the_narrowest_exact_dtype(bound, dtype):
    assert core._exact_int(bound) == np.dtype(dtype)


def _parity_coefficients(n, flip):
    # parity = sum over nonempty S of (-2)^(|S|-1) x^S; its complement negates them and adds 1
    c = [0 if S == 0 else (-2) ** (S.bit_count() - 1) for S in range(1 << n)]
    return [1 - v if S == 0 else -v for S, v in enumerate(c)] if flip else c


@pytest.mark.parametrize("n,dtype", [(7, np.int8), (8, np.int16), (15, np.int16), (16, np.int32)])
def test_mobius_and_degree_exact_where_the_dtype_switches(n, dtype):
    # |c| = 2^(n-1) at the top set: -2^(n-1) for parity, +2^(n-1) for its complement
    assert core._exact_int(1 << (n - 1)) == dtype
    for flip in (False, True):
        f = parity(n).complement() if flip else parity(n)
        c = mobius_coefficients(f)
        assert c.values.dtype == np.int64 and c.values.tolist() == _parity_coefficients(n, flip)
        assert degree(f) == n and core._degrees(np.stack([f.values] * 2), n).tolist() == [n, n]


@pytest.mark.parametrize("n", [3, 4, 7, 8, 15, 16])
def test_zeta_exact_where_the_dtype_switches(n):
    # max|c| = 2^(n-1), so the bound 2^(2n-1) takes int8 to n = 3, int16 to 7, int32 to 15
    for flip in (False, True):
        f = parity(n).complement() if flip else parity(n)
        back = zeta_transform(IntegerFunction(n, _parity_coefficients(n, flip)))
        assert back.values.dtype == np.int64 and back == f


def test_zeta_past_int64_is_exact_or_refused():
    # 2 * 2^62 passes int64, so the butterfly runs in Python ints
    assert zeta_transform(IntegerFunction(1, [2**62, -(2**62)])).values.tolist() == [2**62, 0]
    with pytest.raises(ValueError, match="int64 range"):
        zeta_transform(IntegerFunction(1, [2**62, 2**62]))  # 2^63 would wrap to -2^63


def test_degree_known_values():
    assert degree(parity(5)) == 5
    assert degree(dictator(4, 2)) == 1
    assert degree(constant(3, 1)) == 0
    assert degree(majority(3)) == 3
    assert degree_f2(majority(3)) == 2
    assert degree_f2(parity(5)) == 1
    assert degree_f2(and_fn(4)) == 4


def test_f2_degree_at_most_degree_exhaustive():
    for m in range(1 << 8):
        f = TruthTable(3, np.array([(m >> i) & 1 for i in range(8)], dtype=np.uint8))
        assert degree_f2(f) <= degree(f)


@pytest.mark.parametrize("n", [12, 18, 20])
def test_degrees_pinned_at_large_n(n):
    # (deg, deg over F2), recorded on the per-function coefficient scans that the
    # batched degree engine replaced
    pins = {
        "random": (random_function(n, 5), (n, 11 if n == 12 else n)),
        "random-dt": (random_dt(n, 7, seed=3), (7, 7)),
        "zero": (constant(n, 0), (0, 0)),
        "one": (constant(n, 1), (0, 0)),
        "parity": (parity(n), (n, 1)),
    }
    for name, (f, expected) in pins.items():
        assert (degree(f), degree_f2(f)) == expected, name


def _subset_sum_reference(rows, sign):
    """O(4^n) definition: out[S] = sum over T subset of S of sign^(|S|-|T|) v[T]."""
    size = rows.shape[1]
    out = np.zeros_like(rows)
    for s_mask in range(size):
        for t_mask in range(size):
            if t_mask & s_mask == t_mask:
                out[:, s_mask] += sign ** bin(s_mask ^ t_mask).count("1") * rows[:, t_mask]
    return out


@pytest.mark.parametrize("n", range(1, 6))
def test_butterfly_batches_match_definitions(n):
    rng = seeded_rng(7, "butterfly", n)
    ints = rng.integers(-5, 6, size=(3, 1 << n)).astype(np.int64)
    bits = rng.integers(0, 2, size=(3, 1 << n)).astype(np.uint8)
    assert (_mobius_int(ints.copy()) == _subset_sum_reference(ints, -1)).all()
    assert (_zeta_int(ints.copy()) == _subset_sum_reference(ints, 1)).all()
    assert (_zeta_f2(bits.copy()) == _subset_sum_reference(bits.astype(np.int64), 1) % 2).all()
    idx = np.arange(1 << n)
    signs = (-1.0) ** np.bitwise_count(idx[:, None] & idx[None, :])
    assert (walsh_hadamard(ints) == ints.astype(np.float64) @ signs).all()


# ---------------------------------------------------------------------------
# the butterfly's cache-blocked schedule against the plain stage loop

def _reference_butterfly(arr, op):
    """The plain schedule: stages h = 1, 2, 4, ... each over the whole array, run
    on a C-contiguous copy that is then written back, so any layout is transformed
    in place."""
    size = arr.shape[-1]
    x = np.ascontiguousarray(arr)
    h = 1
    while h < size:
        pairs = x.reshape(x.shape[:-1] + (size // (2 * h), 2, h))
        op(pairs[..., 0, :], pairs[..., 1, :], h)
        h <<= 1
    arr[...] = x
    return arr


def _bitwise(out):
    """Bytes that differ whenever any output bit differs (floats as uint64 words)."""
    out = np.asarray(out)
    if out.dtype == object:
        return repr((out.shape, out.tolist()))
    if out.dtype.kind == "f":
        out = out.view(np.uint64)
    return out.dtype.str, out.shape, out.tobytes()


def _fractional(n, seed):
    """Non-integer float64 values, the same on every platform."""
    return (np.arange(1 << n, dtype=np.int64) * 2654435761 % 1000003 + seed) / 1000003.0 - 0.5


def _bits(shape, seed):
    return seeded_rng(seed, "schedule", *shape).integers(0, 2, size=shape).astype(np.uint8)


# Every case but the one-block one takes the blocked path at the library's BLOCK_BYTES.
# distance_census is capped at n = 13, which fits in one block, so its two-sided step
# is covered with small blocks below.
FLOAT_COLUMNS = core.BLOCK_BYTES // 8  # one block of a 1-D float64 or int64 table
SCHEDULE_CASES = {
    "wht-17": lambda: walsh_hadamard(_fractional(17, 1)),
    "wht-18": lambda: walsh_hadamard(_fractional(18, 2)),
    "wht-one-block": lambda: walsh_hadamard(_fractional(FLOAT_COLUMNS.bit_length() - 1, 3)),
    "wht-one-block-plus-a-bit": lambda: walsh_hadamard(_fractional(FLOAT_COLUMNS.bit_length(), 4)),
    "noise-operator-18": lambda: noise.noise_operator(random_function(18, 5), Fraction(3, 7)).values,
    "mobius-64x4096": lambda: _mobius_int(_bits((64, 1 << 12), 6).astype(np.int64)),
    "zeta-64x4096": lambda: _zeta_int(_bits((64, 1 << 12), 7).astype(np.int64)),
    "f2-2x3x131072": lambda: _zeta_f2(_bits((2, 3, 1 << 17), 8)),
    "sensitivity-2x3x65536": lambda: _sensitivity_counts(_bits((2, 3, 1 << 16), 9), 16),
    "codistance-16": lambda: noise._codistance_rows(_bits((1 << 16,), 10), 16, noise._one_sided_step),
    "downward-16": lambda: noise.downward_mismatch_table(random_function(16, 11)),
    "noise-int64-18": lambda: noise._noise_numerators(_bits((1 << 18,), 12), 18, Fraction(1, 3)),
    "noise-object-17": lambda: noise._noise_numerators(_bits((1 << 17,), 13), 17, Fraction(1, 20)),
}
ONE_BLOCK_CASES = {"wht-one-block"}
# Batches of at least TALL_ROWS rows, laid out point-major by _batch_array.
POINT_MAJOR_CASES = {
    "point-major-mobius-64x1024": lambda: _mobius_int(
        core._batch_array(_bits((64, 1 << 10), 20), np.int64)),
    "point-major-zeta-101x1024": lambda: _zeta_int(
        core._batch_array(_bits((101, 1 << 10), 21), np.int64)),
    "point-major-f2-64x4096": lambda: _zeta_f2(core._batch_array(_bits((64, 1 << 12), 22), np.uint8)),
    "point-major-census-degree-4": lambda: _mobius_int(core._batch_array(all_tables(4), np.int32)),
    "point-major-parity-extension-101x256": lambda: parity_extend_batch(
        8, 0b10110101, 3, _bits((101, 1 << 8), 23)),
}


def _schedule(x, tail):
    """The schedule that ran a _stages call: the blocked schedule's low stages run
    on its own transposed buffer, the point-major schedule on a view of the input."""
    if not tail:
        return "plain"
    return "blocked" if x.flags.owndata else "point-major"


def _run_both_schedules(monkeypatch, make):
    """make()'s output on the library's schedule, the set of schedules its _stages
    calls ran, and its output with the plain reference loop in place of the butterfly."""
    ran = set()
    stages = core._stages

    def recording(x, op, h, stop, tail):
        ran.add(_schedule(x, tail))
        stages(x, op, h, stop, tail)

    with monkeypatch.context() as m:
        m.setattr(core, "_stages", recording)
        out = make()
    with monkeypatch.context() as m:
        for module in (core, noise, reconstruct):
            m.setattr(module, "_butterfly", _reference_butterfly)
        ref = make()
    return out, ran, ref


@pytest.mark.parametrize("case", sorted(SCHEDULE_CASES | POINT_MAJOR_CASES))
def test_blocked_schedule_is_bit_identical(monkeypatch, case):
    out, ran, ref = _run_both_schedules(monkeypatch, (SCHEDULE_CASES | POINT_MAJOR_CASES)[case])
    assert ran == ({"point-major"} if case in POINT_MAJOR_CASES
                   else {"plain"} if case in ONE_BLOCK_CASES else {"plain", "blocked"})
    assert _bitwise(out) == _bitwise(ref)


SMALL_CASES = {
    "wht-10": lambda: walsh_hadamard(_fractional(10, 14)),
    "mobius-3x1024": lambda: _mobius_int(_bits((3, 1 << 10), 15).astype(np.int64)),
    "sensitivity-2x1024": lambda: _sensitivity_counts(_bits((2, 1 << 10), 16), 10),
    "census-10": lambda: noise.distance_census(_bits((1 << 10,), 17), 10),
    "noise-object-10": lambda: noise._noise_numerators(_bits((1 << 10,), 18), 10, Fraction(2, 9)),
    # q^n = 80^10 passes int64, so this step runs on Python ints
    "noise-python-int-10": lambda: noise._noise_numerators(_bits((1 << 10,), 24), 10, Fraction(1, 80)),
}


@pytest.mark.parametrize("block_bytes", [32, 64, 96, 256, 1024])
@pytest.mark.parametrize("case", sorted(SMALL_CASES))
def test_small_blocks_are_bit_identical(monkeypatch, block_bytes, case):
    # tiny blocks reach the edge cases: 4-column blocks, odd bit counts, many blocks
    monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(core, "MIN_BLOCK_COLUMNS", 4)
    out, ran, ref = _run_both_schedules(monkeypatch, SMALL_CASES[case])
    assert "blocked" in ran or block_bytes < 1024
    assert _bitwise(out) == _bitwise(ref)
    if case == "noise-python-int-10":
        assert core._exact_int(80**10) == object and out.dtype == object


def test_narrow_blocks_take_the_plain_loop(monkeypatch):
    # a tall batch whose block would be under MIN_BLOCK_COLUMNS wide (a shape that
    # criterion 3's parity-radius scan transforms) runs the plain loop
    tables = _bits((12648, 16), 19).astype(np.int64)
    assert core.BLOCK_BYTES * 16 // tables.nbytes < core.MIN_BLOCK_COLUMNS
    out, ran, ref = _run_both_schedules(monkeypatch, lambda: _zeta_int(tables.copy()))
    assert ran == {"plain"}
    assert _bitwise(out) == _bitwise(ref)


def test_butterfly_on_empty_batches():
    # an empty batch has no bytes per column; it takes the plain path
    assert _mobius_int(np.zeros((0, 1 << 17), dtype=np.int64)).shape == (0, 1 << 17)
    assert _zeta_f2(np.zeros((3, 0, 1 << 20), dtype=np.uint8)).shape == (3, 0, 1 << 20)


def test_butterfly_refuses_other_layouts():
    # only C-contiguous arrays and point-major 2-D batches have a schedule
    with pytest.raises(ValueError, match="point-major"):
        _mobius_int(np.zeros((2, 3, 16), dtype=np.int64, order="F"))
    with pytest.raises(ValueError, match="point-major"):
        _zeta_f2(np.zeros((4, 32), dtype=np.uint8)[:, ::2])


def test_mobius_f2_agrees_mod2():
    f = majority(3)
    ints = mobius_coefficients(f).values % 2
    assert (mobius_coefficients_f2(f).values == ints.astype(np.uint8)).all()


# ---------------------------------------------------------------------------
# bias and subcubes

def test_is_subcube():
    assert is_subcube(3, [0, 1])          # x2 = x3 = 0
    assert is_subcube(3, range(8))
    assert is_subcube(3, [5])
    assert not is_subcube(3, [0, 3])
    assert not is_subcube(3, [])


def test_bias_bound_and():
    f = and_fn(4)
    assert bias(f)[1] == Fraction(1, 16)
    rep = check_bias_bound(f)
    assert rep.holds_1 and rep.tight_1 and rep.subcube_1
    assert rep.holds_0 and not rep.tight_0 and not rep.subcube_0


def test_bias_bound_parity_not_tight():
    rep = check_bias_bound(parity(4))
    assert rep.holds_0 and rep.holds_1
    assert not rep.tight_0 and not rep.tight_1


@given(tables)
def test_bias_bound_tight_iff_subcube(f):
    rep = check_bias_bound(f)
    assert rep.holds_0 and rep.holds_1
    assert rep.tight_0 == (rep.subcube_0 and f.count_ones() < (1 << f.n))
    assert rep.tight_1 == (rep.subcube_1 and f.count_ones() > 0)


def test_relevant_variables():
    assert relevant_variables(dictator(5, 3)) == {3}
    assert relevant_variables(constant(4, 0)) == frozenset()
    assert relevant_variables(parity(4)) == {1, 2, 3, 4}


# ---------------------------------------------------------------------------
# ball advice

def test_restrict_to_ball_or3():
    adv = restrict_to_ball(or_fn(3), Point(3, 0), 1)
    assert adv[Point(3, 0)] == 0
    assert adv[1] == adv[2] == adv[4] == 1
    assert 3 not in adv and -1 not in adv and 8 not in adv
    for outside in (3, -1, 8):
        with pytest.raises(KeyError):
            adv[outside]
    assert adv.values.tolist() == [0, 1, 1, 255, 1, 255, 255, 255]
    assert not adv.values.flags.writeable


def _or3_ball(*changes):
    table = np.array([0, 1, 1, 255, 1, 255, 255, 255], dtype=np.uint8)
    for i, v in changes:
        table[i] = v
    return table


_BAD_ADVICE = [
    (Point(3, 0), 1, _or3_ball((2, 255)), "point 2 inside the ball"),  # missing point
    (Point(3, 0), 1, _or3_ball((3, 1)), "point 3 outside the ball"),
    (Point(3, 0), 1, _or3_ball((0, 2)), "value 2 at point 0 inside"),  # not a bit
    (Point(3, 0), 1, _or3_ball((7, 0)), "outside the ball, expected 255"),
    (Point(3, 0), 1, _or3_ball()[:7], "expected a table of 8"),
    (Point(3, 0), 1, _or3_ball().astype(np.float64), "must be integers"),
    (Point(3, 0), 1, np.array([0, 1, 1, 511, 1, 255, 255, 255]), "outside the ball"),
    (Point(3, 0), 1, np.array([-256, 1, 1, 255, 1, 255, 255, 255]), "inside the ball"),
    (Point(3, 0), 0, {0: 0}, r"expected a table of 8 .* got \(\)"),  # the old dict format
    (Point(3, 9), 0, {9: 1}, "index 9 out of range for n=3"),
    (Point(3, 9), 0, _or3_ball(), "index 9 out of range"),
    (Point(3, -1), 0, _or3_ball(), "index -1 out of range"),
    (Point(30, 0), 0, {0: 1}, "outside supported range"),
    (Point(0, 0), 0, np.zeros(1, dtype=np.uint8), "outside supported range"),
    (Point(3, 0), 4, _or3_ball(), "radius 4 out of range"),
]


def test_ball_advice_validation():
    for center, radius, values, match in _BAD_ADVICE:
        with pytest.raises(ValueError, match=match) as info:
            BallAdvice(center, radius, values)
        assert len(str(info.value).splitlines()) == 1


def test_ball_advice_accepts_integer_tables_of_any_width():
    adv = BallAdvice(Point(3, 0), 1, _or3_ball().astype(np.int64))
    assert adv == restrict_to_ball(or_fn(3), Point(3, 0), 1)
    assert adv.values.dtype == np.uint8


def test_profile_majority():
    p = profile(majority(3))
    assert (p.s, p.deg, p.deg2) == (2, 3, 2)
    assert p.mu1 == Fraction(1, 2)
    assert p.relevant == {1, 2, 3}


# ---------------------------------------------------------------------------
# seeding and caps

def test_seeded_rng_deterministic():
    a = seeded_rng(7, "alpha").integers(0, 1 << 30, 5)
    b = seeded_rng(7, "alpha").integers(0, 1 << 30, 5)
    c = seeded_rng(7, "beta").integers(0, 1 << 30, 5)
    assert (a == b).all()
    assert (a != c).any()
    d = seeded_rng(7, "x", 3).integers(0, 1 << 30, 5)
    e = seeded_rng(7, "x", 4).integers(0, 1 << 30, 5)
    assert (d != e).any()


def test_check_n_caps_at_max_n(monkeypatch):
    monkeypatch.setenv("SENSLAB_MAX_N", "6")  # the cap is MAX_N whatever the environment says
    check_n(24)
    with pytest.raises(ValueError):
        check_n(25)


# ---------------------------------------------------------------------------
# module boundaries

def test_only_core_owns_the_batch_layout():
    # the butterfly's stage loop and the point-major threshold have one owner
    owned = {"_stages", "TALL_ROWS"}
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            assert not names & owned, f"{path.name}:{node.lineno} uses {sorted(names & owned)}"


_COUNTS = {"bitwise_count", "popcount", "bit_count"}


def _counted_expressions(tree):
    """The expressions whose set bits are counted: the argument of
    np.bitwise_count and popcount, the receiver of int.bit_count, and the index
    into weights_vector(n)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "bit_count" and isinstance(node.func, ast.Attribute):
                yield node, node.func.value
            elif name in _COUNTS and node.args:
                yield node, node.args[0]
        elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", None) == "weights_vector"):
            yield node, node.slice


def _is_low_mask(node):
    # (1 << q) - 1: the bits below q
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.LShift))


def _kinds(expr):
    """'distance' when the counted expression xors two values (wt(i ^ center)),
    'rank' when it masks the bits below a position (the set-bit-rank loop)."""
    kinds = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor):
            kinds.add("distance")
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
                and (_is_low_mask(node.left) or _is_low_mask(node.right))):
            kinds.add("rank")
    return kinds


def test_only_core_computes_distances_and_set_bit_ranks():
    found = {"distance": [], "rank": []}
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node, expr in _counted_expressions(ast.parse(path.read_text(), filename=str(path))):
            for kind in _kinds(expr):
                found[kind].append(f"{path.name}:{node.lineno}")
    # core.distances and core.set_bit_positions, once each
    assert [site.split(":")[0] for site in found["distance"]] == ["core.py"], found
    assert [site.split(":")[0] for site in found["rank"]] == ["core.py"], found


def _lowest_set_bit_sites(path):
    """path.name:def for each top-level definition of `path` that takes a lowest set
    bit as a & -a, once per occurrence."""
    for stmt in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
                    and isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub)
                    and ast.dump(node.left) == ast.dump(node.right.operand)):
                yield f"{path.name}:{getattr(stmt, 'name', node.lineno)}"


def test_only_core_walks_the_lowest_set_bits():
    sites = [site for path in sorted(Path(core.__file__).parent.glob("*.py"))
             for site in _lowest_set_bit_sites(path)]
    # core.lower_neighbors, and the sweep's sort key by lowest set bit
    assert sites == ["core.py:lower_neighbors", "evaluate.py:_shift_plan"], sites


def test_guard_sees_the_copies_it_forbids():
    copies = [
        "far = weights_vector(n)[np.arange(1 << n) ^ center] > radius",
        "d = popcount(idx ^ center.index)",
        "d = (i ^ c).bit_count()",
        "col = np.bitwise_count(diff[has] & ((1 << q) - 1))",
    ]
    kinds = [set().union(*(_kinds(e) for _, e in _counted_expressions(ast.parse(c))))
             for c in copies]
    assert kinds == [{"distance"}] * 3 + [{"rank"}]


_WORK_DTYPE_OWNERS = {"_low_degree_extend", "_noise_numerators"}
_WIDE_INTS = {"int32", "int64"}


def _wide_work_dtypes(source):
    """def:line for each np.int32/np.int64 (or "int32"/"int64") in a top-level def of
    `source` that runs _mobius_int or _zeta_int, or in _low_degree_extend or
    _noise_numerators: a work dtype chosen past core._exact_int."""
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.FunctionDef) or stmt.name == "_exact_int":
            continue
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(stmt) if isinstance(node, ast.Call)}
        if stmt.name in _WORK_DTYPE_OWNERS or called & {"_mobius_int", "_zeta_int"}:
            for node in ast.walk(stmt):
                literal = (node.attr if isinstance(node, ast.Attribute)
                           else node.value if isinstance(node, ast.Constant) else None)
                if literal in _WIDE_INTS:
                    yield f"{stmt.name}:{node.lineno}"


def test_only_exact_int_picks_the_integer_work_dtypes():
    sites = [f"{path.name}:{site}" for path in sorted(Path(core.__file__).parent.glob("*.py"))
             for site in _wide_work_dtypes(path.read_text())]
    assert sites == [], sites


def test_work_dtype_guard_sees_the_choices_it_forbids():
    copies = [
        "def mobius_coefficients(f):\n    return _mobius_int(f.values.astype(np.int64))",
        "def _degrees(t, n):\n    return _mobius_int(_batch_array(t, np.int32))",
        "def _low_degree_extend(t, mod2):\n    x = _batch_array(t, np.uint8 if mod2 else np.int64)",
        "def _noise_numerators(v, n, q):\n    a = np.array(v, dtype=np.int64 if q**n < 1 << 63 else object)",
        "def zeta(c):\n    wide = 'int64'\n    return _zeta_int(c.values.astype(wide))",
    ]
    assert [list(_wide_work_dtypes(c)) for c in copies] == [
        ["mobius_coefficients:2"], ["_degrees:2"], ["_low_degree_extend:2"], ["_noise_numerators:2"],
        ["zeta:2"]]
    # the widening at a public boundary is not a work dtype
    assert not list(_wide_work_dtypes("def parity_extend_batch(t):\n    return _low_degree_extend(t).astype(np.int64)"))


def _public_names_without_a_use(root):
    """Public top-level defs and classes of src/senslab that nothing but the tests
    uses: no Name or Attribute in src/ refers to them outside their own definition,
    and neither perfbench/ nor README names them.  An export from
    senslab/__init__.py is not a use."""
    package = root / "src" / "senslab"
    defined, used = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (path.name, stmt.name)
                if not stmt.name.startswith("_"):
                    defined.append(owner)
            for node in ast.walk(stmt):
                name = getattr(node, "id", None) if isinstance(node, ast.Name) else (
                    node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None:
                    used.add((name, owner))
    named = "\n".join(path.read_text() for path in sorted((root / "perfbench").rglob("*"))
                      if path.is_file() and path.suffix in {".py", ".json", ".md"})
    named += (root / "README.md").read_text()
    return [f"{file}:{name}" for file, name in defined
            if not any(n == name and owner != (file, name) for n, owner in used)
            and not re.search(rf"\b{re.escape(name)}\b", named)]


def test_every_public_definition_has_a_use_outside_the_tests():
    # a function only the tests call belongs in the tests, as a reference helper, or in
    # README, as API
    assert _public_names_without_a_use(Path(core.__file__).resolve().parents[2]) == []


def test_use_guard_flags_what_only_its_own_body_calls(tmp_path):
    package = tmp_path / "src" / "senslab"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "__init__.py").write_text("from .a import exported\n")
    (package / "a.py").write_text(
        "def exported():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
        "def recursive(k):\n    return recursive(k - 1)\n\n\ndef benched():\n    pass\n\n\n"
        "def documented():\n    pass\n\n\nclass Unused:\n    pass\n\n\ndef _private():\n    pass\n")
    (tmp_path / "perfbench" / "run.py").write_text("a.benched()\n")
    (tmp_path / "README.md").write_text("`documented` is a public helper\n")
    assert _public_names_without_a_use(tmp_path) == ["a.py:exported", "a.py:recursive", "a.py:Unused"]


def _unused_imports(paths):
    """Names bound by a module-level import that no Name in their module reads.
    `from __future__` and the imports of an __init__.py, its re-exports, are exempt."""
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(stmt, "module", "") != "__future__":
                unused += [f"{path.name}:{stmt.lineno} {bound}" for alias in stmt.names
                           if (bound := alias.asname or alias.name.split(".")[0]) not in read]
    return unused


def test_no_module_level_import_goes_unused():
    root = Path(core.__file__).resolve().parents[2]
    paths = sorted((root / "src" / "senslab").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert _unused_imports(paths) == []


def test_import_guard_flags_only_unread_names(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from math import comb, log\n\n\ndef exported(x: np.ndarray) -> int:\n"
        "    import sys\n    return comb(x, 2)\n")
    assert _unused_imports(sorted(tmp_path.glob("*.py"))) == ["a.py:2 os", "a.py:4 log"]


def test_cli_and_verify_use_only_public_noise_names():
    for module in (cli, verify):
        path = Path(module.__file__)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("noise"):
                names = {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "noise"):
                names = {node.attr}
            else:
                continue
            private = sorted(name for name in names if name.startswith("_"))
            assert not private, f"{path.name}:{node.lineno} uses noise.{private}"


def _verdict_breaches(source):
    """def:line what for each breach of the verdict layout in `source`: a CheckResult
    built outside run_criterion; and, in a battery that CRITERIA lists, a local
    `name`, a criterion name spelled out, or a return other than (True or False,
    detail)."""
    tree = ast.parse(source)
    names, batteries = set(), set()
    for stmt in tree.body:
        target = stmt.target if isinstance(stmt, ast.AnnAssign) else None
        if getattr(target, "id", None) == "CRITERIA":
            names = {entry.elts[0].value for entry in stmt.value.values}
            batteries = {entry.elts[1].id for entry in stmt.value.values}
    for stmt in tree.body:
        where = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult"
                    and where != "run_criterion"):
                yield f"{where}:{node.lineno} CheckResult"
            if where not in batteries:
                continue
            if isinstance(node, ast.Name) and node.id == "name" and isinstance(node.ctx, ast.Store):
                yield f"{where}:{node.lineno} name"
            if isinstance(node, ast.Constant) and node.value in names:
                yield f"{where}:{node.lineno} {node.value!r}"
            if isinstance(node, ast.Return) and not (
                    isinstance(node.value, ast.Tuple) and len(node.value.elts) == 2
                    and isinstance(node.value.elts[0], ast.Constant)
                    and type(node.value.elts[0].value) is bool):
                yield f"{where}:{node.lineno} return"


def test_batteries_return_verdicts_and_only_criteria_names_them():
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        assert list(_verdict_breaches(path.read_text())) == [], path.name
    assert verify.SUITES["all"] == sorted(verify.CRITERIA)
    assert all(set(suite) <= set(verify.CRITERIA) for suite in verify.SUITES.values())


def test_verdict_guard_flags_what_it_forbids():
    source = Path(verify.__file__).read_text()
    law = '    """Pr[parallel evaluation errs at x] <= 1/20 at every x, from the exact law."""\n'
    at = source[: source.index(law)].count("\n") + 2
    planted = source.replace(law, law + '    return CheckResult(6, "x", True, "")\n')
    assert list(_verdict_breaches(planted)) == [
        f"criterion_parallel_error:{at} return", f"criterion_parallel_error:{at} CheckResult"]
    copies = (
        "def criterion_a():\n    name = 'a-name'\n    if x:\n        return 1, 'd'\n"
        "    return False, name\n\n\n"
        "def criterion_b():\n    return CheckResult(2, 'b-name', True, 'd')\n\n\n"
        "def run_criterion(number):\n    return CheckResult(number, 'a-name', True, 'd')\n\n\n"
        "def helper():\n    name = 'a-name'\n    return name\n\n\n"
        "CRITERIA: dict = {1: ('a-name', criterion_a), 2: ('b-name', criterion_b)}\n")
    assert list(_verdict_breaches(copies)) == [
        "criterion_a:2 name", "criterion_a:2 'a-name'", "criterion_a:4 return",
        "criterion_b:9 return", "criterion_b:9 CheckResult", "criterion_b:9 'b-name'"]
