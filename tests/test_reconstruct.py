import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from senslab.core import (
    BallAdvice,
    Point,
    TruthTable,
    ball_indices,
    degree,
    degree_f2,
    restrict_to_ball,
    seeded_rng,
    sensitivity,
)
from senslab.families import and_fn, constant, dictator, or_fn, parity, random_dt, tribes
from senslab.reconstruct import (
    f2_extend,
    f2_extend_batch,
    majority_extend,
    majority_extend_batch,
    parity_extend,
    parity_extend_batch,
    r_bruteforce_batch,
    r_maj,
    r_maj_bruteforce,
    r_par,
    r_par_bruteforce,
    sphere_extend,
)

small_tables = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.binary(min_size=1 << n, max_size=1 << n).map(
        lambda raw: TruthTable(n, np.frombuffer(raw, dtype=np.uint8) % 2)
    )
)


# ---------------------------------------------------------------------------
# majority rule

def test_majority_recovers_tribes():
    f = tribes(2, 6)
    s = sensitivity(f).s
    out = majority_extend(restrict_to_ball(f, Point(6, 9), min(2 * s, 6)))
    assert out.ok and out.value == f


@given(small_tables, st.data())
@settings(max_examples=40)
def test_majority_recovers_from_double_radius(f, data):
    center = Point(f.n, data.draw(st.integers(min_value=0, max_value=(1 << f.n) - 1)))
    r = min(2 * sensitivity(f).s, f.n)
    out = majority_extend(restrict_to_ball(f, center, r))
    assert out.ok and out.value == f


def test_majority_fails_below_radius():
    # OR needs to see the lone zero: advice around 1^n at radius n-1 misses it
    f = or_fn(4)
    out = majority_extend(restrict_to_ball(f, Point(4, 15), 3))
    assert out.ok and out.value != f  # extends, but to the wrong function


def test_majority_tie_reported():
    adv = BallAdvice(Point(2, 0), 1, {0: 0, 1: 0, 2: 1})
    out = majority_extend(adv)
    assert not out.ok
    assert out.reason == "tie"
    assert out.failed_point == Point(2, 3)


def _reference_majority(vals: list[int], n: int, center: int, r: int) -> int | None:
    """The majority rule in plain Python: fill vals beyond distance r from
    center in place, point by point in (distance, index) order, and stop at
    the first tie, which is returned (None when there is none)."""
    for k in range(r + 1, n + 1):
        for idx in range(1 << n):
            diff = idx ^ center
            if diff.bit_count() != k:
                continue
            ones = sum(vals[idx ^ (1 << i)] for i in range(n) if (diff >> i) & 1)
            if 2 * ones == k:
                return idx
            vals[idx] = int(2 * ones > k)
    return None


def test_majority_batch_matches_scalar():
    # random tables, not low-sensitivity ones, so that ties occur at many
    # distances; every radius, every row of a multi-row batch
    rng = seeded_rng(8, "majority-reference")
    for n in range(1, 9):
        tables = rng.integers(0, 2, size=(5, 1 << n), dtype=np.uint8)
        for center in rng.choice(1 << n, size=min(3, 1 << n), replace=False).tolist():
            anti = center ^ ((1 << n) - 1)
            for r in range(n + 1):
                ext, tie = majority_extend_batch(n, center, r, tables)
                assert tie.dtype == np.int64
                for row, values in enumerate(tables):
                    f = TruthTable(n, values)
                    vals = values.tolist()
                    first = _reference_majority(vals, n, center, r)
                    assert tie[row] == (-1 if first is None else first)
                    out = majority_extend(restrict_to_ball(f, Point(n, center), r))
                    if first is None:
                        assert ext[row].tolist() == vals
                        assert out.ok and out.value.values.tolist() == vals
                    else:
                        assert (out.reason, out.failed_point) == ("tie", Point(n, first))
                    if r % 2 or 2 * r > n:
                        continue
                    # the sphere rule: outward from S(center, r), then from the antipode
                    sphere = {i: int(values[i]) for i in range(1 << n)
                              if (i ^ center).bit_count() == r}
                    out = sphere_extend(n, Point(n, center), r // 2, sphere)
                    vals = values.tolist()
                    first = _reference_majority(vals, n, center, r)
                    if first is None:
                        first = _reference_majority(vals, n, anti, r)
                    if first is None:
                        assert out.ok and out.value.values.tolist() == vals
                    else:
                        assert (out.reason, out.failed_point) == ("tie", Point(n, first))


# ---------------------------------------------------------------------------
# parity rule

def test_parity_rule_and2_example():
    # values on B(00, 1) of AND_2; the rule extends to x1 + x2 at 11 -> 2 -> not Boolean
    adv = BallAdvice(Point(2, 0), 1, {0: 0, 1: 1, 2: 1})
    ext = parity_extend(adv)
    assert ext.values.tolist() == [0, 1, 1, 2]
    assert not ext.is_boolean()


def test_parity_recovers_low_degree():
    f = parity(5, support=frozenset({1, 4}))
    adv = restrict_to_ball(f, Point(5, 7), degree(f))
    ext = parity_extend(adv)
    assert ext.is_boolean() and ext.as_truth_table() == f


@given(small_tables, st.data())
@settings(max_examples=25)
def test_parity_extension_degree_at_most_radius(f, data):
    # random ball labelings, not restrictions: the extension is the unique
    # degree-<=r interpolant of the advice
    center = data.draw(st.integers(min_value=0, max_value=(1 << f.n) - 1))
    r = data.draw(st.integers(min_value=0, max_value=f.n))
    vals = {i: int(f.values[i]) for i in ball_indices(f.n, center, r)}
    ext = parity_extend(BallAdvice(Point(f.n, center), r, vals))
    if ext.is_boolean():
        assert degree(ext.as_truth_table()) <= max(r, 0)


@given(small_tables, st.data())
@settings(max_examples=40)
def test_parity_batch_matches_scalar(f, data):
    center = data.draw(st.integers(min_value=0, max_value=(1 << f.n) - 1))
    r = data.draw(st.integers(min_value=0, max_value=f.n))
    g = f.complement()
    tables = np.stack([f.values, g.values])
    par = parity_extend_batch(f.n, center, r, tables)
    f2 = f2_extend_batch(f.n, center, r, tables)
    assert par.dtype == np.int64 and f2.dtype == np.uint8
    for row, h in enumerate((f, g)):
        advice = restrict_to_ball(h, Point(f.n, center), r)
        assert (par[row] == parity_extend(advice).values).all()
        assert (f2[row] == f2_extend(advice).values).all()
    if r >= degree(f):
        assert (par[0] == f.values).all()
    if r >= degree_f2(f):
        assert (f2[0] == f.values).all()


def test_f2_recovers_at_f2_degree():
    f = tribes(2, 6)
    r = degree_f2(f)
    assert f2_extend(restrict_to_ball(f, Point(6, 21), r)) == f
    batch = f2_extend_batch(6, 21, r, f.values[None, :])
    assert (batch[0] == f.values).all()


# ---------------------------------------------------------------------------
# sphere rule

def _sphere_values(f, center, r):
    from senslab.core import sphere_points

    return {y.index: f(y) for y in sphere_points(center, r)}


def test_sphere_extend_low_sensitivity():
    f = dictator(9, 4)  # s = 1 <= 9/4
    center = Point(9, 3)
    out = sphere_extend(9, center, 1, _sphere_values(f, center, 2))
    assert out.ok and out.value == f


def test_sphere_extend_outward_tie_reported():
    # weight-3 points 7 and 13 take 1 and points 11 and 14 take 0, so 1111 ties
    values = {3: 1, 5: 1, 6: 0, 9: 0, 10: 0, 12: 1}
    out = sphere_extend(4, Point(4, 0), 1, values)
    assert not out.ok
    assert out.reason == "tie"
    assert out.failed_point == Point(4, 15)


def test_sphere_extend_antipode_tie_reported():
    # the outward pass from S(0, 4) has no tie; the pass around the antipode
    # 11111111 then ties first at 11000000, at distance 6 from it
    values = seeded_rng(1090, "antipode-tie").integers(0, 2, size=256).tolist()
    sphere = {i: values[i] for i in range(256) if i.bit_count() == 4}
    assert _reference_majority(values, 8, 0, 4) is None
    assert _reference_majority(values, 8, 255, 4) == 3
    out = sphere_extend(8, Point(8, 0), 2, sphere)
    assert (out.reason, out.failed_point) == ("tie", Point(8, 3))


def test_sphere_extend_out_of_range():
    f = parity(4)  # s = 4 > 4/4
    out = sphere_extend(4, Point(4, 0), 4, {})
    assert not out.ok and out.reason == "out-of-range"


def test_sphere_extend_domain_checked():
    with pytest.raises(ValueError):
        sphere_extend(9, Point(9, 0), 1, {0: 1})
    with pytest.raises(ValueError, match="s must be >= 0"):
        sphere_extend(8, Point(8, 0), -1, {})


# ---------------------------------------------------------------------------
# critical radii

def test_radius_known_values():
    assert r_maj(constant(4, 0)) == 0
    assert r_maj(dictator(4)) == 2
    assert r_maj(parity(3)) == 3  # min(2*3, 3)
    assert r_par(parity(6)) == 6
    assert r_par(dictator(6, 5)) == 1
    assert r_par(constant(5, 1)) == 0


@given(small_tables)
@settings(max_examples=15, deadline=None)
def test_bruteforce_radii_match_formulas(f):
    assert r_maj_bruteforce(f) == r_maj(f)
    assert r_bruteforce_batch(f.n, f.values[None, :], "maj")[0] == r_maj(f)
    assert r_par_bruteforce(f) == r_par(f)
    assert r_par_bruteforce(f, all_centers=False) == r_par(f)


@pytest.mark.parametrize("rule", ["maj", "par"])
def test_bruteforce_batch_rows_are_independent(rule):
    n = 6
    rng = seeded_rng(61, "radius-batch")
    low = [constant(n, 1), dictator(n, 3), and_fn(n), or_fn(n), tribes(2, n)]
    high = [parity(n)] + [TruthTable(n, rng.integers(0, 2, size=1 << n, dtype=np.uint8))
                          for _ in range(4)]
    rows = np.array([f.values for f in low + high])
    rows = rows[rng.permutation(np.r_[np.arange(len(rows)), [0, 5, 6]])]  # with duplicates
    for centers in (None, sorted(rng.choice(1 << n, size=7, replace=False).tolist())):
        batch = r_bruteforce_batch(n, rows, rule, centers)
        single = [int(r_bruteforce_batch(n, row[None, :], rule, centers)[0]) for row in rows]
        assert batch.dtype == np.int64
        assert batch.tolist() == single
        assert len(set(single)) > 2
    empty = r_bruteforce_batch(n, np.zeros((0, 1 << n), dtype=np.uint8), rule)
    assert empty.dtype == np.int64 and empty.shape == (0,)


def test_maj_radius_quadratic_in_par_radius():
    for f in (dictator(6), tribes(2, 6), parity(4), and_fn(5)):
        assert r_maj(f) <= 8 * max(r_par(f), 1) ** 2
