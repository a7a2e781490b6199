import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from senslab import core, reconstruct
from senslab.core import (
    TALL_ROWS,
    BallAdvice,
    IntegerFunction,
    Point,
    TruthTable,
    ball_indices,
    degree,
    distances,
    degree_f2,
    mobius_coefficients,
    mobius_coefficients_f2,
    restrict_to_ball,
    seeded_rng,
    sensitivity,
    weights_vector,
    zeta_transform,
)
from senslab.counting import all_tables
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
    adv = BallAdvice(Point(2, 0), 1, np.array([0, 0, 1, 255], dtype=np.uint8))
    out = majority_extend(adv)
    assert not out.ok
    assert out.reason == "tie"
    assert out.failed_point == Point(2, 3)


def _ball_rows(f, center, r):
    """f's table as a one-row batch, zeroed outside B(center, r)."""
    return np.where(distances(f.n, center) <= r, f.values, 0).astype(np.uint8)[None, :]


@pytest.mark.parametrize("n", [20, 22])
def test_majority_recovers_large_n_from_both_poles(n):
    f = random_dt(n, 2, seed=n)
    assert 0 < f.values.sum() < 1 << n
    center = 0b1011 << 3
    for c in (center, center ^ ((1 << n) - 1)):
        ext, tie = majority_extend_batch(n, c, 4, _ball_rows(f, c, 4))
        assert tie.tolist() == [-1]
        assert ext[0].tobytes() == f.values.tobytes()


def test_majority_batch_memory_is_a_few_sphere_vectors():
    # per sphere a few int64 index vectors, no (|S|, k) inward table: the
    # sphere-table engine peaked at ~250 MiB here
    n = 22
    f = random_dt(n, 2, seed=n)
    rows = _ball_rows(f, 88, 4)
    tracemalloc.start()
    try:
        ext, _ = majority_extend_batch(n, 88, 4, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ext[0].tobytes() == f.values.tobytes()
    assert peak < 64 * 2**20


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
    adv = BallAdvice(Point(2, 0), 1, np.array([0, 1, 1, 255], dtype=np.uint8))
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
    ball = ball_indices(f.n, center, r)
    table = np.full(1 << f.n, 255, dtype=np.uint8)
    table[ball] = f.values[ball]
    ext = parity_extend(BallAdvice(Point(f.n, center), r, table))
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


def _reference_low_degree(n, center, radius, row, mod2):
    # the rule spelled out on the public transforms: translate to center 0, zero
    # the coefficients above the radius, re-evaluate, translate back
    idx = np.arange(1 << n) ^ center
    high = weights_vector(n) > radius
    moved = TruthTable(n, np.where(high, 0, row[idx]))
    if mod2:
        coeffs = mobius_coefficients_f2(moved).values.copy()
        coeffs[high] = 0
        return mobius_coefficients_f2(TruthTable(n, coeffs)).values[idx]
    coeffs = mobius_coefficients(moved).values.copy()
    coeffs[high] = 0
    return zeta_transform(IntegerFunction(n, coeffs)).values[idx]


@given(st.integers(min_value=1, max_value=7), st.data())
@settings(max_examples=25, deadline=None)
def test_low_degree_paths_match_reference(n, data):
    rows = data.draw(st.sampled_from([1, 3, TALL_ROWS, TALL_ROWS + 37]))
    center = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    radius = data.draw(st.integers(min_value=0, max_value=n))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    tables = np.random.default_rng(seed).integers(0, 2, size=(rows, 1 << n), dtype=np.uint8)
    for extend, mod2 in ((parity_extend_batch, False), (f2_extend_batch, True)):
        out = extend(n, center, radius, tables)
        for row, ext in zip(tables, out):
            assert (ext == _reference_low_degree(n, center, radius, row, mod2)).all()


def _int64_low_degree(n, center, radius, rows):
    # the parity rule's two butterflies on an int64 copy, translated to center 0 and back
    idx = np.arange(1 << n) ^ center
    far = weights_vector(n) > radius
    x = np.where(far, 0, rows[:, idx]).astype(np.int64)
    core._mobius_int(x)
    x[:, far] = 0
    return core._zeta_int(x)[:, idx]


@pytest.mark.parametrize("n,dtype", [(4, np.int8), (5, np.int16), (9, np.int16), (10, np.int32),
                                     (19, np.int32), (20, np.int64)])
def test_parity_extension_exact_where_the_dtype_switches(n, dtype):
    # 0/1 rows take _exact_int(3^n); rows holding 255 outside the ball take _exact_int(255 3^n)
    rng = seeded_rng(n, "dtype-switch")
    rows = np.stack([np.ones(1 << n, dtype=np.uint8), parity(n).values, parity(n).complement().values,
                     rng.integers(0, 2, size=1 << n, dtype=np.uint8)])
    center, radius = int(rng.integers(1 << n)), n // 2
    ref = _int64_low_degree(n, center, radius, rows)
    held = np.where(distances(n, center) <= radius, rows, np.uint8(255))
    for tables, work in ((rows, dtype), (held, core._exact_int(255 * 3**n))):
        ext = reconstruct._low_degree_extend(n, center, radius, tables, mod2=False)
        assert ext.dtype == work and (ext == ref).all()
    assert (parity_extend(BallAdvice(Point(n, center), radius, held[1])).values == ref[1]).all()


def test_parity_radius_scan_peak_memory():
    # 0/1 rows at n = 4 extend in int8: one call's extensions take 1 MiB, not 8
    tables = all_tables(4)
    tracemalloc.start()
    try:
        r_bruteforce_batch(4, tables, "par")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, peak


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


def r_par_bruteforce(f, all_centers=True):
    """Smallest r such that the parity rule recovers f from B(x0, r), either
    for every center or for x0 = 0 only: a one-row radius scan."""
    centers = None if all_centers else [0]
    return int(r_bruteforce_batch(f.n, f.values[None, :], "par", centers)[0])


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


def test_bruteforce_batch_refuses_unknown_rule():
    with pytest.raises(ValueError, match="rule"):
        r_bruteforce_batch(3, all_tables(3), "bogus")


EXTEND_BATCHES = [parity_extend_batch, f2_extend_batch, majority_extend_batch]


@pytest.mark.parametrize("extend", EXTEND_BATCHES)
@pytest.mark.parametrize("center, radius", [(-1, 2), (1 << 4, 2), (0, -1), (0, 5)])
def test_extend_batch_refuses_bad_center_or_radius(extend, center, radius):
    # a center of -1 would wrap through negative indices; unchecked, the majority rule
    # would report a radius of -1 as a tie at point 0 and return n+1 unextended
    with pytest.raises(ValueError, match="center|radius"):
        extend(4, center, radius, all_tables(2)[:, [0, 1, 2, 3] * 4])


@pytest.mark.parametrize("extend", EXTEND_BATCHES)
def test_extend_batch_refuses_the_wrong_length(extend):
    with pytest.raises(ValueError, match="last axis"):
        extend(3, 0, 1, np.zeros((1, 4), dtype=np.uint8))


def test_majority_batch_refuses_a_single_table():
    # unchecked, a 1-D table would raise a bare IndexError in the first sphere's gather
    with pytest.raises(ValueError, match="2-D batch"):
        majority_extend_batch(3, 0, 1, np.zeros(8, dtype=np.uint8))


def test_maj_radius_quadratic_in_par_radius():
    for f in (dictator(6), tribes(2, 6), parity(4), and_fn(5)):
        assert r_maj(f) <= 8 * max(r_par(f), 1) ** 2


# ---------------------------------------------------------------------------
# low-degree extensions and parity radii: pinned byte for byte (sha256)

def _pin_batch(rows, n):
    if rows == 1 << (1 << n):
        return all_tables(n)
    return seeded_rng(97, "extend-pin", rows, n).integers(0, 2, size=(rows, 1 << n), dtype=np.uint8)


EXTEND_SHA256 = {
    ("par", 1, 5): "4479c1924e6a7d03662c9efa72c954a8608deb4837d115302abf6fbdc3738544",
    ("par", 63, 5): "34e25afa899113b726f36167a822e0bf179b9a477b43784bce049aa1d88fe36f",
    ("par", 500, 6): "b8e3a9ee8a01432d61ef32dc2b8c11f47dd697cccb537ccf347a998ebd182e50",
    ("par", 4096, 4): "79ab42a88a3a3adfb38f3d2ecb56b96e10157689c4564c3ea4e3108e33476862",
    ("par", 65536, 4): "638769c39e940a5d00e061c84e21aac979271768099a0820860e1e7d5afa993c",
    ("f2", 1, 5): "f911be32f80340b86ae10d465ee7de0d127d0a6cc3f778c2861735fa2b6b7d0d",
    ("f2", 63, 5): "b1ddf833d9d60a66d441fd6a397d0997d6233869733347c6b0c18d9b5704074a",
    ("f2", 500, 6): "f2fabb186dfd9aff1f74cf83260c83576f4286060e9ab11527eea621d23394c5",
    ("f2", 4096, 4): "37f9599a939bfca065476d8b857bd145c448369cc56853699e906f305e5ec32e",
    ("f2", 65536, 4): "6ebd64a9c7b0762dfe1d0447e3346cf3049818cf26de341ba8a4dc97ba330a2f",
}


@pytest.mark.parametrize("rule,rows,n", sorted(EXTEND_SHA256))
def test_extend_batch_outputs_pinned(rule, rows, n):
    extend, dtype = (parity_extend_batch, np.int64) if rule == "par" else (f2_extend_batch, np.uint8)
    tables = _pin_batch(rows, n)
    size = 1 << n
    digest = hashlib.sha256()
    for center in (0, 1, size // 3, size - 1):
        for radius in (0, 1, n // 2, n - 1, n):
            out = extend(n, center, radius, tables)
            assert out.dtype == dtype and out.shape == (rows, size)
            digest.update(np.ascontiguousarray(out).tobytes())
    assert digest.hexdigest() == EXTEND_SHA256[rule, rows, n]


PAR_RADIUS_SHA256 = {
    1: "d2ad1a9c4775c036c7919360552b663441ac316138249b2d36315444badd25d2",
    2: "0d1a0660f4b8d160d31553fe9c2aa110bed6d54550ea82274bb171420cfaa4ac",
    3: "13aa635caf5886c73bee62ba12e42bc6d2ec9a5a5439d5864cd43109ebadaa54",
    4: "3beb0be4effcded358bcc28f1de73314a09191bc2b896bcd72173a24c9b32cef",
}


@pytest.mark.parametrize("n", sorted(PAR_RADIUS_SHA256))
def test_parity_radii_pinned(n):
    tables = all_tables(n)
    every = r_bruteforce_batch(n, tables, "par")
    origin = r_bruteforce_batch(n, tables, "par", [0])
    assert every.dtype == origin.dtype == np.int64
    assert every.shape == origin.shape == (len(tables),)
    digest = hashlib.sha256(every.tobytes() + origin.tobytes()).hexdigest()
    assert digest == PAR_RADIUS_SHA256[n]
