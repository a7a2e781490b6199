import hashlib
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
import hypothesis.strategies as st

from senslab import noise, verify
from senslab.core import Point, TruthTable, seeded_rng, sensitivity_at, weight
from senslab.families import dictator, majority, parity, random_dt, random_function, tribes
from senslab.noise import (
    RealFunction,
    distance_census,
    downward_mismatch,
    downward_mismatch_table,
    expansion_reports,
    hypercontractivity_check,
    lambda_set,
    noise_operator,
    noise_rate,
    noise_sensitivity_all,
    noise_sensitivity_at,
    noise_sensitivity_below,
    walsh_hadamard,
)
from senslab.selfcorrect import CorrectorParams, CorruptedOracle, local_correct_batch

small_tables = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.binary(min_size=1 << n, max_size=1 << n).map(
        lambda raw: TruthTable(n, np.frombuffer(raw, dtype=np.uint8) % 2)
    )
)


def test_noise_rate_validation():
    assert noise_rate("1/8") == Fraction(1, 8)
    assert noise_rate(Fraction(1, 2)) == Fraction(1, 2)
    for bad in (0, Fraction(3, 4), 1):
        with pytest.raises(ValueError):
            noise_rate(bad)
    assert noise_rate("0.05") == Fraction(1, 20)
    # Fraction(0.05) would be 3602879701896397/2^56: floats are refused, not converted
    for bad in (0.05, np.float64(0.25), 0.5):
        with pytest.raises(ValueError, match="exact rational"):
            noise_rate(bad)


def _noisy_copies(n, x, delta, trials, rng, monkeypatch):
    """The leaves of `trials` depth-1 local corrections of x: c noisy copies each."""
    oracle = CorruptedOracle(dictator(n), frozenset())
    leaves = []
    answer = oracle.answer_batch
    monkeypatch.setattr(oracle, "answer_batch", lambda idx: leaves.append(idx) or answer(idx))
    local_correct_batch(oracle, Point(n, x), CorrectorParams(s=1, delta=delta), trials, rng, k=1)
    return np.concatenate(leaves)


def test_sample_noisy_statistics(monkeypatch):
    # each bit of a noisy copy flips at rate delta; 600 trials of c = 7 leaves
    rng = seeded_rng(3, "noisy")
    flips = _noisy_copies(1, 0, Fraction(1, 2), 600, rng, monkeypatch)
    assert len(flips) == 4200
    assert 1900 < flips.sum() < 2300  # ~Binomial(4200, 1/2)
    stays = _noisy_copies(4, 9, Fraction(1, 4), 600, rng, monkeypatch) == 9
    assert abs(stays.mean() - 0.75**4) < 0.03


def test_walsh_hadamard_involution():
    rng = seeded_rng(5, "wht")
    v = rng.standard_normal(64)
    assert np.allclose(walsh_hadamard(walsh_hadamard(v)), 64 * v)


def test_walsh_hadamard_parity_line():
    # indicator-signed parity concentrates on its support mask
    f = parity(3)
    w = walsh_hadamard(1.0 - 2.0 * f.values.astype(np.float64))
    expect = np.zeros(8)
    expect[7] = 8.0
    assert np.allclose(w, expect)


def test_noise_operator_semigroup():
    f = tribes(2, 6)
    d1, d2 = Fraction(1, 8), Fraction(1, 5)
    rho = (1 - 2 * d1) * (1 - 2 * d2)
    combined = noise_operator(f, (1 - rho) / 2).values
    once = noise_operator(f, d2).values
    # apply T_{1-2*d1} to the intermediate real function by hand
    coeffs = walsh_hadamard(once) / 64
    levels = np.array([bin(i).count("1") for i in range(64)], dtype=np.float64)
    twice = walsh_hadamard(coeffs * (1.0 - 2.0 * float(d1)) ** levels)
    assert np.allclose(twice, combined, atol=1e-10)



@pytest.mark.parametrize("values", [
    ["0.5", "1", "0", "1"],
    np.array([1 + 0j, 0, 0, 1]),
    np.array([0.5, None, 0, 1], dtype=object),
    [2**70, 0, 0, 1],
    [0.5, np.nan, 0, 1],
    [0, np.inf, 0, 1],
    [-np.inf, 0, 0, 1],
], ids=["strings", "complex", "object", "big-int-object", "nan", "inf", "-inf"])
def test_real_function_rejects_before_cast(values):
    with pytest.raises(ValueError):
        RealFunction(2, values)


@pytest.mark.parametrize("values", [
    [True, False, True, True],
    [0, 1, -2, 3],
    np.array([1, 2, 3, 2**63], dtype=np.uint64),
    np.array([0.25, -1.5, 0, 1], dtype=np.float32),
    [0.25, -1.5, 0, 1e300],
], ids=["bool", "int", "uint64", "float32", "float64"])
def test_real_function_accepts_real_input(values):
    rf = RealFunction(2, values)
    assert rf.values.dtype == np.float64 and not rf.values.flags.writeable
    assert rf.values.tolist() == [float(v) for v in values]


def test_real_function_accepts_noise_operator_outputs():
    for f in (tribes(2, 6), parity(5), majority(7)):
        for delta in (Fraction(1, 20), Fraction(1, 2)):
            out = noise_operator(f, delta)
            assert np.array_equal(RealFunction(f.n, out.values).values, out.values)

@given(small_tables)
@settings(max_examples=25)
def test_exact_matches_float(f):
    delta = Fraction(1, 7)
    exact = noise_sensitivity_all(f, delta)
    t = noise_operator(f, delta).values
    approx = np.where(f.values == 1, 1 - t, t)
    assert max(abs(float(e) - a) for e, a in zip(exact, approx)) < 1e-10


@pytest.mark.parametrize("n", range(1, 9))
def test_distance_census_matches_pairwise_definition(n):
    vals = seeded_rng(n, "census").integers(0, 2, size=1 << n, dtype=np.uint8)
    idx = np.arange(1 << n)
    dist = np.bitwise_count(idx[:, None] ^ idx[None, :])  # all 4^n pairs
    brute = np.stack([((dist == d) * vals[None, :]).sum(axis=1) for d in range(n + 1)], axis=1)
    census = distance_census(vals, n)
    assert census.dtype == np.int32 and census.flags.c_contiguous
    assert np.array_equal(census, brute)


# (6, 1/20): q^n fits int64; (13, 1/40): q^n > 2^63, so the exact pass uses Python ints
REGIMES = [(6, Fraction(1, 20)), (13, Fraction(1, 40))]


def test_noise_sensitivity_dictator():
    for n in (3, 6):
        for delta in (Fraction(1, 20), Fraction(1, 3)):
            vals = noise_sensitivity_all(dictator(n, 2), delta)
            assert sum(vals, Fraction(0)) / len(vals) == delta


def test_noise_sensitivity_parity_closed_form():
    n, delta = 5, Fraction(1, 6)
    expect = (1 - (1 - 2 * delta) ** n) / 2
    for x in (0, 17, 31):
        assert noise_sensitivity_at(parity(n), Point(n, x), delta) == expect


def test_noise_sensitivity_all_matches_at():
    f = majority(5)
    delta = Fraction(1, 9)
    vals = noise_sensitivity_all(f, delta)
    for i in (0, 7, 31):
        assert vals[i] == noise_sensitivity_at(f, Point(5, i), delta)


@pytest.mark.parametrize("n, delta", REGIMES)
def test_exact_noise_values_match_single_points(n, delta):
    # one butterfly pass against one census per point, in both regimes of q^n
    f = random_function(n, 11)
    vals = noise_sensitivity_all(f, delta)
    for i in (0, 1, (1 << n) // 3, (1 << n) - 1):
        assert vals[i] == noise_sensitivity_at(f, Point(n, i), delta)


# ---------------------------------------------------------------------------
# NS(x) < b by threshold signs

@pytest.mark.parametrize("delta", [Fraction(1, 20), Fraction(1, 4), Fraction(1, 3)], ids=str)
@pytest.mark.parametrize("n", [6, 9])
def test_noise_sensitivity_below_matches_exact_values(n, delta):
    f = random_dt(n, 3, n)
    ns = noise_sensitivity_all(f, delta)
    attained = sorted(set(ns))
    # a bound equal to an attained value puts exact ties in the float band
    for bound in (attained[0], attained[len(attained) // 2], attained[-1], 2 * delta * 3):
        below = noise_sensitivity_below(f, delta, bound)
        assert below.dtype == bool and below.tolist() == [v < bound for v in ns]


def test_noise_sensitivity_below_decides_ties_exactly():
    # NS(x) = delta at every point of a dictator
    f, delta = dictator(6), Fraction(1, 20)
    assert not noise_sensitivity_below(f, delta, delta).any()
    assert noise_sensitivity_below(f, delta, delta + Fraction(1, 10**15)).all()


def test_noise_sensitivity_below_at_n16_matches_single_points():
    # q^n = 40^16 passes int64: the tied half-cube is settled in Python ints
    f, delta = random_dt(16, 3, 5), Fraction(1, 40)
    xs = seeded_rng(16, "below").integers(0, 1 << 16, size=8).tolist()
    ns = [noise_sensitivity_at(f, Point(16, x), delta) for x in xs]
    for bound in (min(ns), max(ns), 2 * delta * 3):
        below = noise_sensitivity_below(f, delta, bound)
        assert [bool(below[x]) for x in xs] == [v < bound for v in ns]


def test_noise_sensitivity_below_refuses_a_float_bound():
    for bad in (0.1, np.float64(0.1)):
        with pytest.raises(ValueError, match="exact rational"):
            noise_sensitivity_below(dictator(6), Fraction(1, 20), bad)


def test_criterion_noise_stability_prints_the_exact_failing_value(monkeypatch):
    real = noise.noise_sensitivity_below

    def failing(f, delta, bound):
        below = real(f, delta, bound).copy()
        below[5] = False
        return below

    monkeypatch.setattr(noise, "noise_sensitivity_below", failing)
    result = verify.run_criterion(7)
    n = verify.NOISE_SIZES[0]
    fname, f = next((name, g) for name, g in verify.standard_corpus(n) if verify.sensitivity(g).s)
    delta = Fraction(1, 20 * verify.sensitivity(f).s)
    value = noise_sensitivity_at(f, Point(n, 5), delta)
    assert not result.ok
    assert result.detail == (f"{fname} at n={n}, delta={delta}: NS(x=5) = {value} "
                             f"not < 2*delta*s = {2 * delta * verify.sensitivity(f).s}")


@pytest.mark.parametrize("x", [Point(3, 1), Point(5, 1), Point(4, 99), Point(4, -1)], ids=repr)
@pytest.mark.parametrize("call", [
    lambda x: sensitivity_at(dictator(4), x),
    lambda x: downward_mismatch(dictator(4), x, 1),
    lambda x: noise_sensitivity_at(dictator(4), x, Fraction(1, 20)),
], ids=["sensitivity_at", "downward_mismatch", "noise_sensitivity_at"])
def test_point_entries_refuse_a_point_off_the_cube(call, x):
    # a Point of another dimension used to be read silently, an index past 2^n raised IndexError
    with pytest.raises(ValueError, match="is not a point of the 4-cube") as e:
        call(x)
    assert "\n" not in str(e.value)


# ---------------------------------------------------------------------------
# downward walks

def test_downward_mismatch_or():
    from senslab.families import or_fn

    f = or_fn(4)
    x = Point(4, 0b1111)
    assert downward_mismatch(f, x, 4) == 1  # only 0000 disagrees
    assert downward_mismatch(f, x, 2) == 0


@given(small_tables, st.data())
def test_downward_table_matches_scalar(f, data):
    x = Point(f.n, data.draw(st.integers(min_value=0, max_value=(1 << f.n) - 1)))
    t = data.draw(st.integers(min_value=0, max_value=weight(x)))
    table = downward_mismatch_table(f)
    from math import comb

    assert downward_mismatch(f, x, t) == Fraction(int(table[x.index, t]), comb(weight(x), t))


_REFUSE_N24 = """
import numpy as np
from senslab.core import TruthTable
from senslab.noise import downward_mismatch_table
try:
    downward_mismatch_table(TruthTable(24, np.zeros(1 << 24, dtype=np.uint8)))
except ValueError as exc:
    print(exc)
"""


def test_downward_table_refuses_n24_before_allocating():
    # the rows and the output would need ~3.1 GiB; under a 1 GiB address-space
    # limit a missing guard dies on its first allocation instead of filling memory
    src = str(Path(noise.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _REFUSE_N24], env=env, capture_output=True,
                          text=True, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("downward_mismatch_table at n=24 would allocate")
    assert proc.stdout.count("\n") == 1


_RUN_N23 = """
import numpy as np
from senslab.core import TruthTable
from senslab.noise import downward_mismatch_table
try:
    downward_mismatch_table(TruthTable(23, np.zeros(1 << 23, dtype=np.uint8)))
except MemoryError:
    print("MemoryError")
except ValueError as exc:
    print(exc)
"""


def test_downward_table_admits_n23():
    # 8 (n+1) 2^n = 1.5 GiB passes the byte check; under a 512 MiB address-space limit
    # the 768 MiB of codistance rows, the first allocation, then fails in numpy
    src = str(Path(noise.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _RUN_N23], env=env, capture_output=True,
                          text=True, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "MemoryError\n"


def test_downward_table_memory_is_rows_plus_int32_output():
    n = 16
    f = random_function(n, 11)
    tracemalloc.start()
    try:
        table = downward_mismatch_table(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int32
    # int32 rows and int32 output; an int64 output would need 12 (n+1) 2^n
    assert peak <= (8 * (n + 1) << n) + (1 << 20)


def ones_by_codistance(values, n):
    """z[x, j] = sum of values[y] over subsets y of x with wt(x) - wt(y) = j: the
    one-sided codistance rows behind downward_mismatch_table, as (2^n, n+1) int32."""
    return np.ascontiguousarray(noise._codistance_rows(values, n, noise._one_sided_step).T)


def test_ones_by_codistance_brute():
    rng = seeded_rng(4, "codist")
    vals = rng.integers(0, 2, size=32, dtype=np.uint8)
    z = ones_by_codistance(vals, 5)
    for x in range(32):
        for j in range(6):
            brute = sum(
                int(vals[y])
                for y in range(32)
                if y & x == y and bin(x ^ y).count("1") == j
            )
            assert z[x, j] == brute


# ---------------------------------------------------------------------------
# Lambda sets

def test_lambda_set_trivial_cases():
    assert lambda_set(4, [], Fraction(1, 20), Fraction(2, 5)) == frozenset()
    full = lambda_set(4, range(16), Fraction(1, 20), Fraction(2, 5))
    assert full == frozenset(range(16))


def test_lambda_set_exact_threshold():
    # T of a singleton at delta=1/2 is 1/16 everywhere: theta = 1/16 keeps
    # every point (>= is inclusive), anything above keeps none
    lam = lambda_set(4, [0], Fraction(1, 2), Fraction(1, 16))
    assert lam == frozenset(range(16))
    assert lambda_set(4, [0], Fraction(1, 2), Fraction(1, 16) + Fraction(1, 10**6)) == frozenset()


@pytest.mark.parametrize("n, delta", REGIMES)
def test_lambda_set_decides_singleton_peak_exactly(n, delta):
    # T 1_{0}(0) = (1-delta)^n exactly; 1e-40 above it lies deep inside the float band
    theta = (1 - delta) ** n
    assert 0 in lambda_set(n, [0], delta, theta)
    assert 0 not in lambda_set(n, [0], delta, theta + Fraction(1, 10**40))


@pytest.mark.parametrize("n, delta", REGIMES)
def test_lambda_set_decides_a_large_band_exactly(n, delta):
    # S = {y : y_0 = 1} gives T 1_S(x) = 1 - delta exactly on half the cube: a band
    # too large for one census per point, so all points go through one butterfly pass
    half = [i for i in range(1 << n) if i & 1]
    assert lambda_set(n, half, delta, 1 - delta) == frozenset(half)
    assert lambda_set(n, half, delta, 1 - delta + Fraction(1, 10**40)) == frozenset()


def test_hypercontractivity_report_fields():
    rep = hypercontractivity_check(6, range(4), Fraction(1, 20), Fraction(2, 5))
    assert rep.mu_S == Fraction(4, 64)
    assert rep.holds
    assert rep.bound or not rep.premise
    # a one-shot iterator of members is read once for both Lambda and mu(S)
    assert hypercontractivity_check(6, iter(range(4)), Fraction(1, 20), Fraction(2, 5)) == rep


def _report_fields(rep):
    names = ("mu_S", "mu_Lambda", "lam", "delta", "theta", "rhs", "holds", "premise", "bound")
    return [getattr(rep, name) for name in names]


@pytest.mark.parametrize("n, delta", REGIMES)
def test_expansion_reports_match_one_theta_calls(monkeypatch, n, delta):
    # each call settles both thresholds' band points from one set of numerators: the
    # singleton's peak by census, the half-cube's plateau by one butterfly pass
    engines = []

    def spy(name):
        real = getattr(noise, name)
        return lambda *args: engines.append(name) or real(*args)

    for name in ("_census_numerators", "_noise_numerators"):
        monkeypatch.setattr(noise, name, spy(name))
    half = [i for i in range(1 << n) if i & 1]
    cases = [([0], (1 - delta) ** n, "_census_numerators", {0}),
             (half, 1 - delta, "_noise_numerators", set(half))]
    for members, theta, engine, lam in cases:
        thetas = [theta, theta + Fraction(1, 10**40)]
        engines.clear()
        reports = expansion_reports(n, members, delta, thetas)
        assert engines == [engine]
        assert [set(rep.lam) for rep in reports] == [lam, set()]
        for rep, one_theta in zip(reports, thetas):
            single = hypercontractivity_check(n, members, delta, one_theta)
            assert _report_fields(rep) == _report_fields(single)
            assert rep.lam == lambda_set(n, members, delta, one_theta)


def test_criterion_sse_runs_one_noise_operator_per_set(monkeypatch):
    calls = []
    real = noise.noise_operator
    monkeypatch.setattr(noise, "noise_operator", lambda *args: calls.append(args) or real(*args))
    assert verify.run_criterion(9).ok
    assert len(calls) == verify.SSE_SETS_SMALL + verify.SSE_SETS_ANY == 200


BAD_MEMBERS = [-1, 3.7, True, 1 << 6, "5", Point(5, 3)]
EXPANSION_FUNCTIONS = [lambda_set, hypercontractivity_check]


@pytest.mark.parametrize("fn", EXPANSION_FUNCTIONS)
@pytest.mark.parametrize("bad", BAD_MEMBERS, ids=repr)
def test_expansion_functions_refuse_bad_members(fn, bad):
    # none may be coerced: -1 would wrap to 2^n - 1, 3.7 truncate to 3, True read as 1
    with pytest.raises(ValueError, match="member"):
        fn(6, [0, bad], Fraction(1, 20), Fraction(2, 5))


@pytest.mark.parametrize("fn", EXPANSION_FUNCTIONS)
@pytest.mark.parametrize("theta", [Fraction(0), Fraction(-1, 5), Fraction(3, 2)])
def test_expansion_functions_refuse_theta_outside_unit_interval(fn, theta):
    with pytest.raises(ValueError, match="theta"):
        fn(6, [0, 1], Fraction(1, 20), theta)


def test_lambda_set_refuses_a_float_theta():
    # Fraction(0.4) is 3602879701896397/2^53, not 2/5
    with pytest.raises(ValueError, match="threshold theta must be an exact rational, not the float 0.4"):
        lambda_set(6, [0, 1], Fraction(1, 20), 0.4)


def test_expansion_functions_accept_points_and_numpy_indices():
    members = [Point(6, 0), np.int64(1), np.uint8(2), 3]
    rep = hypercontractivity_check(6, members, Fraction(1, 20), Fraction(1, 1))
    assert rep == hypercontractivity_check(6, range(4), Fraction(1, 20), Fraction(1, 1))
    assert lambda_set(6, iter(members), Fraction(1, 20), Fraction(1, 1)) == rep.lam


# ---------------------------------------------------------------------------
# codistance tables: pinned byte for byte (sha256 of the int32 tables widened to int64)

CODISTANCE_SHA256 = {
    ("down", "function", 12): "cf325de6cb8a3cd731bb2b84fa6bedb2bca5d157bdc5ab9c6e332ebdbf35d7ae",
    ("ones", "function", 12): "5a6d1eef722dc1d67531f394a579611408a035b5e29187929f56393091b0eda9",
    ("census", "function", 12): "eb117402e8f1e0fc7933f328b94439f705c85eb734a74bd6dd37deeb40138609",
    ("down", "dt", 12): "ab15dbcd1e1194718d3e821a0dbaff125d1e3e921878c81385525a1ce2ad0ec8",
    ("ones", "dt", 12): "d0490d3f28fd7f89c77d305a28105e504abd6f135c89f59715c70346121562d7",
    ("census", "dt", 12): "fefcc9a6fe96c39e57ad992ad603ec6d4e3f09938b1aaff9c61ba44592f99728",
    # distance_census is capped at PAIRWISE_MAX_N = 13, so n = 13 stands in for 16
    ("census", "function", 13): "954b389f6d183de29f41d587fc981af69fe0c0636686e200cf4f3053877b7e6f",
    ("census", "dt", 13): "b92fdd3ad82422223d27f3f572c8e7d1700c233d3b06121ec0f4a631f9408aec",
    ("down", "function", 16): "40f713537bcc167fb61340cdd5f685d3faf681a696595aee3793c0f0635c62d9",
    ("ones", "function", 16): "7328e27380611101420f212de54e41f66d3a33d70f11d221b3097cf23b17c404",
    ("down", "dt", 16): "1f9eb2a982ed9d7e823c7f334b81a7cd5caf118431636409d4a6e0db37c744c2",
    ("ones", "dt", 16): "0b4994da6e4ed886c59645a8805149663e68fb95fa2bb1944f28a3bca6e06ba6",
    # n = 16 and 18 span many column blocks of the downward table's finish
    ("down", "function", 18): "3f84886466d1b63d8cda97ba77b1f30d9c8de84bc70d9be54f9397c92e54a341",
    ("down", "dt", 18): "9b552edc60955abab4ff6747d77f438469aec71a9b200f2ba20ed77341a2088e",
}
CODISTANCE_KERNELS = {
    "down": lambda f: downward_mismatch_table(f),
    "ones": lambda f: ones_by_codistance(f.values, f.n),
    "census": lambda f: distance_census(f.values, f.n),
}


@pytest.mark.parametrize("kernel,family,n", sorted(CODISTANCE_SHA256))
def test_codistance_tables_pinned(kernel, family, n):
    f = random_function(n, 7) if family == "function" else random_dt(n, 3, 7)
    table = CODISTANCE_KERNELS[kernel](f)
    assert table.dtype == np.int32 and table.shape == (1 << n, n + 1)
    assert table.flags.c_contiguous
    digest = hashlib.sha256(table.astype(np.int64).tobytes()).hexdigest()
    assert digest == CODISTANCE_SHA256[kernel, family, n]


# ---------------------------------------------------------------------------
# float outputs: pinned bit for bit, so a schedule that reorders a sum fails

FLOAT_SHA256 = {
    "noise 1/20": "e26beee64ce04b8e4c8da3fae7f040926366bf353ab2a8276fe2d1a4abc2e667",
    "noise 3/7": "1fd3c2086132a3c0d72c762d75d470006dee6bf4614f927282aad51fa08ceb9d",
    "wht": "1d2ebe58c10b28084c94a4fce858fb2b2f5c65de1484436aaac783bd90208bf5",
}
FLOAT_OUTPUTS = {
    "noise 1/20": lambda: noise_operator(random_function(18, 7), Fraction(1, 20)).values,
    "noise 3/7": lambda: noise_operator(random_function(18, 7), Fraction(3, 7)).values,
    # non-integer values, the same on every platform (an integer multiply and one division)
    "wht": lambda: walsh_hadamard(
        (np.arange(1 << 18, dtype=np.int64) * 2654435761 % 1000003) / 1000003.0
    ),
}


@pytest.mark.parametrize("name", sorted(FLOAT_SHA256))
def test_float_outputs_pinned(name):
    out = FLOAT_OUTPUTS[name]()
    assert out.dtype == np.float64 and out.shape == (1 << 18,)
    assert hashlib.sha256(out.tobytes()).hexdigest() == FLOAT_SHA256[name]
