import hashlib

import numpy as np
import pytest

from senslab.core import sensitivity
from senslab.families import (
    addressing,
    and_fn,
    constant,
    dictator,
    gen_family,
    junta_lift,
    majority,
    or_fn,
    parity,
    random_dt,
    random_function,
    tribes,
)


def test_constant_and_dictator():
    assert constant(3, 1).count_ones() == 8
    assert constant(3, 0).count_ones() == 0
    f = dictator(4, 3)
    assert all(f(i) == (i >> 2) & 1 for i in range(16))


def test_or_and():
    assert or_fn(3).bits_string() == "01111111"
    assert and_fn(3).bits_string() == "00000001"


def test_parity_support():
    f = parity(3, support=frozenset({1, 3}))
    assert all(f(i) == (((i >> 0) ^ (i >> 2)) & 1) for i in range(8))
    assert parity(3).count_ones() == 4


def test_majority_odd_only():
    m = majority(3)
    assert m.bits_string() == "00010111"
    with pytest.raises(ValueError):
        majority(4)


def test_tribes_explicit():
    # tribes(2, 4) = (x1 and x2) or (x3 and x4)
    f = tribes(2, 4)
    expect = [int(((i & 3) == 3) or ((i >> 2) & 3) == 3) for i in range(16)]
    assert f.values.tolist() == expect
    with pytest.raises(ValueError):
        tribes(2, 5)


def test_addressing_sensitivity_grid():
    for s in (1, 2, 3):
        for n in range(2 * s, 13, 3):
            assert sensitivity(addressing(s, n)).s == s


def test_junta_lift_matches_inner():
    inner = majority(3)
    f = junta_lift(inner, 7, positions=[2, 5, 7])
    for i in range(1 << 7):
        bits = ((i >> 1) & 1, (i >> 4) & 1, (i >> 6) & 1)
        inner_idx = bits[0] | (bits[1] << 1) | (bits[2] << 2)
        assert f(i) == inner(inner_idx)
    with pytest.raises(ValueError):
        junta_lift(inner, 7, positions=[1, 1, 2])


def test_random_dt_depth_bounds_sensitivity():
    for depth in (1, 2, 3):
        for seed in range(5):
            f = random_dt(8, depth, seed=seed)
            assert sensitivity(f).s <= depth


# sha256 of random_dt(n, depth, seed).values: the seeded stream and the table layout
RANDOM_DT_TABLES = {
    (1, 0, 3): "9dcf97a184f32623d11a73124ceb99a5709b083721e878a16d78f596718ba7b2",
    (1, 1, 2): "47dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254",
    (6, 2, 11): "18be69df7ff7dc8bb61ac3a5c1fd6a0c4a0c482af198480ae8d1dc81ae748b70",
    (8, 4, 5): "c43e985643f95afbad0d6372da7b824a4028b035ba90952f2887be0c9a5902d0",
    (10, 10, 7): "6794aa66e2811cfa81101a260121542759e6ee1ea17f4140e3a3aa36b741a32d",
    (12, 3, 1209): "5758cd4bd1dad2ec83f12a80f50de39d8a16196c7ed80dc4662a5b946800b0d1",
    (16, 2, 5): "3176eb235c545c3b4d731de7cc5b205feb432da37c351f9eac05814148541ff5",
    (20, 1, 3): "beab7a99d97fc2a5a824de6a5da4f31bca49144da07b59365e0258653abd4a60",
    (22, 2, 1012): "49380280ed7eb86c190ceec6111e5ebd1e4551db1c0094509acd6649a29469fc",
    (22, 3, 9): "220dc6950cf90aa83a658b08b9d9809650e08d418a6ce1d7d2405edc28f1e239",
}


@pytest.mark.parametrize("n,depth,seed", sorted(RANDOM_DT_TABLES))
def test_random_dt_tables_are_pinned(n, depth, seed):
    f = random_dt(n, depth, seed)
    assert f.values.dtype == np.uint8 and f.values.shape == (1 << n,)
    assert hashlib.sha256(f.values.tobytes()).hexdigest() == RANDOM_DT_TABLES[n, depth, seed]


def test_random_dt_deterministic():
    assert random_dt(6, 2, seed=11) == random_dt(6, 2, seed=11)
    assert random_function(6, seed=3) == random_function(6, seed=3)


def test_gen_family_dispatch():
    assert gen_family("dictator", 4, var=2) == dictator(4, 2)
    assert gen_family("tribes", 6, s=2) == tribes(2, 6)
    assert gen_family("parity", 3, support=[1, 3]) == parity(3, frozenset({1, 3}))
    assert gen_family("random-dt", 6, depth=2, seed=5) == random_dt(6, 2, seed=5)
    assert gen_family("junta-lift", 5, inner=majority(3), positions=[1, 2, 5]) == junta_lift(
        majority(3), 5, positions=[1, 2, 5]
    )
    with pytest.raises(ValueError):
        gen_family("mystery", 4)
