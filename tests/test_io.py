import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from senslab.core import Point, TruthTable, restrict_to_ball
from senslab.families import random_function, tribes
from senslab.io import (
    FormatError,
    read_ball_advice,
    read_truth_table,
    write_ball_advice,
    write_truth_table,
)


def test_truth_table_roundtrip(tmp_path):
    f = tribes(2, 6)
    path = tmp_path / "f.tt"
    write_truth_table(f, path)
    assert read_truth_table(path) == f


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32))
def test_truth_table_roundtrip_random(tmp_path_factory, n, seed):
    f = random_function(n, seed=seed)
    path = tmp_path_factory.mktemp("tt") / "f.tt"
    write_truth_table(f, path)
    assert read_truth_table(path) == f


def test_ball_advice_roundtrip(tmp_path):
    adv = restrict_to_ball(tribes(2, 6), Point(6, 9), 3)
    path = tmp_path / "f.ball"
    write_ball_advice(adv, path)
    assert read_ball_advice(path) == adv


def test_truth_table_bad_inputs(tmp_path):
    path = tmp_path / "bad.tt"
    path.write_text("n=2\n010\n")  # wrong length
    with pytest.raises(FormatError):
        read_truth_table(path)
    path.write_text("m=2\n0101\n")
    with pytest.raises(FormatError):
        read_truth_table(path)
    path.write_text("n=2\n01a1\n")
    with pytest.raises(FormatError):
        read_truth_table(path)


def test_ball_advice_bad_inputs(tmp_path):
    path = tmp_path / "bad.ball"
    path.write_text("n=2 center=00 radius=1\n00 0\n01 1\n")  # missing 10
    with pytest.raises(FormatError):
        read_ball_advice(path)
    path.write_text("n=2 center=00 radius=1\n00 0\n01 1\n11 1\n")  # outside
    with pytest.raises(FormatError, match="outside the ball"):
        read_ball_advice(path)
    path.write_text("n=2 center=00 radius=1\n00 0\n01 1\n10 0\n")  # wrong order
    with pytest.raises(FormatError):
        read_ball_advice(path)
    path.write_text("n=2 center=00 radius=1\n00 0\n10 0\n10 0\n")  # duplicate
    with pytest.raises(FormatError, match="duplicate"):
        read_ball_advice(path)
    path.write_text("n=2 center=00 radius=3\n00 0\n")  # radius beyond n
    with pytest.raises(FormatError, match="radius 3 out of range"):
        read_ball_advice(path)
    path.write_text("n=2 center=00 radius=1\n00 0\n10 0\n0 1\n")  # short point
    with pytest.raises(FormatError, match="wrong length"):
        read_ball_advice(path)
    path.write_text("n=2 center=00 radius=1\n00 0\n1x 0\n01 1\n")  # bad character
    with pytest.raises(ValueError, match="invalid bitstring '1x'") as info:
        read_ball_advice(path)
    assert type(info.value) is ValueError


def test_oversized_headers_rejected_before_enumeration(tmp_path):
    path = tmp_path / "big.tt"
    path.write_text("n=40\n01\n")
    with pytest.raises(FormatError, match="outside supported range"):
        read_truth_table(path)
    path = tmp_path / "big.ball"
    path.write_text("n=25 center=" + "0" * 25 + " radius=0\n" + "0" * 25 + " 1\n")
    with pytest.raises(FormatError, match="outside supported range"):
        read_ball_advice(path)
