import hashlib
import time

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from senslab.core import Point, restrict_to_ball
from senslab.families import random_dt, random_function, tribes
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


BALL_FILES_GOLDEN = "ccc283c35c088d0a6f07c1a1b50e7f358c4e7df3f09b142665aa0c8d78ad22c8"


def test_ball_advice_files_are_pinned(tmp_path):
    # the bytes of written .ball files, and a read-back that writes them again
    h = hashlib.sha256()
    path, again = tmp_path / "a.ball", tmp_path / "b.ball"
    for f, center, r in ((tribes(2, 6), 9, 3), (random_dt(10, 2, seed=4), 613, 4),
                         (random_dt(12, 1, seed=9), 0, 12)):
        write_ball_advice(restrict_to_ball(f, Point(f.n, center), r), path)
        write_ball_advice(read_ball_advice(path), again)
        assert again.read_bytes() == path.read_bytes()
        h.update(path.read_bytes())
    assert h.hexdigest() == BALL_FILES_GOLDEN


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


# ---------------------------------------------------------------------------
# fuzzing: malformed files raise a ValueError subclass, quickly

def _bits(n):
    return st.text(alphabet="01", min_size=max(n - 1, 0), max_size=n + 1)


@st.composite
def _tt_files(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    header = draw(st.sampled_from([f"n={n}", f" n={n} ", f"n={n}0", f"n=-{n}", "n=", "n=x"]))
    body = draw(st.one_of(_bits(min(1 << min(n, 8), 300)), st.text(max_size=40)))
    return "\n".join([header, body] + draw(st.lists(st.text(max_size=20), max_size=3)))


@st.composite
def _ball_files(draw):
    n = draw(st.integers(min_value=0, max_value=26))
    radius = draw(st.integers(min_value=0, max_value=n + 2))
    center = draw(_bits(n))
    header = draw(st.sampled_from([
        f"n={n} center={center} radius={radius}",
        f"n={n}  center={center} radius={radius}",
        f"n={n} center={center} radius=-{radius}",
        f"n={n} center={center}",
    ]))
    point = st.tuples(st.one_of(_bits(n), st.text(alphabet="01x ", max_size=n + 1)),
                      st.sampled_from(["0", "1", "2", "", "0 1"]))
    lines = draw(st.lists(point.map(" ".join), max_size=12))
    return "\n".join([header] + lines + draw(st.lists(st.text(max_size=20), max_size=2)))


def _files(structured):
    return st.one_of(structured, st.text(max_size=200), st.binary(max_size=200))


def _read_within_a_second(reader, path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    started = time.perf_counter()
    try:
        reader(path)
    except ValueError as e:
        # FormatError, or Point.from_bits' documented plain ValueError for a bad character
        assert isinstance(e, FormatError) or (
            type(e) is ValueError and str(e).startswith("invalid bitstring")
        ), repr(e)
    assert time.perf_counter() - started < 1.0


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_files(_tt_files()))
def test_truth_table_reader_fuzz(tmp_path, content):
    _read_within_a_second(read_truth_table, tmp_path / "fuzz.tt", content)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_files(_ball_files()))
def test_ball_advice_reader_fuzz(tmp_path, content):
    _read_within_a_second(read_ball_advice, tmp_path / "fuzz.ball", content)


@pytest.mark.parametrize("reader,content", [
    (read_truth_table, b"\xff\xfen=2\n0101\n"),
    (read_ball_advice, b"n=1 center=0 radius=0\n0 \xff\n"),
    (read_truth_table, "n=" + "9" * 5000 + "\n01\n"),
    (read_ball_advice, "n=2 center=00 radius=" + "9" * 5000 + "\n00 0\n"),
    # int() reads any Unicode digit; a header holds ASCII digits only
    (read_truth_table, "n=\u0663\n01010101\n"),
    (read_ball_advice, "n=1 center=0 radius=\u0660\n0 1\n"),
], ids=["tt-bytes", "ball-bytes", "tt-digits", "ball-digits", "tt-arabic", "ball-arabic"])
def test_malformed_headers_are_format_errors(tmp_path, reader, content):
    path = tmp_path / "bad"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    with pytest.raises(FormatError):
        reader(path)
