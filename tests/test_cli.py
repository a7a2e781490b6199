import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import senslab
from senslab import cli, counting
from senslab.cli import main
from senslab.core import Point, TruthTable, restrict_to_ball
from senslab.families import dictator, random_dt, random_function, tribes
from senslab.io import read_truth_table, write_ball_advice, write_truth_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    reports = [json.loads(line) for line in out.splitlines() if line]
    return code, reports


def test_gen_measure_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "f.tt")
    code, reports = run(capsys, "gen", "--family", "tribes", "--s", "2", "--n", "6", "--out", path)
    assert code == 0 and reports[0]["ok"]
    assert read_truth_table(path) == tribes(2, 6)

    code, reports = run(capsys, "measure", "--in", path)
    assert code == 0
    out = reports[0]["outputs"]
    assert (out["s"], out["deg"], out["deg2"]) == (3, 6, 6)
    assert out["mu1"] == "37/64"


def test_extend_cli(tmp_path, capsys):
    f = random_dt(6, 2, seed=8)
    ball = str(tmp_path / "f.ball")
    out_tt = str(tmp_path / "ext.tt")
    write_ball_advice(restrict_to_ball(f, Point(6, 0), 6), ball)
    code, reports = run(capsys, "extend", "--rule", "maj", "--advice", ball, "--out", out_tt)
    assert code == 0
    assert reports[0]["outputs"]["status"] == "extended"
    assert read_truth_table(out_tt) == f


def test_extend_tie_exits_one(tmp_path, capsys):
    ball = tmp_path / "tie.ball"
    ball.write_text("n=2 center=00 radius=1\n00 0\n10 0\n01 1\n")
    code, reports = run(capsys, "extend", "--rule", "maj", "--advice", str(ball))
    assert code == 1
    assert reports[0]["outputs"] == {"failed_point": "11", "reason": "tie", "status": "failed"}


EXTEND_MAJ_STDOUT = {
    "n6": '{"command": "extend", "ok": true, "outputs": {"bits": "000000000000000000001111000011110000'
          '0000000000000000111100001111", "ones": 16, "status": "extended"}, "parameters": {"advice": '
          '"<advice>", "out": null, "rule": "maj"}, "seed": null}\n',
    "n4-tie": '{"command": "extend", "ok": false, "outputs": {"failed_point": "1011", "reason": "tie", '
              '"status": "failed"}, "parameters": {"advice": "<advice>", "out": null, "rule": "maj"}, '
              '"seed": null}\n',
    "n16": '{"command": "extend", "ok": true, "outputs": {"ones": 49152, "status": "extended"}, '
           '"parameters": {"advice": "<advice>", "out": "<out>", "rule": "maj"}, "seed": null}\n',
}


@pytest.mark.parametrize("case, f, center, radius, code", [
    ("n6", random_dt(6, 2, seed=8), 45, 4, 0),
    ("n4-tie", random_function(4, seed=4), 2, 2, 1),
    ("n16", random_dt(16, 2, seed=4), 12345, 4, 0),
])
def test_extend_maj_stdout_is_pinned(tmp_path, capsys, case, f, center, radius, code):
    ball, out_tt = str(tmp_path / "f.ball"), str(tmp_path / "ext.tt")
    write_ball_advice(restrict_to_ball(f, Point(f.n, center), radius), ball)
    argv = ["extend", "--rule", "maj", "--advice", ball] + (["--out", out_tt] if f.n > 6 else [])
    assert main(argv) == code
    expected = EXTEND_MAJ_STDOUT[case].replace("<advice>", ball).replace("<out>", out_tt)
    assert capsys.readouterr().out == expected
    if f.n > 6:
        assert read_truth_table(out_tt) == f


EXTEND_STDOUT = {
    "par-n6": '{"command": "extend", "ok": true, "outputs": {"boolean": true, "status": "extended", '
              '"values": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, '
              '0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, '
              '0, 0, 0, 0, 1, 1, 1, 1]}, "parameters": {"advice": "<advice>", "out": "<out>", "rule": '
              '"par"}, "seed": null}\n',
    "par-n4-integer": '{"command": "extend", "ok": true, "outputs": {"boolean": false, "status": '
                      '"extended", "values": [0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 1, -1]}, '
                      '"parameters": {"advice": "<advice>", "out": "<out>", "rule": "par"}, "seed": null}\n',
    "par-n10": '{"command": "extend", "ok": true, "outputs": {"boolean": true, "status": "extended"}, '
               '"parameters": {"advice": "<advice>", "out": "<out>", "rule": "par"}, "seed": null}\n',
    "f2-n6": '{"command": "extend", "ok": true, "outputs": {"bits": "000000000000000000001111000011110000'
             '0000000000000000111100001111", "ones": 16, "status": "extended"}, "parameters": {"advice": '
             '"<advice>", "out": "<out>", "rule": "f2"}, "seed": null}\n',
    "f2-n10": '{"command": "extend", "ok": true, "outputs": {"ones": 256, "status": "extended"}, '
              '"parameters": {"advice": "<advice>", "out": "<out>", "rule": "f2"}, "seed": null}\n',
}


@pytest.mark.parametrize("case, f, center, radius", [
    ("par-n6", random_dt(6, 2, seed=8), 45, 2),
    ("par-n4-integer", random_function(4, seed=4), 2, 2),
    ("par-n10", random_dt(10, 2, seed=3), 1000, 4),
    ("f2-n6", random_dt(6, 2, seed=8), 45, 2),
    ("f2-n10", random_dt(10, 2, seed=3), 1000, 4),
])
def test_extend_par_and_f2_stdout_is_pinned(tmp_path, capsys, case, f, center, radius):
    ball, out = str(tmp_path / "f.ball"), tmp_path / "ext.out"
    write_ball_advice(restrict_to_ball(f, Point(f.n, center), radius), ball)
    assert main(["extend", "--rule", case.split("-")[0], "--advice", ball, "--out", str(out)]) == 0
    expected = EXTEND_STDOUT[case].replace("<advice>", ball).replace("<out>", str(out))
    assert capsys.readouterr().out == expected
    if case == "par-n4-integer":  # a non-Boolean extension is written as index/value lines
        values = json.loads(expected)["outputs"]["values"]
        assert out.read_text() == "".join(f"{i} {v}\n" for i, v in enumerate(values))
    else:
        assert read_truth_table(out) == f


def test_eval_cli_matches_truth(tmp_path, capsys):
    f = dictator(8)
    ball = str(tmp_path / "f.ball")
    write_ball_advice(restrict_to_ball(f, Point(8, 0), 8), ball)
    for algo in ("bottom-up", "top-down", "parallel"):
        code, reports = run(
            capsys, "eval", "--algo", algo, "--advice", ball, "--s", "1", "--x", "10000001"
        )
        assert code == 0
        assert reports[0]["outputs"]["value"] == 1


EVAL_STDOUT = {
    "bottom-up": '{"command": "eval", "ok": true, "outputs": {"stats": {"ball_shifts": 12, '
                 '"majority_votes": 660, "max_depth": 0, "points_by_weight": {"0": 1, "1": 13, "10": 79, '
                 '"11": 13, "12": 1, "2": 79, "3": 79, "4": 79, "5": 79, "6": 79, "7": 79, "8": 79, "9": '
                 '79}, "points_computed": 739, "rng_draws": 0}, "value": 1}, "parameters": {"advice": '
                 '"<advice>", "algo": "bottom-up", "s": 1, "x": "111111111111"}, "seed": null}\n',
    "top-down": '{"command": "eval", "ok": true, "outputs": {"stats": {"ball_shifts": 0, '
                '"majority_votes": 220, "max_depth": 0, "points_by_weight": {"10": 6, "11": 3, "12": 1, '
                '"2": 66, "3": 55, "4": 45, "5": 36, "6": 28, "7": 21, "8": 15, "9": 10}, '
                '"points_computed": 286, "rng_draws": 0}, "value": 1}, "parameters": {"advice": '
                '"<advice>", "algo": "top-down", "s": 1, "x": "111111111111"}, "seed": null}\n',
    "parallel": '{"command": "eval", "ok": true, "outputs": {"stats": {"ball_shifts": 0, '
                '"majority_votes": 8, "max_depth": 2, "points_by_weight": {"10": 49}, "points_computed": '
                '49, "rng_draws": 56}, "value": 1}, "parameters": {"advice": "<advice>", "algo": '
                '"parallel", "s": 1, "x": "111111111111"}, "seed": 3}\n',
    "amplified": '{"command": "eval", "ok": true, "outputs": {"stats": {"ball_shifts": 0, '
                 '"majority_votes": 24, "max_depth": 2, "points_by_weight": {"10": 147}, '
                 '"points_computed": 147, "rng_draws": 168}, "value": 1}, "parameters": {"advice": '
                 '"<advice>", "algo": "amplified", "s": 1, "target": "1/100", "x": "111111111111"}, '
                 '"seed": 3}\n',
    "amplified-no-stats": '{"command": "eval", "ok": true, "outputs": {"value": 1}, "parameters": '
                          '{"advice": "<advice>", "algo": "amplified", "s": 1, "target": "1/20", "x": '
                          '"111111111111"}, "seed": 3}\n',
}


@pytest.mark.parametrize("case, flags", [
    ("bottom-up", ["--stats"]),
    ("top-down", ["--stats"]),
    ("parallel", ["--stats", "--seed", "3"]),
    ("amplified", ["--target", "1/100", "--seed", "3", "--stats"]),
    ("amplified-no-stats", ["--seed", "3"]),
])
def test_eval_stdout_is_pinned(tmp_path, capsys, case, flags):
    # radius 10 at n = 12: the parallel evaluator recurses at the all-ones point
    ball = str(tmp_path / "f.ball")
    write_ball_advice(restrict_to_ball(dictator(12, 4), Point(12, 0), 10), ball)
    argv = ["eval", "--algo", case.split("-no-")[0], "--advice", ball, "--s", "1", "--x", "1" * 12]
    assert main(argv + flags) == 0
    assert capsys.readouterr().out == EVAL_STDOUT[case].replace("<advice>", ball)


def test_ns_cli_exact_strings(tmp_path, capsys):
    path = str(tmp_path / "d.tt")
    write_truth_table(dictator(4), path)
    code, reports = run(capsys, "ns", "--in", path, "--delta", "1/20", "--x", "1000")
    assert code == 0
    assert reports[0]["outputs"]["value"] == "1/20"
    code, reports = run(capsys, "ns", "--in", path, "--delta", "1/20")
    assert reports[0]["outputs"]["average"] == "1/20"


def test_lambda_cli(tmp_path, capsys):
    path = str(tmp_path / "s.tt")
    write_truth_table(dictator(6), path)
    code, reports = run(capsys, "lambda", "--in", path, "--delta", "1/20", "--theta", "2/5")
    assert code == 0
    out = reports[0]["outputs"]
    assert out["mu_S"] == "1/2" and out["expansion_holds"]


LAMBDA_STDOUT = {
    "subcube": '{"command": "lambda", "ok": true, "outputs": {"corollary_bound": false, '
               '"corollary_premise": false, "expansion_holds": true, "expansion_rhs": 84.16563017281004, '
               '"lambda_members": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, '
               '20, 21, 22, 23, 32, 33, 34, 35, 36, 37, 38, 39, 64, 65, 66, 67, 68, 69, 70, 71, 72, 128, '
               '129, 130, 131, 132, 133, 134, 135, 136, 192, 200, 201, 202, 204, 216, 232], '
               '"lambda_size": 57, "mu_Lambda": "57/256", "mu_S": "9/256", "set_size": 9}, '
               '"parameters": {"delta": "1/20", "in": "<in>", "theta": "1/40"}, "seed": null}\n',
    "random": '{"command": "lambda", "ok": true, "outputs": {"corollary_bound": false, '
              '"corollary_premise": false, "expansion_holds": true, "expansion_rhs": 3.0237360807375224, '
              '"lambda_size": 112, "mu_Lambda": "7/16", "mu_S": "7/16", "set_size": 112}, '
              '"parameters": {"delta": "1/20", "in": "<in>", "theta": "2/5"}, "seed": null}\n',
}


@pytest.mark.parametrize("case, f, theta", [
    ("subcube", TruthTable.from_indices(8, [0, 1, 2, 3, 4, 5, 6, 7, 200]), "1/40"),
    ("random", random_function(8, seed=5), "2/5"),
])
def test_lambda_stdout_is_pinned(tmp_path, capsys, case, f, theta):
    path = str(tmp_path / "s.tt")
    write_truth_table(f, path)
    assert main(["lambda", "--in", path, "--delta", "1/20", "--theta", theta]) == 0
    assert capsys.readouterr().out == LAMBDA_STDOUT[case].replace("<in>", path)


@pytest.mark.parametrize("theta", ["0", "-1/5", "3/2"])
def test_lambda_theta_outside_unit_interval_exits_two(tmp_path, capsys, theta):
    path = str(tmp_path / "s.tt")
    write_truth_table(dictator(6), path)
    assert main(["lambda", "--in", path, "--delta", "1/20", f"--theta={theta}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and "theta" in captured.err


def test_correct_global_cli(tmp_path, capsys):
    f = random_dt(8, 1, seed=3)
    corrupted = f.values.copy()
    corrupted[17] ^= 1

    bad, truth_p, out_p = (str(tmp_path / x) for x in ("bad.tt", "truth.tt", "fixed.tt"))
    write_truth_table(TruthTable(8, corrupted), bad)
    write_truth_table(f, truth_p)
    code, reports = run(
        capsys, "correct", "--mode", "global", "--in", bad, "--s", "1",
        "--delta", "1/8", "--truth", truth_p, "--out", out_p,
    )
    assert code == 0
    assert reports[0]["outputs"]["recovered"] is True
    assert read_truth_table(out_p) == f


def test_correct_local_cli(tmp_path, capsys):
    path = str(tmp_path / "f.tt")
    write_truth_table(dictator(6), path)
    code, reports = run(
        capsys, "correct", "--mode", "local", "--in", path, "--s", "1",
        "--x", "111111", "--k", "2", "--seed", "4",
    )
    assert code == 0
    assert reports[0]["outputs"] == {"queries": 49, "value": 1}
    assert reports[0]["seed"] == 4


def test_correct_local_cli_answers_a_large_tree_in_seconds(tmp_path, capsys):
    # one tree of 7^7 leaves: the bound allows about 6 us a leaf
    path = str(tmp_path / "f.tt")
    write_truth_table(dictator(12), path)
    started = time.perf_counter()
    code, reports = run(
        capsys, "correct", "--mode", "local", "--in", path, "--s", "1",
        "--x", "1" * 12, "--k", "7",
    )
    assert time.perf_counter() - started < 5
    assert code == 0
    assert reports[0]["outputs"]["queries"] == 823543


def test_correct_local_refuses_huge_default_k(tmp_path, capsys):
    path = str(tmp_path / "f.tt")
    write_truth_table(dictator(12), path)
    assert main(["correct", "--mode", "local", "--in", path, "--s", "1", "--x", "0" * 12]) == 2
    assert capsys.readouterr().err == (
        "error: local correction would issue c^k = 7^15 queries; pass a smaller --k\n"
    )


def test_correct_local_without_x_exits_two(tmp_path, capsys):
    path = str(tmp_path / "f.tt")
    write_truth_table(dictator(6), path)
    assert main(["correct", "--mode", "local", "--in", path, "--s", "1"]) == 2
    assert capsys.readouterr() == ("", "error: local mode needs --x\n")


def test_enumerate_cli(capsys, monkeypatch):
    code, reports = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    assert reports[0]["outputs"]["counts"] == [2, 8, 118, 256]
    # --s counts its own class only, and refuses n before s as the census does
    monkeypatch.setattr(counting, "build_census", None)
    code, reports = run(capsys, "enumerate", "--n", "3", "--s", "1")
    assert reports[0]["outputs"] == {"n": 3, "s": 1, "count": 8, "lower": 6, "upper": 128}
    assert main(["enumerate", "--n", "9", "--s", "20"]) == 2
    assert capsys.readouterr().err == (
        "error: census needs 1 <= n <= 4, or n = 5 with allow_long; got n=9\n")
    assert main(["enumerate", "--n", "5", "--s", "9", "--allow-long"]) == 2
    assert capsys.readouterr().err == "error: s=9 out of range\n"


def test_interpolate_cli_deterministic(capsys):
    args = ["interpolate", "--n", "3", "--s", "1", "--trials", "10", "--seed", "6"]
    code1, _ = run(capsys, *args)
    out1 = main(args.copy())
    first = capsys.readouterr().out
    main(args.copy())
    second = capsys.readouterr().out
    assert code1 == 0 and out1 == 0
    assert first == second  # byte-identical reports for identical seeds


VERIFY_STDOUT = {
    "ball": [
        '{"command": "verify", "ok": true, "outputs": {"detail": "all 1048576 (function, center) '
        'extensions exact at n=4; 200 scalar spot checks bind the batch engine", "name": '
        '"ball-reconstruction", "ok": true}, "parameters": {"criterion": 1, "suite": "ball"}, "seed": '
        'null}',
    ],
    "rules": [
        '{"command": "verify", "ok": true, "outputs": {"detail": "brute-force majority radius equals '
        'min(2s, n) on 66812 functions (exhaustive n <= 4, 500 random each at n = 5, 6)", "name": '
        '"majority-radius", "ok": true}, "parameters": {"criterion": 2, "suite": "rules"}, "seed": null}',
        '{"command": "verify", "ok": true, "outputs": {"detail": "brute-force parity radius equals '
        'deg(f) on all 65812 functions with n <= 4; single-center and all-center radii identical", '
        '"name": "parity-radius", "ok": true}, "parameters": {"criterion": 3, "suite": "rules"}, '
        '"seed": null}',
    ],
    "evaluators": [
        '{"command": "verify", "ok": true, "outputs": {"detail": "bottom-up, top-down and the truth '
        'table agree on all 2^n points of 300 random decision trees (n in (8, 12), depth in (1, 2, '
        '3))", "name": "evaluator-agreement", "ok": true}, "parameters": {"criterion": 4, "suite": '
        '"evaluators"}, "seed": null}',
        '{"command": "verify", "ok": true, "outputs": {"detail": "visit counts within C(d-k+2s, d-k) '
        'at every weight for all 13056 start points (the visit set depends only on x, s, n); '
        'instrumented runs match the profile rows exactly", "name": "topdown-visit-bound", "ok": '
        'true}, "parameters": {"criterion": 5, "suite": "evaluators"}, "seed": null}',
        '{"command": "verify", "ok": true, "outputs": {"detail": "10 corpus functions, each recursing '
        'somewhere: exact worst Pr[error] 0.001907 (s=1, n=16), 0.002272 (s=2, n=22) <= 1/20 at every '
        'point", "name": "parallel-error", "ok": true}, "parameters": {"criterion": 6, "suite": '
        '"evaluators"}, "seed": null}',
    ],
    "noise": [
        '{"command": "verify", "ok": true, "outputs": {"detail": "39424 exact pointwise '
        'noise-sensitivity values strictly below 2*delta*s (corpus at n in (6, 9, 10), delta in '
        '1/(20s), 1/(4s))", "name": "noise-stability", "ok": true}, "parameters": {"criterion": 7, '
        '"suite": "noise"}, "seed": null}',
        '{"command": "verify", "ok": true, "outputs": {"detail": "73144 exact downward-mismatch '
        'bounds hold on every point with wt >= s, every walk length (corpus at n in (6, 9, 10))", '
        '"name": "downward-mismatch", "ok": true}, "parameters": {"criterion": 8, "suite": "noise"}, '
        '"seed": null}',
        '{"command": "verify", "ok": true, "outputs": {"detail": "400 expansion instances hold at '
        'n=12, delta=1/20, theta in (2/5, 1/10); corollary premise met 0 times and its bound held '
        'every time", "name": "small-set-expansion", "ok": true}, "parameters": {"criterion": 9, '
        '"suite": "noise"}, "seed": null}',
    ],
    "selfcorrect": [
        '{"command": "verify", "ok": true, "outputs": {"detail": "20/20 corrupted tables (64 flips '
        'at s=1, 1 flip at s=2, n=12) recovered exactly with delta=1/8, k=15/21; every error set '
        'stayed inside Lambda_(delta,2/5) of its predecessor", "name": "global-correction", "ok": '
        'true}, "parameters": {"criterion": 10, "suite": "selfcorrect"}, "seed": null}',
        '{"command": "verify", "ok": true, "outputs": {"detail": "clean failure rate <= 0.1285 at 3 '
        'probe points; corrupted query point recovered 1000/1000 times with exactly c^k = 2401 '
        'queries per call", "name": "local-correction", "ok": true}, "parameters": {"criterion": 11, '
        '"suite": "selfcorrect"}, "seed": null}',
    ],
    "counting": [
        '{"command": "verify", "ok": true, "outputs": {"detail": "class counts within the '
        'product/degree bounds for every s at n <= 4; |F(0,n)| = 2, |F(1,n)| = 2 + 2n, |F(n,n)| = '
        '2^(2^n) anchors exact", "name": "class-counts", "ok": true}, "parameters": {"criterion": 12, '
        '"suite": "counting"}, "seed": null}',
        '{"command": "verify", "ok": true, "outputs": {"detail": "s <= 4*deg^2, deg <= s^2 (Huang) '
        'and |relevant| <= s*4^s on all 65574 functions (full n=4 census plus the corpus at n in (6, '
        '9, 10))", "name": "cross-measures", "ok": true}, "parameters": {"criterion": 13, "suite": '
        '"counting"}, "seed": null}',
    ],
}


@pytest.mark.parametrize("suite", sorted(VERIFY_STDOUT))
def test_verify_stdout_is_pinned(capsys, suite):
    assert main(["verify", "--suite", suite]) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in VERIFY_STDOUT[suite])


def test_verify_ball_small_n(capsys):
    assert main(["verify", "--suite", "ball", "--n", "3"]) == 0
    assert capsys.readouterr().out == (
        '{"command": "verify", "ok": true, "outputs": {"detail": "all 2048 (function, center) '
        'extensions exact at n=3; 200 scalar spot checks bind the batch engine", "name": '
        '"ball-reconstruction", "ok": true}, "parameters": {"criterion": 1, "suite": "ball"}, '
        '"seed": null}\n')


@pytest.mark.parametrize("argv", [
    ["enumerate", "--n", "3", "--s", "7"],
    ["enumerate", "--n", "3", "--s", "-1"],
    ["enumerate", "--n", "-1"],
    ["enumerate", "--n", "0"],
    ["interpolate", "--n", "3", "--s", "1", "--trials", "0"],
    ["interpolate", "--n", "3", "--s", "1", "--trials", "-1"],
    ["verify", "--suite", "ball", "--n", "5"],
    ["verify", "--suite", "ball", "--n", "0"],
    ["verify", "--suite", "rules", "--n", "3"],  # --n sizes criterion 1 alone
], ids=" ".join)
def test_out_of_range_arguments_exit_two(capsys, argv):
    # a usage error is one stderr line and exit 2, with no report on stdout
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_bench_is_an_unknown_command():
    with pytest.raises(SystemExit) as e:
        main(["bench", "--task", "transforms", "--n", "8"])
    assert e.value.code == 2


def test_bad_usage_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["gen", "--family", "nonsense", "--n", "4", "--out", str(tmp_path / "x.tt")])
    assert e.value.code == 2
    code, _ = run(capsys, "measure", "--in", str(tmp_path / "missing.tt"))
    assert code == 2
    bad = tmp_path / "bad.tt"
    bad.write_text("n=2\n01\n")
    code, _ = run(capsys, "measure", "--in", str(bad))
    assert code == 2


@pytest.mark.parametrize("flag", ["--in", "--advice", "--inner", "--out"])
def test_a_directory_path_exits_two(tmp_path, capsys, flag):
    # IsADirectoryError is an OSError: one error line and exit 2, no traceback
    tt, ball = tmp_path / "f.tt", tmp_path / "f.ball"
    assert main(["gen", "--family", "dictator", "--n", "3", "--out", str(tt)]) == 0
    write_ball_advice(restrict_to_ball(read_truth_table(tt), Point(3, 0), 2), ball)
    capsys.readouterr()
    d = str(tmp_path)
    argv = {
        "--in": ["measure", "--in", d],
        "--advice": ["extend", "--rule", "maj", "--advice", d],
        "--inner": ["gen", "--family", "junta-lift", "--n", "4", "--inner", d,
                    "--out", str(tmp_path / "g.tt")],
        "--out": ["extend", "--rule", "maj", "--advice", str(ball), "--out", d],
    }[flag]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def run_subprocess(*argv, timeout=30):
    """Run the CLI in a fresh interpreter, so that a hang fails instead of blocking."""
    src = str(Path(senslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "senslab", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def assert_usage_error(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")


@pytest.mark.parametrize("family", ["tribes", "junta-lift"])
def test_gen_missing_family_parameter_exits_two(tmp_path, family):
    proc = run_subprocess("gen", "--family", family, "--n", "4", "--out", str(tmp_path / "x.tt"))
    assert_usage_error(proc)
    assert not (tmp_path / "x.tt").exists()


def test_oversized_headers_exit_two(tmp_path):
    ball = tmp_path / "big.ball"
    ball.write_text("n=40 center=" + "0" * 40 + " radius=20\n")
    assert_usage_error(run_subprocess("eval", "--algo", "bottom-up", "--advice", str(ball),
                                      "--s", "1", "--x", "0" * 40))
    tt = tmp_path / "big.tt"
    tt.write_text("n=40\n01\n")
    assert_usage_error(run_subprocess("measure", "--in", str(tt)))


@pytest.mark.parametrize("algo", ["bottom-up", "top-down"])
def test_eval_negative_s_exits_two(tmp_path, algo):
    ball = tmp_path / "f.ball"
    write_ball_advice(restrict_to_ball(dictator(8), Point(8, 0), 8), str(ball))
    proc = run_subprocess("eval", "--algo", algo, "--advice", str(ball), "--s", "-1",
                          "--x", "11111111")
    assert_usage_error(proc)
    assert "s must be >= 0" in proc.stderr


def test_size_cap_ignores_the_environment(tmp_path, monkeypatch):
    path = tmp_path / "f.tt"
    write_truth_table(dictator(8), str(path))
    monkeypatch.setenv("SENSLAB_MAX_N", "abc")
    proc = run_subprocess("measure", "--in", str(path))
    assert proc.returncode == 0 and json.loads(proc.stdout)["outputs"]["n"] == 8


def test_short_advice_for_a_large_ball_exits_two_fast(tmp_path):
    # B(0, 12) at n = 24 has 9,740,686 points; the point count must fail before any enumeration
    ball = tmp_path / "short.ball"
    ball.write_text("n=24 center=" + "0" * 24 + " radius=12\n")
    started = time.perf_counter()
    assert_usage_error(run_subprocess("eval", "--algo", "bottom-up", "--advice", str(ball),
                                      "--s", "1", "--x", "0" * 24, timeout=30))
    assert time.perf_counter() - started < 5


def test_seed_echoed_in_reports(tmp_path, capsys):
    path = str(tmp_path / "r.tt")
    code, reports = run(
        capsys, "gen", "--family", "random", "--n", "5", "--seed", "77", "--out", path
    )
    assert code == 0 and reports[0]["seed"] == 77



# ---------------------------------------------------------------------------
# CLI fuzz: malformed and oversized files, out-of-range flags.  Every example is
# refused before any work: sizes stay under the caps, and no call starts a process.

def _refused(argv):
    """main(argv) run in-process: it must exit 2 with one stderr line and no report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue()) == (2, ""), (argv, code, err.getvalue())
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


def _poke(data, text, chars):
    """text with one character replaced by a draw from chars."""
    i = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
    return text[:i] + data.draw(st.sampled_from(chars)) + text[i + 1:]


small_n = st.integers(min_value=1, max_value=6)
# n = 0, past MAX_N, or past Python's 4300-digit limit for int parsing
bad_n = st.one_of(st.just("0"), st.integers(min_value=25, max_value=10**9).map(str),
                  st.integers(min_value=4301, max_value=5000).map(lambda d: "9" * d))
bad_header = st.from_regex(r"n=[0-9]{0,3}[a-z,.=-][0-9a-z]{0,3}", fullmatch=True)


def _bad_tt(data):
    n = data.draw(small_n)
    bits = "".join(data.draw(st.lists(st.sampled_from("01"), min_size=1 << n, max_size=1 << n)))
    kind = data.draw(st.sampled_from(["no bits", "header", "n", "length", "char", "utf-8"]))
    if kind == "no bits":
        return f"n={n}\n".encode()
    if kind == "header":
        return f"{data.draw(bad_header)}\n{bits}\n".encode()
    if kind == "n":
        return f"n={data.draw(bad_n)}\n01\n".encode()
    if kind == "length":
        bits = data.draw(st.text("01", min_size=1, max_size=80).filter(lambda b: len(b) != 1 << n))
    elif kind == "char":
        bits = _poke(data, bits, "2x.-")
    else:
        return f"n={n}\n".encode() + b"\xff" + bits[1:].encode() + b"\n"
    return f"n={n}\n{bits}\n".encode()


def _bad_ball(data, path):
    n = data.draw(small_n)
    radius = data.draw(st.integers(min_value=0, max_value=n))
    center = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    f = random_function(n, seed=data.draw(st.integers(min_value=0, max_value=2**16)))
    write_ball_advice(restrict_to_ball(f, Point(n, center), radius), path)
    head, *lines = path.read_text().splitlines()
    kind = data.draw(st.sampled_from(["empty", "header", "n", "radius", "center", "count",
                                      "value", "point", "order", "fields", "utf-8"]))
    center_field = head.split()[1]
    if kind == "empty":
        return b""
    if kind == "header":
        head = data.draw(bad_header)
    elif kind == "n":
        head = f"n={data.draw(bad_n)} {center_field} radius=1"
    elif kind == "radius":
        head = f"n={n} {center_field} radius={data.draw(st.integers(min_value=n + 1, max_value=10**6))}"
    elif kind == "center":
        bits = data.draw(st.text("01", min_size=1, max_size=30).filter(lambda b: len(b) != n))
        head = f"n={n} center={bits} radius={radius}"
    elif kind == "count":
        i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
        lines = lines[:i] + lines[i + 1:] if data.draw(st.booleans()) else lines[:i] + [lines[i]] + lines[i:]
    else:
        i = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
        point, value = lines[i].split()
        if kind == "value":
            lines[i] = f"{point} {data.draw(st.sampled_from(['2', 'x', '01', '-1']))}"
        elif kind == "point":
            lines[i] = f"{_poke(data, point, '2x') if data.draw(st.booleans()) else point + '0'} {value}"
        elif kind == "order":
            if len(lines) == 1:
                lines[i] = f"{point} {value} 1"
            else:
                j = data.draw(st.integers(min_value=0, max_value=len(lines) - 1).filter(lambda j: j != i))
                lines[j] = lines[i]  # a duplicate, or two points out of order
        elif kind == "fields":
            lines[i] = f"{point} {value} {value}"
        else:
            return "\n".join([head] + lines).encode() + b"\n\xff\n"
    return "\n".join([head] + lines).encode() + b"\n"


TT_COMMANDS = [
    ["measure"],
    ["ns", "--delta", "1/4"],
    ["lambda", "--delta", "1/8", "--theta", "1/10"],
    ["correct", "--mode", "global", "--s", "1"],
]
BALL_COMMANDS = [
    ["extend", "--rule", "maj"], ["extend", "--rule", "par"], ["extend", "--rule", "f2"],
    ["eval", "--algo", "bottom-up", "--s", "1", "--x", "0"],
    ["eval", "--algo", "top-down", "--s", "1", "--x", "0"],
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_refuses_malformed_files(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("fuzz")
    out = tmp / "out.tt"
    if data.draw(st.booleans()):
        path = tmp / "in.tt"
        path.write_bytes(_bad_tt(data))
        command = data.draw(st.sampled_from(TT_COMMANDS + [
            ["gen", "--family", "junta-lift", "--n", "8", "--positions", "1", "--out", str(out), "--inner"]]))
        flag = [] if command[0] == "gen" else ["--in"]
    else:
        path = tmp / "in.ball"
        path.write_bytes(_bad_ball(data, path))
        command, flag = data.draw(st.sampled_from(BALL_COMMANDS)), ["--advice"]
    _refused(command + flag + [str(path)])
    assert not out.exists()


def _out_of(lo, hi):
    """Integers outside [lo, hi], near its ends and far from them."""
    return st.one_of(st.integers(min_value=lo - 10**12, max_value=lo - 1),
                     st.integers(min_value=hi + 1, max_value=hi + 10**12))


def _bad_flags(data, ball, tt):
    num = lambda s: str(data.draw(s))  # noqa: E731
    fraction = st.tuples(st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=50))
    kind = data.draw(st.sampled_from(["gen", "enumerate n", "enumerate s", "interpolate n",
                                      "interpolate trials", "interpolate huge trials", "interpolate k",
                                      "interpolate s", "verify", "eval s", "correct", "delta", "theta"]))
    if kind == "gen":
        family = data.draw(st.sampled_from(["constant", "or", "and", "parity", "random"]))
        return ["gen", "--family", family, "--n", num(_out_of(1, 24)), "--out", str(tt) + ".new"]
    if kind == "enumerate n":
        n = data.draw(st.one_of(_out_of(1, 5), st.just(5)))
        return ["enumerate", "--n", str(n)] + (["--allow-long"] if n != 5 and data.draw(st.booleans()) else [])
    if kind == "enumerate s":
        n = data.draw(st.integers(min_value=1, max_value=4))
        return ["enumerate", "--n", str(n), "--s", num(_out_of(0, n))]
    if kind == "interpolate n":
        return ["interpolate", "--n", num(_out_of(1, 4)), "--s", "1", "--k", "4", "--trials", "1"]
    if kind == "interpolate trials":
        return ["interpolate", "--n", "3", "--s", "1", "--trials", num(st.integers(max_value=0))]
    if kind == "interpolate huge trials":
        # past INTERPOLATION_MAX_WORK: trials * 4 points * |F(2, 3)| = 118 members
        trials = data.draw(st.integers(min_value=counting.INTERPOLATION_MAX_WORK // (4 * 118) + 1))
        return ["interpolate", "--n", "3", "--s", "1", "--k", "4", "--trials", str(trials)]
    if kind == "interpolate k":
        # past INTERPOLATION_MAX_BYTES over |F(2, 3)| = 118 members, or negative
        k = data.draw(st.one_of(st.integers(min_value=counting.INTERPOLATION_MAX_BYTES // 118 + 1),
                                st.integers(max_value=-1)))
        return ["interpolate", "--n", "3", "--s", "1", "--k", str(k), "--trials", "1"]
    if kind == "interpolate s":
        # 2^(2s) alone passes the byte limit, or s < 0
        s = data.draw(st.one_of(st.integers(min_value=14), st.integers(max_value=-1)))
        return ["interpolate", "--n", "3", "--s", str(s), "--trials", "1"]
    if kind == "verify":
        if data.draw(st.booleans()):
            return ["verify", "--suite", "ball", "--n", num(_out_of(1, 4))]
        return ["verify", "--suite", data.draw(st.sampled_from(["rules", "noise", "counting"])),
                "--n", num(st.integers())]
    if kind == "eval s":
        algo = data.draw(st.sampled_from(["bottom-up", "top-down"]))
        return ["eval", "--algo", algo, "--advice", str(ball), "--s", num(st.integers(max_value=-1)),
                "--x", "1" * 6]
    if kind == "correct":
        s, k = data.draw(st.sampled_from([(st.integers(max_value=0), st.just(1)),
                                          (st.integers(min_value=1, max_value=3), st.integers(max_value=0))]))
        return ["correct", "--mode", "global", "--in", str(tt), "--s", num(s), "--k", num(k)]
    p, q = data.draw(fraction.filter(lambda pq: not 0 < pq[0] / pq[1] <= (1 / 2 if kind == "delta" else 1)))
    if kind == "delta":
        return ["ns", "--in", str(tt), f"--delta={p}/{q}"]
    return ["lambda", "--in", str(tt), "--delta", "1/8", f"--theta={p}/{q}"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_refuses_out_of_range_flags(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("flags")
    ball, tt = tmp / "f.ball", tmp / "f.tt"
    write_ball_advice(restrict_to_ball(dictator(6), Point(6, 0), 6), str(ball))
    write_truth_table(dictator(6), str(tt))
    _refused(_bad_flags(data, ball, tt))
    assert not Path(str(tt) + ".new").exists()


def test_a_zero_denominator_is_a_usage_error(tmp_path):
    path = tmp_path / "f.tt"
    write_truth_table(dictator(4), str(path))
    with pytest.raises(SystemExit) as e:
        main(["ns", "--in", str(path), "--delta", "1/0"])
    assert e.value.code == 2


def test_interpolate_refuses_a_huge_k(capsys):
    assert main(["interpolate", "--n", "3", "--s", "1", "--k", "1000000000000", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: interpolation sample of 1000000000000 points projects 118 members "
                            "onto 118000000000000 bytes per trial, over the 268435456 limit\n")


def test_interpolate_refuses_the_default_trials_at_n4_s3(capsys):
    assert main(["interpolate", "--n", "4", "--s", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 100 interpolation trials project 20132659200 bytes and draw 307200 "
                            "samples, 20135116800 priced bytes in all, over the 8589934592 limit\n")


def test_interpolate_prices_the_work_members_do_not_share(capsys):
    # 85 trials of k = 25165824 over 4 members project under 2^33 bytes but run ~2.5 minutes
    start = time.perf_counter()
    assert main(["interpolate", "--n", "1", "--s", "11", "--trials", "85"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("25669140480 priced bytes in all, over the 8589934592 limit\n")


class _Admitted(Exception):
    pass


class _FirstDraw:
    def integers(self, *args, **kwargs):
        raise _Admitted


@pytest.mark.parametrize("s", [0, 1, 2])
def test_interpolate_admits_the_default_trials_at_n4(monkeypatch, s):
    # admitted: every limit passes and the first draw is reached (the trials are not run)
    monkeypatch.setattr(cli, "seeded_rng", lambda *args: _FirstDraw())
    with pytest.raises(_Admitted):
        main(["interpolate", "--n", "4", "--s", str(s)])
