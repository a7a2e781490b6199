import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import senslab
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


def test_correct_local_refuses_huge_default_k(tmp_path, capsys):
    path = str(tmp_path / "f.tt")
    write_truth_table(dictator(12), path)
    assert main(["correct", "--mode", "local", "--in", path, "--s", "1", "--x", "0" * 12]) == 2
    assert capsys.readouterr().err == (
        "error: local correction would issue c^k = 7^15 queries; pass a smaller --k\n"
    )


def test_enumerate_cli(capsys):
    code, reports = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    assert reports[0]["outputs"]["counts"] == [2, 8, 118, 256]
    code, reports = run(capsys, "enumerate", "--n", "3", "--s", "1")
    assert reports[0]["outputs"]["count"] == 8


def test_interpolate_cli_deterministic(capsys):
    args = ["interpolate", "--n", "3", "--s", "1", "--trials", "10", "--seed", "6"]
    code1, _ = run(capsys, *args)
    out1 = main(args.copy())
    first = capsys.readouterr().out
    main(args.copy())
    second = capsys.readouterr().out
    assert code1 == 0 and out1 == 0
    assert first == second  # byte-identical reports for identical seeds


def test_verify_suite_cli(capsys):
    code, reports = run(capsys, "verify", "--suite", "counting")
    assert code == 0
    assert [r["parameters"]["criterion"] for r in reports] == [12, 13]
    assert all(r["ok"] for r in reports)


VERIFY_STDOUT = {
    "rules": [
        '{"command": "verify", "ok": true, "outputs": {"detail": "brute-force majority radius equals '
        'min(2s, n) on 66812 functions (exhaustive n <= 4, 500 random each at n = 5, 6)", "name": '
        '"majority-radius", "ok": true}, "parameters": {"criterion": 2, "suite": "rules"}, "seed": null}',
        '{"command": "verify", "ok": true, "outputs": {"detail": "brute-force parity radius equals '
        'deg(f) on all 65812 functions with n <= 4; single-center and all-center radii identical", '
        '"name": "parity-radius", "ok": true}, "parameters": {"criterion": 3, "suite": "rules"}, '
        '"seed": null}',
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
}


@pytest.mark.parametrize("suite", sorted(VERIFY_STDOUT))
def test_verify_stdout_is_pinned(capsys, suite):
    assert main(["verify", "--suite", suite]) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in VERIFY_STDOUT[suite])


def test_verify_ball_small_n(capsys):
    code, reports = run(capsys, "verify", "--suite", "ball", "--n", "3")
    assert code == 0 and reports[0]["outputs"]["ok"]


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
