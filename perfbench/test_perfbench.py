"""Tests of the benchmark itself (not collected by the library's test suite):

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from senslab import noise  # noqa: E402

COUNT_UNITS = {"count", "ratio", "B"}


def _bench(*args: str) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=180, check=True)
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report_line)["report"], json.loads(result_line)


@pytest.fixture(scope="module")
def traced_runs():
    args = ("--workload", "sampling-exact", "--seed", "5", "--seconds", "1", "--trace", "1")
    return [_bench(*args) for _ in range(2)]


def test_layer_counts_repeat_exactly_at_one_seed(traced_runs):
    (_, first), (_, second) = traced_runs
    counted = {name: m["value"] for name, m in first["metrics"].items()
               if m["unit"] in COUNT_UNITS or name.endswith(".calls")}
    assert counted["selfcorrect.oracle.queries"] > 0
    assert counted["noise.exact_noise_value.calls"] > 0
    assert counted == {name: second["metrics"][name]["value"] for name in counted}
    assert first["correct"] and first["failed"] == 0


def test_self_times_and_unattributed_add_up_to_the_traced_pass(traced_runs):
    report, _ = traced_runs[0]
    spans = report["pass_self_s"]
    assert "unattributed" in spans and len(spans) > 5
    assert sum(spans.values()) == pytest.approx(report["pass_wall_s"], rel=1e-9, abs=1e-6)


def test_wrappers_patch_every_namespace_that_binds_a_function(traced_runs):
    wrapped = traced_runs[0][0]["wrapped"]
    assert "senslab.selfcorrect.noise_operator" in wrapped["noise.noise_operator"]
    assert "senslab.selfcorrect.exact_noise_value" in wrapped["noise.exact_noise_value"]
    assert "senslab.selfcorrect.lambda_set" in wrapped["noise.lambda_set"]
    assert "senslab.verify.sensitivity" in wrapped["core.sensitivity"]
    assert "senslab.verify.restrict_to_ball" in wrapped["core.restrict_to_ball"]
    assert not {"core.popcount", "core.weight", "core.Point"} & set(wrapped)


@pytest.mark.parametrize("broken", [
    lambda *args, **kwargs: frozenset(),
    lambda *args, **kwargs: 1 / 0,
])
def test_a_failing_check_raises_fail_ratio(monkeypatch, broken):
    state, _ = workloads.setup("sampling-exact", 5)
    task = dict(workloads.TASKS["sampling-exact"])["band-ties"]
    ratios = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(noise, "lambda_set", broken)
        gate = workloads.Gate()
        gate.run("band-ties", task, state)
        attempted, failed = run._gate([
            {"attempted": gate.attempted, "failed": gate.failed, "digests": gate.digests}
        ])
        ratios.append(len(failed) / attempted)
    assert ratios[0] == 0 < ratios[1]


def test_a_pass_whose_outputs_change_fails_the_replay_check():
    passes = [{"attempted": 1, "failed": [], "digests": {"t": d}} for d in ("a", "b")]
    attempted, failed = run._gate(passes)
    assert attempted == 3 and len(failed) == 1


def test_benchmark_json_matches_the_design_and_the_contract():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "design.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert set(design["workloads"]) == set(workloads.WORKLOADS)
    layered = [name for layer in design["layers"] for name in layer["metrics"]]
    assert sorted(layered) == sorted(m["name"] for m in bench["per_layer"])
    assert len(set(layered)) == len(layered)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert set(e2e) == {"pass_s", "cpu_s", "setup_s", "peak_rss_mib"}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batteries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
