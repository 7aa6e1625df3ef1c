"""Smoke test of the benchmark at tiny sizes: python3 -m pytest perfbench

It checks that every workload runs and prints every metric BENCHMARK.json
names, with its unit; that a result perturbed outside its tolerance counts
as failed; and that the benchmark refuses to run without the lab's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in wanted)


def test_perturbed_result_counts_as_failed(monkeypatch):
    assert run.load_lab() is None
    import wtf_lab.cli as cli

    real = cli.graph_dimension_prediction

    def off_by_1e3(sys_, *args, **kwargs):
        pred = real(sys_, *args, **kwargs)
        return SimpleNamespace(**{**vars(pred), "s1": pred.s1 + 1e-3, "box_dim": pred.s1 + 1e-3})

    monkeypatch.setattr(cli, "graph_dimension_prediction", off_by_1e3)
    runner = run.Runner("predict", 5, tiny=True)
    runner.ops = [op for op in runner.ops if op.command == "predict"]
    summary = run.summarize(runner.run_phase("untraced", 0.0))
    failed = [r["op"] for r in runner.records if r["status"] == "failed"]
    # M1-M4 miss the closed-form s1 (tolerance 1e-6); M5 no longer has
    # hausdorff_upper = min(s1, s2)
    assert failed == [f"predict.M{k}" for k in range(1, 6)]
    assert summary["ok_frac"] == 0.0
    assert summary["err_ratio"] > 100


def test_criterion_number_outside_its_tolerance_fails():
    op = workloads.Op("verify.nonlinear_pressure", 1, criterion="nonlinear_pressure",
                      check=workloads.check_criterion)
    for value, ok in (("8.88e-04", True), ("2.10e-03", False)):
        verdict = workloads.Verdict()
        detail = f"|P| = {value} (tol 2e-3), error_bound 2.81e-02, elapsed 0.1s (< 30s)"
        op.check(op, SimpleNamespace(passed=True, detail=detail), verdict)
        assert (not verdict.problems) == ok, verdict.problems
    verdict = workloads.Verdict()
    op.check(op, SimpleNamespace(passed=True, detail="reworded"), verdict)
    assert verdict.problems
    # a FAIL whose stated numbers all hold is a wall-clock gate failure
    slow = "|P| = 8.88e-04 (tol 2e-3), error_bound 2.81e-02, elapsed 31.0s (< 30s)"
    verdict = workloads.Verdict()
    op.check(op, SimpleNamespace(passed=False, detail=slow), verdict)
    assert not verdict.problems and verdict.gates


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = _bench("--workload", "predict", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
