"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
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
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def expected(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_with_units(workload):
    result, stdout = result_of(run("--workload", workload, "--seed", "3", "--seconds", "0.3", "--tiny"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in ("op_p90_s", "angle_p50_rad", "approx_err_p50", "ops_failed_frac"):
        assert f"  {name} " in stdout


def test_traced_run_reports_every_per_layer_metric():
    result, stdout = result_of(run("--workload", "all", "--seconds", "0.3", "--tiny", "--trace", "1"))
    assert result["correct"]
    units = expected("per_layer")
    for workload in WORKLOADS:
        got = {k.split(".", 1)[1]: v["unit"] for k, v in result["metrics"].items() if k.startswith(workload + ".")}
        assert got == units
    # every layer is busy on at least one workload
    for layer in ("kernels", "matrixcore", "perturbation", "extension", "nystrom", "experiments", "cli"):
        busy = [k for k, v in result["metrics"].items()
                if k.split(".", 1)[1].startswith(layer + ".") and k.endswith(".self_s") and v["value"] > 0]
        assert busy, layer


def test_per_layer_list_matches_tracer():
    sys.path.insert(0, str(HERE))
    from tracer import per_layer_metrics

    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == per_layer_metrics()


def test_injected_failure_is_counted():
    result, stdout = result_of(run("--workload", "cli_files", "--seconds", "0.3", "--tiny", "--inject-failure"))
    assert not result["correct"] and result["failed"] == 1
    assert "ops_failed_frac  0 " not in stdout and "injected failure" in stdout


def test_refuses_without_program_source():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
