"""Smoke tests of the benchmark itself, on 16- and 32-node grids.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs untraced once and traced twice; every metric named in
BENCHMARK.json must come out with its unit, and per-layer counts must repeat
exactly between the two traced runs.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    return out


def _expected(key: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_benchmark_json_matches_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert listed == list(layers.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    out = _result(workload, 0)
    assert {name: m["unit"] for name, m in out["metrics"].items()} == _expected("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_emitted_and_counts_repeat(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    assert first["correct"] and second["correct"]
    assert {name: m["unit"] for name, m in first["metrics"].items()} == _expected("per_layer")
    for name, m in first["metrics"].items():
        if m["unit"] in ("count", "bytes-computed", "ratio"):
            assert second["metrics"][name]["value"] == m["value"], name


def test_seed_fixes_inputs():
    assert workloads.configs("calc", 5) == workloads.configs("calc", 5)
    assert workloads.configs("calc", 5) != workloads.configs("calc", 6)
    assert workloads.configs("oneform", 5) != workloads.configs("oneform", 6)


def test_refuses_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("oneform", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
