"""Minimal-length runs of every workload through the real command line, and
the checks that keep `BENCHMARK.json` and the harness in step."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _bench(root, *args, timeout=300):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=root)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_minimal_run(workload):
    proc = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_minimal_traced_run():
    proc = _bench(ROOT, "--workload", "eq-corpus", "--seed", "1", "--seconds", "0.05", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is True
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.per_layer_units()
    assert res["metrics"]["diagram.parse.calls"]["value"] > 0


def test_benchmark_json_matches_harness():
    spec = _spec()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in _spec()["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "--workload", "eq-corpus", "--seed", "1", "--seconds", "1", "--trace", "0", timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
