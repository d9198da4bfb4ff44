"""The benchmark's own test, at smoke sizes.

Run from the repository root with ``python -m pytest benchmarks -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NOTES = json.loads((HERE / "workloads.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(*args) -> dict:
    r = bench(*args)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.strip().splitlines()[-1])


def test_spec_matches_the_harness():
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(workloads.SETUPS) == sorted(NOTES["workloads"])
    assert [tuple(m.values()) for m in SPEC["per_layer"]] == layers.per_layer_metrics()
    known = {m["name"] for m in SPEC["per_layer"]} | {m["name"] for m in SPEC["end_to_end"]}
    for p in NOTES["predictions"]:
        assert set(p["layer_metrics"]) <= known, p
        assert set(p["moves"]) <= known, p
        assert set(p["on"]) <= set(names), p


@pytest.mark.parametrize("workload", sorted(workloads.SETUPS))
def test_smoke_run_is_correct(workload):
    r = result("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0", "--smoke")
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    assert set(r["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in r["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.SETUPS))
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", "1", "--smoke")
    first, second = result(*args), result(*args)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    timed = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "s"} | {"trace.overhead_ratio"}
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k not in timed} for r in (first, second)]
    assert counts[0] == counts[1]
    assert any(counts[0][k] for k in counts[0] if k.endswith(".calls"))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    r = bench("--workload", "period", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
