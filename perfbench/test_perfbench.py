"""The benchmark's own tests; each runs real (short) workloads, about two minutes in all.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def names(kind: str) -> set:
    return {m["name"] for m in SPEC[kind]}


@pytest.fixture(scope="module")
def warm_traced():
    out = run.measure("paper_warm", seed=5, seconds=1, trace=True)
    return out, layers.leftover_wrappers()


def test_declared_workloads_are_harness_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_untraced_run_emits_the_declared_end_to_end_metrics():
    out = run.measure("paper_warm", seed=4, seconds=1, trace=False)
    res = out["result"]
    assert res["correct"], out["failures"]
    assert set(res["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_emits_the_declared_per_layer_metrics(warm_traced):
    out, _ = warm_traced
    assert out["result"]["correct"], out["failures"]
    assert set(out["result"]["metrics"]) == names("per_layer")


def test_traced_warm_sweep_neither_compiles_nor_simulates(warm_traced):
    out, _ = warm_traced
    metrics = out["result"]["metrics"]
    assert metrics["compiler.compiles"]["value"] == 0
    assert metrics["sim.launches"]["value"] == 0
    assert metrics["exec.cache_hit_frac"]["value"] == 1.0


def test_traced_cold_sweep_compiles_and_simulates_in_workers():
    out = run.measure("paper_cold", seed=6, seconds=1, trace=True)
    assert out["result"]["correct"], out["failures"]
    metrics = out["result"]["metrics"]
    assert metrics["compiler.compiles"]["value"] > 0
    assert metrics["sim.launches"]["value"] > 0
    assert metrics["exec.execute_s"]["value"] > 0
    assert layers.leftover_wrappers() == []


def test_wrappers_are_removed_after_a_traced_run(warm_traced):
    _, leftovers = warm_traced
    assert leftovers == []


def test_planted_fault_counts_as_a_failed_operation():
    out = run.measure(
        "paper_cold", seed=7, seconds=1, trace=False,
        faults="raise:MD/cuda@GTX480*",
    )
    res = out["result"]
    assert not res["correct"]
    assert 0 < res["failed"] < res["attempted"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "paper_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
