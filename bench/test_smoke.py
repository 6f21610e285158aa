"""Smoke test of the benchmark: every workload, both modes, at a tiny size.

    python -m pytest bench/test_smoke.py -q

Asserts that each run exits 0, passes its correctness gates and emits
exactly the metrics BENCHMARK.json names, and that the benchmark
refuses to run where the program's sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace)]
    command[0] = sys.executable if command[0] == "python3" else command[0]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for directory in SPEC["paths"]:
        shutil.copytree(ROOT / directory, tmp_path / directory,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
