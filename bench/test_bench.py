"""Tests of the benchmark itself, at smoke-test sizes (grid 8, cutoff 2, lambda_max 10).

Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics that count work rather than time it; they must repeat exactly.
EXACT = ("calls", "points", "matrix_order", "fourier_modes", "json_parses")


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = result_of(bench(workload, 1))["metrics"]
    second = result_of(bench(workload, 1))["metrics"]
    names = [k for k in first if k.rsplit(".", 1)[-1] in EXACT]
    assert "numpy.fft.points" in names and "spectra.galerkin.matrix_order" in names
    assert {k: first[k]["value"] for k in names} == {k: second[k]["value"] for k in names}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
