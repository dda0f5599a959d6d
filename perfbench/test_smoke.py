"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q

It checks that every metric ``BENCHMARK.json`` names is emitted with its
unit on every workload, in both the untraced and the traced run, that one
seed yields bit-identical inputs, and that the benchmark refuses to run
without the program's source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    assert "env: " in done.stdout


def _inputs(seed: int):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads
    finally:
        del sys.path[:2]
    return (
        [cell.data for cell in workloads.solve_cells(seed)],
        workloads.churn_pool(seed),
        [p.data() for p in workloads.churn_pool(seed)[:8]],
        workloads.serve_pool(seed),
        workloads.serve_schedule(seed, 2.0),
    )


def test_one_seed_gives_bit_identical_inputs():
    first, again, other = _inputs(5), _inputs(5), _inputs(6)
    for a, b in zip(first, again):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            if isinstance(x, np.ndarray):
                assert x.tobytes() == y.tobytes()
            else:
                assert x == y
    assert first[0][0].tobytes() != other[0][0].tobytes()
    assert first[1] != other[1]
    assert first[4] != other[4]


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench")
    done = run_benchmark("solve", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
