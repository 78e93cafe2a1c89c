"""Smoke test of the benchmark at tiny scale (a few minutes):

    python3 -m pytest perfbench/test_smoke.py -q

Not collected by the repository's own pytest run, whose ``testpaths`` are
``tests`` and ``benchmarks``.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from checks import check_recovery, check_routes  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_with_its_unit(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        n: v["unit"] for n, v in result["metrics"].items()
    }
    report = json.loads(out.stdout.strip().splitlines()[-2])
    assert report["report"]["mismatches"] == []
    assert report["manifest"]["seed"] == 1


def test_corrupted_recovery_row_is_counted_as_failed():
    good = pd.DataFrame({"traj_id": [7, 7, 7, 9, 9], "idx": [0, 1, 2, 0, 1],
                         "seg": [3, 3, 4, 1, 2], "ratio": [0.1, 0.5, 0.2, 0.0, 0.9]})
    n_ticks = {7: 3, 9: 2}
    assert check_recovery(good, n_ticks, n_segments=10) == set()
    for col, value in (("ratio", 1.0), ("seg", 10), ("idx", 5)):
        bad = good.copy()
        bad.loc[1, col] = value
        assert check_recovery(bad, n_ticks, n_segments=10) == {7}
    assert check_recovery(good.drop(index=4), n_ticks, n_segments=10) == {9}


def test_disconnected_route_is_counted_as_failed():
    from repro.roadnet.generate import make_city

    net = make_city(nx=6, ny=5, spacing=100.0, seed=3)
    a = 0
    b = int(net.successors(a)[0])
    far = next(s for s in range(net.n_segments)
               if s not in set(net.successors(a).tolist()) and s != a)
    ok = pd.DataFrame({"traj_id": [1, 1], "pos": [0, 1], "seg": [a, b]})
    assert check_routes(ok, [1], net, None)[0] == set()
    # a hop plan_route can route was not stitched: a defect, not a fallback
    broken = pd.DataFrame({"traj_id": [1, 1], "pos": [0, 1], "seg": [a, far]})
    assert check_routes(broken, [1], net, None)[0] == {1}
    assert check_routes(ok.iloc[:0], [1], net, None)[0] == {1}


def test_latency_loop_counts_a_raise_as_failed():
    from workloads import Run, _measure

    run = Run(spark=None, k=1, seed=1, seconds=0.0, scale={})

    def call(i):
        if i == 2:
            raise ValueError("bad trajectory")

    (lat,), passes = _measure(run, [0, 1, 2, 3], [call], dict)
    assert passes == [{}]
    assert len(lat.ok()) == 3 and not np.isfinite(lat.norm[2])
    # every item runs once before the passes and once after them
    assert (run.attempted, run.failed) == (8, 2)


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert "metrics" not in out.stdout
