"""Smoke tests of the benchmark itself, with tiny job counts.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

workloads = bench.import_package()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = ("linalg.eigh.calls", "linalg.kron.calls", "optimize.seesaw.cycles",
          "optimize.dykstra.sweeps", "optimize.ascent.iterations", "protocol.thread_pools")


def first_jobs(wl, workload: str, seed: int, count: int) -> list:
    stream = wl.jobs(workloads.job_rng(workload, seed))
    return [next(stream) for _ in range(count)]


def smoke_run(workload: str, trace: bool, seed: int = 3) -> dict:
    return bench.run(workload, seed=seed, seconds=0, trace=trace,
                     setup_samples=1, job_limit=2)


@pytest.fixture(scope="module")
def smoke() -> dict:
    return {(w, t): smoke_run(w, t) for w in workloads.WORKLOADS for t in (False, True)}


@pytest.fixture(scope="module")
def built(tmp_path_factory) -> dict:
    work = tmp_path_factory.mktemp("cli")
    return {w: workloads.make(w, work) for w in workloads.WORKLOADS}


def test_spec_matches_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.per_layer_units()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_every_metric_emitted(smoke, workload, trace):
    result = smoke[workload, trace]["result"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in bench.END_TO_END)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_follows_seed(built, workload):
    wl = built[workload]
    first = first_jobs(wl, workload, 11, 12)
    assert first == first_jobs(wl, workload, 11, 12)
    assert first != first_jobs(wl, workload, 12, 12)


def test_zero_predictions(smoke):
    seesaw = smoke["seesaw", True]["result"]["metrics"]
    assert seesaw["linalg.kron.calls"]["value"] == 0
    assert seesaw["states.densify.calls"]["value"] == 0
    ascent = smoke["ccnr-ascent", True]["result"]["metrics"]
    assert ascent["linalg.eigh.calls"]["value"] == 0
    assert ascent["linalg.kron.calls"]["value"] == 0
    assert ascent["optimize.dykstra.sweeps"]["value"] > 0
    dense = smoke["dense-oracle", True]["result"]["metrics"]
    optimize_counts = [k for k, m in dense.items()
                       if k.startswith("optimize.") and m["unit"] == "count"]
    assert optimize_counts
    assert all(dense[k]["value"] == 0 for k in optimize_counts)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(smoke, workload):
    again = smoke_run(workload, trace=True)["result"]["metrics"]
    first = smoke[workload, True]["result"]["metrics"]
    for name in COUNTS:
        assert again[name]["value"] == first[name]["value"], name


def _corrupt_dense(result):
    dense, factored = result
    dense = np.array(dense)
    dense[0] = -dense[0]
    return dense, factored


def _corrupt_seesaw(report):
    bad = copy.copy(report)
    bad.best_value = report.best_value + 0.5
    return bad


def _corrupt_ascent(report):
    bad = copy.copy(report)
    bad.best_lambdas = report.best_lambdas.copy()
    bad.best_lambdas[5] += 1.0
    return bad


def _corrupt_cli(result):
    code, out, err = result
    return 1 - code if code in (0, 1) else 0, out, err


CORRUPT = {
    "dense-oracle": _corrupt_dense,
    "seesaw": _corrupt_seesaw,
    "ccnr-ascent": _corrupt_ascent,
    "cli-mix": _corrupt_cli,
}


class _Faulty:
    """Wraps a workload: corrupts job 1's result and makes job 2 raise."""

    def __init__(self, wl, corrupt):
        self.wl, self.corrupt, self.calls = wl, corrupt, 0

    def execute(self, job):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("injected")
        result = self.wl.execute(job)
        return self.corrupt(result) if self.calls == 2 else result

    def check(self, job, result):
        return self.wl.check(job, result)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_negative_control_counts_failures(built, workload):
    wl = built[workload]
    jobs = first_jobs(wl, workload, 5, 4)
    if workload == "seesaw":   # keep the control cheap: D=16 jobs only
        jobs = [workloads.Job("quantum-D16", ("quantum", 16, s)) for s in range(4)]
    faulty = _Faulty(wl, CORRUPT[workload])
    records, _ = bench.closed_loop(faulty, jobs, workloads.Outcome)
    assert [r.outcome.ok for r in records] == [True, False, False, True]
    assert "raised RuntimeError" in records[2].outcome.detail


def test_refuses_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "seesaw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
