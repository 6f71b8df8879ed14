"""The benchmark under benchmarks/ reaches into the package by name: its
tracer patches functions by attribute, and its workloads call the API
with fixed arguments.  These tests load the benchmark's own files, so
they fail as soon as the package drops or renames something a
`--trace 1` run or a workload job needs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


RUN = _load("run")
WORKLOADS = _load("workloads")


class _LookupTracer:
    """Looks up each attribute the real tracer would wrap; patches nothing."""

    def __init__(self):
        self.looked_up = []

    def patch(self, owner, attr, wrapper, only_owner=False):
        getattr(owner, attr)
        self.looked_up.append(attr)


def test_tracer_finds_every_patched_name():
    tracer = _LookupTracer()
    RUN.install_tracer(tracer, WORKLOADS)
    assert {"densify", "pauli_basis", "require_hermitian", "expectations_dense",
            "ThreadPoolExecutor", "dykstra_rows", "project_psd_rows"} <= set(tracer.looked_up)


@pytest.mark.parametrize("name", WORKLOADS.WORKLOADS)
def test_workload_job_runs_and_passes(tmp_path, name):
    """Set-up (which runs one cold job) and the first seeded job of each
    workload, checked by the workload itself."""
    wl = WORKLOADS.make(name, tmp_path)
    job = next(wl.jobs(WORKLOADS.job_rng(name, 0)))
    outcome = wl.check(job, wl.execute(job))
    assert outcome.ok, outcome.detail
