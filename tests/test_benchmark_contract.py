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
TRACER = _load("tracer")


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


@pytest.mark.parametrize("kind", sorted(set(WORKLOADS.CliMix.DECK)))
def test_every_cli_mix_kind_runs_and_passes(tmp_path, kind):
    """One job of each deck kind, drawn from the workload's own job stream,
    so that the output `cli-mix` parses (the `verify` text lines, the
    `state-info` JSON) is pinned here and not only by the benchmark."""
    wl = WORKLOADS.make("cli-mix", tmp_path)
    job = next(j for j in wl.jobs(WORKLOADS.job_rng("cli-mix", 0)) if j.kind == kind)
    outcome = wl.check(job, wl.execute(job))
    assert outcome.ok, outcome.detail


@pytest.mark.parametrize("kind", sorted({f"{k}-D{d}" for k, d in WORKLOADS.Seesaw.DECK}))
def test_every_seesaw_deck_kind_runs_and_passes(tmp_path, kind):
    """One job of each deck kind, drawn from the workload's own job stream,
    so that the classical jobs are pinned here and not only by the
    benchmark; at D=16 a single restart reaches the full value."""
    wl = WORKLOADS.make("seesaw", tmp_path)
    job = next(j for j in wl.jobs(WORKLOADS.job_rng("seesaw", 0)) if j.kind == kind)
    outcome = wl.check(job, wl.execute(job))
    assert outcome.ok, outcome.detail
    if kind.endswith("-D16"):
        assert outcome.hit, outcome.detail


def _traced_calls(wl, job) -> dict:
    tracer = TRACER.Tracer()
    RUN.install_tracer(tracer, WORKLOADS)
    try:
        outcome = wl.check(job, wl.execute(job))
    finally:
        tracer.unpatch()
    assert outcome.ok, outcome.detail
    return {name: row["calls"] for name, row in tracer.summary().items()}


def test_seesaw_job_calls_the_traced_half_steps(tmp_path):
    """The see-saw's per-layer rows time the public half-steps; a job that
    bypassed them would report those rows as 0."""
    wl = WORKLOADS.make("seesaw", tmp_path)
    calls = _traced_calls(wl, next(wl.jobs(WORKLOADS.job_rng("seesaw", 0))))
    assert calls.get("optimize.optimal_measurement", 0) >= 1
    assert calls.get("optimize.optimal_states_given_measurement", 0) >= 1


def test_ccnr_ascent_job_keeps_its_sweeps_and_skips_stalled_steps(tmp_path):
    """The benchmark predicts Dykstra sweeps > 0 on `ccnr-ascent` (the
    pull-in of the random starts), and rounds that stall end early: the
    first job takes 19 steps of its 8 rounds of up to 250 (81 when every
    certified step was 0.1 long, 258 when every step shrank as
    1/sqrt(step of the round))."""
    wl = WORKLOADS.make("ccnr-ascent", tmp_path)
    job = next(wl.jobs(WORKLOADS.job_rng("ccnr-ascent", 0)))
    tracer = TRACER.Tracer()
    RUN.install_tracer(tracer, WORKLOADS)
    try:
        outcome = wl.check(job, wl.execute(job))
    finally:
        tracer.unpatch()
    assert outcome.ok, outcome.detail
    assert tracer.counts.get("optimize.dykstra.sweeps", 0) > 0
    assert outcome.counts["ascent_iterations"] < 50


def test_witness_jobs_call_every_traced_protocol_layer(tmp_path):
    """The per-layer rows of `dense-oracle` and `cli-mix` time the dense
    oracle, the densified state, the factored route and the brute-force
    estimator; a job that routed around one would report its row as 0."""
    oracle = WORKLOADS.make("dense-oracle", tmp_path)
    calls = _traced_calls(oracle, next(oracle.jobs(WORKLOADS.job_rng("dense-oracle", 0))))
    for name in ("protocol.expectations_dense", "states.densify", "protocol.witness_factored"):
        assert calls.get(name, 0) >= 1, name
    mix = WORKLOADS.make("cli-mix", tmp_path)
    job = next(j for j in mix.jobs(WORKLOADS.job_rng("cli-mix", 0)) if j.kind == "brute-be-1")
    calls = _traced_calls(mix, job)
    for name in ("protocol.witness_brute_force", "protocol.expectations_dense", "states.densify"):
        assert calls.get(name, 0) >= 1, name
