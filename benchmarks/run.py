"""Run one workload of the bewitness benchmark and print its metrics.

    python3 benchmarks/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, so nothing needs installing.  The workloads are `dense-oracle`,
`seesaw`, `ccnr-ascent` and `cli-mix` (see README.md).  Jobs run in a
closed loop, one at a time, from one process, until `--seconds` have
passed; every job's output is checked.

With `--trace 0` the end-to-end metrics are printed.  With `--trace 1`
a fixed seeded list of jobs sized to `--seconds` runs twice, first
untraced and then with spans around the package's public functions,
and the per-layer metrics are printed.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the full result, with the machine block, goes to
benchmarks/out/.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()   # set-up time counts from here, before any import

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5      # one in this process, the rest in fresh interpreters
TAIL_BEYOND = 10       # the tail is the highest percentile with this many jobs beyond it

# jobs per second on the reference machine (2-core Xeon, see README.md);
# sizes the traced runs' fixed job lists to about --seconds in total
NOMINAL_JOBS_PER_S = {
    "dense-oracle": 2.0,
    "seesaw": 3.0,
    "ccnr-ascent": 2.0,
    "cli-mix": 40.0,
}

END_TO_END = {
    "setup_s": "s",
    "throughput_jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "target_hit_frac": "fraction",
    "peak_rss_mb": "MB",
}

# traced layers; True where the layer has traced children, so self_s exists
LAYERS = {
    "linalg.eigh": True,
    "linalg.require_hermitian": False,
    "linalg.kron": False,
    "linalg.trace_norm": False,
    "pauli.pauli_basis": True,
    "pauli.w_value": False,
    "states.densify": True,
    "states.ppt_check": True,
    "states.io": False,
    "protocol.expectations_dense": True,
    "protocol.witness_factored": True,
    "protocol.witness_brute_force": True,
    "protocol.Strategy.validate": True,
    "optimize.optimal_measurement": True,
    "optimize.optimal_states_given_measurement": True,
    "optimize.dykstra": False,
    "verify.run_all": True,
    "cli.main": True,
}

PER_LAYER_EXTRA = {
    "protocol.dense_us_per_triple": "us",
    "protocol.factored_us_per_triple": "us",
    "protocol.thread_pools": "count",
    "optimize.seesaw.cycles": "count",
    "optimize.dykstra.sweeps": "count",
    "optimize.ascent.iterations": "count",
    "optimize.ascent.hit_ratio": "fraction",
    "trace.untraced_jobs_per_s": "1/s",
    "trace.traced_jobs_per_s": "1/s",
    "trace.overhead_jobs_per_s": "1/s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, has_children in LAYERS.items():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        if has_children:
            units[f"{layer}.self_s"] = "s"
    units.update(PER_LAYER_EXTRA)
    return units


# ---------------------------------------------------------------------------
# package import


def import_package():
    """Import bewitness from this checkout's src/, never from elsewhere."""
    init = SRC / "bewitness" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: no package source at {init.relative_to(ROOT)}; "
                         "run from the root of a bewitness checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bewitness

    if Path(bewitness.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported bewitness from {bewitness.__file__}, "
                         f"expected {init}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Record:
    job: object
    start_s: float      # from the start of the loop
    latency_s: float
    outcome: object


def closed_loop(wl, jobs, outcome_cls, seconds=None, limit=None):
    """Run jobs one at a time until `seconds` elapse or `limit` jobs ran.

    A job that raises, or whose output fails its check, is recorded as
    failed and the loop goes on.
    """
    records = []
    start = time.perf_counter()
    for job in jobs:
        if limit is not None and len(records) >= limit:
            break
        if seconds is not None and records and time.perf_counter() - start >= seconds:
            break
        t0 = time.perf_counter()
        try:
            result = wl.execute(job)
        except Exception as exc:   # a failing job is counted, never fatal
            latency = time.perf_counter() - t0
            outcome = outcome_cls(False, False, f"raised {type(exc).__name__}: {exc}", {})
        else:
            latency = time.perf_counter() - t0
            try:
                outcome = wl.check(job, result)
            except Exception as exc:
                outcome = outcome_cls(False, False, f"check raised {type(exc).__name__}: {exc}", {})
        records.append(Record(job, t0 - start, latency, outcome))
    return records, time.perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs
    beyond it; with too few jobs, the slowest job and percentile 100."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(records, elapsed: float, setup_samples: list[float],
               block: int) -> tuple[dict, dict]:
    """End-to-end metrics over the run's complete blocks.

    A block is a whole number of job-stream periods (one deck, or a few
    jobs of a single kind), so every block does the same mix of work.
    The partial block cut off by the deadline is left out, so every run
    has the deck's exact mix.  Throughput is the passing jobs over the
    time from the first job's start to the last kept job's end.  A run
    too short for one block keeps all its jobs.
    """
    kept = len(records) // block * block
    if kept:
        records = records[:kept]
        timed = records[-1].start_s + records[-1].latency_s - records[0].start_s
    else:
        timed = elapsed
    n = len(records)
    passed = sum(r.outcome.ok for r in records)
    lat = [r.latency_s for r in records]
    hits = sum(r.outcome.hit for r in records)
    tail_value, tail_pct = tail(lat)
    values = {
        "setup_s": statistics.median(setup_samples),
        "throughput_jobs_per_s": passed / timed,
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail_value,
        "target_hit_frac": hits / n,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setup_samples),
        "throughput_jobs_per_s": f"{passed} passing jobs in {timed:.2f} s, "
                                 f"{kept // block} blocks of {block}",
        "job_p50_s": f"n={n}",
        "job_tail_s": f"p{tail_pct:.1f} of n={n}, {min(TAIL_BEYOND, n - 1)} jobs beyond",
        "target_hit_frac": f"{hits}/{n}",
    }
    return values, notes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# tracing


def install_tracer(tracer, workloads) -> None:
    from bewitness import cli, linalg, optimize, pauli, protocol, states, verify

    spans = [
        ("linalg.eigh", linalg, "eigh", None),
        ("linalg.require_hermitian", linalg, "require_hermitian", None),
        ("linalg.kron", linalg, "kron", None),
        ("linalg.trace_norm", linalg, "trace_norm", None),
        ("pauli.pauli_basis", pauli, "pauli_basis", None),
        ("pauli.w_value", pauli, "w_value", None),
        ("states.densify", states, "densify", None),
        ("states.ppt_check", states, "ppt_check", None),
        ("states.io", states, "state_to_dict", None),
        ("states.io", states, "load_state", None),
        ("states.io", workloads, "write_state_file", None),
        ("protocol.expectations_dense", protocol, "expectations_dense",
         lambda a, k: {"protocol.dense_triples": len(a[1])}),
        ("protocol.witness_factored", protocol, "witness_factored",
         lambda a, k: {"protocol.factored_triples": len(a[2])}),
        ("protocol.witness_brute_force", protocol, "witness_brute_force", None),
        ("protocol.Strategy.validate", protocol.Strategy, "validate", None),
        ("optimize.optimal_measurement", optimize, "optimal_measurement", None),
        ("optimize.optimal_states_given_measurement", optimize,
         "optimal_states_given_measurement", None),
        ("optimize.dykstra", optimize._BlochPolytope, "dykstra_rows", None),
        ("verify.run_all", verify, "run_all", None),
        ("cli.main", cli, "main", None),
    ]
    for name, owner, attr, on_call in spans:
        tracer.patch(owner, attr, lambda fn, n=name, c=on_call: tracer.span(n, fn, c))
    tracer.patch(protocol, "ThreadPoolExecutor",
                 lambda fn: tracer.counter("protocol.thread_pools", fn), only_owner=True)
    # one batched PSD projection per Dykstra sweep
    tracer.patch(optimize._BlochPolytope, "project_psd_rows",
                 lambda fn: tracer.counter("optimize.dykstra.sweeps", fn), only_owner=True)


def per_layer(tracer, records, untraced: tuple, traced: tuple) -> dict:
    summary = tracer.summary()
    counts = tracer.counts
    values = {}
    for layer, has_children in LAYERS.items():
        row = summary.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.busy_s"] = row["busy_s"]
        if has_children:
            values[f"{layer}.self_s"] = row["self_s"]

    def per_triple(layer, triples):
        n = counts.get(triples, 0)
        return values[f"{layer}.busy_s"] * 1e6 / n if n else 0.0

    def job_sum(key):
        return sum(r.outcome.counts.get(key, 0) for r in records)

    restarts = job_sum("ascent_restarts")

    values.update({
        "protocol.dense_us_per_triple": per_triple("protocol.expectations_dense",
                                                   "protocol.dense_triples"),
        "protocol.factored_us_per_triple": per_triple("protocol.witness_factored",
                                                      "protocol.factored_triples"),
        "protocol.thread_pools": counts.get("protocol.thread_pools", 0),
        "optimize.seesaw.cycles": job_sum("seesaw_cycles"),
        "optimize.dykstra.sweeps": counts.get("optimize.dykstra.sweeps", 0),
        "optimize.ascent.iterations": job_sum("ascent_iterations"),
        "optimize.ascent.hit_ratio": job_sum("ascent_restart_hits") / restarts if restarts else 0.0,
        "trace.untraced_jobs_per_s": untraced[0] / untraced[1],
        "trace.traced_jobs_per_s": traced[0] / traced[1],
    })
    values["trace.overhead_jobs_per_s"] = (
        values["trace.traced_jobs_per_s"] - values["trace.untraced_jobs_per_s"]
    )
    return values


# ---------------------------------------------------------------------------
# machine block


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def calibrate() -> dict:
    """Time a fixed numpy kernel and a fixed interpreter loop.

    Recorded so that host drift between runs is visible; never used to
    scale a metric.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(48, 48))
    h = a + a.T
    numpy_s, python_s = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(40):
            np.linalg.eigh(h)
            a @ a
        numpy_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i & 7
        python_s.append(time.perf_counter() - t0)
    return {"numpy_kernel_s": statistics.median(numpy_s),
            "python_loop_s": statistics.median(python_s)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> object:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return "unknown"
    blas = deps.get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_block(workload: str, seed: int, seconds: float, trace: bool,
                  job_config: dict, calibration: dict) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "job_config": job_config,
        "git_commit": _git_commit(),
        "calibration": calibration,
    }


# ---------------------------------------------------------------------------


def setup_in_child(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter: import plus fixed inputs plus
    the first cold call, as a user's first command pays it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def print_failures(records, limit: int = 10) -> None:
    failed = [r for r in records if not r.outcome.ok]
    for r in failed[:limit]:
        params = str(r.job.params)
        params = params if len(params) <= 80 else params[:77] + "..."
        print(f"  FAILED {r.job.kind} {params}: {r.outcome.detail}")
    if len(failed) > limit:
        print(f"  ... and {len(failed) - limit} more failures")


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_samples: int = SETUP_SAMPLES, job_limit: int | None = None) -> dict:
    """Set up, run and measure one workload; returns the full result."""
    workloads = import_package()
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        wl = workloads.make(workload, work_dir)
        samples = [time.perf_counter() - _T0]
        samples += [setup_in_child(workload, seed) for _ in range(setup_samples - 1)]
        calibration = calibrate()
        jobs = wl.jobs(workloads.job_rng(workload, seed))
        if not trace:
            records, elapsed = closed_loop(wl, jobs, workloads.Outcome, limit=job_limit,
                                           seconds=None if job_limit else seconds)
            metrics, notes = end_to_end(records, elapsed, samples, wl.BLOCK)
            units = END_TO_END
            attempted = records
        else:
            from tracer import Tracer

            count = job_limit or max(1, round(seconds / 2 * NOMINAL_JOBS_PER_S[workload]))
            fixed = [next(jobs) for _ in range(count)]
            plain, plain_s = closed_loop(wl, fixed, workloads.Outcome)
            tracer = Tracer()
            install_tracer(tracer, workloads)
            try:
                records, elapsed = closed_loop(wl, fixed, workloads.Outcome)
            finally:
                tracer.unpatch()
            metrics = per_layer(tracer, records, (len(plain), plain_s), (len(records), elapsed))
            notes = {"trace.traced_jobs_per_s": f"{count} fixed jobs, traced after untraced"}
            units = per_layer_units()
            attempted = plain + records
        failed = sum(not r.outcome.ok for r in attempted)
        result = {
            "correct": failed == 0,
            "attempted": len(attempted),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        full = {
            "result": result,
            "notes": notes,
            "failed_frac": failed / len(attempted),
            "failures": [
                {"kind": r.job.kind, "params": str(r.job.params)[:200], "detail": r.outcome.detail}
                for r in attempted if not r.outcome.ok
            ],
            "machine": machine_block(workload, seed, seconds, trace,
                                     wl.config(), calibration),
            "records": attempted,
        }
        if trace:
            full["tracer"] = tracer
        return full
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def report(full: dict, workload: str, seed: int, trace: bool) -> None:
    result = full["result"]
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        n_spans = full["tracer"].write(OUT / f"{stem}.spans.jsonl.gz")
        full["notes"]["spans"] = f"{n_spans} spans in {stem}.spans.jsonl.gz"
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"{result['attempted']} jobs, {result['failed']} failed")
    for name, m in result["metrics"].items():
        note = full["notes"].get(name)
        print(f"  {name:<48} {m['value']:<14.6g} {m['unit']:<9}" + (f"({note})" if note else ""))
    print(f"  {'failed_frac':<48} {full['failed_frac']:<14.6g} {'fraction':<9}"
          f"({result['failed']}/{result['attempted']})")
    print_failures(full["records"])
    machine = full["machine"]
    print("machine " + json.dumps(machine, sort_keys=True))
    saved = {k: v for k, v in full.items() if k not in ("records", "tracer")}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(saved, fh, indent=2, sort_keys=True)
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(NOMINAL_JOBS_PER_S))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time as JSON and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_only:
        workloads = import_package()
        work_dir = OUT / f"work-{os.getpid()}"
        try:
            workloads.make(args.workload, work_dir)
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return 0
    full = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(full, args.workload, args.seed, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
