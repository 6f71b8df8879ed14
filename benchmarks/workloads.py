"""The benchmark workloads: seeded job streams, execution, checks.

Each workload object is built once per run (its set-up, including the
first cold call), then yields an endless seeded stream of jobs.  A job
is executed by calling into the package, and its output is checked
against a reference the benchmark computes itself.  Why each workload
exists, and which layers it stresses or bypasses, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from bewitness import cli, optimize, pauli, protocol, states
from bewitness.optimize import AscentConfig, SeesawConfig


@dataclass(frozen=True)
class Job:
    kind: str
    params: tuple


@dataclass(frozen=True)
class Outcome:
    ok: bool
    hit: bool          # reached the paper's value (equals ok where there is no search)
    detail: str
    counts: dict


def write_state_file(path: Path, state: states.BlochDiagonalState) -> None:
    """The write half of the state file format, as a user would do it."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(states.state_to_dict(state), fh)


def _job_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _deck_stream(rng: np.random.Generator, deck: tuple):
    """Endless seeded shuffles of a fixed deck: exact kind proportions
    in every block, seeded order inside it."""
    while True:
        for i in rng.permutation(len(deck)):
            yield deck[i]


def _per_copy_terms() -> np.ndarray:
    """4 |lambda_z| of the target state: the value of w * E for one copy
    of the entangled protocol at output z, whatever the inputs x, y.

    With Pauli encoders U_x = 2 G_x and decoders (2 G_z) (x) (2 G_z),
    the correlator is 4 lambda_z c(x,z) c(y,z), where c is the Pauli
    commutation sign, and the task weight is s_z f(x,z) f(y,z) with
    f = c and s_z = sign(lambda_z).
    """
    lam = np.array([float(v) for v in states.rho_be_lambdas_exact()])
    return 4.0 * np.abs(lam)


def sampled_witness_reference(triples: np.ndarray) -> float:
    """Two-copy sampled witness of the entangled protocol, analytically."""
    terms = _per_copy_terms()
    zs = np.asarray(triples)[:, 2, :] - 1
    return float(np.mean(np.prod(terms[zs], axis=1)))


# ---------------------------------------------------------------------------


class DenseOracle:
    """Two-copy dense correlators against the per-copy factorization."""

    name = "dense-oracle"
    BATCH = 16            # triples per job; fixes the share of densify
    BLOCK = 4             # jobs per throughput block
    TOL = 1e-10           # tolerance of acceptance check 08

    def __init__(self):
        rho = states.rho_be()
        pair = states.tensor_power(rho, 2)
        self.rho = rho
        self.task = protocol.matched_task(pair)
        self.strategy = protocol.be_strategy(pair)
        first = np.ones((1, 3, 2), dtype=np.int64)
        self.execute(Job("batch", tuple(first.ravel())))

    def config(self) -> dict:
        return {"batch_triples": self.BATCH, "workers": 1, "tolerance": self.TOL}

    def jobs(self, rng: np.random.Generator):
        while True:
            triples = rng.integers(1, 17, size=(self.BATCH, 3, 2))
            yield Job("batch", tuple(int(v) for v in triples.ravel()))

    def execute(self, job: Job):
        triples = np.array(job.params, dtype=np.int64).reshape(-1, 3, 2)
        dense = protocol.expectations_dense(self.strategy, triples, workers=1)
        factored = protocol.witness_factored(self.rho, self.task, triples)
        return dense, factored

    def check(self, job: Job, result) -> Outcome:
        return check_dense_batch(job, result, self.TOL)


def check_dense_batch(job: Job, result, tol: float) -> Outcome:
    dense, factored = (np.asarray(r, dtype=float) for r in result)
    n = len(job.params) // 6
    if dense.shape != (n,) or factored.shape != (n,):
        return Outcome(False, False, f"shapes {dense.shape}/{factored.shape}, want ({n},)", {})
    worst = float(np.max(np.abs(factored - dense)))
    ok = worst < tol
    return Outcome(ok, ok, f"max|factored-dense| {worst:.2e}", {})


# ---------------------------------------------------------------------------


class Seesaw:
    """Single-restart see-saw searches over acceptance check 09's grid."""

    name = "seesaw"
    # one block of ten jobs: the slow D=4 quantum restarts hold the tail,
    # the median falls inside the D=16 quantum block
    DECK = (
        (("classical", 4),) * 1
        + (("classical", 16),) * 2
        + (("quantum", 16),) * 3
        + (("quantum", 4),) * 4
    )
    BLOCK = len(DECK)
    MAX_ITERS = 100
    TARGETS = {4: (0.25, 1e-6), 16: (1.0, 1e-9)}   # value, check 09 tolerance

    def __init__(self):
        self.signs = protocol.default_signs()
        for runner in (optimize.seesaw_quantum, optimize.seesaw_classical):
            runner(SeesawConfig(channel_dim=4, n_restarts=1, max_iters=1), self.signs)

    def config(self) -> dict:
        return {
            "deck": [f"{k}-D{d}" for k, d in self.DECK],
            "n_restarts": 1,
            "max_iters": self.MAX_ITERS,
            "tol": SeesawConfig(channel_dim=4).tol,
            "targets": {str(d): list(v) for d, v in self.TARGETS.items()},
        }

    def jobs(self, rng: np.random.Generator):
        for kind, dim in _deck_stream(rng, self.DECK):
            yield Job(f"{kind}-D{dim}", (kind, dim, _job_seed(rng)))

    def execute(self, job: Job):
        kind, dim, seed = job.params
        runner = optimize.seesaw_quantum if kind == "quantum" else optimize.seesaw_classical
        cfg = SeesawConfig(channel_dim=dim, n_restarts=1, max_iters=self.MAX_ITERS, seed=seed)
        return runner(cfg, self.signs)

    def check(self, job: Job, report) -> Outcome:
        _, dim, _ = job.params
        value = float(report.best_value)
        bound = dim / 16
        target, tol = self.TARGETS[dim]
        ok = value <= bound + 1e-9 and not report.flagged_restarts
        hit = ok and value >= target - tol
        detail = f"value {value:.12f} (bound {bound}, flagged {report.flagged_restarts})"
        return Outcome(ok, hit, detail, {"seesaw_cycles": int(sum(report.iterations_used))})


# ---------------------------------------------------------------------------


class CcnrAscent:
    """Seeded CCNR ascents over Bloch-diagonal PPT states at d=4."""

    name = "ccnr-ascent"
    LOCAL_DIM = 4
    # one outer round of a fixed iteration count per restart, and enough
    # restarts that the slowest one (the batch runs in lockstep) sets a
    # job's Dykstra sweeps: every job does about the same work
    RESTARTS = 8
    MAX_ITERS = 250
    MAX_OUTER = 1
    BLOCK = 4
    TARGET = 1.499        # check 10's target at d=4; the paper's maximum is 3/2
    FEASIBLE = -1e-8      # least eigenvalue of rho and rho^T_B

    def __init__(self):
        n_qubits = self.LOCAL_DIM.bit_length() - 1
        self.c = optimize.joint_eigenvalue_matrix(self.LOCAL_DIM)
        self.t = pauli.pauli_transpose_signs(n_qubits).astype(float)
        optimize.ccnr_ascent_bloch_ppt(
            self.LOCAL_DIM, AscentConfig(n_restarts=1, max_iters=1, max_outer=1))

    def config(self) -> dict:
        return {"local_dim": self.LOCAL_DIM, "n_restarts": self.RESTARTS,
                "max_iters": self.MAX_ITERS, "max_outer": self.MAX_OUTER,
                "target": self.TARGET, "feasible_min_eig": self.FEASIBLE}

    def jobs(self, rng: np.random.Generator):
        while True:
            yield Job("ascent", (_job_seed(rng),))

    def execute(self, job: Job):
        cfg = AscentConfig(n_restarts=self.RESTARTS, max_iters=self.MAX_ITERS,
                           max_outer=self.MAX_OUTER, seed=job.params[0])
        return optimize.ccnr_ascent_bloch_ppt(self.LOCAL_DIM, cfg)

    def check(self, job: Job, report) -> Outcome:
        lam = np.asarray(report.best_lambdas, dtype=float)
        min_eig = float(min(np.min(self.c @ lam), np.min(self.c @ (self.t * lam))))
        value = float(report.best_value)
        ccnr = float(np.sum(np.abs(lam)))
        ok = min_eig >= self.FEASIBLE and abs(ccnr - value) <= 1e-12 * max(1.0, ccnr)
        hit = ok and value >= self.TARGET
        counts = {
            "ascent_iterations": int(sum(report.iterations_used)),
            "ascent_restarts": len(report.restart_values),
            "ascent_restart_hits": sum(v >= self.TARGET for v in report.restart_values),
        }
        return Outcome(ok, hit, f"ccnr {value:.9f} (sum|lambda| {ccnr:.9f}, "
                                f"min eig {min_eig:.2e})", counts)


# ---------------------------------------------------------------------------


def _sig12(v) -> float:
    return float(f"{float(v):.12g}")


class CliMix:
    """Weighted mix of in-process `bewitness` command lines."""

    name = "cli-mix"
    # one block of forty jobs, cheapest first.  The median falls inside
    # the one-copy state-info block (positions 7-26); the 11th slowest
    # job of a run falls inside the two-copy brute-force block.
    DECK = (
        ("scaling",) * 6
        + ("state-info-1",) * 20
        + ("closed",) * 4
        + ("verify-target",) * 3
        + ("verify-twin",) * 1
        + ("factored",) * 1
        + ("brute-be-1",) * 1
        + ("brute-classical-1",) * 1
        + ("closed-6",) * 1
        + ("state-info-2",) * 1
        + ("brute-be-2",) * 1
    )
    BLOCK = len(DECK)
    FACTORED_SAMPLES = 256
    BRUTE_SAMPLES = 16

    def __init__(self, work_dir: Path):
        self.dir = work_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.target_path = self.dir / "target.json"
        self.twin_path = self.dir / "twin.json"
        self.mix_path = self.dir / "mix.json"
        write_state_file(self.target_path, states.rho_be())
        write_state_file(self.twin_path, states.rho_be(swap_digits=True))
        self.rho = states.rho_be()
        self.pair = states.tensor_power(self.rho, 2)
        # the first two-copy state-info pays the cold cost of dense
        # 256 x 256 eigh and SVD; it belongs to set-up, not to a job
        self.execute(Job("state-info-2", ("state-info-2", 0.5)))

    def config(self) -> dict:
        counts = {k: self.DECK.count(k) for k in dict.fromkeys(self.DECK)}
        return {"deck": counts, "factored_samples": self.FACTORED_SAMPLES,
                "brute_samples": self.BRUTE_SAMPLES, "workers": "CLI default"}

    def jobs(self, rng: np.random.Generator):
        for kind in _deck_stream(rng, self.DECK):
            if kind in ("state-info-1", "state-info-2"):
                params = (kind, float(rng.uniform(0.0, 1.0)))
            elif kind == "closed":
                params = (kind, int(rng.integers(3, 6)))
            elif kind in ("factored", "brute-be-2"):
                params = (kind, _job_seed(rng))
            else:
                params = (kind,)
            yield Job(kind, params)

    def _argv(self, job: Job) -> list[str]:
        kind = job.kind
        if kind == "scaling":
            return ["scaling", "--n-max", "6"]
        if kind in ("state-info-1", "state-info-2"):
            base = self.rho if kind == "state-info-1" else self.pair
            write_state_file(self.mix_path, states.mix_with_white_noise(base, job.params[1]))
            return ["state-info", "--state", str(self.mix_path)]
        if kind == "closed":
            return ["witness", "--method", "closed", "--n-copies", str(job.params[1])]
        if kind == "closed-6":
            return ["witness", "--method", "closed", "--n-copies", "6"]
        if kind == "factored":
            return ["witness", "--method", "factored", "--n-copies", "2",
                    "--samples", str(self.FACTORED_SAMPLES), "--seed", str(job.params[1])]
        if kind == "brute-be-1":
            return ["witness", "--method", "brute"]
        if kind == "brute-classical-1":
            return ["witness", "--strategy", "classical-d4", "--method", "brute"]
        if kind == "brute-be-2":
            return ["witness", "--method", "brute", "--n-copies", "2",
                    "--samples", str(self.BRUTE_SAMPLES), "--seed", str(job.params[1])]
        if kind == "verify-target":
            return ["verify", "--state", str(self.target_path)]
        if kind == "verify-twin":
            return ["verify", "--state", str(self.twin_path)]
        raise ValueError(f"unknown job kind {kind!r}")

    def execute(self, job: Job):
        argv = self._argv(job)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:     # argparse rejects a command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, job: Job, result) -> Outcome:
        code, out, err = result
        try:
            problems = self._problems(job, code, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unparseable output: {exc!r}"]
        if err and job.kind != "verify-twin":
            problems.append(f"stderr: {err.strip()[:200]}")
        ok = not problems
        return Outcome(ok, ok, "; ".join(problems) or f"exit {code}", {})

    def _problems(self, job: Job, code: int, out: str) -> list[str]:
        kind = job.kind
        bad = []

        def near(name, got, want, tol):
            if not abs(float(got) - float(want)) <= tol * max(1.0, abs(float(want))):
                bad.append(f"{name} {got!r} != {want!r}")

        if kind.startswith("verify"):
            want_code = 0 if kind == "verify-target" else 1
            lines = out.splitlines()
            if code != want_code:
                bad.append(f"exit {code}, want {want_code}")
            heads = [" ".join(line.split()[:2]) for line in lines]
            want = ["PASS 00-convention", "PASS 01-spectrum", "PASS 02-ccnr"]
            if kind == "verify-twin":
                want[0] = "FAIL 00-convention"
            if heads != want:
                bad.append(f"lines {heads}, want {want}")
            return bad
        if code != 0:
            return [f"exit {code}, want 0"]
        data = json.loads(out)
        if kind == "scaling":
            rows = data["rows"]
            if [r["n_copies"] for r in rows] != list(range(1, 7)):
                return [f"rows {[r['n_copies'] for r in rows]}"]
            for r in rows:
                n = r["n_copies"]
                v_crit = Fraction(4**n - 1, 6**n - 1)
                if (r["witness_be"] != _sig12(Fraction(3, 8) ** n)
                        or r["sep_bound"] != _sig12(Fraction(4**n, 16**n))
                        or r["overhead_dim"] != 6**n
                        or r["v_crit_exact"] != f"{v_crit.numerator}/{v_crit.denominator}"
                        or r["v_crit"] != _sig12(v_crit)):
                    bad.append(f"row {n}: {r}")
            return bad
        if kind in ("state-info-1", "state-info-2"):
            v = job.params[1]
            copies = 1 if kind == "state-info-1" else 2
            dim2 = 16**copies
            ccnr = 1 / 4**copies + v * (1.5**copies - 1 / 4**copies)
            rep = data["report"]
            near("ccnr", rep["ccnr"], ccnr, 1e-9)
            near("min_eig_state", rep["min_eig_state"], (1 - v) / dim2, 1e-9)
            near("min_eig_pt", rep["min_eig_pt"], (1 - v) / dim2, 1e-9)
            near("witness_closed_form", data["witness_closed_form"], ccnr / 4**copies, 1e-9)
            if rep["is_ppt"] is not True:
                bad.append("not PPT")
            return bad
        value = data["value"]
        if kind in ("closed", "closed-6"):
            n = data["n_copies"]
            want_n = 6 if kind == "closed-6" else job.params[1]
            if n != want_n:
                bad.append(f"n_copies {n}, want {want_n}")
            near("value", value, 0.375**want_n, 1e-12)
        elif kind == "brute-be-1":
            near("value", value, 0.375, 1e-10)
        elif kind == "brute-classical-1":
            near("value", value, 0.25, 1e-12)
        else:
            samples = self.FACTORED_SAMPLES if kind == "factored" else self.BRUTE_SAMPLES
            triples = protocol.sample_triples(2, samples, seed=job.params[1])
            near("value", value, sampled_witness_reference(triples), 1e-10)
        return bad


def make(workload: str, work_dir: Path):
    if workload == DenseOracle.name:
        return DenseOracle()
    if workload == Seesaw.name:
        return Seesaw()
    if workload == CcnrAscent.name:
        return CcnrAscent()
    if workload == CliMix.name:
        return CliMix(work_dir)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = (DenseOracle.name, Seesaw.name, CcnrAscent.name, CliMix.name)


def job_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])
