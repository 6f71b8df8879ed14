"""End-to-end verification checklist.

Each check reproduces one headline number or property of the bound
entanglement witness construction, with an explicit runtime budget.
The command line front end prints one line per check; the test suite
asserts each check individually.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import pauli, protocol, states
from .optimize import (
    AscentConfig,
    SeesawConfig,
    ccnr_ascent_bloch_ppt,
    optimal_measurement,
    seesaw_classical,
    seesaw_quantum,
)

# reduced search budgets for the checklist; the library defaults are
# larger, these are the smallest configs that still reach the targets
# reliably on one core within the stated runtime budgets
ASCENT_CHECK_CONFIGS = {
    4: AscentConfig(n_restarts=6, max_iters=600),
    8: AscentConfig(n_restarts=8, max_iters=800),
    16: AscentConfig(n_restarts=6, max_iters=600),
}
ASCENT_TARGETS = {4: 1.499, 8: 1.69, 16: 2.24}
ASCENT_RETRY_SEED_STEP = 1000
ASCENT_MAX_TRIES = 4  # first attempt plus up to three fresh-seed retries
FACTORIZATION_SAMPLES = 10_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    budget: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.seconds:.2f}s/{self.budget:.0f}s): {self.detail}"


def _finish(name, budget, t0, ok, detail) -> CheckResult:
    dt = time.perf_counter() - t0
    if dt >= budget:
        ok = False
        detail += f"; exceeded {budget:.0f}s budget"
    return CheckResult(name, ok, detail, dt, budget)


def check_spectrum(state: states.BlochDiagonalState | None = None) -> CheckResult:
    """Spectrum of the state and its partial transpose: 1/6 x6, 0 x10.

    For the builtin state the pattern is also certified exactly, with the
    Bell-basis eigenvalue map applied to the Fraction coefficient table.
    """
    t0 = time.perf_counter()
    builtin = state is None
    state = states.rho_be() if builtin else state
    if state.n_copies != 1:
        detail = f"the pattern 1/6 x6, 0 x10 is one copy's, got {state.n_copies} copies"
        return _finish("01-spectrum", 1.0, t0, False, detail)
    report = states.ppt_check(state)
    expected = np.array([1 / 6] * 6 + [0.0] * 10)
    dev = float(np.max(np.abs([report.spectrum_state - expected, report.spectrum_pt - expected])))
    ok = dev < 1e-10
    detail = f"max eigenvalue deviation {dev:.2e} (state/PT)"
    if builtin:
        lam = np.array(states.rho_be_lambdas_exact(), dtype=object)
        want = [Fraction(0)] * 10 + [Fraction(1, 6)] * 6
        exact = all(sorted(pauli.bell_spectrum(lam, partial_transpose=pt)) == want
                    for pt in (False, True))
        ok = ok and exact
        detail += "; exact 1/6 x6, 0 x10" if exact else "; exact spectra differ from 1/6 x6, 0 x10"
    return _finish("01-spectrum", 1.0, t0, ok, detail)


def check_ccnr_value(state: states.BlochDiagonalState | None = None) -> CheckResult:
    """CCNR of the bound entangled state is 3/2 by sum|lambda| and by the
    SVD of the dense state's realignment; exactly 3/2 for the builtin."""
    t0 = time.perf_counter()
    builtin = state is None
    state = states.rho_be() if builtin else state
    fast = state.ccnr_fast()
    dense = states.ccnr(states.densify(state))
    ok = abs(fast - 1.5) < 1e-10 and abs(dense - 1.5) < 1e-10
    detail = f"sum|lambda|={fast:.12f}, realignment trace norm={dense:.12f}"
    if builtin:
        exact = sum(abs(v) for v in states.rho_be_lambdas_exact())
        ok = ok and exact == Fraction(3, 2)
        detail += f"; exact sum|lambda| = {exact}"
    return _finish("02-ccnr", 1.0, t0, ok, detail)


def check_witness_brute_force() -> CheckResult:
    """Single-copy brute force over all 4096 triples yields 3/8, as does
    the exact closed form sum_k s_k lambda_k / 4 = (1/4 + 15/12)/4."""
    t0 = time.perf_counter()
    rho = states.rho_be()
    task = protocol.matched_task(rho)
    strat = protocol.be_strategy(rho)
    brute = protocol.witness_brute_force(strat, task)
    closed = protocol.witness_closed_form(rho, task)
    exact = sum(int(s) * v for s, v in zip(task.signs, states.rho_be_lambdas_exact())) / 4
    ok = (abs(brute.value - 0.375) < 1e-10 and abs(brute.value - closed.value) < 1e-10
          and exact == Fraction(3, 8))
    detail = f"brute={brute.value:.12f}, closed={closed.value:.12f}, exact closed={exact}"
    return _finish("03-witness-brute", 10.0, t0, ok, detail)


def check_separable_saturation() -> CheckResult:
    """The best deterministic encoding at D=4 saturates the bound 1/4."""
    t0 = time.perf_counter()
    strat = protocol.classical_optimal_strategy_d4()
    task = protocol.TaskSpec(
        n_copies=1, channel_dim=4, signs=protocol.default_signs()
    )
    value = protocol.witness_brute_force(strat, task).value
    ok = abs(value - 0.25) < 1e-12
    return _finish("04-separable-saturation", 10.0, t0, ok, f"W={value:.15f}")


def check_m_matrix() -> CheckResult:
    """The decoding matrix is 16^N times the identity, exactly."""
    t0 = time.perf_counter()
    m1 = pauli.m_matrix(1)
    m2 = pauli.m_matrix(2)
    ok = np.array_equal(m1, 16 * np.eye(16, dtype=np.int64)) and np.array_equal(
        m2, 256 * np.eye(256, dtype=np.int64)
    )
    return _finish("05-m-matrix", 30.0, t0, ok, "16 I and 256 I exact")


def check_visibility() -> CheckResult:
    """Critical visibilities 3/5 and 3/7, exactly and numerically."""
    t0 = time.perf_counter()
    v1 = protocol.critical_visibility(1)
    v2 = protocol.critical_visibility(2)
    n1 = protocol.critical_visibility_numeric(1)
    n2 = protocol.critical_visibility_numeric(2)
    ok = (
        v1 == Fraction(3, 5)
        and v2 == Fraction(3, 7)
        and abs(n1 - 0.6) < 1e-10
        and abs(n2 - 3 / 7) < 1e-10
    )
    detail = f"exact {v1}, {v2}; numeric {n1:.12f}, {n2:.12f}"
    return _finish("06-visibility", 30.0, t0, ok, detail)


def check_overhead() -> CheckResult:
    """Channel dimension needed to defeat the protocol grows as 6^N."""
    t0 = time.perf_counter()
    got = [protocol.overhead_dimension(n) for n in range(1, 7)]
    want = [6**n for n in range(1, 7)]
    ok = got == want
    return _finish("07-overhead", 1.0, t0, ok, f"dims {got}")


def check_factorization() -> CheckResult:
    """Two-copy factored expectations match the dense 256-dim route."""
    t0 = time.perf_counter()
    rho = states.rho_be()
    pair = states.tensor_power(rho, 2)
    task = protocol.matched_task(pair)
    strat = protocol.be_strategy(pair)
    triples = protocol.sample_triples(2, FACTORIZATION_SAMPLES, seed=0)
    dense = protocol.expectations_dense(strat, triples)
    factored = protocol.witness_factored(rho, task, triples)
    worst = float(np.max(np.abs(factored - dense)))
    ok = worst < 1e-10
    detail = f"max |factored-dense| {worst:.2e} over {FACTORIZATION_SAMPLES} triples"
    return _finish("08-factorization", 10.0, t0, ok, detail)


def check_seesaw() -> CheckResult:
    """See-saw reaches the separable bound at D=4 and full value at D=16."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for d, target, tol_low in ((4, 0.25, 1e-6), (16, 1.0, 1e-9)):
        cfg = SeesawConfig(channel_dim=d)
        for kind, runner in (("classical", seesaw_classical), ("quantum", seesaw_quantum)):
            rep = runner(cfg)
            top = max(rep.restart_values)
            bound = d / 16
            if not (rep.best_value >= target - tol_low and top <= bound + 1e-9):
                ok = False
            details.append(f"D={d} {kind}: {rep.best_value:.9f}")
    return _finish("09-seesaw", 300.0, t0, ok, "; ".join(details))


def check_ccnr_ascent() -> CheckResult:
    """Projected ascent reaches the published CCNR values over PPT states."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for d in (4, 8, 16):
        base = ASCENT_CHECK_CONFIGS[d]
        target = ASCENT_TARGETS[d]
        reached = None
        for attempt in range(ASCENT_MAX_TRIES):
            cfg = replace(base, seed=base.seed + attempt * ASCENT_RETRY_SEED_STEP)
            rep = ccnr_ascent_bloch_ppt(d, cfg)
            feas = min(float(pauli.bell_spectrum(rep.best_lambdas, partial_transpose=pt).min())
                       for pt in (False, True))
            if rep.best_value >= target and feas >= -1e-8:
                reached = (rep.best_value, attempt + 1, feas)
                break
        if reached is None:
            ok = False
            details.append(f"D={d}: {rep.best_value:.4f} < {target} after {ASCENT_MAX_TRIES} tries")
        else:
            val, tries, feas = reached
            details.append(f"D={d}: {val:.6f} (try {tries}, min eig {feas:.1e})")
    return _finish("10-ccnr-ascent", 600.0, t0, ok, "; ".join(details))


def check_property_suite() -> CheckResult:
    """Sampled separable strategies and states respect both bounds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    task = protocol.TaskSpec(n_copies=1, channel_dim=4, signs=protocol.default_signs())
    worst_w = -np.inf
    for _ in range(500):
        states_a = []
        states_b = []
        for _ in range(16):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            states_a.append(np.outer(v, v.conj()))
            u = rng.normal(size=4) + 1j * rng.normal(size=4)
            u /= np.linalg.norm(u)
            states_b.append(np.outer(u, u.conj()))
        dec_a, dec_b = optimal_measurement(states_a, states_b, task.signs)
        strat = protocol.Strategy(
            kind="prepared_states",
            n_copies=1,
            channel_dim=4,
            decoders_a=dec_a,
            decoders_b=dec_b,
            states_a=states_a,
            states_b=states_b,
        )
        worst_w = max(worst_w, protocol.witness_brute_force(strat, task).value)
    strategies_ok = worst_w <= 0.25 + 1e-9

    worst_ccnr = -np.inf
    for _ in range(500):
        terms = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(terms))
        op = np.zeros((16, 16), dtype=complex)
        for w in weights:
            ra = _random_density(rng, 4)
            rb = _random_density(rng, 4)
            op += w * np.kron(ra, rb)
        worst_ccnr = max(worst_ccnr, states.ccnr(op))
    states_ok = worst_ccnr <= 1 + 1e-9

    ok = strategies_ok and states_ok
    detail = f"max strategy W {worst_w:.12f}; max separable CCNR {worst_ccnr:.12f}"
    return _finish("11-property-suite", 300.0, t0, ok, detail)


def _random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


ALL_CHECKS = (
    check_spectrum,
    check_ccnr_value,
    check_witness_brute_force,
    check_separable_saturation,
    check_m_matrix,
    check_visibility,
    check_overhead,
    check_factorization,
    check_seesaw,
    check_ccnr_ascent,
    check_property_suite,
)


def run_all(state: states.BlochDiagonalState | None = None):
    """Run every check; a supplied state replaces the builtin in the
    state-specific checks (spectrum, CCNR, convention)."""
    results = []
    if state is not None:
        results.append(check_convention(state))
        results.append(check_spectrum(state))
        results.append(check_ccnr_value(state))
        return results
    for fn in ALL_CHECKS:
        results.append(fn())
    return results


def check_convention(state: states.BlochDiagonalState) -> CheckResult:
    """Coefficient table matches the row-major index convention."""
    t0 = time.perf_counter()
    try:
        states.check_be_convention(state)
        ok = True
        detail = "coefficients match the builtin table"
    except states.ConventionError as exc:
        ok = False
        detail = str(exc)
    return _finish("00-convention", 5.0, t0, ok, detail)
