"""Heuristic searches for separable witness values and CCNR records.

Two families live here.  The see-saw alternates closed-form block
updates (states are top-eigenvector projectors of their effective
operators, measurements are sign-projector products), driving the
witness monotonically upward.  The CCNR search does projected
subgradient ascent of sum_k s_k lambda_k over Bloch-diagonal PPT states
with an outer sign-refresh loop.

The feasible set of the CCNR search is handled in coefficient space.
The operators G_k (x) G_k pairwise commute (Pauli strings commute or
anticommute, and the sign cancels on the doubled copy), so they share
one eigenbasis: per qubit pair it is the Bell basis.  The matrix of
joint eigenvalues (`pauli.joint_eigenvalue_matrix`) is the n-fold
Kronecker power of a 4 x 4 sign table and is orthogonal, which turns
the positivity projections into exact clip-in-eigenbasis maps: two
matrix-vector products each.

Each ascent step projects back onto the PPT polytope exactly, by a
primal-dual active-set solve in eigenvalue coordinates that is accepted
only where it certifies its own KKT conditions.  Dykstra's alternating
projections remain for the one-time pull-in from the random start, for
steps whose certificate fails, and for every step at d = 16, where the
exact step's linear systems cost more than the sweeps they save.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import linalg, pauli, protocol
from .pauli import joint_eigenvalue_matrix
from .protocol import Strategy, sep_upper_bound

MONOTONE_SLACK = 1e-10
SOUNDNESS_SLACK = 1e-9
PPT_ITERATE_TOL = -1e-8

_WITNESS_SCALE = 1.0 / 16**3


@dataclass(frozen=True)
class SeesawConfig:
    channel_dim: int
    n_restarts: int = 50
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.tol <= 0 or self.n_restarts < 1 or self.max_iters < 1:
            raise ValueError("tol must be positive, restarts and iters >= 1")
        if not 2 <= self.channel_dim <= 16:
            raise ValueError("channel_dim must lie in 2..16")

    def to_dict(self) -> dict:
        return asdict(self)


# CCNR ascent: step ASCENT_STEP0 / sqrt(iteration); sweep cap and
# tolerance of each Dykstra projection; coefficients within
# SIGN_ZERO_TOL of zero (Dykstra leaves ~1e-12 at a vertex) keep their sign
ASCENT_STEP0 = 0.1
DYKSTRA_CAP = 500
DYKSTRA_TOL = 1e-11
SIGN_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class AscentConfig:
    n_restarts: int = 20
    max_iters: int = 2000
    max_outer: int = 6
    seed: int = 0

    def __post_init__(self):
        if min(self.n_restarts, self.max_iters, self.max_outer) < 1:
            raise ValueError("restart, iteration and outer-round counts must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class OptimizationReport:
    best_value: float
    restart_values: list[float]
    best_restart: int
    converged: bool
    seed: int
    config: dict
    iterations_used: list[int] = field(default_factory=list)
    flagged_restarts: list[int] = field(default_factory=list)
    min_eig_seen: float | None = None
    best_strategy: Strategy | None = None
    best_lambdas: np.ndarray | None = None
    dykstra_steps: list[int] | None = None

    def to_dict(self) -> dict:
        out = {
            "best_value": self.best_value,
            "restart_values": [float(v) for v in self.restart_values],
            "best_restart": self.best_restart,
            "converged": self.converged,
            "seed": self.seed,
            "config": self.config,
            "iterations_used": [int(v) for v in self.iterations_used],
            "flagged_restarts": [int(v) for v in self.flagged_restarts],
        }
        if self.min_eig_seen is not None:
            out["min_eig_seen"] = self.min_eig_seen
        if self.best_lambdas is not None:
            out["best_lambdas"] = [float(v) for v in self.best_lambdas]
        if self.dykstra_steps is not None:
            out["dykstra_steps"] = list(self.dykstra_steps)
        return out


# ---------------------------------------------------------------------------
# see-saw over separable strategies; message states and decoders are
# (16, D, D) stacks, indexed by the input x and the output z respectively

_F = pauli.F_TABLE.astype(float)


def _o_operators(taus: np.ndarray) -> np.ndarray:
    """O_z = sum_x f_xz tau_x for the 16 outputs."""
    return np.einsum("xz,xab->zab", _F, np.asarray(taus))


def _correlations(taus: np.ndarray, decoders: np.ndarray) -> np.ndarray:
    """tr(O_z M_z) for the 16 outputs."""
    return np.einsum("zab,zba->z", _o_operators(taus), np.asarray(decoders)).real


def _projectors(vecs: np.ndarray) -> np.ndarray:
    """Rank-1 projectors v v^dagger for a stack of unit vectors."""
    return np.einsum("xa,xb->xab", vecs, vecs.conj())


def optimal_measurement(
    states_a: np.ndarray,
    states_b: np.ndarray,
    signs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Best product decoders for fixed message states.

    For each output z the optimal observable is the product of the
    matrix signs of O_z on either side, carrying the task sign on the
    A factor.  The witness this measurement attains is
    (1/16^3) sum_z ||O_a_z||_1 ||O_b_z||_1, independent of the signs.
    Zero eigenvalues get sign +1; any fixed choice is optimal and this
    one keeps runs reproducible.
    """
    decoders = []
    for taus in (states_a, states_b):
        spec = linalg.eigh(_o_operators(taus))
        v = spec.eigenvectors
        sgn = np.where(spec.eigenvalues < 0, -1.0, 1.0)
        decoders.append((v * sgn[:, None, :]) @ linalg.dagger(v))
    task_signs = np.asarray(signs, dtype=float)[:, None, None]
    return task_signs * decoders[0], decoders[1]


def _witness_product_decoders(
    states_a, states_b, dec_a, dec_b, signs
) -> float:
    """(1/16^3) sum_z s_z tr(O_a_z M_a_z) tr(O_b_z M_b_z)."""
    ta = _correlations(states_a, dec_a)
    tb = _correlations(states_b, dec_b)
    return _WITNESS_SCALE * float(np.sum(signs * ta * tb))


def optimal_states_given_measurement(
    dec_self: np.ndarray,
    dec_other: np.ndarray,
    other_states: np.ndarray,
    signs: np.ndarray,
) -> np.ndarray:
    """Closed-form state half-step: rank-1 projector onto the top
    eigenvector of each effective operator.

    With product decoders the witness is W = sum_x tr(tau_x A_x), where
    the partial trace collapses to a scalar:
    A_x = (1/16^3) sum_z s_z f_xz tr(O_other_z M_other_z) M_self_z.
    Ties inherit the eigendecomposition's deterministic ordering.  The
    witness cannot decrease under this update.
    """
    weights = _F * (signs * _correlations(other_states, dec_other))
    eff = _WITNESS_SCALE * np.einsum("xz,zab->xab", weights, np.asarray(dec_self))
    return _projectors(linalg.eigh(eff).eigenvectors[..., 0])


def _level_states(levels: np.ndarray, dim: int) -> np.ndarray:
    return _projectors(np.eye(dim, dtype=complex)[levels])


def _diag_o(levels: np.ndarray, dim: int) -> np.ndarray:
    """Diagonals of O_z for computational-basis encodings, shape (16, dim)."""
    diag = np.zeros((16, dim), dtype=np.int64)
    for x, level in enumerate(levels):
        diag[:, level] += pauli.F_TABLE[x, :]
    return diag


def _classical_sweep(
    levels: np.ndarray,
    other_norms: np.ndarray,
    dim: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One coordinate-ascent sweep over the encoding x -> level.

    The objective is the witness with the measurement implicitly
    re-optimised: sum_z ||O_self_z||_1 ||O_other_z||_1, where for
    diagonal O the trace norm is just the absolute column sum.  Each
    input in turn moves to its best level.  Scores are integers, so
    exact ties are common; they are broken with the restart generator
    to keep restarts from collapsing onto one pattern.
    """
    diag = _diag_o(levels, dim)
    for x in range(16):
        f_row = pauli.F_TABLE[x, :]
        diag[:, levels[x]] -= f_row
        # candidate scores: remove-and-reinsert per level
        base = np.sum(np.abs(diag), axis=1)          # (16,)
        scores = np.empty(dim)
        for cand in range(dim):
            delta = np.abs(diag[:, cand] + f_row) - np.abs(diag[:, cand])
            scores[cand] = float(np.dot(other_norms, base + delta))
        tied = np.flatnonzero(scores == scores.max())
        best = int(tied[rng.integers(tied.size)])
        levels[x] = best
        diag[:, best] += f_row
    return levels


def _classical_fixed_step(
    levels: np.ndarray,
    other_norms: np.ndarray,
    dim: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Simultaneous per-input argmax against the current sign decoders.

    The decoder of each correlation observable is the diagonal sign of
    the observable itself, so the witness sign s_z cancels out of the
    score (s_z^2 = 1) and the update is the same for every sign
    pattern.  Ties are broken with the restart generator.
    """
    diag = _diag_o(levels, dim)
    dec = np.where(diag < 0, -1, 1).astype(float)
    weight = other_norms[None, :] * pauli.F_TABLE.astype(float)  # (x, z)
    scores = weight @ dec                                        # (x, level)
    out = np.empty(16, dtype=np.int64)
    for x in range(16):
        row = scores[x]
        tied = np.flatnonzero(row == row.max())
        out[x] = int(tied[rng.integers(tied.size)])
    return out


def _classical_swap_sweep(
    levels: np.ndarray,
    other_norms: np.ndarray,
    dim: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy pass over input pairs, exchanging levels when that helps.

    Exchanges preserve the level occupancy profile, which single-input
    moves cannot fix once the ascent has balanced itself into a local
    optimum.  Only strictly improving exchanges are taken.
    """
    diag = _diag_o(levels, dim)
    for x1 in range(16):
        for x2 in range(x1 + 1, 16):
            l1, l2 = levels[x1], levels[x2]
            if l1 == l2:
                continue
            f1 = pauli.F_TABLE[x1, :]
            f2 = pauli.F_TABLE[x2, :]
            d1_new = diag[:, l1] + f2 - f1
            d2_new = diag[:, l2] + f1 - f2
            delta = (np.abs(d1_new) - np.abs(diag[:, l1])
                     + np.abs(d2_new) - np.abs(diag[:, l2]))
            if float(np.dot(other_norms, delta)) > 0:
                diag[:, l1] = d1_new
                diag[:, l2] = d2_new
                levels[x1], levels[x2] = l2, l1
    return levels


def _random_pure_states(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    # each state's real part, then its imaginary part: the seeded draw order
    g = rng.normal(size=(count, 2, dim))
    v = g[:, 0] + 1j * g[:, 1]
    return _projectors(v / np.linalg.norm(v, axis=1, keepdims=True))


def _classical_norms(levels: np.ndarray, dim: int) -> np.ndarray:
    return np.sum(np.abs(_diag_o(levels, dim)), axis=1).astype(float)


def _classical_restart(
    cfg: SeesawConfig, restart: int, signs: np.ndarray
) -> tuple[float, int, bool, bool, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One classical restart: ascent over deterministic encodings.

    Tracks the witness with the measurement re-optimised after every
    update, so the value is monotone across all three move kinds: the
    argmax step against frozen decoders lower-bounds it and the sweep
    and exchange moves increase it directly.  Phases cycle until a full
    cycle brings no improvement.
    """
    rng = np.random.default_rng([cfg.seed, restart])
    d = cfg.channel_dim
    levels_a = rng.integers(0, d, size=16)
    levels_b = rng.integers(0, d, size=16)
    norms_a = _classical_norms(levels_a, d)
    norms_b = _classical_norms(levels_b, d)
    w = _WITNESS_SCALE * float(np.dot(norms_a, norms_b))
    converged = False
    flagged = False
    iters = 0
    phases = (_classical_fixed_step, _classical_sweep, _classical_swap_sweep)
    for _ in range(cfg.max_iters):
        w_cycle_start = w
        for step in phases:
            for _ in range(cfg.max_iters):
                if iters >= cfg.max_iters:
                    break
                iters += 1
                levels_a = step(levels_a, norms_b, d, rng)
                norms_a = _classical_norms(levels_a, d)
                levels_b = step(levels_b, norms_a, d, rng)
                norms_b = _classical_norms(levels_b, d)
                w_new = _WITNESS_SCALE * float(np.dot(norms_a, norms_b))
                if w_new < w - MONOTONE_SLACK:
                    flagged = True
                    break
                improved = w_new - w >= cfg.tol
                w = w_new
                if not improved:
                    break
            if flagged:
                break
        if flagged or iters >= cfg.max_iters:
            break
        if w - w_cycle_start < cfg.tol:
            converged = True
            break
    states_a = _level_states(levels_a, d)
    states_b = _level_states(levels_b, d)
    dec_a, dec_b = optimal_measurement(states_a, states_b, signs)
    w_final = _witness_product_decoders(states_a, states_b, dec_a, dec_b, signs)
    if abs(w_final - w) > 1e-9:
        flagged = True
    return w_final, iters, converged, flagged, states_a, states_b, dec_a, dec_b


def _seesaw_restart(
    cfg: SeesawConfig, restart: int, signs: np.ndarray
) -> tuple[float, int, bool, bool, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng([cfg.seed, restart])
    d = cfg.channel_dim
    states_a = _random_pure_states(rng, d, 16)
    states_b = _random_pure_states(rng, d, 16)
    update = optimal_states_given_measurement

    dec_a, dec_b = optimal_measurement(states_a, states_b, signs)
    w = _witness_product_decoders(states_a, states_b, dec_a, dec_b, signs)
    converged = False
    flagged = False
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        w_cycle_start = w
        states_a = update(dec_a, dec_b, states_b, signs)
        w_new = _witness_product_decoders(states_a, states_b, dec_a, dec_b, signs)
        if w_new < w - MONOTONE_SLACK:
            flagged = True
            break
        w = w_new
        # B-side effective operators use the A states and swapped decoders
        states_b = update(dec_b, dec_a, states_a, signs)
        w_new = _witness_product_decoders(states_a, states_b, dec_a, dec_b, signs)
        if w_new < w - MONOTONE_SLACK:
            flagged = True
            break
        w = w_new
        dec_a, dec_b = optimal_measurement(states_a, states_b, signs)
        w_new = _witness_product_decoders(states_a, states_b, dec_a, dec_b, signs)
        if w_new < w - MONOTONE_SLACK:
            flagged = True
            break
        w = w_new
        if abs(w - w_cycle_start) < cfg.tol:
            converged = True
            break
    return w, iters, converged, flagged, states_a, states_b, dec_a, dec_b


def _run_seesaw(
    cfg: SeesawConfig, signs: np.ndarray | None, classical: bool
) -> OptimizationReport:
    signs = np.asarray(signs if signs is not None else protocol.default_signs())
    restart = _classical_restart if classical else _seesaw_restart
    results = [restart(cfg, i, signs) for i in range(cfg.n_restarts)]
    finals = [r[0] for r in results]
    best_idx = int(np.argmax(finals))
    best = results[best_idx]
    bound = float(sep_upper_bound(cfg.channel_dim, 1))
    if best[0] > bound + SOUNDNESS_SLACK:
        raise AssertionError(
            f"see-saw value {best[0]} exceeds the separable bound {bound}"
        )
    strategy = Strategy(
        kind="prepared_states",
        n_copies=1,
        channel_dim=cfg.channel_dim,
        decoders_a=best[6],
        decoders_b=best[7],
        states_a=best[4],
        states_b=best[5],
    )
    return OptimizationReport(
        best_value=float(finals[best_idx]),
        restart_values=finals,
        best_restart=best_idx,
        converged=bool(best[2]),
        seed=cfg.seed,
        config=cfg.to_dict(),
        iterations_used=[r[1] for r in results],
        flagged_restarts=[i for i, r in enumerate(results) if r[3]],
        best_strategy=strategy,
    )


def seesaw_quantum(
    cfg: SeesawConfig, signs: np.ndarray | None = None
) -> OptimizationReport:
    """Alternating maximisation over pure message states and decoders."""
    return _run_seesaw(cfg, signs, classical=False)


def seesaw_classical(
    cfg: SeesawConfig, signs: np.ndarray | None = None
) -> OptimizationReport:
    """Same loop with messages pinned to computational-basis levels."""
    return _run_seesaw(cfg, signs, classical=True)


# ---------------------------------------------------------------------------
# projected subgradient ascent of the CCNR over Bloch-diagonal PPT states


# The exact step solves one (K+1)-square system per row and active-set
# iteration.  On check 10's d = 8 config (K = 64, seeds 0-2, 2-core Xeon)
# it took 5-9 s against 22-37 s for Dykstra alone; at d = 16 (K = 256)
# six restarts of 100 steps took 20 s against 10 s.  So only K up to 64
# tries it.
_EXACT_MAX_K = 64
# rows still uncertified after this many active-set iterations go to
# Dykstra; 20 instead certified only 0.2% more of 3,000 d = 8 row-steps
_EXACT_MAX_ITERS = 10
# least constraint value and least active multiplier an exact solution
# may show and still count as the projection
_KKT_TOL = 1e-12
# keeps the masked system regular at degenerate vertices, where more
# constraint rows are tight than are linearly independent; at 1e-14,
# 15% of the d = 8 row-steps failed their certificate, at 1e-13 1%
_KKT_RIDGE = 1e-13
# a constraint this close to zero at the previous iterate starts active
_TIGHT = 1e-9


class _BlochPolytope:
    """Feasible set {rho PSD, rho^T_B PSD, unit trace} in lambda space.

    Every map takes an array of coefficient vectors, one per row.

    In eigenvalue coordinates mu = C lam the set is {mu >= 0, M mu >= 0,
    sum mu = 1}, with M = C diag(t) C^T a symmetric involution fixing
    the all-ones vector.  C is orthogonal, so Euclidean projections agree
    in both coordinates.  `rows` stacks the rows of M and the trace row.
    """

    def __init__(self, local_dim: int):
        self.local_dim = local_dim
        self.c = joint_eigenvalue_matrix(local_dim)
        n = local_dim.bit_length() - 1
        self.t = pauli.pauli_transpose_signs(n).astype(float)
        self.id_coeff = 1.0 / local_dim
        self.m = self.c @ (self.t[:, None] * self.c.T)
        self.rows = np.vstack([self.m, np.ones(len(self.m))])

    def project_psd_rows(self, lam: np.ndarray) -> np.ndarray:
        return np.maximum(lam @ self.c.T, 0.0) @ self.c

    def project_psd_pt_rows(self, lam: np.ndarray) -> np.ndarray:
        return (np.maximum((lam * self.t) @ self.c.T, 0.0) @ self.c) * self.t

    def min_eig_rows(self, lam: np.ndarray) -> np.ndarray:
        plain = (lam @ self.c.T).min(axis=1)
        swapped = ((lam * self.t) @ self.c.T).min(axis=1)
        return np.minimum(plain, swapped)

    def dykstra_rows(
        self,
        lam: np.ndarray,
        cap: int,
        tol: float,
        active: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dykstra on every row at once; rows freeze as they converge.

        Rows outside `active` are passed through untouched and count as
        converged.  Returns (points, converged mask).
        """
        out = lam.copy()
        rows = (
            np.arange(lam.shape[0])
            if active is None
            else np.flatnonzero(active)
        )
        converged = np.ones(lam.shape[0], bool)
        converged[rows] = False
        x = out[rows]
        p1 = np.zeros_like(x)
        p2 = np.zeros_like(x)
        p3 = np.zeros_like(x)
        for _ in range(cap):
            if rows.size == 0:
                break
            y1 = self.project_psd_rows(x + p1)
            p1 = x + p1 - y1
            y2 = self.project_psd_pt_rows(y1 + p2)
            p2 = y1 + p2 - y2
            y3 = y2 + p3
            y3[:, 0] = self.id_coeff
            p3 = y2 + p3 - y3
            drift = np.max(np.abs(y3 - x), axis=1)
            x = y3
            done = drift < tol
            if done.any():
                out[rows] = x
                converged[rows[done]] = True
                keep = ~done
                rows = rows[keep]
                x = x[keep]
                p1 = p1[keep]
                p2 = p2[keep]
                p3 = p3[keep]
        if rows.size:
            out[rows] = x
        return out, converged

    def project_exact_rows(
        self, lam: np.ndarray, prev: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Euclidean projection of every row by a primal-dual active-set
        solve (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13, 2002).

        Active sets start from the constraints a row violates and those
        tight at its `prev` row.  Each iteration solves the ridged KKT
        system of every row's active constraints at once.  Active bounds
        mu_i >= 0 are eliminated: `rows` weighted by phi (1 on the free
        eigenvalues, the ridge on the bound ones) and masked to the
        active rows of M and the trace row give a (K+1)-square system
        for w; with v = q + rows^T w the point is phi v and the bound
        multipliers are -v.  A row is certified once every constraint and
        active multiplier is >= -_KKT_TOL: the KKT conditions then hold,
        so the point is the projection.  Returns (points, certified
        mask); uncertified rows hold no valid point.
        """
        k = self.c.shape[0]
        diag = np.arange(k + 1)
        q = lam @ self.c.T
        prev_mu = prev @ self.c.T
        free = (q >= 0) & (prev_mu > _TIGHT)
        on = np.ones((q.shape[0], k + 1), bool)
        on[:, :-1] = (q @ self.m < 0) | (prev_mu @ self.m <= _TIGHT)
        mu = np.empty_like(q)
        certified = np.zeros(q.shape[0], bool)
        left = np.arange(q.shape[0])
        for _ in range(_EXACT_MAX_ITERS):
            f = free[left]
            phi = np.where(f, 1.0, _KKT_RIDGE)
            m = on[left].astype(float)
            system = ((self.rows * phi[:, None, :]) @ self.rows.T) * (
                m[:, :, None] * m[:, None, :]
            )
            system[:, diag, diag] += 1.0 - m + _KKT_RIDGE
            rhs = -((q[left] * phi) @ self.rows.T)
            rhs[:, -1] += 1.0
            w = np.linalg.solve(system, (m * rhs)[..., None])[..., 0]
            v = q[left] + w @ self.rows
            mu[left] = phi * v
            g = mu[left] @ self.m
            y = w[:, :-1]
            ok = (
                (np.where(f, v, -v).min(axis=1) >= -_KKT_TOL)
                & (g.min(axis=1) >= -_KKT_TOL)
                & (y.min(axis=1) >= -_KKT_TOL)
            )
            certified[left[ok]] = True
            new_free = v >= 0
            new_on = y - g > 0
            # an unchanged active set repeats the same uncertified solve
            moved = ~ok & (
                np.any(new_free != f, axis=1)
                | np.any(new_on != on[left, :-1], axis=1)
            )
            free[left] = new_free
            on[left, :-1] = new_on
            left = left[moved]
            if left.size == 0:
                break
        out = mu @ self.c
        out[:, 0] = self.id_coeff
        return out, certified

    def project_step_rows(
        self,
        lam: np.ndarray,
        prev: np.ndarray,
        cap: int,
        tol: float,
        active: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project the `active` rows of one ascent step, taken from their
        `prev` rows: exactly where K is small and the solve certifies
        itself, by Dykstra otherwise.  Other rows pass through.  Returns
        (points, converged mask, mask of the rows handed to Dykstra).
        """
        out = lam.copy()
        handed = active.copy()
        if self.c.shape[0] <= _EXACT_MAX_K:
            rows = np.flatnonzero(active)
            points, ok = self.project_exact_rows(lam[rows], prev[rows])
            out[rows[ok]] = points[ok]
            handed[rows[ok]] = False
        converged = np.ones(lam.shape[0], bool)
        if handed.any():
            out, converged = self.dykstra_rows(out, cap, tol, handed)
        return out, converged, handed


# the random start sits far outside the polytope; the one-time pull-in
# projection gets a larger budget than the per-step projections
_INITIAL_PULL_FACTOR = 40


def _refresh_signs(lam: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Signs of the coefficient rows `lam`; the identity coefficient and
    any entry within SIGN_ZERO_TOL of zero keep their sign in `prev`."""
    keep = np.abs(lam) <= SIGN_ZERO_TOL
    keep[:, 0] = True
    return np.where(keep, prev, np.where(lam < 0, -1.0, 1.0))


def _ascent_all(poly: _BlochPolytope, cfg: AscentConfig) -> dict:
    """All restarts in lockstep rows; per-restart math is unchanged."""
    r_count = cfg.n_restarts
    k = poly.c.shape[0]
    lam = np.empty((r_count, k))
    for r in range(r_count):
        rng = np.random.default_rng([cfg.seed, r])
        start = np.zeros(k)
        start[0] = poly.id_coeff
        lam[r] = start + 0.1 * rng.normal(size=k)

    lam, conv = poly.dykstra_rows(lam, DYKSTRA_CAP * _INITIAL_PULL_FACTOR, DYKSTRA_TOL)
    flagged = ~conv
    me = poly.min_eig_rows(lam)
    min_eig_seen = me.copy()
    start_ccnr = np.abs(lam).sum(axis=1)
    feasible = me >= PPT_ITERATE_TOL
    best_ccnr = np.where(feasible, start_ccnr, -np.inf)
    best_lam = lam.copy()
    signs = _refresh_signs(lam, np.ones_like(lam))
    active = np.ones(r_count, bool)
    iters_used = np.zeros(r_count, dtype=int)
    dykstra_steps = np.zeros(r_count, dtype=int)

    for _ in range(cfg.max_outer):
        for it in range(1, cfg.max_iters + 1):
            step = ASCENT_STEP0 / np.sqrt(it)
            g = signs / np.linalg.norm(signs, axis=1, keepdims=True)
            prop = np.where(active[:, None], lam + step * g, lam)
            lam_new, conv, handed = poly.project_step_rows(
                prop, lam, DYKSTRA_CAP, DYKSTRA_TOL, active
            )
            flagged |= active & ~conv
            dykstra_steps += handed
            me = poly.min_eig_rows(lam_new)
            min_eig_seen = np.where(
                active, np.minimum(min_eig_seen, me), min_eig_seen
            )
            cc = np.abs(lam_new).sum(axis=1)
            better = active & (me >= PPT_ITERATE_TOL) & (cc > best_ccnr)
            best_ccnr = np.where(better, cc, best_ccnr)
            best_lam = np.where(better[:, None], lam_new, best_lam)
            lam = np.where(active[:, None], lam_new, lam)
        iters_used += np.where(active, cfg.max_iters, 0)
        new_signs = _refresh_signs(best_lam, signs)
        unchanged = np.all(new_signs == signs, axis=1)
        active &= ~unchanged
        if not active.any():
            break
        signs = np.where(active[:, None], new_signs, signs)
        lam = np.where(active[:, None], best_lam, lam)

    # a restart with no feasible iterate reports its start and stays flagged
    never = ~np.isfinite(best_ccnr)
    best_ccnr = np.where(never, start_ccnr, best_ccnr)
    flagged |= never
    return {
        "ccnr": best_ccnr,
        "lambdas": best_lam,
        "flagged": flagged,
        "min_eig_seen": min_eig_seen,
        "iters_used": iters_used,
        "dykstra_steps": dykstra_steps,
    }


def ccnr_ascent_bloch_ppt(
    local_dim: int, cfg: AscentConfig | None = None
) -> OptimizationReport:
    """Maximise sum |lambda_k| over Bloch-diagonal PPT states.

    Supported local dimensions are 4, 8 and 16, where the basis is a
    product of Pauli strings.  Inner loop: projected subgradient ascent
    of sum_k s_k lambda_k at fixed signs, each step projected onto
    {rho >= 0} cap {rho^T_B >= 0} cap {unit trace}.  At d = 4 and 8 the
    projection is the exact active-set solve wherever its KKT
    certificate holds; Dykstra's alternating scheme takes the steps it
    does not certify, every step at d = 16 and the pull-in of the random
    starts.  The report counts, per restart, the steps handed to Dykstra.
    Outer loop refreshes s from the best iterate's signs, except where a
    coefficient is within SIGN_ZERO_TOL of zero.  Restarts run
    as one vectorized batch, one restart per row.
    """
    if local_dim not in (4, 8, 16):
        raise ValueError(
            "CCNR search needs a Pauli-string product basis; "
            "local dimension must be one of 4, 8, 16"
        )
    cfg = cfg or AscentConfig()
    poly = _BlochPolytope(local_dim)
    out = _ascent_all(poly, cfg)

    finals = [float(v) for v in out["ccnr"]]
    best_idx = int(np.argmax(out["ccnr"]))
    flagged = [i for i in range(cfg.n_restarts) if out["flagged"][i]]
    return OptimizationReport(
        best_value=finals[best_idx],
        restart_values=finals,
        best_restart=best_idx,
        converged=not out["flagged"][best_idx],
        seed=cfg.seed,
        config=cfg.to_dict(),
        iterations_used=[int(v) for v in out["iters_used"]],
        flagged_restarts=flagged,
        dykstra_steps=[int(v) for v in out["dykstra_steps"]],
        min_eig_seen=float(np.min(out["min_eig_seen"])),
        best_lambdas=out["lambdas"][best_idx].copy(),
    )
