"""Heuristic searches for separable witness values and CCNR records.

Two families live here.  The see-saw alternates closed-form block
updates (states are top-eigenvector projectors of their effective
operators, fed the other side's correlations; measurements are
sign-projector products), driving the witness monotonically upward;
quantum restarts run in lockstep rows and sums over the +-1 table
f(x, z) are real GEMMs; a classical restart is one loop over steps that
cycles through three integer-scored moves.  The CCNR search maximises
sum_k |lambda_k| over Bloch-diagonal PPT states in rounds at fixed signs s.
A round is a linear program, max s . lambda over the polytope, climbed by
projected gradient steps: an exact projection gains at any step length
(Calamai & More, Math. Prog. 39, 1987).  So where the exact projection is
tried, each step first goes a unit length, as far as the polytope is wide
(it lies in the unit ball), so that one certified projection mostly lands
on the round's optimal face.  A row whose long projection does not
certify takes a short step instead, fixed until a step of the round goes
to Dykstra's approximate projection, and then shrinking.  A round ends at
max_iters steps or at the first certified step that leaves its iterate in
place (s is then in the normal cone, so later steps would too); each
restart row refreshes its signs on its own.

The CCNR search runs in eigenvalue coordinates.  The operators
G_k (x) G_k pairwise commute (Pauli strings commute or anticommute, and
the sign cancels on the doubled copy), so they share one eigenbasis, per
qubit pair the Bell basis, and their joint eigenvalue matrix C
(`pauli.joint_eigenvalue_matrix`) is orthogonal.  In mu = C lambda the PPT
polytope is {mu >= 0, M mu >= 0, sum mu = 1} (see `_BlochPolytope`), and
lambda is formed only where it is read: each step's sum |lambda|, the sign
refresh and the reported coefficients.  Each step is projected exactly
by a primal-dual active-set solve, accepted only where it certifies its
KKT conditions; Dykstra's alternating projections take the pull-in from
the random start, the steps whose certificate fails and every step at
d = 16, where the exact solves cost more than the sweeps they save.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from types import SimpleNamespace

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
        if not 0 < self.tol < math.inf or self.n_restarts < 1 or self.max_iters < 1:
            raise ValueError("tol must be positive and finite, restarts and iters >= 1")
        if not 2 <= self.channel_dim <= 16:
            raise ValueError("channel_dim must lie in 2..16")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)


# CCNR ascent; CHANGES.md has the measured steps and timings behind each
# value.  The short step is ASCENT_STEP0 / sqrt(1 + n), n the steps of the
# round so far handed to Dykstra (at d = 16, every step): ascent on capped,
# approximate projections settles only under a shrinking step, and 0.1, a
# tenth of the polytope's width, starts each projection close to it.
ASCENT_STEP0 = 0.1
# every feasible lambda has |lambda|^2 = tr rho^2 <= 1, so a unit step along
# the unit direction g spans the polytope, and its exact projection mostly
# lands on the round's optimal face; the next long step certifies the stall
ASCENT_LONG_STEP = 1.0
# sweep cap and tolerance (on the eigenvalues) of each Dykstra projection;
# coefficients within SIGN_ZERO_TOL of zero (Dykstra leaves ~1e-12 at a
# vertex) keep their sign
DYKSTRA_CAP = 500
DYKSTRA_TOL = 1e-11
SIGN_ZERO_TOL = 1e-10
# a certified step moving a row's eigenvalues by at most this ends its
# round: g is then in the normal cone, where every later step of the round
# returns the iterate up to rounding (about 1e-16)
STALL_TOL = 1e-12


@dataclass(frozen=True)
class AscentConfig:
    n_restarts: int = 20
    max_iters: int = 2000
    max_outer: int = 6
    seed: int = 0

    def __post_init__(self):
        if min(self.n_restarts, self.max_iters, self.max_outer) < 1:
            raise ValueError("restart, iteration and outer-round counts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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
    rounds_used: list[int] | None = None

    @classmethod
    def from_restarts(cls, cfg, values, iters, flagged, converged, *,
                      tables=None, lambdas=None, **extra) -> OptimizationReport:
        """The report of a search from its per-restart arrays.

        The best restart is the first with the top value.  `tables`
        (states_a, states_b, decoders_a, decoders_b) and `lambdas` stack one
        row per restart, of which the report keeps the best; `extra` fields
        are kept as given.
        """
        values = [float(v) for v in values]
        best = int(np.argmax(values))
        return cls(
            best_value=values[best],
            restart_values=values,
            best_restart=best,
            converged=bool(converged[best]),
            seed=cfg.seed,
            config=cfg.to_dict(),
            iterations_used=[int(v) for v in iters],
            flagged_restarts=[int(i) for i in np.flatnonzero(flagged)],
            best_strategy=(None if tables is None
                           else _prepared_strategy(*(t[best] for t in tables))),
            best_lambdas=None if lambdas is None else lambdas[best].copy(),
            **extra,
        )

    def to_dict(self) -> dict:
        """Every set field but the strategy, as JSON-ready values."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None and f.name != "best_strategy":
                out[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
        return out


# ---------------------------------------------------------------------------
# see-saw over separable strategies; message states and decoders are
# (..., 16, D, D) stacks, indexed by the input x and the output z respectively

# f is symmetric.  Held in Fortran order it makes OpenBLAS sum each GEMM
# entry in index order, as an einsum does; C order does not at odd D.
_F = np.asfortranarray(pauli.F_TABLE, dtype=float)


def _f_sum(stack: np.ndarray) -> np.ndarray:
    """sum_k f_jk stack_k over the 16-axis, one real GEMM on interleaved real
    and imaginary parts: on message states, O_z = sum_x f_xz tau_x."""
    stack = np.asarray(stack, dtype=complex)
    flat = stack.reshape(*stack.shape[:-2], stack.shape[-1] ** 2).view(float)
    return (_F @ flat).view(complex).reshape(stack.shape)


def _correlations(ops: np.ndarray, decoders: np.ndarray) -> np.ndarray:
    """tr(O_z M_z) for the 16 outputs.  The einsum sums in memory order, so
    C-contiguous decoders make each row sum as a lone (16, D, D) stack."""
    return np.einsum("...zab,...zba->...z", ops, np.ascontiguousarray(decoders)).real


def _witness(c_a: np.ndarray, c_b: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """(1/16^3) sum_z s_z c_a_z c_b_z along the last axis."""
    return _WITNESS_SCALE * (signs * c_a * c_b).sum(axis=-1)


def _projectors(vecs: np.ndarray) -> np.ndarray:
    """Rank-1 projectors v v^dagger for a stack of unit vectors."""
    return np.einsum("...a,...b->...ab", vecs, vecs.conj())


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
    one keeps runs reproducible.  Both sides share one `eigh`.
    """
    spec = linalg.eigh(_f_sum(np.stack([states_a, states_b])))
    v = spec.eigenvectors
    sgn = np.where(spec.eigenvalues < 0, -1.0, 1.0)
    decoders = (v * sgn[..., None, :]) @ linalg.dagger(v)
    task_signs = np.asarray(signs, dtype=float)[:, None, None]
    return task_signs * decoders[0], decoders[1]


def optimal_states_given_measurement(
    dec_self: np.ndarray,
    other_correlations: np.ndarray,
    signs: np.ndarray,
) -> np.ndarray:
    """Closed-form state half-step: rank-1 projector onto the top
    eigenvector of each effective operator.

    With product decoders the witness is W = sum_x tr(tau_x A_x), where
    the partial trace collapses to a scalar:
    A_x = (1/16^3) sum_z s_z f_xz c_z M_self_z, with the other side's
    correlations c_z = tr(O_other_z M_other_z) passed in.  Ties inherit
    the eigendecomposition's deterministic ordering.  The witness cannot
    decrease under this update.
    """
    weight = (signs * other_correlations)[..., None, None]
    eff = _WITNESS_SCALE * _f_sum(weight * np.asarray(dec_self))
    return _projectors(linalg.eigh(eff).eigenvectors[..., 0])


def _level_states(levels: np.ndarray, dim: int) -> np.ndarray:
    return _projectors(np.eye(dim, dtype=complex)[levels])


def _prepared_strategy(states_a, states_b, dec_a, dec_b) -> Strategy:
    return Strategy(kind="prepared_states", n_copies=1, decoders_a=dec_a,
                    decoders_b=dec_b, states_a=states_a, states_b=states_b)


def _level_rows(levels_a: np.ndarray, levels_b: np.ndarray, dim: int, signs: np.ndarray) -> tuple:
    """Computational-basis encodings (..., 16) as message states, their
    best decoders and the witness these attain, by the quantum rows' own
    expressions: (w, states_a, states_b, dec_a, dec_b)."""
    sa, sb = _level_states(levels_a, dim), _level_states(levels_b, dim)
    dec_a, dec_b = optimal_measurement(sa, sb, signs)
    w = _witness(_correlations(_f_sum(sa), dec_a), _correlations(_f_sum(sb), dec_b), signs)
    return w, sa, sb, dec_a, dec_b


def classical_optimal_strategy_d4() -> Strategy:
    """Computational-basis encoding saturating the D=4 bound.

    Input x = 4a + b (digits a, b in 0..3) is sent as the level
    2 (a // 2) + b // 2: per qubit the four digit values map pairwise onto
    |0>, |0>, |1>, |1>, and the two-qubit message is the product of its
    digit factors.  The decoders are the matched sign-projector optimum.
    """
    x = np.arange(16)
    levels = 2 * (x // 8) + (x % 4) // 2
    return _prepared_strategy(*_level_rows(levels, levels, 4, protocol.default_signs())[1:])


def _diag_o(levels: np.ndarray, dim: int) -> np.ndarray:
    """Diagonals of O_z for computational-basis encodings, shape (16, dim)."""
    return pauli.F_TABLE.T @ np.eye(dim, dtype=np.int64)[levels]


def _argmax(scores: np.ndarray, rng: np.random.Generator) -> int:
    """Index of the largest score.  Scores are exact integers, so ties are
    common; the restart generator picks among them, which keeps restarts
    from collapsing onto one pattern."""
    tied = np.flatnonzero(scores == scores.max())
    return int(tied[rng.integers(tied.size)])


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
    input in turn moves to its best level, scored by the change of that
    objective (the part common to every level leaves the argmax alone).
    """
    diag = _diag_o(levels, dim)
    for x in range(16):
        f_row = pauli.F_TABLE[x, :]
        diag[:, levels[x]] -= f_row
        delta = np.abs(diag + f_row[:, None]) - np.abs(diag)     # (16, dim)
        levels[x] = best = _argmax(other_norms @ delta, rng)
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
    pattern.
    """
    dec = np.where(_diag_o(levels, dim) < 0, -1, 1).astype(float)
    weight = other_norms[None, :] * pauli.F_TABLE.astype(float)  # (x, z)
    scores = weight @ dec                                        # (x, level)
    return np.array([_argmax(row, rng) for row in scores], dtype=np.int64)


def _classical_swap_sweep(
    levels: np.ndarray,
    other_norms: np.ndarray,
    dim: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy pass over input pairs, exchanging levels when that helps.

    Exchanges preserve the level occupancy profile, which single-input
    moves cannot fix once the ascent has balanced itself into a local
    optimum.  The first strictly improving exchange in pair order is taken.
    """
    diag = _diag_o(levels, dim)
    f = pauli.F_TABLE
    first, second = np.triu_indices(16, 1)
    while first.size:  # score every later pair at once, in exact integers
        l1, l2 = levels[first], levels[second]
        step = f[second] - f[first]                   # (pairs, 16)
        d1_new = diag[:, l1].T + step
        d2_new = diag[:, l2].T - step
        delta = (np.abs(d1_new) - np.abs(diag[:, l1].T)
                 + np.abs(d2_new) - np.abs(diag[:, l2].T))
        gains = np.flatnonzero((l1 != l2) & (delta @ other_norms > 0))
        if gains.size == 0:
            break
        j = gains[0]
        diag[:, l1[j]] = d1_new[j]
        diag[:, l2[j]] = d2_new[j]
        levels[first[j]], levels[second[j]] = l2[j], l1[j]
        first, second = first[j + 1:], second[j + 1:]
    return levels


def _random_pure_states(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    # each state's real part, then its imaginary part: the seeded draw order
    g = rng.normal(size=(count, 2, dim))
    v = g[:, 0] + 1j * g[:, 1]
    return _projectors(v / np.linalg.norm(v, axis=1, keepdims=True))


def _classical_norms(levels: np.ndarray, dim: int) -> np.ndarray:
    return np.sum(np.abs(_diag_o(levels, dim)), axis=1).astype(float)


def _classical_restart(
    cfg: SeesawConfig, restart: int
) -> tuple[np.ndarray, np.ndarray, float, int, bool, bool]:
    """One classical restart: ascent over deterministic encodings.

    Tracks the witness with the measurement re-optimised after every
    update, so the value is monotone across all three move kinds: the
    argmax step against frozen decoders lower-bounds it and the sweep
    and exchange moves increase it directly.  Each step applies the
    current phase's move to both sides; a phase ends at its first step
    that gains less than `tol`, and a turn through the three phases that
    gains less than `tol` converges the restart (not checked at the step
    cap).  Returns (levels_a, levels_b, value, steps, converged,
    flagged), the value scored in exact integers.
    """
    rng = np.random.default_rng([cfg.seed, restart])
    d = cfg.channel_dim
    levels_a = rng.integers(0, d, size=16)
    levels_b = rng.integers(0, d, size=16)
    norms_b = _classical_norms(levels_b, d)
    w = w_turn = _WITNESS_SCALE * float(np.dot(_classical_norms(levels_a, d), norms_b))
    phases = (_classical_fixed_step, _classical_sweep, _classical_swap_sweep)
    phase = iters = 0
    while iters < cfg.max_iters:
        iters += 1
        levels_a = phases[phase](levels_a, norms_b, d, rng)
        norms_a = _classical_norms(levels_a, d)
        levels_b = phases[phase](levels_b, norms_a, d, rng)
        norms_b = _classical_norms(levels_b, d)
        w_new = _WITNESS_SCALE * float(np.dot(norms_a, norms_b))
        if w_new < w - MONOTONE_SLACK:
            return levels_a, levels_b, w, iters, False, True
        gained = w_new - w >= cfg.tol
        w = w_new
        if gained:
            continue
        phase = (phase + 1) % len(phases)
        if phase == 0:
            if iters < cfg.max_iters and w - w_turn < cfg.tol:
                return levels_a, levels_b, w, iters, True, False
            w_turn = w
    return levels_a, levels_b, w, iters, False, False


def _classical_rows(cfg: SeesawConfig, signs: np.ndarray) -> tuple:
    """Every classical restart, scored at once as (R, 16, D, D) rows; a row
    whose float witness is more than 1e-9 off its integer score is flagged."""
    levels_a, levels_b, w_int, iters, converged, flagged = (
        np.array(v) for v in zip(*[_classical_restart(cfg, r) for r in range(cfg.n_restarts)]))
    w, *tables = _level_rows(levels_a, levels_b, cfg.channel_dim, signs)
    return (w, iters, converged, flagged | (np.abs(w - w_int) > 1e-9), *tables)


def _seesaw_rows(cfg: SeesawConfig, signs: np.ndarray) -> tuple:
    """All quantum restarts in lockstep as (R, 16, D, D) rows, each bit for
    bit the restart run alone.  A row freezes, flagged, when a half-step
    drops its witness by more than MONOTONE_SLACK (keeping the value before
    the drop), or converged, when a cycle moves it by less than `tol`."""
    rngs = [np.random.default_rng([cfg.seed, r]) for r in range(cfg.n_restarts)]
    # one draw per restart: its 16 A states, then its 16 B states
    start = np.stack([_random_pure_states(rng, cfg.channel_dim, 32) for rng in rngs])
    s = SimpleNamespace(rows=np.arange(cfg.n_restarts), sa=start[:, :16], sb=start[:, 16:])
    s.o_a, s.o_b = _f_sum(s.sa), _f_sum(s.sb)
    s.dec_a, s.dec_b = optimal_measurement(s.sa, s.sb, signs)
    s.c_a, s.c_b = _correlations(s.o_a, s.dec_a), _correlations(s.o_b, s.dec_b)
    s.w = s.w_start = _witness(s.c_a, s.c_b, signs)
    out = {k: np.copy(v) for k, v in vars(s).items()}
    out.update(iters=np.full(cfg.n_restarts, cfg.max_iters),
               converged=np.zeros(cfg.n_restarts, bool), flagged=np.zeros(cfg.n_restarts, bool))

    def settle(done, it, stop):
        ids = s.rows[done]
        for k, arr in vars(s).items():
            out[k][ids] = arr[done]
            setattr(s, k, arr[~done])
        out["iters"][ids] = it
        out[stop][ids] = True

    def check(it):
        w_new = _witness(s.c_a, s.c_b, signs)
        drop = w_new < s.w - MONOTONE_SLACK
        s.w = np.where(drop, s.w, w_new)
        if drop.any():
            settle(drop, it, "flagged")

    for it in range(1, cfg.max_iters + 1):
        if s.rows.size == 0:
            break
        s.w_start = s.w
        # O operators and correlations carry over; each check redoes one side
        s.sa = optimal_states_given_measurement(s.dec_a, s.c_b, signs)
        s.o_a = _f_sum(s.sa)
        s.c_a = _correlations(s.o_a, s.dec_a)
        check(it)
        s.sb = optimal_states_given_measurement(s.dec_b, s.c_a, signs)
        s.o_b = _f_sum(s.sb)
        s.c_b = _correlations(s.o_b, s.dec_b)
        check(it)
        s.dec_a, s.dec_b = optimal_measurement(s.sa, s.sb, signs)
        s.c_a, s.c_b = _correlations(s.o_a, s.dec_a), _correlations(s.o_b, s.dec_b)
        check(it)
        done = np.abs(s.w - s.w_start) < cfg.tol
        if done.any():
            settle(done, it, "converged")
    for k, arr in vars(s).items():  # rows still running at the cycle cap
        out[k][s.rows] = arr
    return tuple(out[k] for k in ("w", "iters", "converged", "flagged", "sa", "sb", "dec_a", "dec_b"))


def _run_seesaw(
    cfg: SeesawConfig, signs: np.ndarray | None, classical: bool
) -> OptimizationReport:
    signs = np.asarray(signs if signs is not None else protocol.default_signs(), dtype=float)
    rows = (_classical_rows if classical else _seesaw_rows)(cfg, signs)
    values, iters, converged, flagged, *tables = rows
    top = float(np.max(values))
    bound = float(sep_upper_bound(cfg.channel_dim, 1))
    if top > bound + SOUNDNESS_SLACK:
        raise AssertionError(f"see-saw value {top} exceeds the separable bound {bound}")
    return OptimizationReport.from_restarts(cfg, values, iters, flagged, converged, tables=tables)


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
# projected gradient ascent of the CCNR over Bloch-diagonal PPT states


# The exact step solves a (K+1)-square system per row and active-set
# iteration, at a cost cubic in K: at K = 64 (d = 8) a tenth of the sweeps
# it saves, at K = 256 more than them (timed with lambda-coordinate sweeps
# and not re-timed; the cheaper eigenvalue sweeps only widen that gap)
_EXACT_MAX_K = 64
# rows still uncertified after this many active-set iterations go to the
# slower, approximate Dykstra; at 10, eight times as many d = 8 steps did
_EXACT_MAX_ITERS = 20
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
    """Feasible set {rho PSD, rho^T_B PSD, unit trace} on rows of
    eigenvalues mu = lam C^T, one per point: {mu >= 0, mu M >= 0,
    sum mu = 1}, with M = C diag(t) C^T (t the transpose signs) a symmetric
    involution fixing the all-ones vector, so mu M is the spectrum of
    rho^T_B.  C is orthogonal, so projections agree with those in lambda.
    `rows` stacks the rows of M and the trace row.
    """

    def __init__(self, local_dim: int):
        self.c = joint_eigenvalue_matrix(local_dim)
        t = pauli.pauli_transpose_signs(local_dim.bit_length() - 1).astype(float)
        self.id_coeff = 1.0 / local_dim
        self.m = self.c @ (t[:, None] * self.c.T)
        self.rows = np.vstack([self.m, np.ones(len(self.m))])

    def lambda_rows(self, mu: np.ndarray) -> np.ndarray:
        """Coefficients mu C, the identity coefficient set to 1/d exactly
        (the exact solve meets sum mu = 1 only to rounding)."""
        lam = mu @ self.c
        lam[:, 0] = self.id_coeff
        return lam

    def project_psd_rows(self, mu: np.ndarray) -> np.ndarray:
        return np.maximum(mu, 0.0)

    def project_psd_pt_rows(self, mu: np.ndarray) -> np.ndarray:
        return np.maximum(mu @ self.m, 0.0) @ self.m

    def min_eig_rows(self, mu: np.ndarray) -> np.ndarray:
        return np.minimum(mu.min(axis=1), (mu @ self.m).min(axis=1))

    def dykstra_rows(
        self, mu: np.ndarray, cap: int, tol: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dykstra on every row at once; rows freeze once a sweep moves no
        eigenvalue by `tol`.  Returns (points, converged mask).  The affine
        trace set is a shift along its normal, the all-ones vector, which
        an increment would only undo."""
        out = mu.copy()
        rows = np.arange(mu.shape[0])
        converged = np.zeros(mu.shape[0], bool)
        x, p1, p2 = mu, np.zeros_like(mu), np.zeros_like(mu)
        for _ in range(cap):
            if rows.size == 0:
                break
            y1 = self.project_psd_rows(x + p1)
            p1 = x + p1 - y1
            y2 = self.project_psd_pt_rows(y1 + p2)
            p2 = y1 + p2 - y2
            y3 = y2 + (1.0 - y2.sum(axis=1, keepdims=True)) / y2.shape[1]
            done = np.max(np.abs(y3 - x), axis=1) < tol
            x = y3
            if done.any():
                out[rows] = x
                converged[rows[done]] = True
                rows, x, p1, p2 = rows[~done], x[~done], p1[~done], p2[~done]
        out[rows] = x
        return out, converged

    def project_exact_rows(
        self, q: np.ndarray, prev: np.ndarray
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
        k = q.shape[1]
        diag = np.arange(k + 1)
        free = (q >= 0) & (prev > _TIGHT)
        on = np.ones((q.shape[0], k + 1), bool)
        on[:, :-1] = (q @ self.m < 0) | (prev @ self.m <= _TIGHT)
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
        return mu, certified

    def project_step_rows(
        self, prev: np.ndarray, g: np.ndarray, step: np.ndarray, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project one ascent step of the `active` eigenvalue rows from
        `prev` along the unit directions `g`.  Where K is small, a row
        first takes the exact projection of the long proposal
        prev + ASCENT_LONG_STEP g,
        then, if that solve does not certify itself, of the short one
        prev + step g; the short proposals left over go to Dykstra
        (DYKSTRA_CAP sweeps, DYKSTRA_TOL).  Other rows pass through.
        Returns (points, converged mask, mask of the rows handed to Dykstra).
        """
        # rows still handed hold their short proposal
        out = np.where(active[:, None], prev + step[:, None] * g, prev)
        handed = active.copy()
        if self.c.shape[0] <= _EXACT_MAX_K:
            for trial in (prev + ASCENT_LONG_STEP * g, out):
                rows = np.flatnonzero(handed)
                if rows.size == 0:
                    break
                points, ok = self.project_exact_rows(trial[rows], prev[rows])
                out[rows[ok]] = points[ok]
                handed[rows[ok]] = False
        converged = np.ones(prev.shape[0], bool)
        rows = np.flatnonzero(handed)
        if rows.size:
            out[rows], converged[rows] = self.dykstra_rows(out[rows], DYKSTRA_CAP, DYKSTRA_TOL)
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


def ccnr_ascent_bloch_ppt(
    local_dim: int, cfg: AscentConfig | None = None
) -> OptimizationReport:
    """Maximise sum |lambda_k| over Bloch-diagonal PPT states.

    Supported local dimensions are 4, 8 and 16, where the basis is a
    product of Pauli strings.  Inner loop: projected gradient ascent of
    sum_k s_k lambda_k at fixed signs, each step projected onto
    {rho >= 0} cap {rho^T_B >= 0} cap {unit trace}.  At d = 4 and 8 the
    projection is the exact active-set solve wherever its KKT
    certificate holds; Dykstra's alternating scheme takes the steps it
    does not certify, every step at d = 16 and the pull-in of the random
    starts.  Exact projections gain at any step length, so at d = 4 and 8
    a row first tries the step ASCENT_LONG_STEP, as long as the polytope
    is wide; where its projection does not certify, the row takes the
    short step ASCENT_STEP0 / sqrt(1 + n) instead, n the row's steps of
    the round handed to Dykstra so far, since Dykstra's capped
    projections need the shrinking step.  d = 16 takes only short steps.
    A round ends after `max_iters` steps or once an exactly projected step
    moves its row by at most STALL_TOL; the next round takes s from the
    best iterate's signs, except within SIGN_ZERO_TOL of zero.
    Iterates and steps are eigenvalue rows mu (see `_BlochPolytope`);
    each step's CCNR, the signs and the report are read off lambda = mu C.
    Each restart is a row of one loop on its own round schedule, ending
    when its signs repeat or after `max_outer` rounds.  The report gives,
    per restart, its best feasible CCNR, steps taken, rounds and steps
    handed to Dykstra; a restart with no feasible iterate reports its
    start and is flagged.
    """
    if local_dim not in (4, 8, 16):
        raise ValueError(
            "the Bloch basis is built from Pauli strings, so the local dimension "
            f"must be a power of two in {{4, 8, 16}}; got {local_dim}. Other "
            "dimensions would need a different operator basis, which this tool "
            "does not construct."
        )
    cfg = cfg or AscentConfig()
    poly = _BlochPolytope(local_dim)
    r_count = cfg.n_restarts
    k = poly.c.shape[0]
    lam = 0.1 * np.stack([np.random.default_rng([cfg.seed, r]).normal(size=k)
                          for r in range(r_count)])
    lam[:, 0] += poly.id_coeff

    mu, conv = poly.dykstra_rows(lam @ poly.c.T, DYKSTRA_CAP * _INITIAL_PULL_FACTOR, DYKSTRA_TOL)
    flagged = ~conv
    me = poly.min_eig_rows(mu)
    min_eig_seen = me.copy()
    best_mu, best_lam = mu, poly.lambda_rows(mu)
    start_ccnr = np.abs(best_lam).sum(axis=1)
    best_ccnr = np.where(me >= PPT_ITERATE_TOL, start_ccnr, -np.inf)
    signs = _refresh_signs(best_lam, np.ones_like(best_lam))
    g = (signs / np.linalg.norm(signs, axis=1, keepdims=True)) @ poly.c.T
    active = np.ones(r_count, bool)
    it = np.zeros(r_count, dtype=int)      # steps into the current round
    inexact = np.zeros(r_count, dtype=int)  # of them handed to Dykstra
    iters_used = np.zeros(r_count, dtype=int)
    rounds_used = np.zeros(r_count, dtype=int)
    dykstra_steps = np.zeros(r_count, dtype=int)

    while active.any():
        it += active
        step = ASCENT_STEP0 / np.sqrt(1 + inexact)
        mu_new, conv, handed = poly.project_step_rows(mu, g, step, active)
        flagged |= active & ~conv
        inexact += handed
        dykstra_steps += handed
        iters_used += active
        me = poly.min_eig_rows(mu_new)
        min_eig_seen = np.where(active, np.minimum(min_eig_seen, me), min_eig_seen)
        lam_new = poly.lambda_rows(mu_new)
        cc = np.abs(lam_new).sum(axis=1)
        better = active & (me >= PPT_ITERATE_TOL) & (cc > best_ccnr)
        best_ccnr = np.where(better, cc, best_ccnr)
        best_lam = np.where(better[:, None], lam_new, best_lam)
        best_mu = np.where(better[:, None], mu_new, best_mu)
        # a certified step that returns its iterate puts g in the normal
        # cone there, so every later step of the round, none longer, returns it
        stalled = ~handed & (np.abs(mu_new - mu).max(axis=1) <= STALL_TOL)
        mu = np.where(active[:, None], mu_new, mu)
        ends = active & (stalled | (it >= cfg.max_iters))
        if not ends.any():
            continue
        rounds_used += ends
        new_signs = _refresh_signs(best_lam, signs)
        repeat = np.all(new_signs == signs, axis=1)
        active &= ~(ends & (repeat | (rounds_used >= cfg.max_outer)))
        renew = ends & active
        it[renew] = inexact[renew] = 0
        signs = np.where(renew[:, None], new_signs, signs)
        g = (signs / np.linalg.norm(signs, axis=1, keepdims=True)) @ poly.c.T
        mu = np.where(renew[:, None], best_mu, mu)

    never = ~np.isfinite(best_ccnr)
    best_ccnr = np.where(never, start_ccnr, best_ccnr)
    flagged |= never
    return OptimizationReport.from_restarts(
        cfg, best_ccnr, iters_used, flagged, ~flagged, lambdas=best_lam,
        dykstra_steps=dykstra_steps.tolist(), rounds_used=rounds_used.tolist(),
        min_eig_seen=float(np.min(min_eig_seen)),
    )
