"""Strategies and witness evaluation for the communication task.

A strategy fixes what Alice and Bob send over the dimension-D channels
and how Charlie decodes.  Decoders are stored per copy in the product
form C_z = M_A (x) M_B (every decoder used here is of that form: the
entangled protocol measures G_z (x) G_z, the separable optimum is a
product of sign operators).  Multi-copy dense objects are assembled as
Kronecker products with Alice-side registers grouped before Bob-side
ones, matching the layout of densified Bloch-diagonal states.
"""

from __future__ import annotations

import math
# Not used here: the benchmark tracer patches protocol.ThreadPoolExecutor by name.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg, pauli, states
from .states import BlochDiagonalState

UNITARITY_ATOL = 1e-10
OBSERVABLE_EIG_SLACK = 1e-9

_BLOCK_TRIPLES = 256   # triples per dense contraction; bounds its memory


@dataclass(frozen=True)
class TaskSpec:
    """N parallel copies, channel dimension D, per-copy sign vector."""

    n_copies: int
    channel_dim: int
    signs: np.ndarray = field(repr=False)

    def __post_init__(self):
        s = np.asarray(self.signs, dtype=np.int64)
        object.__setattr__(self, "signs", s)
        if self.n_copies < 1:
            raise ValueError("n_copies must be >= 1")
        if not 1 <= self.channel_dim <= 16**self.n_copies:
            raise ValueError("channel_dim must lie in 1..16^N")
        if s.shape != (16,) or not np.all(np.isin(s, (-1, 1))):
            raise ValueError("signs must be 16 entries of +-1 (per copy)")

    def flat_signs(self) -> np.ndarray:
        """Sign of each flat z-vector, s_z = prod of per-copy signs."""
        return linalg.kron_power(self.signs, self.n_copies)

    def weights(self, samples: np.ndarray) -> np.ndarray:
        """Task weights prod_l s[z_l] f(x_l, z_l) f(y_l, z_l) of triples
        (count, 3, n_copies); the batched form of ``pauli.w_value``."""
        x, y, z = np.moveaxis(_sample_indices(samples, self.n_copies), 1, 0)
        f = pauli.F_TABLE
        return np.prod(self.signs[z] * f[x, z] * f[y, z], axis=1)

    def to_dict(self) -> dict:
        return {
            "n_copies": self.n_copies,
            "channel_dim": self.channel_dim,
            "signs": [int(v) for v in self.signs],
        }


@dataclass(frozen=True)
class WitnessResult:
    value: float
    method: str
    task: TaskSpec

    def to_dict(self) -> dict:
        return {"value": self.value, "method": self.method, "task": self.task.to_dict()}


@dataclass
class Strategy:
    """Alice/Bob encodings plus Charlie's per-copy product decoders.

    kind "prepared_states": states_a/states_b hold 16 density matrices
    of dimension D each (single copy).  kind "entangled_unitaries":
    shared_state holds the Bloch-diagonal resource of n_copies copies
    and encoders_a/b the 16 per-copy unitaries.  decoders_a/b hold the
    per-copy factors of C_z = decoders_a[z] (x) decoders_b[z]; any task
    sign is folded into the A-side factor.
    """

    kind: str
    n_copies: int
    channel_dim: int
    decoders_a: list[np.ndarray]
    decoders_b: list[np.ndarray]
    states_a: list[np.ndarray] | None = None
    states_b: list[np.ndarray] | None = None
    encoders_a: list[np.ndarray] | None = None
    encoders_b: list[np.ndarray] | None = None
    shared_state: BlochDiagonalState | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.kind not in ("prepared_states", "entangled_unitaries"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if len(self.decoders_a) != 16 or len(self.decoders_b) != 16:
            raise ValueError("expected 16 per-copy decoder factors per side")
        w = linalg.eigh(np.concatenate([self.decoders_a, self.decoders_b])).eigenvalues
        if w.max() > 1 + OBSERVABLE_EIG_SLACK or w.min() < -1 - OBSERVABLE_EIG_SLACK:
            raise ValueError("decoder factor eigenvalues leave [-1, 1]")
        if self.kind == "prepared_states":
            if self.n_copies != 1:
                raise ValueError("prepared-state strategies are single copy here")
            if self.states_a is None or self.states_b is None:
                raise ValueError("prepared_states strategy needs state tables")
            taus = np.concatenate([self.states_a, self.states_b])
            w = linalg.eigh(taus).eigenvalues
            traces = np.trace(taus, axis1=-2, axis2=-1).real
            if w.min() < states.PSD_EIG_TOL or np.max(np.abs(traces - 1)) > 1e-10:
                raise ValueError("prepared state is not a density matrix")
        else:
            if self.shared_state is None or self.encoders_a is None or self.encoders_b is None:
                raise ValueError("entangled strategy needs shared state and encoders")
            if self.shared_state.n_copies != self.n_copies:
                raise ValueError(
                    f"shared state has {self.shared_state.n_copies} copies, "
                    f"strategy has {self.n_copies}"
                )
            u = np.concatenate([self.encoders_a, self.encoders_b])
            gram = linalg.dagger(u) @ u
            if np.max(np.abs(gram - np.eye(u.shape[-1]))) > UNITARITY_ATOL:
                raise ValueError("encoder is not unitary within tolerance")

    def dense_decoder(self, zs: tuple[int, ...]) -> np.ndarray:
        da = linalg.kron_all([self.decoders_a[z - 1] for z in zs])
        db = linalg.kron_all([self.decoders_b[z - 1] for z in zs])
        return linalg.kron(da, db)


def default_signs() -> np.ndarray:
    """Sign pattern matched to the bound entangled target state."""
    return states.rho_be().sign_pattern()


def matched_task(state: BlochDiagonalState, channel_dim: int | None = None) -> TaskSpec:
    """Task whose signs follow the state's first-copy coefficient signs."""
    signs = states.first_copy_marginal(state).sign_pattern()
    d = channel_dim if channel_dim is not None else 4**state.n_copies
    return TaskSpec(n_copies=state.n_copies, channel_dim=d, signs=signs)


def be_strategy(state: BlochDiagonalState) -> Strategy:
    """The entangled protocol: Pauli encoders, G_z (x) G_z decoders."""
    scaled = 2.0 * pauli.pauli_basis(2)   # 4 G_z (x) G_z = (2 G_z) (x) (2 G_z)
    return Strategy(
        kind="entangled_unitaries",
        n_copies=state.n_copies,
        channel_dim=4,
        decoders_a=scaled,
        decoders_b=scaled.copy(),
        encoders_a=scaled.copy(),
        encoders_b=scaled.copy(),
        shared_state=state,
    )


def _sample_indices(samples, n_copies: int) -> np.ndarray:
    """0-based indices of triples (count >= 1, 3, n_copies), entries in 1..16."""
    idx = np.asarray(samples)
    if idx.ndim != 3 or idx.shape[1:] != (3, n_copies) or not len(idx):
        raise ValueError(f"samples must have shape (count >= 1, 3, {n_copies}), got {idx.shape}")
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"sample indices must be integers, got {idx.dtype}")
    bad = idx[(idx < 1) | (idx > 16)]
    if bad.size:
        raise ValueError(f"index {bad[0]} out of range [16]")
    return idx - 1


def expectation(strategy: Strategy, xs, ys, zs) -> float:
    """Correlator E_xyz = tr[state . C] in [-1, 1] for one triple, by the
    literal Kronecker route: the reference for ``expectations_dense``."""
    triple = [np.atleast_1d(xs), np.atleast_1d(ys), np.atleast_1d(zs)]
    xs, ys, zs = _sample_indices([triple], strategy.n_copies)[0]
    c = strategy.dense_decoder(zs + 1)
    if strategy.kind == "prepared_states":
        tau = linalg.kron(strategy.states_a[xs[0]], strategy.states_b[ys[0]])
        val = float(np.sum(tau * c.T).real)
    else:
        u = linalg.kron_all([strategy.encoders_a[x] for x in xs])
        v = linalg.kron_all([strategy.encoders_b[y] for y in ys])
        uv = linalg.kron(u, v)
        rotated = uv @ states.densify(strategy.shared_state) @ uv.conj().T
        val = float(np.sum(rotated * c.T).real)
    if abs(val) > 1 + 1e-9:
        raise AssertionError(f"correlator {val} outside [-1, 1]")
    return val


def sample_triples(n_copies: int, count: int, seed: int) -> np.ndarray:
    """Seeded uniform triples, shape (count, 3, n_copies), entries 1..16."""
    rng = np.random.default_rng(seed)
    return rng.integers(1, 17, size=(count, 3, n_copies))


def witness_brute_force(strategy: Strategy, task: TaskSpec,
                        samples: np.ndarray | None = None) -> WitnessResult:
    """Witness by explicit dense summation.

    One copy: the full 16^3-triple sum over the one-copy correlator
    table (no sampling accepted).  Two copies: a caller-supplied sample
    of triples, the mean of task weights times the dense correlators of
    ``expectations_dense``.  Three or more copies are rejected;
    densification is off the table there.
    """
    if task.n_copies != strategy.n_copies:
        raise ValueError("task and strategy copy counts differ")
    if task.n_copies == 1:
        if samples is not None:
            raise ValueError("one-copy witness is a full sum; drop samples")
        f = pauli.F_TABLE
        weights = task.signs * f[:, None, :] * f[None, :, :]
        value = float(np.sum(weights * _expectation_table(strategy))) / 16**3
        return WitnessResult(value, "brute_force", task)
    if task.n_copies == 2:
        if samples is None:
            raise ValueError("two-copy brute force needs a sampling plan")
        ev = expectations_dense(strategy, samples)
        return WitnessResult(float(np.mean(task.weights(samples) * ev)), "brute_force", task)
    raise ValueError("brute force is limited to one or two copies")


def _expectation_table(strategy: Strategy) -> np.ndarray:
    """One-copy correlators E[x-1, y-1, z-1] = tr[state_xy (M_a_z (x) M_b_z)].

    Each factor is contracted on its own register legs of the state, so
    no Kronecker product and no per-triple dense state is formed.  The
    entangled state is reshaped to legs (a, b, c, d): row (a, b), column
    (c, d), Alice's register first.
    """
    ma, mb = np.asarray(strategy.decoders_a), np.asarray(strategy.decoders_b)
    if strategy.kind == "prepared_states":
        table = np.einsum("xac,ybd,zca,zdb->xyz", strategy.states_a,
                          strategy.states_b, ma, mb, optimize=True)
    else:
        u, v = np.asarray(strategy.encoders_a), np.asarray(strategy.encoders_b)
        d = u.shape[-1]
        rho = states.densify(strategy.shared_state).reshape(d, d, d, d)
        table = np.einsum("abcd,xea,xfc,zfe,ygb,yhd,zhg->xyz", rho, u, u.conj(),
                          ma, v, v.conj(), mb, optimize=True)
    return table.real


def _heisenberg_factors(enc: np.ndarray, dec: np.ndarray, inputs: np.ndarray,
                        zs: np.ndarray) -> np.ndarray:
    """enc_x^dagger dec_z enc_x per copy for index rows (t, N), joined
    across copies by a per-row Kronecker product: shape (t, D^N, D^N)."""
    e = enc[inputs]
    h = linalg.dagger(e) @ dec[zs] @ e
    out = h[:, 0]
    for copy in range(1, h.shape[1]):
        t, m, n = len(out), out.shape[-1], h.shape[-1]
        out = np.einsum("tac,tbd->tabcd", out, h[:, copy]).reshape(t, m * n, m * n)
    return out


def expectations_dense(
    strategy: Strategy, samples: np.ndarray, workers: int = 1
) -> np.ndarray:
    """Dense correlators for triples (count, 3, n_copies), batched.

    Entangled: tr[rho (A (x) B)], A the per-copy U_x^dagger M_a,z U_x
    joined across copies (B likewise), contracted with the dense state
    on its register legs.  Prepared (one copy): tr(tau_x M_a,z)
    tr(tau_y M_b,z).  No Pauli algebra or one-copy table enters, so this
    checks the factored route independently; ``expectation`` is the
    literal per-triple reference.  ``workers`` is accepted and ignored.
    """
    x, y, z = np.moveaxis(_sample_indices(samples, strategy.n_copies), 1, 0)
    ma, mb = np.asarray(strategy.decoders_a), np.asarray(strategy.decoders_b)
    if strategy.kind == "prepared_states":
        ta, tb = np.asarray(strategy.states_a), np.asarray(strategy.states_b)
    else:
        u, v = np.asarray(strategy.encoders_a), np.asarray(strategy.encoders_b)
        d = u.shape[-1] ** strategy.n_copies
        rho = states.densify(strategy.shared_state).reshape(d, d, d, d)
    out = np.empty(len(x))
    for i in range(0, len(x), _BLOCK_TRIPLES):
        b = slice(i, i + _BLOCK_TRIPLES)
        if strategy.kind == "prepared_states":
            xb, yb, zb = x[b, 0], y[b, 0], z[b, 0]
            out[b] = np.einsum("tac,tca,tbd,tdb->t", ta[xb], ma[zb], tb[yb], mb[zb],
                               optimize=True).real
        else:
            ha = _heisenberg_factors(u, ma, x[b], z[b])
            hb = _heisenberg_factors(v, mb, y[b], z[b])
            out[b] = np.einsum("abcd,tca,tdb->t", rho, ha, hb, optimize=True).real
    return out


def witness_closed_form(state: BlochDiagonalState, task: TaskSpec) -> WitnessResult:
    """Closed-form witness (sum_k s_k lambda_k) / 4^n over the state's n copies.

    Valid only when the task signs match the coefficient signs at every
    nonzero coefficient; a mismatch anywhere in the flat vector is
    rejected with the first offending index.  A single-copy state with
    a multi-copy task is treated as the task-wide tensor power.
    """
    n = state.n_copies
    if n not in (1, task.n_copies):
        raise ValueError("multi-copy state must match the task copy count")
    fsigns = linalg.kron_power(task.signs.astype(np.int8), n)   # 16^n entries
    mism = np.nonzero(state.lambdas * fsigns < 0)[0]
    if mism.size:
        raise ValueError(
            f"task sign disagrees with coefficient at flat index {mism[0] + 1}"
        )
    total = float(np.dot(fsigns, state.lambdas))
    return WitnessResult((total / 4.0**n) ** (task.n_copies // n), "closed_form", task)


def single_copy_expectation_table(state: BlochDiagonalState) -> np.ndarray:
    """Table E1[x-1, y-1, z-1] = 4 lambda_z f(x, z) f(y, z) of the
    entangled protocol on a one-copy state: U_x = 2 G_x commutes with
    G_z up to the sign f(x, z), and tr[rho (2 G_z) (x) (2 G_z)] =
    4 lambda_z.  ``_expectation_table(be_strategy(state))`` is the dense
    route to the same table."""
    if state.n_copies != 1:
        raise ValueError("expectation table is built from a single-copy state")
    f = pauli.F_TABLE
    return 4.0 * state.lambdas * (f[:, None, :] * f[None, :, :])


def witness_factored(
    state: BlochDiagonalState, task: TaskSpec, samples: np.ndarray
) -> np.ndarray:
    """Per-triple correlators as products of per-copy correlators.

    Charlie measures each copy's share separately and multiplies the
    outcomes; for the product decoders used here this equals the joint
    dense measurement, which is what the dense oracle checks at N = 2.
    The state is the per-copy resource (single copy), reused on all
    task.n_copies copies.
    """
    table = single_copy_expectation_table(state)
    x, y, z = np.moveaxis(_sample_indices(samples, task.n_copies), 1, 0)
    return np.prod(table[x, y, z], axis=1)


def sep_upper_bound(channel_dim: int, n_copies: int) -> Fraction:
    """Separable-strategy witness bound D / 16^N, exact."""
    if channel_dim < 1 or n_copies < 1:
        raise ValueError("channel_dim and n_copies must be >= 1")
    return Fraction(channel_dim, 16**n_copies)


def classical_optimal_strategy_d4() -> Strategy:
    """Computational-basis encoding saturating the D=4 bound.

    Per qubit the four inputs map pairwise onto |0><0|, |0><0|, |1><1|,
    |1><1|; the two-qubit message state is the product of its digit
    factors, and the decoders are the matched sign-projector optimum.
    """
    from .optimize import optimal_measurement

    q0 = np.array([[1, 0], [0, 0]], dtype=complex)
    q1 = np.array([[0, 0], [0, 1]], dtype=complex)
    per_digit = [q0, q0, q1, q1]
    taus = [
        linalg.kron(per_digit[a - 1], per_digit[b - 1])
        for a in range(1, 5)
        for b in range(1, 5)
    ]
    dec_a, dec_b = optimal_measurement(taus, taus, default_signs())
    return Strategy(
        kind="prepared_states",
        n_copies=1,
        channel_dim=4,
        decoders_a=dec_a,
        decoders_b=dec_b,
        states_a=taus,
        states_b=[t.copy() for t in taus],
    )


def critical_visibility(n_copies: int) -> Fraction:
    """Exact visibility threshold (4^N - 1) / (6^N - 1)."""
    if n_copies < 1:
        raise ValueError("n_copies must be >= 1")
    return Fraction(4**n_copies - 1, 6**n_copies - 1)


def critical_visibility_numeric(n_copies: int) -> float:
    """Visibility threshold solved from witness evaluations.

    The witness is affine in the visibility, so the threshold follows
    from the two endpoint values and the separable bound at D = 4^N; the
    endpoint witnesses come from closed-form evaluation of the states,
    not from the threshold formula.
    """
    rho = states.rho_be()
    task = TaskSpec(
        n_copies=n_copies, channel_dim=4**n_copies, signs=rho.sign_pattern()
    )
    w_be = witness_closed_form(rho, task).value
    w_mixed = witness_closed_form(states.mix_with_white_noise(rho, 0.0), task).value
    bound = float(sep_upper_bound(4**n_copies, n_copies))
    if w_be <= bound:
        return 1.0
    return (bound - w_mixed) / (w_be - w_mixed)


def overhead_dimension(n_copies: int) -> int:
    """Smallest channel dimension whose separable bound reaches the
    entangled witness value; exact integer arithmetic."""
    lams = states.rho_be_lambdas_exact()
    per_copy = sum(abs(v) for v in lams) / 4     # matched signs
    w_exact = per_copy**n_copies
    return math.ceil(w_exact * Fraction(16) ** n_copies)
