"""Bloch-diagonal states and entanglement diagnostics.

A Bloch-diagonal state on (4^N) x (4^N) is stored as its coefficient
vector lambda over the product basis {G_k (x) G_k}: rho = sum_k
lambda_k G_k (x) G_k, with k running over flat base-16 multi-indices
(first copy = most significant digit).  Every PSD and PPT question is
answered by the Bell-basis eigenvalue map `pauli.bell_spectrum`, exact
for any copy count.  Densification is on demand, capped at two copies
(256 x 256), and serves the dense oracles the tests check that map with.
It builds only the nonzeros: each X-mask's Pauli strings are summed
into their shared positions (4,096 of the 65,536 at two copies), then
scattered once, and the result is checked exactly Hermitian.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg, pauli

# Eigenvalues above this (negative) floor count as zero for PSD/PPT
# purposes; the target states are rank deficient, so exact zeros show up
# as roundoff of either sign.
PSD_EIG_TOL = -1e-10

CONVENTION_TAG = "k=4i+j+1"

# 1-based flat indices whose coefficient is negative in the bound
# entangled target state.
NEGATIVE_INDICES = (7, 9, 11, 12, 16)

_DENSIFY_MAX_COPIES = 2
_TENSOR_COEFF_CAP = 16**6


class ConventionError(RuntimeError):
    """Constructed state contradicts the documented index convention."""


@dataclass(frozen=True)
class BlochDiagonalState:
    n_copies: int
    lambdas: np.ndarray = field(repr=False)

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if self.n_copies < 1:
            raise ValueError("n_copies must be >= 1")
        # bit lengths first: 16**n_copies is costly for a huge copy count
        if (lam.ndim != 1 or lam.size.bit_length() != 4 * self.n_copies + 1
                or lam.size != 16**self.n_copies):
            raise ValueError(
                f"lambda vector has length {lam.shape}, expected 16^{self.n_copies}"
            )
        if not np.all(np.isfinite(lam)):
            raise ValueError("lambda vector has non-finite entries")
        ident = lam[0]
        want = 1.0 / 4**self.n_copies
        if abs(ident - want) > 1e-12:
            raise ValueError(
                f"all-identity coefficient {float(ident)!r} must be 1/4^{self.n_copies}"
            )

    @property
    def local_dim(self) -> int:
        return 4**self.n_copies

    def ccnr_fast(self) -> float:
        return float(np.sum(np.abs(self.lambdas)))

    def sign_pattern(self) -> np.ndarray:
        """Signs of the coefficients, zeros counted as +1."""
        return np.where(self.lambdas < 0, -1, 1).astype(np.int64)


@dataclass(frozen=True)
class EntanglementReport:
    min_eig_state: float
    min_eig_pt: float
    is_ppt: bool
    ccnr: float
    spectrum_state: np.ndarray
    spectrum_pt: np.ndarray

    @classmethod
    def from_spectra(cls, spec, spec_pt, ccnr_val: float) -> "EntanglementReport":
        """Report from descending spectra of the state and its partial transpose."""
        min_pt = float(spec_pt[-1])
        return cls(float(spec[-1]), min_pt, bool(min_pt >= PSD_EIG_TOL), ccnr_val, spec, spec_pt)

    def to_dict(self) -> dict:
        return {
            "min_eig_state": self.min_eig_state,
            "min_eig_pt": self.min_eig_pt,
            "is_ppt": self.is_ppt,
            "ccnr": self.ccnr,
            "spectrum_state": list(map(float, self.spectrum_state)),
            "spectrum_pt": list(map(float, self.spectrum_pt)),
        }


def rho_be_lambdas_exact(swap_digits: bool = False) -> list[Fraction]:
    """Exact coefficient table of the bound entangled target state.

    lambda_1 = 1/4, |lambda_k| = 1/12 otherwise, negative exactly on
    NEGATIVE_INDICES.  ``swap_digits=True`` builds the variant with the
    digit pair (i, j) transposed in the flat index, for testing the
    alternative ordering.
    """
    lams = [Fraction(1, 12)] * 16
    lams[0] = Fraction(1, 4)
    for k in NEGATIVE_INDICES:
        lams[k - 1] = -Fraction(1, 12)
    if swap_digits:
        swapped = list(lams)
        for i in range(4):
            for j in range(4):
                swapped[4 * j + i] = lams[4 * i + j]
        lams = swapped
    return lams


def rho_be(swap_digits: bool = False) -> BlochDiagonalState:
    """Single-copy bound entangled state (PPT, CCNR 3/2)."""
    lam = np.array([float(v) for v in rho_be_lambdas_exact(swap_digits)])
    return BlochDiagonalState(n_copies=1, lambdas=lam)


def tensor_power(state: BlochDiagonalState, n: int) -> BlochDiagonalState:
    """N-fold tensor power; coefficients are products across copies."""
    if state.n_copies != 1:
        raise ValueError("tensor_power expects a single-copy state")
    if n < 1:
        raise ValueError("n must be >= 1")
    if 16**n > _TENSOR_COEFF_CAP:
        raise ValueError(f"16^{n} coefficients exceed cap {_TENSOR_COEFF_CAP}")
    return BlochDiagonalState(n_copies=n, lambdas=linalg.kron_power(state.lambdas, n))


def first_copy_marginal(state: BlochDiagonalState) -> BlochDiagonalState:
    """Reduced state of the first copy; for a tensor power, its factor.

    Tracing out copies 2..N keeps the coefficients whose later digits
    are all identity, each scaled by tr(G_0) tr(G_0) = 4 per copy.  The
    identity coefficient is set to exactly 1/4 rather than rescaled, so
    the constructor's normalisation slack is not multiplied by 4^(N-1).
    """
    lam = state.lambdas[:: 16 ** (state.n_copies - 1)] * 4 ** (state.n_copies - 1)
    lam[0] = 0.25
    return BlochDiagonalState(n_copies=1, lambdas=lam)


def mix_with_white_noise(state: BlochDiagonalState, v: float) -> BlochDiagonalState:
    """v * rho + (1 - v) * I / 16^N, affine in v by construction."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility {v} outside [0, 1]")
    noise = np.zeros_like(state.lambdas)
    noise[0] = 1.0 / 4**state.n_copies
    return BlochDiagonalState(
        n_copies=state.n_copies, lambdas=v * state.lambdas + (1.0 - v) * noise
    )


def bloch_densify(lambdas: np.ndarray) -> np.ndarray:
    """sum_k lambda_k G_k (x) G_k over the n-qubit Pauli strings, for
    coefficients of length 4^n, built from its d^3 nonzeros, d = 2^n.

    G_k (x) G_k is nonzero only at row (a, b), column (a ^ x, b ^ x), x
    the X-mask of k (`pauli.pauli_monomials`).  For every X-mask the
    terms (G_k[a, a ^ x] G_k[b, b ^ x]) lambda_k of its 2^n strings are
    added into zeros in k order, then one assignment scatters them: the
    term-by-term Kronecker sum bit for bit, signed zeros too.  For finite
    lambdas that sum is exactly Hermitian; anything else is a ValueError.
    """
    lam = np.asarray(lambdas, dtype=float)
    n = (lam.size.bit_length() - 1) // 2
    if lam.shape != (4**n,):
        raise ValueError(f"coefficient vector of shape {lam.shape} is not of length 4^n")
    by_mask, values = pauli.pauli_monomials(n)
    d = 2**n
    acc = np.zeros((d, d, d), dtype=complex)     # acc[x, a, b]
    for ks in by_mask.T:                         # the j-th string of every X-mask
        acc += (values[ks, :, None] * values[ks, None, :]) * lam[ks, None, None]
    x, a, b = np.ogrid[:d, :d, :d]
    # the mirror of entry (a, b), (a ^ x, b ^ x) has the same X-mask
    if not np.array_equal(acc, acc[x, a ^ x, b ^ x].conj()):
        raise ValueError("densified state is not exactly Hermitian")
    out = np.zeros((d, d, d, d), dtype=complex)
    out[a, b, a ^ x, b ^ x] = acc
    return out.reshape(d * d, d * d)


def densify(state: BlochDiagonalState) -> np.ndarray:
    """Dense matrix of the state, exactly Hermitian; capped at two copies."""
    if state.n_copies > _DENSIFY_MAX_COPIES:
        raise ValueError(f"densify supports at most {_DENSIFY_MAX_COPIES} copies")
    want = 1.0 / 4**state.n_copies
    if abs(state.lambdas[0] - want) > 1e-12:
        raise ValueError("state normalisation violated")
    return bloch_densify(state.lambdas)


def realignment_computational(op: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Computational-basis realignment; same singular values as any
    orthonormal-basis variant."""
    op = np.asarray(op)
    if op.shape != (dim_a * dim_b, dim_a * dim_b):
        raise ValueError("operator shape does not match dims")
    return (
        op.reshape(dim_a, dim_b, dim_a, dim_b)
        .transpose(0, 2, 1, 3)
        .reshape(dim_a * dim_a, dim_b * dim_b)
    )


def ccnr(op: np.ndarray) -> float:
    """Trace norm of the realignment matrix of a dense operator on a
    square bipartition, by the computational-basis realignment and an
    SVD; a Bloch-diagonal state's exact value is its ``ccnr_fast``."""
    op = np.asarray(op)
    d = round(np.sqrt(op.shape[0]))
    if d * d != op.shape[0]:
        raise ValueError("cannot infer a square bipartition")
    return linalg.trace_norm(realignment_computational(op, d, d))


def ppt_report(op: np.ndarray, dim_a: int, dim_b: int) -> EntanglementReport:
    """Spectral + realignment diagnostics for a dense bipartite state, by
    eigvalsh and SVD: the independent oracle for `ppt_check`."""
    op = linalg.require_hermitian(op)
    return EntanglementReport.from_spectra(
        linalg.eigvalsh(op),
        linalg.eigvalsh(linalg.partial_transpose(op, dim_a, dim_b)),
        linalg.trace_norm(realignment_computational(op, dim_a, dim_b)),
    )


def ppt_check(state: BlochDiagonalState) -> EntanglementReport:
    """EntanglementReport for a Bloch-diagonal state of any copy count.

    The spectra of the state and of its partial transpose are the joint
    16^N Bell-basis eigenvalues from `pauli.bell_spectrum`, sorted
    descending; nothing is densified or diagonalised.  The CCNR is the
    exact fast-path value sum |lambda|.
    """
    return EntanglementReport.from_spectra(
        np.sort(pauli.bell_spectrum(state.lambdas))[::-1],
        np.sort(pauli.bell_spectrum(state.lambdas, partial_transpose=True))[::-1],
        state.ccnr_fast(),
    )


def check_be_convention(state: BlochDiagonalState) -> None:
    """Assert the constructed target state matches the documented table.

    Raises ConventionError when either the published spectrum pattern
    {1/6 x6, 0 x10} (state and partial transpose) fails, or the
    coefficient table disagrees with the normative flat-index layout.
    The caller sees which check failed rather than a silent permutation.
    The table is a one-copy table, so a multi-copy state fails it.
    """
    if state.n_copies != 1:
        raise ConventionError(
            f"the {CONVENTION_TAG} table covers one copy, got {state.n_copies} copies"
        )
    want = np.array([float(v) for v in rho_be_lambdas_exact()])
    if not np.allclose(state.lambdas, want, atol=1e-12):
        raise ConventionError(
            "coefficient table does not match the normative "
            f"{CONVENTION_TAG} layout (negative entries at {NEGATIVE_INDICES})"
        )
    rep = ppt_check(state)
    target = np.array([1.0 / 6] * 6 + [0.0] * 10)
    if not (
        np.allclose(rep.spectrum_state, target, atol=1e-10)
        and np.allclose(rep.spectrum_pt, target, atol=1e-10)
        and rep.is_ppt
    ):
        raise ConventionError("constructed state misses the published spectrum")


def state_to_dict(state: BlochDiagonalState) -> dict:
    return {
        "n_copies": state.n_copies,
        "lambdas": [float(v) for v in state.lambdas],
        "convention": CONVENTION_TAG,
    }


def state_from_dict(data) -> BlochDiagonalState:
    """The state of a `state_to_dict` object.  Any other top level, a copy
    count that is not a JSON integer and lambdas that are not a list of
    numbers (a string or a boolean is not a number) are refused with a
    ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"a state file must hold a JSON object, got {type(data).__name__}")
    tag = data.get("convention")
    if tag != CONVENTION_TAG:
        raise ConventionError(
            f"state file declares convention {tag!r}, expected {CONVENTION_TAG!r}"
        )
    n_copies, lambdas = data["n_copies"], data["lambdas"]
    if type(n_copies) is not int:
        raise ValueError(f"n_copies must be an integer, got {n_copies!r}")
    if not isinstance(lambdas, list):
        raise ValueError(f"lambdas must be a list of numbers, got {type(lambdas).__name__}")
    others = set(map(type, lambdas)) - {int, float}  # a JSON true or false is a bool
    if others:
        names = ", ".join(sorted(t.__name__ for t in others))
        raise ValueError(f"lambdas must be a list of numbers, got entries of type {names}")
    try:
        lambdas = np.array(lambdas, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"lambdas must be a list of numbers: {exc}") from exc
    return BlochDiagonalState(n_copies=n_copies, lambdas=lambdas)


def load_state(path: str) -> BlochDiagonalState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))
