"""Task combinatorics and the sub-normalised Pauli product basis.

Index conventions (normative for everything serialized by this package):

* per-copy inputs are flat indices in 1..16, decomposed into a pair
  (a, b) in [4]^2 via  flat = 4*(a - 1) + b;
* the dim-4 operator basis is G_k = sigma_i (x) sigma_j with the same
  flat rule k = 4*i + j + 1 over digits i, j in 0..3;
* the single-qubit order is (I, X, Y, Z)/sqrt(2).

All coefficient tables below are integer valued and exact.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .linalg import KRON_ENTRY_CAP, kron_power

# Hadamard-type sign matrix driving the task functions.  Row a, column b
# is +1 exactly when the a-th and b-th single-qubit Paulis commute.
T_MATRIX = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ],
    dtype=np.int64,
)

# f table over 0-based flat indices: F_TABLE[x, z] = T[x1,z1] * T[x2,z2].
F_TABLE = np.kron(T_MATRIX, T_MATRIX)

_SQ2 = np.sqrt(2.0)
_SIGMA = (
    np.eye(2, dtype=complex) / _SQ2,
    np.array([[0, 1], [1, 0]], dtype=complex) / _SQ2,
    np.array([[0, -1j], [1j, 0]], dtype=complex) / _SQ2,
    np.array([[1, 0], [0, -1]], dtype=complex) / _SQ2,
)

# Each single-qubit Pauli has one nonzero per row, sigma[a, a ^ flip]:
# X and Y flip the bit, I and Z keep it.
_SIGMA_FLIPS = np.array([0, 1, 1, 0], dtype=np.int64)
_SIGMA_ROW_VALUES = np.array([[s[0, f], s[1, 1 - f]] for s, f in zip(_SIGMA, _SIGMA_FLIPS)])

# Transpose signs of the sub-normalised Paulis: Y is antisymmetric.
SIGMA_TRANSPOSE_SIGNS = np.array([1, 1, -1, 1], dtype=np.int64)

# Eigenvalues of sigma_a (x) sigma_a (unnormalised Paulis) on the Bell
# states: row m is (Phi+, Phi-, Psi+, Psi-), column a is (I, X, Y, Z).
# The operators G_k (x) G_k pairwise commute and share this eigenbasis
# on every qubit pair.
BELL_SIGNS = np.array(
    [
        [1, 1, -1, 1],
        [1, -1, 1, 1],
        [1, 1, 1, -1],
        [1, -1, -1, -1],
    ],
    dtype=np.int64,
)


def f_coeff(x: int, z: int) -> int:
    """f_{xz} = T_{x1,z1} * T_{x2,z2} for 1-based flat indices."""
    if not (1 <= x <= 16 and 1 <= z <= 16):
        raise ValueError(f"indices ({x}, {z}) out of range [16]")
    return int(F_TABLE[x - 1, z - 1])


def w_value(
    xs: Sequence[int], ys: Sequence[int], zs: Sequence[int], signs: Sequence[int]
) -> int:
    """Task weight s_z * prod_l f(x_l, z_l) * f(y_l, z_l).

    ``xs``, ``ys``, ``zs`` are per-copy flat indices of equal length N;
    ``signs`` is the per-copy sign vector of length 16, applied as
    s_z = prod_l signs[z_l].
    """
    if not (len(xs) == len(ys) == len(zs)):
        raise ValueError("index vectors must have equal length")
    if len(signs) != 16:
        raise ValueError("signs must have length 16 (per-copy)")
    out = 1
    for x, y, z in zip(xs, ys, zs):
        s = int(signs[z - 1])
        if s not in (1, -1):
            raise ValueError(f"sign entry {s} not in {{+1, -1}}")
        out *= s * f_coeff(x, z) * f_coeff(y, z)
    return out


def m_matrix(n_copies: int) -> np.ndarray:
    """Gram matrix M[x, x'] = sum_z prod_l f(x_l, z_l) f(x'_l, z_l).

    Materialised only for N in {1, 2}; the identity M = 16^N * I is what
    downstream bounds rest on.  Integer arithmetic throughout.
    """
    if n_copies not in (1, 2):
        raise ValueError("m_matrix is materialised only for 1 or 2 copies")
    f = kron_power(F_TABLE, n_copies)
    return f @ f.T


def _check_qubit_count(n_qubits: int) -> None:
    if n_qubits < 1 or 16**n_qubits > KRON_ENTRY_CAP:
        raise ValueError(
            f"n_qubits must be >= 1 with 16^n_qubits <= {KRON_ENTRY_CAP}, got {n_qubits}"
        )


def pauli_basis(n_qubits: int) -> np.ndarray:
    """Orthonormal Hermitian basis of n-qubit Pauli strings, as one
    (4^n, 2^n, 2^n) array.

    Element k is the product of sub-normalised single-qubit Paulis whose
    base-4 digit string (most significant digit first) spells k; element
    0 is I / 2^(n/2).  trace(G_k G_l) = delta_kl and 2^(n/2) * G_k is
    unitary for every k.  The stack has 16^n entries, capped like a
    `kron` result at KRON_ENTRY_CAP, so n is at most 5.
    """
    _check_qubit_count(n_qubits)
    return kron_power(np.stack(_SIGMA), n_qubits)


@functools.cache
def pauli_monomials(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-qubit Pauli strings as monomial matrices: (by_mask, values),
    read only and built once per n.

    G_k has one nonzero per row, G_k[a, a ^ x] = values[k, a], where the
    X-mask x of k has a bit set on each qubit whose digit is X or Y
    (first qubit most significant, as in a and k).  by_mask[x] lists the
    2^n strings with X-mask x in ascending k.  The values are the
    products `pauli_basis` forms, in the same order, so they equal its
    nonzero entries bit for bit.
    """
    _check_qubit_count(n_qubits)
    masks = _SIGMA_FLIPS
    for _ in range(n_qubits - 1):
        masks = (2 * masks[:, None] + _SIGMA_FLIPS).ravel()
    by_mask = np.argsort(masks, kind="stable").reshape(2**n_qubits, -1)
    values = kron_power(_SIGMA_ROW_VALUES, n_qubits)
    by_mask.flags.writeable = values.flags.writeable = False
    return by_mask, values


def pauli_transpose_signs(n_qubits: int) -> np.ndarray:
    """Signs t_k with G_k^T = t_k G_k for the n-qubit basis."""
    return kron_power(SIGMA_TRANSPOSE_SIGNS, n_qubits)


def joint_eigenvalue_matrix(local_dim: int) -> np.ndarray:
    """Orthogonal matrix C with (C lam)_m = m-th eigenvalue of
    sum_k lam_k G_k (x) G_k on local dimension d = 2^n, rows indexed by
    products of Bell labels: the n-th Kronecker power of BELL_SIGNS / 2."""
    n = local_dim.bit_length() - 1
    if 2**n != local_dim:
        raise ValueError("local dimension must be a power of two")
    return kron_power(BELL_SIGNS / 2, n)


def bell_spectrum(lam: np.ndarray, partial_transpose: bool = False) -> np.ndarray:
    """Eigenvalues C lam of sum_k lam_k G_k (x) G_k (C as in
    joint_eigenvalue_matrix, not built): BELL_SIGNS along each base-4
    digit axis of lam (length 4^n), then an exact 2^-n.  The partial
    transpose's spectrum is the same map of pauli_transpose_signs(n) * lam.
    Fraction entries (object dtype) give exact eigenvalues.
    """
    lam = np.asarray(lam)
    n = (lam.size.bit_length() - 1) // 2
    if lam.shape != (4**n,):
        raise ValueError(f"coefficient vector of shape {lam.shape} is not of length 4^n")
    if partial_transpose:
        lam = pauli_transpose_signs(n) * lam
    out = lam.reshape((4,) * n)
    for axis in range(n):
        out = np.moveaxis(np.tensordot(BELL_SIGNS, out, axes=(1, axis)), 0, axis)
    return out.reshape(-1) / 2**n
