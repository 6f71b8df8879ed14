"""Dense complex linear algebra helpers.

Everything in this package runs through the functions below so that
Hermiticity checking and eigenvalue ordering are done in exactly one
place.  The matrix functions accept a single matrix or a stack of
matrices along leading axes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Absolute entrywise tolerance for accepting a matrix as Hermitian.
# Kronecker chains of exactly Hermitian factors accumulate roundoff of
# this order; anything larger is treated as a caller bug.
HERMITICITY_ATOL = 1e-12

# Largest number of entries a kron() result may have.
KRON_ENTRY_CAP = 1 << 20


class Spectrum(NamedTuple):
    eigenvalues: np.ndarray   # real, sorted descending along the last axis
    eigenvectors: np.ndarray  # columns, matching order


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conj(a).swapaxes(-1, -2)


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Return the symmetrised matrix (A + A^dagger)/2, or stack of them.

    Rejects non-square input and input whose Hermiticity defect exceeds
    HERMITICITY_ATOL or is NaN, as it is for any NaN or infinite entry;
    the defect is included in the error message.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    a_dag = dagger(a)
    defect = float(np.abs(a - a_dag).max()) if a.size else 0.0
    if not defect <= HERMITICITY_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: max|A - A^dagger| = {defect:.3e} > {HERMITICITY_ATOL:.1e}"
        )
    return 0.5 * (a + a_dag)


def eigh(a: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix or a stack (..., n, n).

    Eigenvalues come out sorted descending along the last axis; the sort
    is stable, so tied eigenvalues keep LAPACK's order, and without ties
    it is a reversal, returned as views.  Eigenvector phases are LAPACK's:
    use this only where the result does not depend on them (spectra,
    projectors, matrix functions).
    """
    h = require_hermitian(a)
    w, v = np.linalg.eigh(h)
    if (w[..., 1:] > w[..., :-1]).all():
        return Spectrum(eigenvalues=w[..., ::-1], eigenvectors=v[..., ::-1])
    order = np.argsort(-w, axis=-1, kind="stable")
    return Spectrum(
        eigenvalues=np.take_along_axis(w, order, axis=-1),
        eigenvectors=np.take_along_axis(v, order[..., None, :], axis=-1),
    )


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """The descending eigenvalues of `eigh`, with its check, and no vectors."""
    return np.linalg.eigvalsh(require_hermitian(a))[..., ::-1]


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values, sorted descending."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.svd(m, compute_uv=False)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values.

    The bound ||A||_1 <= sqrt(min(rows, cols)) * ||A||_F is asserted on
    every call; it can only fail through an SVD bug.
    """
    sv = singular_values(m)
    tn = float(np.sum(sv))
    fro = float(np.sqrt(np.sum(sv**2)))
    dim = min(np.asarray(m).shape)
    assert tn <= np.sqrt(dim) * fro + 1e-10 * max(1.0, fro)
    return tn


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a size guard."""
    a = np.asarray(a)
    b = np.asarray(b)
    entries = a.shape[0] * b.shape[0] * a.shape[1] * b.shape[1]
    if entries > KRON_ENTRY_CAP:
        raise ValueError(
            f"kron result would have {entries} entries, cap is {KRON_ENTRY_CAP}"
        )
    return np.kron(a, b)


def kron_power(v: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of a vector, a matrix or a stack (k, m, m),
    first copy most significant; on a stack, element k*i + j of the
    square is kron(v[i], v[j]).  Not capped: callers bound n."""
    out = v
    for _ in range(n - 1):
        out = np.kron(out, v)
    return out


def kron_all(mats: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Left-to-right Kronecker product of a nonempty list."""
    out = np.asarray(mats[0])
    for m in mats[1:]:
        out = kron(out, m)
    return out


def partial_transpose(a: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose the second tensor factor of a bipartite operator.

    Entry ((i,j),(k,l)) of the result equals entry ((i,l),(k,j)) of the
    input, an exact permutation of entries; applying the map twice gives
    back the input bit for bit.
    """
    a = np.asarray(a)
    d = dim_a * dim_b
    if a.shape != (d, d):
        raise ValueError(f"shape {a.shape} does not match dims {dim_a}x{dim_b}")
    return (
        a.reshape(dim_a, dim_b, dim_a, dim_b)
        .transpose(0, 3, 2, 1)
        .reshape(d, d)
    )

