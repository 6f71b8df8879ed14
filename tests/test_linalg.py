import numpy as np
import pytest

from bewitness import linalg


def _random_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _random_hermitian(rng, dim):
    a = _random_complex(rng, dim, dim)
    return 0.5 * (a + a.conj().T)


def test_trace_norm_matches_gram_eigenvalues():
    """Trace norm against sqrt-eigenvalues of A^dagger A, a second route."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = _random_complex(rng, rows, cols)
        tn = linalg.trace_norm(m)
        gram_eigs = np.linalg.eigvalsh(m.conj().T @ m)
        want = float(np.sum(np.sqrt(np.clip(gram_eigs, 0.0, None))))
        # the squared route resolves small singular values only to sqrt(eps)
        assert abs(tn - want) < 1e-6 * max(1.0, want)
        assert tn >= abs(np.trace(m)) - 1e-10 if rows == cols else tn >= 0


def test_trace_norm_hermitian_equals_abs_eigenvalue_sum():
    rng = np.random.default_rng(8)
    for _ in range(200):
        h = _random_hermitian(rng, int(rng.integers(2, 17)))
        want = float(np.sum(np.abs(np.linalg.eigvalsh(h))))
        assert abs(linalg.trace_norm(h) - want) < 1e-9 * max(1.0, want)


def test_eigh_roundtrip_and_ordering():
    rng = np.random.default_rng(11)
    for dim in (2, 5, 16, 64, 256):
        h = _random_hermitian(rng, dim)
        spec = linalg.eigh(h)
        w, v = spec.eigenvalues, spec.eigenvectors
        assert np.all(np.diff(w) <= 1e-12)          # descending
        recon = (v * w) @ v.conj().T
        assert np.max(np.abs(recon - h)) < 1e-10 * max(1.0, np.max(np.abs(w)))
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10


def test_eigh_stack_matches_members():
    """A (k, n, n) stack: each member descending and reconstructed."""
    rng = np.random.default_rng(12)
    stack = np.stack([_random_hermitian(rng, 6) for _ in range(5)])
    spec = linalg.eigh(stack)
    w, v = spec.eigenvalues, spec.eigenvectors
    assert w.shape == (5, 6) and v.shape == (5, 6, 6)
    for h, wk, vk in zip(stack, w, v):
        assert np.all(np.diff(wk) <= 1e-12)
        assert np.max(np.abs((vk * wk) @ vk.conj().T - h)) < 1e-10
        assert np.max(np.abs(wk - linalg.eigh(h).eigenvalues)) < 1e-12
    stack[3, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.eigh(stack)


def test_eigh_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.eigh(m)
    with pytest.raises(ValueError, match="square"):
        linalg.require_hermitian(np.zeros((2, 3)))


def test_require_hermitian_symmetrises_within_tolerance():
    h = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 2e-14j, 2.0]])
    out = linalg.require_hermitian(h)
    assert linalg.hermiticity_defect(out) == 0.0


def test_hermiticity_defect_value():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert linalg.hermiticity_defect(m) == 1.0
    assert linalg.hermiticity_defect(np.eye(3)) == 0.0


def test_partial_transpose_known_4x4():
    # second-factor transpose of a 2x2 (x) 2x2 operator, entries 0..15
    a = np.arange(16).reshape(4, 4)
    want = np.array(
        [
            [0, 4, 2, 6],
            [1, 5, 3, 7],
            [8, 12, 10, 14],
            [9, 13, 11, 15],
        ]
    )
    assert np.array_equal(linalg.partial_transpose(a, 2, 2), want)


def test_partial_transpose_involution_and_invariants():
    rng = np.random.default_rng(21)
    for dim_a, dim_b in ((2, 2), (2, 3), (4, 4)):
        m = _random_complex(rng, dim_a * dim_b, dim_a * dim_b)
        pt = linalg.partial_transpose(m, dim_a, dim_b)
        back = linalg.partial_transpose(pt, dim_a, dim_b)
        assert np.array_equal(back, m)               # exact permutation
        assert abs(np.trace(pt) - np.trace(m)) < 1e-13
        assert abs(np.linalg.norm(pt) - np.linalg.norm(m)) < 1e-12


def test_partial_transpose_singlet_negativity():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    rho = np.outer(psi, psi)
    pt = linalg.partial_transpose(rho, 2, 2)
    w = np.linalg.eigvalsh(pt)
    assert abs(w[0] + 0.5) < 1e-12


def test_partial_transpose_shape_check():
    with pytest.raises(ValueError):
        linalg.partial_transpose(np.zeros((4, 4)), 2, 3)


def test_kron_entry_cap():
    a = np.ones((1, 2**19))
    b = np.ones((1, 4))
    with pytest.raises(ValueError, match="cap"):
        linalg.kron(a, b)


def test_kron_all_order():
    x = np.array([[0, 1], [1, 0]])
    z = np.array([[1, 0], [0, -1]])
    assert np.array_equal(linalg.kron_all([x, z]), np.kron(x, z))


def test_singular_values_reject_non_finite():
    with pytest.raises(ValueError):
        linalg.singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))
