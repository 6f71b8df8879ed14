import numpy as np
import pytest

from bewitness import linalg, pauli


def test_t_matrix_is_scaled_orthogonal():
    assert np.array_equal(pauli.T_MATRIX @ pauli.T_MATRIX.T, 4 * np.eye(4, dtype=np.int64))


def test_f_table_column_orthogonality_exhaustive():
    """sum_z f_xz f_x'z = 16 delta, all 256 pairs in integer arithmetic."""
    gram = pauli.F_TABLE @ pauli.F_TABLE.T
    assert np.array_equal(gram, 16 * np.eye(16, dtype=np.int64))
    assert np.array_equal(pauli.F_TABLE[0], np.ones(16, dtype=np.int64))
    assert np.array_equal(pauli.F_TABLE[:, 0], np.ones(16, dtype=np.int64))


def test_f_coeff_matches_conjugation_trace():
    """f_xz = tr(P_x P_z P_x P_z) / 4 for the unnormalised Pauli pairs."""
    basis = pauli.pauli_basis(2)
    p = [2.0 * g for g in basis]
    for x in range(1, 17):
        for z in range(1, 17):
            val = np.trace(p[x - 1] @ p[z - 1] @ p[x - 1] @ p[z - 1]).real / 4.0
            assert abs(val - pauli.f_coeff(x, z)) < 1e-12


def test_f_coeff_range_checks():
    with pytest.raises(ValueError):
        pauli.f_coeff(0, 1)
    with pytest.raises(ValueError):
        pauli.f_coeff(1, 17)


@pytest.mark.parametrize("n", [1, 2])
def test_pauli_basis_orthonormal(n):
    basis = pauli.pauli_basis(n)
    assert len(basis) == 4**n
    for k, gk in enumerate(basis):
        for l, gl in enumerate(basis):
            ip = np.trace(gk @ gl).real
            assert abs(ip - (1.0 if k == l else 0.0)) < 1e-12


def test_pauli_basis_hermitian_and_scaled_unitary():
    for n in (1, 2):
        scale = 2.0 ** (n / 2)
        for g in pauli.pauli_basis(n):
            assert np.max(np.abs(g - g.conj().T)) < 1e-15
            u = scale * g
            assert np.max(np.abs(u @ u.conj().T - np.eye(2**n))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_basis_digit_order(n):
    """Element k is the Kronecker product of the Paulis spelled by the
    base-4 digits of k, most significant first."""
    basis = pauli.pauli_basis(n)
    assert basis.shape == (4**n, 2**n, 2**n)
    for k in range(4**n):
        digits = [(k // 4**p) % 4 for p in reversed(range(n))]
        assert np.array_equal(basis[k], linalg.kron_all([pauli._SIGMA[d] for d in digits]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_monomials_are_the_basis_nonzeros(n):
    """G_k[a, a ^ x] = values[k, a] bit for bit and every other entry is
    (a signed) zero, with by_mask[x] the strings of X-mask x in ascending
    k; the cached table is read only."""
    by_mask, values = pauli.pauli_monomials(n)
    basis = pauli.pauli_basis(n)
    rows = np.arange(2**n)
    rebuilt = np.zeros_like(basis)
    for x, ks in enumerate(by_mask):
        assert np.all(np.diff(ks) > 0)
        entries = basis[ks][:, rows, rows ^ x]
        assert entries.tobytes() == values[ks].tobytes()
        rebuilt[ks[:, None], rows, rows ^ x] = entries
    assert sorted(by_mask.ravel()) == list(range(4**n))
    assert np.array_equal(rebuilt, basis)
    assert pauli.pauli_monomials(n) is pauli.pauli_monomials(n)
    with pytest.raises(ValueError, match="read-only"):
        values[0, 0] = 0


def test_pauli_basis_range():
    # the stack has 16^n entries: 5 qubits reach KRON_ENTRY_CAP exactly
    assert 16**5 == linalg.KRON_ENTRY_CAP
    assert pauli.pauli_basis(5).shape == (4**5, 2**5, 2**5)
    for n in (0, 6, 9):
        for build in (pauli.pauli_basis, pauli.pauli_monomials):
            with pytest.raises(ValueError, match="16\\^n_qubits"):
                build(n)


def test_m_matrix_exact_identity():
    assert np.array_equal(pauli.m_matrix(1), 16 * np.eye(16, dtype=np.int64))
    assert np.array_equal(pauli.m_matrix(2), 256 * np.eye(256, dtype=np.int64))
    with pytest.raises(ValueError):
        pauli.m_matrix(3)


def test_w_value_factorises_over_copies():
    rng = np.random.default_rng(3)
    signs = np.where(rng.integers(0, 2, size=16) == 0, -1, 1)
    signs[0] = 1
    for _ in range(50):
        x = rng.integers(1, 17, size=2)
        y = rng.integers(1, 17, size=2)
        z = rng.integers(1, 17, size=2)
        joint = pauli.w_value(x, y, z, signs)
        split = pauli.w_value(x[:1], y[:1], z[:1], signs) * pauli.w_value(
            x[1:], y[1:], z[1:], signs
        )
        assert joint == split
        assert joint in (-1, 1)


def test_w_value_input_validation():
    signs = np.ones(16, dtype=np.int64)
    with pytest.raises(ValueError, match="equal length"):
        pauli.w_value([1, 2], [1], [1, 2], signs)
    with pytest.raises(ValueError, match="length 16"):
        pauli.w_value([1], [1], [1], np.ones(4))
    bad = signs.copy()
    bad[4] = 0
    with pytest.raises(ValueError):
        pauli.w_value([1], [1], [5], bad)


@pytest.mark.parametrize("n", [1, 2])
def test_transpose_signs_match_dense_transpose(n):
    basis = pauli.pauli_basis(n)
    t = pauli.pauli_transpose_signs(n)
    for g, sign in zip(basis, t):
        assert np.max(np.abs(g.T - sign * g)) < 1e-15


def test_bell_signs_are_bell_state_eigenvalues():
    """Bell state m is an eigenvector of sigma_a (x) sigma_a with
    eigenvalue BELL_SIGNS[m, a]."""
    bells = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)
    sigma = np.sqrt(2) * pauli.pauli_basis(1)
    for m, bell in enumerate(bells):
        for a, s in enumerate(sigma):
            assert np.allclose(np.kron(s, s) @ bell, pauli.BELL_SIGNS[m, a] * bell, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bell_spectrum_is_the_joint_eigenvalue_matrix(n):
    lam = np.random.default_rng(n).normal(size=4**n)
    c = pauli.joint_eigenvalue_matrix(2**n)
    t = pauli.pauli_transpose_signs(n)
    assert np.max(np.abs(pauli.bell_spectrum(lam) - c @ lam)) < 1e-14
    assert np.max(np.abs(pauli.bell_spectrum(lam, True) - c @ (t * lam))) < 1e-14
    with pytest.raises(ValueError, match="4\\^n"):
        pauli.bell_spectrum(lam[:-1])
