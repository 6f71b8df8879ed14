import json

import numpy as np
import pytest

from bewitness import linalg, pauli, states, verify


def test_target_coefficient_table():
    rho = states.rho_be()
    lam = rho.lambdas
    assert abs(lam[0] - 0.25) < 1e-15
    for k in range(1, 16):
        assert abs(abs(lam[k]) - 1 / 12) < 1e-15
    neg = tuple(int(i) + 1 for i in np.nonzero(lam < 0)[0])
    assert neg == states.NEGATIVE_INDICES == (7, 9, 11, 12, 16)


def test_target_spectrum_and_ppt():
    rep = states.ppt_check(states.rho_be())
    want = np.array([1 / 6] * 6 + [0.0] * 10)
    assert np.max(np.abs(rep.spectrum_state - want)) < 1e-10
    assert np.max(np.abs(rep.spectrum_pt - want)) < 1e-10
    assert rep.is_ppt
    assert abs(rep.ccnr - 1.5) < 1e-12


def test_ccnr_fast_path_matches_realignment():
    """sum|lambda| against the dense realignment trace norm."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        lam = rng.normal(size=16) * 0.05
        lam[0] = 0.25
        st = states.BlochDiagonalState(n_copies=1, lambdas=lam)
        dense = states.ccnr(states.bloch_densify(lam))
        assert abs(st.ccnr_fast() - dense) < 1e-10


@pytest.mark.parametrize("n_qubits,lam", [
    (2, np.random.default_rng(8).normal(size=16) / 4),
    (4, np.random.default_rng(8).normal(size=256) / 16),
    (3, np.random.default_rng(8).normal(size=64) / 8),
    (4, states.tensor_power(states.rho_be(), 2).lambdas),
], ids=["1", "2", "3-qubit", "rho_be-squared"])
def test_bloch_densify_matches_literal_sum(n_qubits, lam):
    """Bit for bit, signed zeros included, against the Kronecker sum."""
    basis = pauli.pauli_basis(n_qubits)
    literal = sum(l * np.kron(g, g) for l, g in zip(lam, basis))
    got = states.bloch_densify(lam)
    assert np.array_equal(got.view(np.int64), literal.view(np.int64))


def _random_state(rng, n_copies):
    lam = rng.normal(size=16**n_copies) / 4**n_copies
    lam[0] = 1 / 4**n_copies
    return states.BlochDiagonalState(n_copies=n_copies, lambdas=lam)


@pytest.mark.parametrize("state,nonzeros", [
    (states.tensor_power(states.rho_be(), 2), 1792),
    (_random_state(np.random.default_rng(21), 1), 64),
    (_random_state(np.random.default_rng(22), 2), 4096),
    (states.mix_with_white_noise(states.tensor_power(states.rho_be(), 2), 0.0), 256),
], ids=["rho_be-squared", "random-1", "random-2", "white-noise-2"])
def test_densify_is_the_symmetrised_kronecker_sum(state, nonzeros):
    """`densify` equals, byte for byte, the literal Kronecker sum passed
    through `require_hermitian`'s (A + A^dagger)/2, is exactly Hermitian,
    and has nonzeros only among the d^3 entries its X-masks reach: all of
    them for random coefficients, fewer where terms cancel."""
    basis = pauli.pauli_basis(2 * state.n_copies)
    literal = sum(l * np.kron(g, g) for l, g in zip(state.lambdas, basis))
    got = states.densify(state)
    want = linalg.require_hermitian(literal)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(got, got.conj().T)
    assert np.count_nonzero(got) == nonzeros


def test_bloch_densify_refuses_a_matrix_that_is_not_exactly_hermitian():
    """Finite coefficients always give an exactly Hermitian sum; a NaN
    coefficient does not, and is refused."""
    lam = np.full(16, 0.1)
    lam[5] = np.nan
    with pytest.raises(ValueError, match="not exactly Hermitian"):
        states.bloch_densify(lam)
    with pytest.raises(ValueError, match="length 4\\^n"):
        states.bloch_densify(np.ones(8))


def test_realignment_computational_preserves_singular_values():
    """Same singular values as the Pauli-basis realignment, built here
    entry by entry as R[k, l] = tr(op G_k (x) G_l)."""
    rng = np.random.default_rng(9)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    m = 0.5 * (m + m.conj().T)
    basis = pauli.pauli_basis(2)
    r = np.array([[np.trace(m @ np.kron(g, h)) for h in basis] for g in basis])
    sv_basis = linalg.singular_values(r)
    sv_comp = linalg.singular_values(states.realignment_computational(m, 4, 4))
    assert np.max(np.abs(sv_basis - sv_comp)) < 1e-10


def test_separable_product_states_pass_ccnr():
    rng = np.random.default_rng(17)
    for _ in range(25):
        ga = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gb = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ra = ga @ ga.conj().T
        rb = gb @ gb.conj().T
        op = np.kron(ra / np.trace(ra).real, rb / np.trace(rb).real)
        assert states.ccnr(op) <= 1 + 1e-9


def test_singlet_fails_both_criteria():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    rep = states.ppt_report(np.outer(psi, psi), 2, 2)
    assert abs(rep.min_eig_pt + 0.5) < 1e-12
    assert not rep.is_ppt
    assert abs(rep.ccnr - 2.0) < 1e-12


def test_tensor_power_ccnr_multiplicative():
    rho = states.rho_be()
    pair = states.tensor_power(rho, 2)
    assert abs(pair.ccnr_fast() - 2.25) < 1e-12
    rep = states.ppt_check(pair)
    assert rep.is_ppt


def test_three_copies_certified_per_copy():
    """The 3-copy power is certified PPT on its joint 16^3 spectra, the
    sorted triple products of the one-copy spectra."""
    one = states.ppt_check(states.rho_be())
    rep = states.ppt_check(states.tensor_power(states.rho_be(), 3))
    for got, per_copy in ((rep.spectrum_state, one.spectrum_state),
                          (rep.spectrum_pt, one.spectrum_pt)):
        want = np.sort(linalg.kron_power(per_copy, 3))[::-1]
        assert np.max(np.abs(got - want)) < 1e-15
    assert rep.is_ppt
    assert abs(rep.ccnr - 1.5**3) < 1e-12


def test_three_copy_non_power_rejected():
    """A 3-copy state that is no tensor power is evaluated, not refused:
    this one is not even PSD."""
    trip = states.tensor_power(states.rho_be(), 3)
    lam = trip.lambdas.copy()
    lam[5] += 1e-3
    rep = states.ppt_check(states.BlochDiagonalState(n_copies=3, lambdas=lam))
    assert rep.min_eig_state < states.PSD_EIG_TOL
    assert abs(rep.min_eig_state + 1.5625e-5) < 1e-8


@pytest.mark.parametrize("n_copies", [1, 2])
def test_bell_spectra_match_dense_ppt_report(n_copies):
    rng = np.random.default_rng(40 + n_copies)
    for _ in range(10):
        lam = rng.normal(size=16**n_copies) / 4**n_copies
        lam[0] = 1 / 4**n_copies
        st = states.BlochDiagonalState(n_copies=n_copies, lambdas=lam)
        fast = states.ppt_check(st)
        dense = states.ppt_report(states.densify(st), st.local_dim, st.local_dim)
        assert np.max(np.abs(fast.spectrum_state - dense.spectrum_state)) < 1e-12
        assert np.max(np.abs(fast.spectrum_pt - dense.spectrum_pt)) < 1e-12
        assert fast.is_ppt == dense.is_ppt


@pytest.mark.parametrize("n_copies", [1, 2, 3])
def test_ppt_check_builds_no_dense_matrix(n_copies, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ppt_check must not densify, diagonalise or run an SVD")

    for mod, name in ((states, "densify"), (linalg, "eigh"), (linalg, "trace_norm")):
        monkeypatch.setattr(mod, name, refuse)
    rep = states.ppt_check(states.tensor_power(states.rho_be(), n_copies))
    assert rep.is_ppt and rep.spectrum_state.shape == (16**n_copies,)


def test_mix_with_white_noise_affine_in_ccnr():
    rho = states.rho_be()
    for v in (0.0, 0.25, 0.5, 0.75, 1.0):
        mixed = states.mix_with_white_noise(rho, v)
        assert abs(mixed.ccnr_fast() - (0.25 + v * 1.25)) < 1e-12
    assert abs(states.mix_with_white_noise(rho, 0.6).ccnr_fast() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        states.mix_with_white_noise(rho, 1.5)


def test_mixture_stays_ppt():
    mixed = states.mix_with_white_noise(states.rho_be(), 0.6)
    assert states.ppt_check(mixed).is_ppt


def test_state_validation():
    with pytest.raises(ValueError, match="16"):
        states.BlochDiagonalState(n_copies=1, lambdas=np.zeros(15))
    lam = np.zeros(16)
    lam[0] = 0.3
    with pytest.raises(ValueError, match="1/4"):
        states.BlochDiagonalState(n_copies=1, lambdas=lam)
    with pytest.raises(ValueError):
        states.BlochDiagonalState(n_copies=0, lambdas=np.zeros(1))


def test_densify_copy_cap():
    trip = states.tensor_power(states.rho_be(), 3)
    with pytest.raises(ValueError, match="at most"):
        states.densify(trip)


def test_sign_pattern_zero_counts_positive():
    lam = np.zeros(16)
    lam[0] = 0.25
    lam[3] = -0.1
    st = states.BlochDiagonalState(n_copies=1, lambdas=lam)
    pattern = st.sign_pattern()
    assert pattern[0] == 1 and pattern[3] == -1 and pattern[5] == 1


def test_serialization_roundtrip(tmp_path):
    rho = states.rho_be()
    data = states.state_to_dict(rho)
    again = states.state_from_dict(data)
    assert again.n_copies == 1
    assert np.array_equal(again.lambdas, rho.lambdas)

    path = tmp_path / "state.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    loaded = states.load_state(str(path))
    assert np.array_equal(loaded.lambdas, rho.lambdas)


def test_serialization_rejects_entries_that_are_not_numbers():
    data = states.state_to_dict(states.rho_be())
    for bad in ("0.25", False, True, None):
        with pytest.raises(ValueError, match="list of numbers"):
            states.state_from_dict({**data, "lambdas": [bad] + data["lambdas"][1:]})
    with pytest.raises(ValueError, match=r"coefficient 1\.0 must be"):
        states.state_from_dict({**data, "lambdas": [1.0] + data["lambdas"][1:]})


def test_serialization_rejects_wrong_convention_tag():
    data = states.state_to_dict(states.rho_be())
    data["convention"] = "k=4j+i+1"
    with pytest.raises(states.ConventionError, match="convention"):
        states.state_from_dict(data)


def test_convention_check_accepts_builtin():
    states.check_be_convention(states.rho_be())


def test_convention_check_rejects_swapped_digits():
    # the digit swap is a local unitary: same spectrum, different table
    swapped = states.rho_be(swap_digits=True)
    with pytest.raises(states.ConventionError, match="layout"):
        states.check_be_convention(swapped)
    rep = states.ppt_check(swapped)
    want = np.array([1 / 6] * 6 + [0.0] * 10)
    assert np.max(np.abs(rep.spectrum_state - want)) < 1e-10


def test_maximally_mixed_diagnostics():
    mm = states.mix_with_white_noise(states.rho_be(), 0.0)
    assert abs(mm.ccnr_fast() - 0.25) < 1e-15
    assert states.ppt_check(mm).is_ppt


def test_one_copy_checks_fail_on_a_multi_copy_state():
    results = verify.run_all(states.tensor_power(states.rho_be(), 2))
    by_name = {r.name: r for r in results}
    for name in ("00-convention", "01-spectrum"):
        assert not by_name[name].passed
        assert "2 copies" in by_name[name].detail
    with pytest.raises(states.ConventionError, match="2 copies"):
        states.check_be_convention(states.tensor_power(states.rho_be(), 2))


def test_spectrum_check_certifies_the_builtin_exactly():
    assert verify.check_spectrum().detail.endswith("; exact 1/6 x6, 0 x10")
    assert "exact" not in verify.check_spectrum(states.rho_be()).detail


def test_ccnr_and_witness_checks_certify_exactly():
    assert verify.check_ccnr_value().detail.endswith("; exact sum|lambda| = 3/2")
    assert "exact" not in verify.check_ccnr_value(states.rho_be()).detail
    assert verify.check_witness_brute_force().detail.endswith(", exact closed=3/8")
