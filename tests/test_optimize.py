import numpy as np
import pytest

from bewitness import linalg, pauli, protocol, states
from bewitness.optimize import (
    AscentConfig,
    SeesawConfig,
    SIGN_ZERO_TOL,
    _BlochPolytope,
    _refresh_signs,
    _witness_product_decoders,
    ccnr_ascent_bloch_ppt,
    joint_eigenvalue_matrix,
    optimal_measurement,
    optimal_states_given_measurement,
    seesaw_classical,
    seesaw_quantum,
)


def _random_pure_states(rng, dim, count=16):
    out = []
    for _ in range(count):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        out.append(np.outer(v, v.conj()))
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        SeesawConfig(channel_dim=1)
    with pytest.raises(ValueError):
        SeesawConfig(channel_dim=17)
    with pytest.raises(ValueError):
        SeesawConfig(channel_dim=4, tol=0.0)
    with pytest.raises(ValueError):
        AscentConfig(n_restarts=0)
    with pytest.raises(ValueError):
        AscentConfig(max_outer=0)


def test_measurement_witness_agrees_with_brute_force():
    """The trace-norm formula against literal dense summation."""
    rng = np.random.default_rng(1)
    signs = protocol.default_signs()
    sa = _random_pure_states(rng, 4)
    sb = _random_pure_states(rng, 4)
    dec_a, dec_b = optimal_measurement(sa, sb, signs)
    fast = _witness_product_decoders(sa, sb, dec_a, dec_b, signs)
    strat = protocol.Strategy(
        kind="prepared_states",
        n_copies=1,
        channel_dim=4,
        decoders_a=dec_a,
        decoders_b=dec_b,
        states_a=sa,
        states_b=sb,
    )
    task = protocol.TaskSpec(n_copies=1, channel_dim=4, signs=signs)
    brute = protocol.witness_brute_force(strat, task).value
    assert abs(fast - brute) < 1e-10


def test_measurement_on_maximally_mixed_states():
    # only the all-ones output column survives: witness 1/16
    signs = protocol.default_signs()
    mm = [np.eye(4, dtype=complex) / 4.0] * 16
    dec_a, dec_b = optimal_measurement(mm, mm, signs)
    w = _witness_product_decoders(mm, mm, dec_a, dec_b, signs)
    assert abs(w - 1 / 16) < 1e-12


def test_measurement_on_constant_encoding():
    signs = protocol.default_signs()
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    tau = [np.outer(v, v.conj())] * 16
    dec_a, dec_b = optimal_measurement(tau, tau, signs)
    w = _witness_product_decoders(tau, tau, dec_a, dec_b, signs)
    assert abs(w - 1 / 16) < 1e-12
    assert w <= 0.25 + 1e-12


def test_state_update_is_monotone():
    rng = np.random.default_rng(23)
    signs = protocol.default_signs()
    for _ in range(5):
        sa = _random_pure_states(rng, 4)
        sb = _random_pure_states(rng, 4)
        dec_a, dec_b = optimal_measurement(sa, sb, signs)
        before = _witness_product_decoders(sa, sb, dec_a, dec_b, signs)
        sa_new = optimal_states_given_measurement(dec_a, dec_b, sb, signs)
        after = _witness_product_decoders(sa_new, sb, dec_a, dec_b, signs)
        assert after >= before - 1e-10


def test_seesaw_classical_reaches_bound_at_d4():
    rep = seesaw_classical(SeesawConfig(channel_dim=4, n_restarts=15, max_iters=200))
    assert abs(rep.best_value - 0.25) < 1e-12
    assert max(rep.restart_values) <= 0.25 + 1e-9
    assert rep.flagged_restarts == []
    assert rep.best_strategy is not None
    assert rep.best_strategy.kind == "prepared_states"


def test_seesaw_classical_full_encoding_at_d16():
    rep = seesaw_classical(SeesawConfig(channel_dim=16, n_restarts=2, max_iters=100))
    assert abs(rep.best_value - 1.0) < 1e-12
    assert max(rep.restart_values) <= 1.0 + 1e-9


def test_seesaw_quantum_sound_at_d4():
    rep = seesaw_quantum(SeesawConfig(channel_dim=4, n_restarts=2, max_iters=60))
    assert rep.best_value >= 0.24
    assert max(rep.restart_values) <= 0.25 + 1e-9
    assert rep.flagged_restarts == []


def test_seesaw_quantum_sound_at_d5():
    # no saturation expected at D=5; the bound must still hold
    rep = seesaw_quantum(SeesawConfig(channel_dim=5, n_restarts=2, max_iters=100))
    assert max(rep.restart_values) <= 5 / 16 + 1e-9
    assert rep.best_value >= 0.27


def test_bell_product_eigenvalue_matrix_exactly_orthogonal():
    for d in (4, 8, 16):
        c = joint_eigenvalue_matrix(d)
        assert c.shape == (d * d, d * d)
        assert np.array_equal(c @ c.T, np.eye(d * d))
    with pytest.raises(ValueError):
        joint_eigenvalue_matrix(6)


@pytest.mark.parametrize("d,n", [(4, 2), (8, 3)])
def test_eigenvalue_map_matches_dense_diagonalisation(d, n):
    rng = np.random.default_rng(31)
    c = joint_eigenvalue_matrix(d)
    basis = pauli.pauli_basis(n)
    for _ in range(3):
        lam = rng.normal(size=d * d) * 0.1
        dense = states.bloch_densify(lam, basis)
        want = np.sort(np.linalg.eigvalsh(dense))
        got = np.sort(c @ lam)
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("d,n", [(4, 2), (8, 3)])
def test_psd_projection_matches_dense_clip(d, n):
    poly = _BlochPolytope(d)
    basis = pauli.pauli_basis(n)
    rng = np.random.default_rng(37)
    for _ in range(3):
        lam = rng.normal(size=d * d) * 0.1
        proj = poly.project_psd_rows(lam[None])[0]
        dense = states.bloch_densify(lam, basis)
        w, v = np.linalg.eigh(dense)
        clipped = (v * np.maximum(w, 0.0)) @ v.conj().T
        # re-read the coefficients off the clipped operator
        want = np.array(
            [np.trace(clipped @ np.kron(g, g)).real for g in basis]
        )
        assert np.max(np.abs(proj - want)) < 1e-12


def test_psd_pt_projection_matches_dense_route():
    d, n = 4, 2
    poly = _BlochPolytope(d)
    basis = pauli.pauli_basis(n)
    rng = np.random.default_rng(41)
    lam = rng.normal(size=16) * 0.1
    proj = poly.project_psd_pt_rows(lam[None])[0]
    dense = states.bloch_densify(lam, basis)
    pt = linalg.partial_transpose(dense, d, d)
    w, v = np.linalg.eigh(pt)
    clipped = (v * np.maximum(w, 0.0)) @ v.conj().T
    back = linalg.partial_transpose(clipped, d, d)
    want = np.array([np.trace(back @ np.kron(g, g)).real for g in basis])
    assert np.max(np.abs(proj - want)) < 1e-12


def test_dykstra_fixes_feasible_points():
    poly = _BlochPolytope(4)
    lam = states.rho_be().lambdas
    out, converged = poly.dykstra_rows(lam[None], cap=50, tol=1e-11)
    assert converged.all()
    assert np.max(np.abs(out[0] - lam)) < 1e-12


def test_dykstra_output_is_feasible():
    poly = _BlochPolytope(4)
    rng = np.random.default_rng(43)
    # one block: rows converge, and freeze, after different sweep counts
    start = rng.normal(size=(5, 16)) * 0.2
    start[:, 0] = 0.25
    out, converged = poly.dykstra_rows(start, cap=2000, tol=1e-11)
    assert converged.all()
    assert poly.min_eig_rows(out).min() >= -1e-9
    assert np.max(np.abs(out[:, 0] - 0.25)) < 1e-12


def test_ccnr_ascent_reaches_target_at_d4():
    rep = ccnr_ascent_bloch_ppt(4, AscentConfig(n_restarts=3, max_iters=300))
    assert rep.best_value >= 1.4999
    assert rep.best_value <= 1.5 + 1e-6
    assert _BlochPolytope(4).min_eig_rows(rep.best_lambdas[None])[0] >= -1e-8
    assert abs(rep.best_lambdas[0] - 0.25) < 1e-12
    assert rep.min_eig_seen is not None


def test_ccnr_ascent_best_state_closes_witness_chain():
    """Best coefficients feed back into the protocol value sum|lambda|/4."""
    rep = ccnr_ascent_bloch_ppt(4, AscentConfig(n_restarts=3, max_iters=300))
    st = states.BlochDiagonalState(n_copies=1, lambdas=rep.best_lambdas)
    task = protocol.matched_task(st)
    w = protocol.witness_closed_form(st, task).value
    assert abs(w - rep.best_value / 4.0) < 1e-6


def test_ccnr_ascent_deterministic_and_worker_independent():
    cfg = AscentConfig(n_restarts=2, max_iters=100)
    a = ccnr_ascent_bloch_ppt(4, cfg)
    b = ccnr_ascent_bloch_ppt(4, cfg)
    assert a.best_value == b.best_value
    assert a.restart_values == b.restart_values


def test_sign_refresh_keeps_signs_of_near_zero_entries():
    """A coefficient that is 0 at a vertex comes out of a projection as
    +-1e-12 or so; its sign is noise and must not start an outer round."""
    assert SIGN_ZERO_TOL > 1.1e-12
    lam = np.array([[0.25, -1.1e-12, 1.1e-12, -0.01, 0.02, 0.0]])
    prev = np.array([[1.0, 1.0, -1.0, 1.0, -1.0, -1.0]])
    assert np.array_equal(_refresh_signs(lam, prev), [[1.0, 1.0, -1.0, -1.0, 1.0, -1.0]])
    start = _refresh_signs(lam, np.ones_like(lam))
    assert np.array_equal(start, [[1.0, 1.0, 1.0, -1.0, 1.0, 1.0]])


def test_ascent_stops_when_only_noise_signs_change():
    # after round three, 17 entries below 1e-17 disagree in sign with the
    # previous round; that noise must not start a fourth round
    rep = ccnr_ascent_bloch_ppt(8, AscentConfig(n_restarts=1, max_iters=200, seed=0))
    assert rep.iterations_used == [600]
    assert abs(rep.best_value - 1.5) < 1e-8


def test_ccnr_ascent_rejects_unsupported_dimensions():
    with pytest.raises(ValueError, match="4, 8, 16"):
        ccnr_ascent_bloch_ppt(5)
    with pytest.raises(ValueError, match="4, 8, 16"):
        ccnr_ascent_bloch_ppt(2)


def test_report_serialization_round_trip():
    rep = ccnr_ascent_bloch_ppt(4, AscentConfig(n_restarts=2, max_iters=50))
    d = rep.to_dict()
    assert d["seed"] == 0
    assert len(d["restart_values"]) == 2
    assert len(d["best_lambdas"]) == 16
    assert d["config"] == {"n_restarts": 2, "max_iters": 50, "max_outer": 6, "seed": 0}


def _proposals(poly, seed, rows, step):
    """Seeded ascent-like proposals: a feasible point plus one step."""
    rng = np.random.default_rng(seed)
    k = poly.c.shape[0]
    start = 0.1 * rng.normal(size=(rows, k))
    start[:, 0] = poly.id_coeff
    prev, converged = poly.dykstra_rows(start, cap=20000, tol=1e-12)
    assert converged.all()
    signs = np.where(rng.normal(size=(rows, k)) < 0, -1.0, 1.0)
    signs[:, 0] = 0.0
    return prev + step * signs / np.linalg.norm(signs, axis=1, keepdims=True), prev


@pytest.mark.parametrize("d", [4, 8])
def test_exact_projection_matches_converged_dykstra(d):
    poly = _BlochPolytope(d)
    for seed in (1, 2):
        prop, prev = _proposals(poly, seed, rows=6, step=0.05)
        exact, certified = poly.project_exact_rows(prop, prev)
        assert certified.all()
        ref, converged = poly.dykstra_rows(prop, cap=200000, tol=1e-13)
        assert converged.all()
        assert np.max(np.abs(exact - ref)) < 1e-9
        assert poly.min_eig_rows(exact).min() >= -1e-12
        assert np.array_equal(exact[:, 0], np.full(6, poly.id_coeff))


def test_uncertified_row_goes_to_dykstra():
    poly = _BlochPolytope(8)
    prop, prev = _proposals(poly, 28, rows=1, step=0.3)
    _, certified = poly.project_exact_rows(prop, prev)
    assert not certified[0]
    active = np.ones(1, bool)
    out, converged, handed = poly.project_step_rows(prop, prev, 500, 1e-11, active)
    ref, ref_converged = poly.dykstra_rows(prop, 500, 1e-11)
    assert handed[0]
    assert np.array_equal(out, ref)
    assert np.array_equal(converged, ref_converged)


def test_exact_step_reaches_three_halves_without_overshoot():
    # Dykstra's iterates were infeasible by ~2e-11 and read 1.50000000025
    configs = (
        AscentConfig(n_restarts=8, max_iters=250, max_outer=1, seed=11),
        AscentConfig(n_restarts=6, max_iters=600),
    )
    for cfg in configs:
        rep = ccnr_ascent_bloch_ppt(4, cfg)
        assert max(rep.restart_values) <= 1.5 + 1e-12
        assert rep.best_value >= 1.5 - 1e-12
        assert rep.dykstra_steps == [0] * cfg.n_restarts


def test_d16_steps_all_go_to_dykstra():
    rep = ccnr_ascent_bloch_ppt(
        16, AscentConfig(n_restarts=1, max_iters=3, max_outer=1)
    )
    assert rep.dykstra_steps == rep.iterations_used == [3]
    assert rep.to_dict()["dykstra_steps"] == [3]
