import numpy as np
import pytest

from bewitness import linalg, optimize, pauli, protocol, states
from bewitness.optimize import (
    AscentConfig,
    SeesawConfig,
    SIGN_ZERO_TOL,
    _BlochPolytope,
    _refresh_signs,
    ccnr_ascent_bloch_ppt,
    joint_eigenvalue_matrix,
    optimal_measurement,
    optimal_states_given_measurement,
    seesaw_classical,
    seesaw_quantum,
)


def _witness_product_decoders(states_a, states_b, dec_a, dec_b, signs):
    """(1/16^3) sum_z s_z tr(O_a_z M_a_z) tr(O_b_z M_b_z) for one restart."""
    ta = optimize._correlations(optimize._f_sum(states_a), dec_a)
    tb = optimize._correlations(optimize._f_sum(states_b), dec_b)
    return float(optimize._witness(ta, tb, signs))


def _half_step(dec_self, dec_other, other_states, signs):
    """A state half-step fed the other side's correlations from its states."""
    c_other = optimize._correlations(optimize._f_sum(other_states), dec_other)
    return optimal_states_given_measurement(dec_self, c_other, signs)


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
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            SeesawConfig(channel_dim=4, tol=tol)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SeesawConfig(channel_dim=4, seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        AscentConfig(seed=-1)
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
        sa_new = _half_step(dec_a, dec_b, sb, signs)
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


@pytest.mark.parametrize("d,n_restarts", [(2, 3), (4, 5), (16, 3)])
def test_classical_rows_match_single_restart_scoring_bitwise(d, n_restarts):
    cfg = SeesawConfig(channel_dim=d, n_restarts=n_restarts, max_iters=100, seed=1)
    signs = protocol.default_signs().astype(float)
    w, iters, converged, flagged, *tables = optimize._classical_rows(cfg, signs)
    for r in range(n_restarts):
        levels_a, levels_b, w_int, cycles, conv, flag = optimize._classical_restart(cfg, r)
        sa, sb = optimize._level_states(levels_a, d), optimize._level_states(levels_b, d)
        da, db = optimal_measurement(sa, sb, signs)
        w_r = _witness_product_decoders(sa, sb, da, db, signs)
        assert float(w[r]).hex() == w_r.hex()
        assert (iters[r], converged[r], flagged[r]) == (cycles, conv, flag or abs(w_r - w_int) > 1e-9)
        for got, want in zip(tables, (sa, sb, da, db)):
            assert np.array_equal(got[r].view(np.int64), want.view(np.int64))


def _reference_sweep(levels, other_norms, dim, rng):
    """The coordinate sweep scoring each level with the objective's common
    part (`base`) included, as it once did."""
    diag = optimize._diag_o(levels, dim)
    for x in range(16):
        f_row = pauli.F_TABLE[x, :]
        diag[:, levels[x]] -= f_row
        base = np.sum(np.abs(diag), axis=1, keepdims=True)
        delta = np.abs(diag + f_row[:, None]) - np.abs(diag)
        scores = other_norms @ (base + delta)
        tied = np.flatnonzero(scores == scores.max())
        levels[x] = best = int(tied[rng.integers(tied.size)])
        diag[:, best] += f_row
    return levels


def _reference_classical_restart(cfg, restart):
    """A classical restart as three nested loops (turns, phases, steps), the
    form the one-loop `_classical_restart` replaced; same return tuple."""
    rng = np.random.default_rng([cfg.seed, restart])
    d = cfg.channel_dim
    levels_a = rng.integers(0, d, size=16)
    levels_b = rng.integers(0, d, size=16)
    norms_a = optimize._classical_norms(levels_a, d)
    norms_b = optimize._classical_norms(levels_b, d)
    w = optimize._WITNESS_SCALE * float(np.dot(norms_a, norms_b))
    converged = flagged = False
    iters = 0
    moves = (optimize._classical_fixed_step, _reference_sweep, optimize._classical_swap_sweep)
    for _ in range(cfg.max_iters):
        w_turn = w
        for move in moves:
            for _ in range(cfg.max_iters):
                if iters >= cfg.max_iters:
                    break
                iters += 1
                levels_a = move(levels_a, norms_b, d, rng)
                norms_a = optimize._classical_norms(levels_a, d)
                levels_b = move(levels_b, norms_a, d, rng)
                norms_b = optimize._classical_norms(levels_b, d)
                w_new = optimize._WITNESS_SCALE * float(np.dot(norms_a, norms_b))
                if w_new < w - optimize.MONOTONE_SLACK:
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
        if w - w_turn < cfg.tol:
            converged = True
            break
    return levels_a, levels_b, w, iters, converged, flagged


@pytest.mark.parametrize("slack", [None, -1e-4])
def test_classical_restart_matches_nested_loop_reference(monkeypatch, slack):
    # a negative slack flags every step that gains nothing
    if slack is not None:
        monkeypatch.setattr(optimize, "MONOTONE_SLACK", slack)
    stops = set()
    for d in (2, 4, 16):
        for cap in (1, 2, 3, 7, 500):
            for seed in range(4):
                cfg = SeesawConfig(channel_dim=d, max_iters=cap, seed=seed)
                for r in range(3):
                    got = optimize._classical_restart(cfg, r)
                    want = _reference_classical_restart(cfg, r)
                    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
                    assert float(got[2]).hex() == float(want[2]).hex()
                    assert got[3:] == want[3:], (d, cap, seed, r)
                    stops.add((got[3] == cap,) + got[4:])
    # capped, converged and (with the slack) flagged restarts all occur
    assert stops == ({(True, False, False), (False, True, False)} if slack is None
                     else {(True, False, False), (False, False, True), (True, False, True)})


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


def _reference_restart(cfg, restart, signs):
    """One quantum restart run alone from the public half-steps: the
    sequential loop that each lockstep row must reproduce bit for bit.
    Returns (value, cycles, flagged, (states_a, states_b, dec_a, dec_b))."""
    rng = np.random.default_rng([cfg.seed, restart])
    sa = optimize._random_pure_states(rng, cfg.channel_dim, 16)
    sb = optimize._random_pure_states(rng, cfg.channel_dim, 16)
    da, db = optimal_measurement(sa, sb, signs)
    w = _witness_product_decoders(sa, sb, da, db, signs)
    for it in range(1, cfg.max_iters + 1):
        w_start = w
        for half in ("a", "b", "measurement"):
            if half == "a":
                sa = _half_step(da, db, sb, signs)
            elif half == "b":
                sb = _half_step(db, da, sa, signs)
            else:
                da, db = optimal_measurement(sa, sb, signs)
            w_new = _witness_product_decoders(sa, sb, da, db, signs)
            if w_new < w - optimize.MONOTONE_SLACK:
                return w, it, True, (sa, sb, da, db)
            w = w_new
        if abs(w - w_start) < cfg.tol:
            return w, it, False, (sa, sb, da, db)
    return w, cfg.max_iters, False, (sa, sb, da, db)


def _assert_rows_match_references(rep, cfg, signs):
    refs = [_reference_restart(cfg, r, signs) for r in range(cfg.n_restarts)]
    assert [v.hex() for v in rep.restart_values] == [r[0].hex() for r in refs]
    assert rep.iterations_used == [r[1] for r in refs]
    assert rep.flagged_restarts == [i for i, r in enumerate(refs) if r[2]]
    s = rep.best_strategy
    got = (s.states_a, s.states_b, s.decoders_a, s.decoders_b)
    for a, b in zip(got, refs[rep.best_restart][3]):
        assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("d,max_iters,seed,staggered", [
    (4, 300, 0, True), (5, 60, 2, False), (16, 100, 1, True),
])
def test_lockstep_rows_match_single_restarts_bitwise(d, max_iters, seed, staggered):
    cfg = SeesawConfig(channel_dim=d, n_restarts=6, max_iters=max_iters, seed=seed)
    signs = protocol.default_signs()
    rep = seesaw_quantum(cfg, signs)
    _assert_rows_match_references(rep, cfg, signs)
    # staggered: some rows converge and freeze while others run on
    assert (min(rep.iterations_used) < max(rep.iterations_used)) == staggered


def test_lockstep_flagged_rows_freeze_mid_cycle(monkeypatch):
    # a negative slack flags every half-step that gains less than 1e-4,
    # so rows stop at different cycles and half-steps
    monkeypatch.setattr(optimize, "MONOTONE_SLACK", -1e-4)
    cfg = SeesawConfig(channel_dim=4, n_restarts=6, max_iters=100, seed=0)
    signs = protocol.default_signs()
    rep = seesaw_quantum(cfg, signs)
    _assert_rows_match_references(rep, cfg, signs)
    flagged_at = {rep.iterations_used[i] for i in rep.flagged_restarts}
    assert len(rep.flagged_restarts) >= 2 and len(flagged_at) >= 2


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
    for _ in range(3):
        lam = rng.normal(size=d * d) * 0.1
        dense = states.bloch_densify(lam)
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
        dense = states.bloch_densify(lam)
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
    dense = states.bloch_densify(lam)
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


def _reference_dykstra(poly, lam, cap, tol):
    """Dykstra with an increment for the trace set too, as `dykstra_rows`
    once ran it; same return pair."""
    out = lam.copy()
    rows = np.arange(lam.shape[0])
    converged = np.zeros(lam.shape[0], bool)
    x = lam
    p1, p2, p3 = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    for _ in range(cap):
        if rows.size == 0:
            break
        y1 = poly.project_psd_rows(x + p1)
        p1 = x + p1 - y1
        y2 = poly.project_psd_pt_rows(y1 + p2)
        p2 = y1 + p2 - y2
        y3 = y2 + p3
        y3[:, 0] = poly.id_coeff
        p3 = y2 + p3 - y3
        done = np.max(np.abs(y3 - x), axis=1) < tol
        x = y3
        if done.any():
            out[rows] = x
            converged[rows[done]] = True
            rows, x, p1, p2, p3 = rows[~done], x[~done], p1[~done], p2[~done], p3[~done]
    out[rows] = x
    return out, converged


@pytest.mark.parametrize("d", [4, 8])
def test_dykstra_matches_reference_with_trace_increment_bitwise(d):
    poly = _BlochPolytope(d)
    rng = np.random.default_rng(47)
    start = 0.1 * rng.normal(size=(8, d * d))
    start[:, 0] += poly.id_coeff
    # a row whose every eigenvalue clips to zero: after one sweep it is the
    # identity coefficient and zeros, +0.0 where the partial transpose gives -0.0
    start[-1] = 0.0
    start[-1, 0] = -1.0
    for cap, tol in ((1, 1e-11), (3, 1e-11), (optimize.DYKSTRA_CAP, optimize.DYKSTRA_TOL),
                     (20000, 1e-13)):
        got, got_conv = poly.dykstra_rows(start, cap, tol)
        want, want_conv = _reference_dykstra(poly, start, cap, tol)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(got_conv, want_conv)
    # feasible rows from the pull-in, then one ascent-like step each
    prop, _ = _proposals(poly, 3, rows=6, step=0.2)
    got, got_conv = poly.dykstra_rows(prop, optimize.DYKSTRA_CAP, optimize.DYKSTRA_TOL)
    want, want_conv = _reference_dykstra(poly, prop, optimize.DYKSTRA_CAP, optimize.DYKSTRA_TOL)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(got_conv, want_conv)


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
    # seed 6: after round two, 8 entries below 1e-15 disagree in sign with
    # the previous round; that noise must not start a third round.  Seed 0
    # must not start a fourth.
    for seed, rounds in ((0, 3), (6, 2)):
        cfg = AscentConfig(n_restarts=1, max_iters=200, seed=seed)
        rep = ccnr_ascent_bloch_ppt(8, cfg)
        assert rep.rounds_used == [rounds]
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


def _starts(poly, seed, rows):
    """Seeded feasible points and unit ascent directions at fixed signs."""
    rng = np.random.default_rng(seed)
    k = poly.c.shape[0]
    start = 0.1 * rng.normal(size=(rows, k))
    start[:, 0] = poly.id_coeff
    prev, converged = poly.dykstra_rows(start, cap=20000, tol=1e-12)
    assert converged.all()
    signs = np.where(rng.normal(size=(rows, k)) < 0, -1.0, 1.0)
    signs[:, 0] = 0.0
    return prev, signs / np.linalg.norm(signs, axis=1, keepdims=True)


def _proposals(poly, seed, rows, step):
    """Seeded ascent-like proposals: a feasible point plus one step."""
    prev, g = _starts(poly, seed, rows)
    return prev + step * g, prev


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


def test_uncertified_row_goes_to_dykstra(monkeypatch):
    # seed 15's tenth d = 8 step certifies neither its long nor its short
    # proposal within _EXACT_MAX_ITERS active-set iterations
    calls = []
    project = _BlochPolytope.project_step_rows

    def spy(self, prev, g, step, active):
        out = project(self, prev, g, step, active)
        if out[2].any() and not calls:
            calls.append((self, prev, g, step, active.copy()))  # the ascent edits active
        return out

    monkeypatch.setattr(_BlochPolytope, "project_step_rows", spy)
    ccnr_ascent_bloch_ppt(8, AscentConfig(n_restarts=1, max_iters=200, seed=15))
    monkeypatch.undo()
    (poly, prev, g, step, active), = calls
    prop = prev + step[:, None] * g
    for trial in (prev + optimize.ASCENT_LONG_STEP * g, prop):
        _, certified = poly.project_exact_rows(trial, prev)
        assert not certified[0]
    out, converged, handed = poly.project_step_rows(prev, g, step, active)
    ref, ref_converged = poly.dykstra_rows(prop, optimize.DYKSTRA_CAP, optimize.DYKSTRA_TOL)
    assert handed[0]
    assert np.array_equal(out, ref)
    assert np.array_equal(converged, ref_converged)


def _short_step_route(poly, prev, g, step):
    """One step of length `step` on every row: the exact projection where
    it certifies itself, Dykstra elsewhere (the step without a long try)."""
    prop = prev + step[:, None] * g
    out, certified = poly.project_exact_rows(prop, prev)
    handed = ~certified
    out[handed], _ = poly.dykstra_rows(prop[handed], optimize.DYKSTRA_CAP, optimize.DYKSTRA_TOL)
    return out, handed


def test_uncertified_long_step_falls_back_to_the_short_step():
    """A row whose long proposal does not certify ends bit for bit where
    the short step alone sends it; a row whose long proposal certifies
    never loses s . lam; inactive rows pass through."""
    poly = _BlochPolytope(8)
    prev, g = _starts(poly, 5, rows=40)
    long_points, long_ok = poly.project_exact_rows(prev + optimize.ASCENT_LONG_STEP * g, prev)
    assert long_ok.any() and not long_ok.all()
    step = optimize.ASCENT_STEP0 / np.sqrt(1 + np.arange(40) % 3)
    active = np.arange(40) % 5 != 0
    out, converged, handed = poly.project_step_rows(prev, g, step, active)
    assert np.array_equal(out[~active], prev[~active]) and not handed[~active].any()
    long = active & long_ok
    assert np.array_equal(out[long], long_points[long]) and not handed[long].any()
    gain = np.sum(np.sign(g[long]) * (out[long] - prev[long]), axis=1)
    assert gain.min() >= -1e-12
    short = active & ~long_ok
    ref, ref_handed = _short_step_route(poly, prev[short], g[short], step[short])
    assert np.array_equal(out[short].view(np.int64), ref.view(np.int64))
    assert np.array_equal(handed[short], ref_handed)
    assert converged.all()


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


_BENCH_CFG = dict(n_restarts=8, max_iters=250, max_outer=1)   # the ccnr-ascent job


def _reference_ascent(d, cfg, stalls=None):
    """The ascent from the public projection step and sign refresh, every
    round run to max_iters with all rows in lockstep; a row's short step
    shrinks as ASCENT_STEP0 / sqrt(1 + its steps of the round handed to
    Dykstra).  Returns (values, steps per restart).  With `stalls`, appends
    (lam, g) for each row's first step per round that the exact projection
    certified and that moved the row by at most STALL_TOL."""
    poly = _BlochPolytope(d)
    k = poly.c.shape[0]
    lam = np.zeros((cfg.n_restarts, k))
    for r in range(cfg.n_restarts):
        lam[r, 0] = poly.id_coeff
        lam[r] += 0.1 * np.random.default_rng([cfg.seed, r]).normal(size=k)
    lam, _ = poly.dykstra_rows(
        lam, optimize.DYKSTRA_CAP * optimize._INITIAL_PULL_FACTOR, optimize.DYKSTRA_TOL)
    feasible = poly.min_eig_rows(lam) >= optimize.PPT_ITERATE_TOL
    best_cc = np.where(feasible, np.abs(lam).sum(axis=1), -np.inf)
    best = lam.copy()
    signs = _refresh_signs(lam, np.ones_like(lam))
    active = np.ones(cfg.n_restarts, bool)
    steps = np.zeros(cfg.n_restarts, dtype=int)
    for _ in range(cfg.max_outer):
        seen = np.zeros(cfg.n_restarts, bool)
        inexact = np.zeros(cfg.n_restarts, dtype=int)
        for _ in range(cfg.max_iters):
            step = optimize.ASCENT_STEP0 / np.sqrt(1 + inexact)
            g = signs / np.linalg.norm(signs, axis=1, keepdims=True)
            new, _, handed = poly.project_step_rows(lam, g, step, active)
            inexact += handed
            stalled = active & ~handed & (np.abs(new - lam).max(axis=1) <= optimize.STALL_TOL)
            if stalls is not None:
                stalls.extend((lam[r], g[r]) for r in np.flatnonzero(stalled & ~seen))
            seen |= stalled
            cc = np.abs(new).sum(axis=1)
            better = active & (poly.min_eig_rows(new) >= optimize.PPT_ITERATE_TOL) & (cc > best_cc)
            best_cc = np.where(better, cc, best_cc)
            best = np.where(better[:, None], new, best)
            lam = np.where(active[:, None], new, lam)
        steps += np.where(active, cfg.max_iters, 0)
        new_signs = _refresh_signs(best, signs)
        active &= ~np.all(new_signs == signs, axis=1)
        if not active.any():
            break
        signs = np.where(active[:, None], new_signs, signs)
        lam = np.where(active[:, None], best, lam)
    assert np.isfinite(best_cc).all()
    return best_cc, steps


def test_stall_exit_keeps_the_values_of_full_rounds():
    for seed in range(10):
        cfg = AscentConfig(**_BENCH_CFG, seed=seed)
        rep = ccnr_ascent_bloch_ppt(4, cfg)
        ref, _ = _reference_ascent(4, cfg)
        assert np.max(np.abs(np.array(rep.restart_values) - ref)) < 1e-9
        assert abs(rep.best_value - ref.max()) < 1e-12
        assert rep.rounds_used == [1] * cfg.n_restarts
    # d = 8 hands some steps to Dykstra, which still creeps after a stall
    cfg = AscentConfig(n_restarts=1, max_iters=200, seed=0)
    ref, _ = _reference_ascent(8, cfg)
    assert abs(ccnr_ascent_bloch_ppt(8, cfg).restart_values[0] - ref[0]) < 1e-9


def test_stalled_iterate_is_fixed_by_every_smaller_step():
    """A certified step that returns its iterate puts g in the normal cone
    there; every step along g up to the long one must then return it too."""
    poly = _BlochPolytope(4)
    stalls = []
    for seed in range(10):
        _reference_ascent(4, AscentConfig(**_BENCH_CFG, seed=seed), stalls)
    assert len(stalls) == 80          # every row stalls within its round
    lam, g = (np.array(v) for v in zip(*stalls))
    for step in (optimize.ASCENT_LONG_STEP, 0.5, optimize.ASCENT_STEP0, 0.01):
        out, certified = poly.project_exact_rows(lam + step * g, lam)
        assert certified.all()
        assert np.max(np.abs(out - lam)) <= 1e-12


def test_stall_exit_skips_most_steps():
    # 20 steps; 77 when every certified step was 0.1 long, 243 when every
    # step shrank as 1/sqrt(step of the round)
    rep = ccnr_ascent_bloch_ppt(4, AscentConfig(**_BENCH_CFG, seed=11))
    assert sum(rep.iterations_used) < 50
    assert rep.to_dict()["rounds_used"] == rep.rounds_used


@pytest.mark.parametrize("d, seeds", [(4, range(20)), (8, range(2))])
def test_exactly_projected_steps_never_lose_objective(monkeypatch, d, seeds):
    """An exact projection of lam + t s onto a convex set gains s . lam for
    any step t, so no certified step, long or short, may lose more than
    rounding."""
    steps = []
    project = _BlochPolytope.project_step_rows

    def spy(self, prev, g, step, active):
        out, converged, handed = project(self, prev, g, step, active)
        steps.append((np.sign(g), prev, out, active & ~handed))
        return out, converged, handed

    monkeypatch.setattr(_BlochPolytope, "project_step_rows", spy)
    for seed in seeds:
        ccnr_ascent_bloch_ppt(d, AscentConfig(n_restarts=4, max_iters=200, seed=seed))
    exact = 0
    for s, prev, out, rows in steps:
        gain = np.sum(s[rows] * (out[rows] - prev[rows]), axis=1)
        assert gain.min(initial=0.0) >= -1e-12
        exact += rows.sum()
    assert exact > 100


def test_d16_rounds_unchanged_by_the_per_row_loop():
    # every d = 16 step goes to Dykstra, so the stall exit never fires
    cfg = AscentConfig(n_restarts=1, max_iters=40, max_outer=2)
    rep = ccnr_ascent_bloch_ppt(16, cfg)
    ref, steps = _reference_ascent(16, cfg)
    assert [v.hex() for v in rep.restart_values] == [float(v).hex() for v in ref]
    assert rep.iterations_used == steps.tolist() == [80]
