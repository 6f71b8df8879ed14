import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from bewitness import pauli, protocol, states
from bewitness.optimize import optimal_measurement


@pytest.fixture(scope="module")
def rho():
    return states.rho_be()


@pytest.fixture(scope="module")
def task(rho):
    return protocol.matched_task(rho)


@pytest.fixture(scope="module")
def strat(rho):
    return protocol.be_strategy(rho)


@pytest.fixture(scope="module")
def brute_value(strat, task):
    return protocol.witness_brute_force(strat, task).value


@pytest.fixture(scope="module")
def e1_table(rho):
    return protocol.single_copy_expectation_table(rho)


def test_taskspec_validation():
    signs = protocol.default_signs()
    with pytest.raises(ValueError):
        protocol.TaskSpec(n_copies=0, channel_dim=4, signs=signs)
    with pytest.raises(ValueError):
        protocol.TaskSpec(n_copies=1, channel_dim=17, signs=signs)
    bad = signs.copy()
    bad[3] = 0
    with pytest.raises(ValueError, match="\\+-1"):
        protocol.TaskSpec(n_copies=1, channel_dim=4, signs=bad)


def test_flat_signs_kron_structure():
    signs = protocol.default_signs()
    t2 = protocol.TaskSpec(n_copies=2, channel_dim=16, signs=signs)
    assert np.array_equal(t2.flat_signs(), np.kron(signs, signs))


def test_matched_task_follows_state_signs(rho, task):
    assert np.array_equal(task.signs, rho.sign_pattern())
    assert task.channel_dim == 4


def test_witness_brute_force_value(brute_value, rho, task):
    closed = protocol.witness_closed_form(rho, task).value
    assert abs(brute_value - 0.375) < 1e-10
    assert abs(brute_value - closed) < 1e-10


def test_factored_full_enumeration_matches_closed_form(rho, task, e1_table):
    """Mean of w * product-correlator over all 4096 triples."""
    triples = np.array(
        [
            [[x], [y], [z]]
            for x in range(1, 17)
            for y in range(1, 17)
            for z in range(1, 17)
        ]
    )
    ev = protocol.witness_factored(rho, task, triples)
    w = np.array(
        [pauli.w_value(t[0], t[1], t[2], task.signs) for t in triples],
        dtype=float,
    )
    value = float(np.mean(w * ev))
    closed = protocol.witness_closed_form(rho, task).value
    assert abs(value - closed) < 1e-10


def _random_prepared_strategy(rng, dim, signs):
    taus = []
    for _ in range(32):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = g @ g.conj().T
        taus.append(m / np.trace(m).real)
    dec_a, dec_b = optimal_measurement(taus[:16], taus[16:], signs)
    return protocol.Strategy(
        kind="prepared_states",
        n_copies=1,
        channel_dim=dim,
        decoders_a=dec_a,
        decoders_b=dec_b,
        states_a=taus[:16],
        states_b=taus[16:],
    )


def test_expectation_matches_table_and_brute_route(rho, strat, task, e1_table):
    """The one-copy table against the literal per-triple kron route, over
    all 4096 triples, for the entangled protocol and a random D=7
    prepared strategy."""
    prepared = _random_prepared_strategy(np.random.default_rng(2), 7, task.signs)
    grid = [(x, y, z) for x in range(1, 17) for y in range(1, 17) for z in range(1, 17)]
    w = np.array([pauli.w_value([x], [y], [z], task.signs) for x, y, z in grid], dtype=float)
    for st, table in ((strat, e1_table), (prepared, protocol._expectation_table(prepared))):
        literal = np.array([protocol.expectation(st, x, y, z) for x, y, z in grid])
        assert np.max(np.abs(literal)) <= 1 + 1e-9
        assert np.max(np.abs(literal - table.reshape(-1))) < 1e-14
        brute = protocol.witness_brute_force(st, task).value
        assert abs(brute - float(np.mean(w * literal))) < 1e-14


def test_expectations_dense_matches_literal_route(rho, task):
    """The batched oracle against per-triple ``expectation``: 64 two-copy
    triples of the entangled protocol, and all 4096 one-copy triples of
    a random D=7 prepared strategy, which span 16 blocks."""
    strat2 = protocol.be_strategy(states.tensor_power(rho, 2))
    triples = protocol.sample_triples(2, 64, seed=11)
    prepared = _random_prepared_strategy(np.random.default_rng(5), 7, task.signs)
    grid = np.array([[[x], [y], [z]] for x in range(1, 17)
                     for y in range(1, 17) for z in range(1, 17)])
    for st, tr in ((strat2, triples), (prepared, grid)):
        batched = protocol.expectations_dense(st, tr)
        literal = np.array([protocol.expectation(st, *t) for t in tr])
        assert batched.shape == (len(tr),)
        assert np.max(np.abs(batched - literal)) < 1e-14


def test_factored_table_matches_dense_table():
    """The closed form 4 lambda_z f(x, z) f(y, z) against the dense
    one-copy table of the entangled protocol, on random states."""
    rng = np.random.default_rng(23)
    for _ in range(5):
        lam = rng.normal(size=16) * 0.05
        lam[0] = 0.25
        st = states.BlochDiagonalState(n_copies=1, lambdas=lam)
        dense = protocol._expectation_table(protocol.be_strategy(st))
        assert np.max(np.abs(protocol.single_copy_expectation_table(st) - dense)) < 1e-14
        task = protocol.matched_task(st)
        triples = protocol.sample_triples(1, 200, seed=7)
        x, y, z = (triples[:, i, 0] - 1 for i in range(3))
        factored = protocol.witness_factored(st, task, triples)
        assert np.max(np.abs(factored - dense[x, y, z])) < 1e-14


def test_entangled_strategy_validates_its_shared_state(rho, strat):
    with pytest.raises(ValueError, match="needs shared state"):
        dataclasses.replace(strat, shared_state=None)
    with pytest.raises(ValueError, match="shared state has 2 copies, strategy has 1"):
        dataclasses.replace(strat, shared_state=states.tensor_power(rho, 2))


def test_task_weights_match_w_value(rho):
    for n in (1, 2, 3):
        task = protocol.TaskSpec(n_copies=n, channel_dim=4, signs=rho.sign_pattern())
        triples = protocol.sample_triples(n, 500, seed=n)
        loop = [pauli.w_value(t[0], t[1], t[2], task.signs) for t in triples]
        assert np.array_equal(task.weights(triples), loop)


@pytest.mark.parametrize("bad,match", [
    ([[[0, 1], [1, 1], [1, 1]]], "index 0 out of range"),
    ([[[1, 1], [17, 1], [1, 1]]], "index 17 out of range"),
    ([[[1], [1], [1]]], "shape"),
    (np.zeros((0, 3, 2), dtype=int), "count >= 1"),
    ([[[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]], "integers"),
])
def test_sample_indices_validated_on_every_entry_point(rho, bad, match):
    """Index 0 used to wrap to 16, a copy-count mismatch went through and
    an empty sample gave a NaN mean."""
    pair = states.tensor_power(rho, 2)
    task2, strat2 = protocol.matched_task(pair), protocol.be_strategy(pair)
    calls = (
        lambda: protocol.expectations_dense(strat2, bad),
        lambda: protocol.witness_factored(rho, task2, bad),
        lambda: task2.weights(bad),
        lambda: protocol.witness_brute_force(strat2, task2, samples=bad),
    )
    for call in calls:
        with pytest.raises(ValueError, match=match):
            call()


def test_two_copy_sampled_brute_matches_factored(rho):
    pair = states.tensor_power(rho, 2)
    task2 = protocol.matched_task(pair)
    strat2 = protocol.be_strategy(pair)
    triples = protocol.sample_triples(2, 300, seed=4)
    brute = protocol.witness_brute_force(strat2, task2, samples=triples).value
    ev = protocol.witness_factored(rho, task2, triples)
    w = np.array(
        [pauli.w_value(t[0], t[1], t[2], task2.signs) for t in triples],
        dtype=float,
    )
    assert abs(brute - float(np.mean(w * ev))) < 1e-10


def test_closed_form_two_copies(rho):
    pair = states.tensor_power(rho, 2)
    task2 = protocol.matched_task(pair)
    value = protocol.witness_closed_form(pair, task2).value
    assert abs(value - 0.375**2) < 1e-12


def test_closed_form_tensor_power_shortcut(rho):
    task3 = protocol.TaskSpec(n_copies=3, channel_dim=64, signs=rho.sign_pattern())
    value = protocol.witness_closed_form(rho, task3).value
    assert abs(value - 0.375**3) < 1e-12


def test_closed_form_three_copy_state(rho):
    """Three-copy value, and a sign mismatch outside the first-copy
    slice is caught."""
    trip = states.tensor_power(rho, 3)
    task3 = protocol.matched_task(trip)
    assert abs(protocol.witness_closed_form(trip, task3).value - 0.375**3) < 1e-15
    lam = trip.lambdas.copy()
    lam[96] = -lam[96]      # second copy at digit 7, first and third identity
    bent = states.BlochDiagonalState(n_copies=3, lambdas=lam)
    with pytest.raises(ValueError, match="flat index 97"):
        protocol.witness_closed_form(bent, protocol.matched_task(bent))


def test_first_copy_marginal_of_power(rho):
    for n in (1, 2, 3):
        marginal = states.first_copy_marginal(states.tensor_power(rho, n))
        assert marginal.n_copies == 1 and marginal.lambdas[0] == 0.25
        assert np.max(np.abs(marginal.lambdas - rho.lambdas)) < 1e-15


def test_closed_form_sign_mismatch_reports_index(rho):
    signs = rho.sign_pattern()
    signs[6] = -signs[6]    # flat index 7, first negative coefficient
    task = protocol.TaskSpec(n_copies=1, channel_dim=4, signs=signs)
    with pytest.raises(ValueError, match="flat index 7"):
        protocol.witness_closed_form(rho, task)


def test_witness_visibility_affine(rho, task):
    w_be = protocol.witness_closed_form(rho, task).value
    mm = states.mix_with_white_noise(rho, 0.0)
    w_mm = protocol.witness_closed_form(mm, task).value
    assert abs(w_mm - 1 / 16) < 1e-15
    for v in (0.25, 0.5, 0.6, 0.75):
        mixed = states.mix_with_white_noise(rho, v)
        got = protocol.witness_closed_form(mixed, task).value
        assert abs(got - (v * w_be + (1 - v) * w_mm)) < 1e-12
    at_crit = states.mix_with_white_noise(rho, 0.6)
    assert abs(protocol.witness_closed_form(at_crit, task).value - 0.25) < 1e-12


def test_two_copy_workers_bit_identical(rho):
    pair = states.tensor_power(rho, 2)
    strat2 = protocol.be_strategy(pair)
    triples = protocol.sample_triples(2, 50, seed=1)
    a = protocol.expectations_dense(strat2, triples, workers=1)
    b = protocol.expectations_dense(strat2, triples, workers=4)
    assert np.array_equal(a, b)


def test_brute_force_argument_contract(rho, strat, task):
    with pytest.raises(ValueError, match="drop samples"):
        protocol.witness_brute_force(strat, task, samples=np.zeros((1, 3, 1), dtype=int))
    pair = states.tensor_power(rho, 2)
    strat2 = protocol.be_strategy(pair)
    task2 = protocol.matched_task(pair)
    with pytest.raises(ValueError, match="sampling plan"):
        protocol.witness_brute_force(strat2, task2)
    with pytest.raises(ValueError, match="copy counts"):
        protocol.witness_brute_force(strat, task2)


def test_sample_triples_deterministic():
    a = protocol.sample_triples(2, 20, seed=9)
    b = protocol.sample_triples(2, 20, seed=9)
    assert a.shape == (20, 3, 2)
    assert np.array_equal(a, b)
    assert a.min() >= 1 and a.max() <= 16


def test_sep_upper_bound_exact():
    assert protocol.sep_upper_bound(4, 1) == Fraction(1, 4)
    assert protocol.sep_upper_bound(16, 2) == Fraction(1, 16)
    assert protocol.sep_upper_bound(6, 1) == Fraction(3, 8)
    with pytest.raises(ValueError):
        protocol.sep_upper_bound(0, 1)


def test_critical_visibility_exact_and_numeric():
    assert protocol.critical_visibility(1) == Fraction(3, 5)
    assert protocol.critical_visibility(2) == Fraction(3, 7)
    assert protocol.critical_visibility(3) == Fraction(63, 215)
    assert abs(protocol.critical_visibility_numeric(3) - 63 / 215) < 1e-10


def test_classical_optimal_strategy_saturates():
    strat = protocol.classical_optimal_strategy_d4()
    assert strat.kind == "prepared_states"
    task = protocol.TaskSpec(n_copies=1, channel_dim=4, signs=protocol.default_signs())
    value = protocol.witness_brute_force(strat, task).value
    assert abs(value - 0.25) < 1e-12


def test_prepared_strategies_single_copy_only():
    strat = protocol.classical_optimal_strategy_d4()
    with pytest.raises(ValueError, match="single copy"):
        protocol.Strategy(
            kind="prepared_states",
            n_copies=2,
            channel_dim=4,
            decoders_a=strat.decoders_a,
            decoders_b=strat.decoders_b,
            states_a=strat.states_a,
            states_b=strat.states_b,
        )


def test_random_product_strategies_respect_bound():
    """Quick 50-sample version of the separable-bound property."""
    rng = np.random.default_rng(13)
    task = protocol.TaskSpec(n_copies=1, channel_dim=4, signs=protocol.default_signs())
    for _ in range(50):
        sa, sb = [], []
        for _ in range(16):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            sa.append(np.outer(v, v.conj()))
            u = rng.normal(size=4) + 1j * rng.normal(size=4)
            u /= np.linalg.norm(u)
            sb.append(np.outer(u, u.conj()))
        dec_a, dec_b = optimal_measurement(sa, sb, task.signs)
        st = protocol.Strategy(
            kind="prepared_states",
            n_copies=1,
            channel_dim=4,
            decoders_a=dec_a,
            decoders_b=dec_b,
            states_a=sa,
            states_b=sb,
        )
        assert protocol.witness_brute_force(st, task).value <= 0.25 + 1e-9
