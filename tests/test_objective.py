import numpy as np
import pytest

from fedfilm import TrainConfig, client_local_update, local_gradient, local_loss, make_client_state
from fedfilm.core import ValidationError, identity_adapter, FilmAdapter
from fedfilm.objective import ClientEmptyError

from reference import closed_form_minimizer, fd_gradient


def cfg_with(**kw):
    return TrainConfig(**kw)


def test_loss_identity_case():
    # identity parameters, B = 1, d = 1: only the l2 term survives
    cfg = cfg_with(mu=0.37, lam=1e-3)
    loss = local_loss(
        np.array([[4.0], [-2.0]]), np.ones(1), np.zeros(1), np.ones(1), np.zeros(1),
        np.ones((1, 1)), np.zeros((1, 1)), cfg,
    )
    assert loss == pytest.approx(1e-3, abs=1e-15)


def test_loss_zero_when_unregularized_identity():
    cfg = cfg_with(mu=0.0, lam=0.0)
    cells = np.random.default_rng(0).standard_normal((7, 3))
    loss = local_loss(cells, np.ones(3), np.zeros(3), np.ones(3), np.zeros(3),
                      np.ones((2, 3)), np.zeros((2, 3)), cfg)
    assert loss == 0.0


def test_loss_and_gradient_hand_instance():
    # one cell z = 2, gamma = 2, beta = 1, mu = 0.5, lam = 0:
    # reconstruction (2*2+1-2)^2 = 9, proximal 0.5*((2-1)^2 + 1) = 1
    cfg = cfg_with(mu=0.5, lam=0.0)
    cells = np.array([[2.0]])
    g, b = np.array([2.0]), np.array([1.0])
    anchor_g, anchor_b = np.ones(1), np.zeros(1)
    full_g, full_b = g[None, :], b[None, :]
    assert local_loss(cells, g, b, anchor_g, anchor_b, full_g, full_b, cfg) == pytest.approx(10.0)
    dg, db = local_gradient(cells, g, b, anchor_g, anchor_b, cfg)
    assert dg[0] == pytest.approx(13.0)
    assert db[0] == pytest.approx(7.0)


def test_gradient_zero_at_identity_stationary_point():
    cfg = cfg_with(mu=0.8, lam=0.0)
    cells = np.random.default_rng(1).standard_normal((9, 4))
    dg, db = local_gradient(cells, np.ones(4), np.zeros(4), np.ones(4), np.zeros(4), cfg)
    assert np.all(dg == 0.0)
    assert np.all(db == 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for trial in range(25):
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, 33))
        mu = float(rng.choice([0.0, 1e-3, 0.5]))
        lam = float(rng.choice([0.0, 1e-3, 0.5]))
        cfg = cfg_with(mu=mu, lam=lam)
        cells = rng.standard_normal((m, d)) * rng.uniform(0.5, 2.0)
        g = rng.uniform(0.3, 1.8, d)
        b = rng.standard_normal(d)
        ag = rng.uniform(0.3, 1.8, d)
        ab = rng.standard_normal(d)
        other_g = rng.uniform(0.3, 1.8, (2, d))
        other_b = rng.standard_normal((2, d))

        def loss_flat(theta):
            gg, bb = theta[:d], theta[d:]
            full_g = np.vstack([gg, other_g])
            full_b = np.vstack([bb, other_b])
            return local_loss(cells, gg, bb, ag, ab, full_g, full_b, cfg)

        theta = np.concatenate([g, b])
        dg, db = local_gradient(cells, g, b, ag, ab, cfg)
        analytic = np.concatenate([dg, db])
        numeric = fd_gradient(loss_flat, theta, h=1e-5)
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


def test_gradient_with_target_matches_finite_differences():
    rng = np.random.default_rng(43)
    for trial in range(25):
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, 33))
        cfg = cfg_with(mu=float(rng.choice([0.0, 0.5])), lam=float(rng.choice([0.0, 0.5])))
        cells = rng.standard_normal((m, d)) * rng.uniform(0.5, 2.0)
        target = (rng.uniform(0.3, 1.8, d), rng.standard_normal(d))
        g, b = rng.uniform(0.3, 1.8, d), rng.standard_normal(d)
        ag, ab = rng.uniform(0.3, 1.8, d), rng.standard_normal(d)

        def loss_flat(theta):
            gg, bb = theta[:d], theta[d:]
            return local_loss(cells, gg, bb, ag, ab, gg[None, :], bb[None, :], cfg, target)

        analytic = np.concatenate(local_gradient(cells, g, b, ag, ab, cfg, target))
        numeric = fd_gradient(loss_flat, np.concatenate([g, b]), h=1e-5)
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


def test_identity_target_map_matches_default_target():
    rng = np.random.default_rng(44)
    cfg = cfg_with(mu=0.3, lam=0.1)
    cells = rng.standard_normal((11, 3))
    args = (cells, rng.uniform(0.5, 1.5, 3), rng.standard_normal(3), np.ones(3), np.zeros(3))
    identity = (np.ones(3), np.zeros(3))
    for a, b in zip(local_gradient(*args, cfg), local_gradient(*args, cfg, identity)):
        assert np.array_equal(a, b)


def test_update_learning_rate_zero_is_noop():
    cfg = cfg_with(learning_rate=0.0, local_epochs=3, minibatch_size=4)
    cells = np.random.default_rng(2).standard_normal((10, 3)) + 1.0
    state = make_client_state("b", 0, 10, 3, cfg)
    snapshot = FilmAdapter(("b",), np.full((1, 3), 1.3), np.full((1, 3), -0.2))
    g, b, *_ = client_local_update(state, cells, snapshot, cfg, round_index=0)
    assert np.array_equal(g, snapshot.gamma[0])
    assert np.array_equal(b, snapshot.beta[0])


def test_update_proximal_dominance():
    # huge mu pins the iterate to the round-start anchor once Adam settles
    cfg = cfg_with(mu=1e9, lam=1e-3, local_epochs=300, minibatch_size=1000,
                   train_fraction=1.0, seed=3)
    cells = np.random.default_rng(3).standard_normal((24, 2)) * 2.0 + 0.7
    state = make_client_state("b", 0, 24, 2, cfg)
    snapshot = FilmAdapter(("b",), np.full((1, 2), 1.1), np.full((1, 2), 0.4))
    g, b, *_ = client_local_update(state, cells, snapshot, cfg, round_index=0)
    assert np.max(np.abs(g - snapshot.gamma[0])) < 1e-6
    assert np.max(np.abs(b - snapshot.beta[0])) < 1e-6


def test_update_converges_to_closed_form_minimizer():
    cfg = cfg_with(mu=0.5, lam=0.1, learning_rate=1e-2, local_epochs=500,
                   minibatch_size=1000, train_fraction=1.0, seed=4)
    rng = np.random.default_rng(4)
    cells = (0.8 * rng.standard_normal((24, 1)) + 0.9)
    state = make_client_state("b", 0, 24, 1, cfg)
    snapshot = FilmAdapter(("b",), np.array([[0.5]]), np.array([[0.3]]))
    g, b, *_ = client_local_update(state, cells, snapshot, cfg, round_index=0)
    gs, bs = closed_form_minimizer(cells[:, 0], 0.5, 0.3, cfg.mu, cfg.lam)
    assert abs(g[0] - gs) < 1e-3
    assert abs(b[0] - bs) < 1e-3


def test_update_with_target_converges_to_closed_form_minimizer():
    cfg = cfg_with(mu=0.5, lam=0.1, learning_rate=1e-2, local_epochs=800,
                   minibatch_size=1000, train_fraction=1.0, seed=4)
    rng = np.random.default_rng(5)
    cells = 0.8 * rng.standard_normal((24, 2)) + 0.9
    state = make_client_state("b", 0, 24, 2, cfg)
    state.target = (np.array([1.4, 0.6]), np.array([-0.7, 0.5]))
    snapshot = FilmAdapter(("b",), np.array([[0.5, 1.0]]), np.array([[0.3, 0.0]]))
    g, b, *_ = client_local_update(state, cells, snapshot, cfg, round_index=0)
    for j in range(2):
        gs, bs = closed_form_minimizer(cells[:, j], snapshot.gamma[0, j], snapshot.beta[0, j],
                                       cfg.mu, cfg.lam, *(t[j] for t in state.target))
        assert abs(g[j] - gs) < 1e-3
        assert abs(b[j] - bs) < 1e-3


def test_proximal_drift_monotone_in_mu():
    # distance of the exact minimizer to the anchor never grows with mu
    rng = np.random.default_rng(9)
    for trial in range(10):
        z = rng.standard_normal(16) * rng.uniform(0.5, 2.0) + rng.standard_normal()
        ag, ab = float(rng.uniform(0.2, 1.5)), float(rng.standard_normal())
        lam = float(rng.choice([0.0, 1e-3]))
        dists = []
        for mu in [0.0, 1e-3, 1e-1, 10.0]:
            g, b = closed_form_minimizer(z, ag, ab, mu, lam)
            dists.append(np.hypot(g - ag, b - ab))
        assert all(dists[i + 1] <= dists[i] + 1e-12 for i in range(len(dists) - 1))


def test_loss_nonnegative_and_finite():
    rng = np.random.default_rng(8)
    for trial in range(50):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(1, 20))
        cfg = cfg_with(mu=float(rng.uniform(0, 2)), lam=float(rng.uniform(0, 2)))
        cells = rng.standard_normal((m, d)) * 3
        g = rng.standard_normal(d)
        b = rng.standard_normal(d)
        full_g = np.vstack([g, rng.standard_normal((1, d))])
        full_b = np.vstack([b, rng.standard_normal((1, d))])
        loss = local_loss(cells, g, b, rng.standard_normal(d), rng.standard_normal(d),
                          full_g, full_b, cfg)
        assert loss >= 0.0 and np.isfinite(loss)


def test_minibatch_shuffle_is_deterministic():
    cfg = cfg_with(local_epochs=2, minibatch_size=8, seed=7)
    cells = np.random.default_rng(5).standard_normal((40, 3)) + 0.5
    snapshot = identity_adapter(["b"], 3)
    results = []
    for _ in range(2):
        state = make_client_state("b", 0, 40, 3, cfg)
        g, b, tr, va = client_local_update(state, cells, snapshot, cfg, round_index=2)
        results.append((g.copy(), b.copy(), tr, va))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])
    assert results[0][2] == results[1][2]


def test_moments_persist_across_rounds_unless_reset():
    cells = np.random.default_rng(6).standard_normal((30, 2)) + 1.0
    snapshot = identity_adapter(["b"], 2)

    cfg = cfg_with(local_epochs=1, seed=1)
    state = make_client_state("b", 0, 30, 2, cfg)
    client_local_update(state, cells, snapshot, cfg, round_index=0)
    steps_after_first = state.step
    client_local_update(state, cells, snapshot, cfg, round_index=1)
    assert state.step == 2 * steps_after_first

    cfg_reset = cfg_with(local_epochs=1, seed=1, reset_moments_per_round=True)
    state = make_client_state("b", 0, 30, 2, cfg_reset)
    client_local_update(state, cells, snapshot, cfg_reset, round_index=0)
    client_local_update(state, cells, snapshot, cfg_reset, round_index=1)
    assert state.step == steps_after_first


def test_split_is_fixed_and_client_empty_errors():
    cfg = cfg_with(seed=12)
    s1 = make_client_state("b", 3, 50, 4, cfg)
    s2 = make_client_state("b", 3, 50, 4, cfg)
    assert np.array_equal(s1.train_indices, s2.train_indices)
    assert len(s1.train_indices) == 45  # 90 percent of 50
    assert len(s1.holdout_indices) == 5
    with pytest.raises(ClientEmptyError):
        make_client_state("b", 0, 10, 2, cfg_with(train_fraction=0.0))


def test_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(rounds=0)
    with pytest.raises(ValidationError):
        TrainConfig(mu=-1.0)
    with pytest.raises(ValidationError):
        TrainConfig(train_fraction=1.5)
    with pytest.raises(ValidationError):
        TrainConfig(minibatch_size=0)
    defaults = TrainConfig()
    assert defaults.learning_rate == 1e-3
    assert defaults.local_epochs == 2
    assert defaults.rounds == 7
    assert defaults.mu == 1e-3
    assert defaults.lam == 1e-3
    assert defaults.minibatch_size == 256
    assert defaults.train_fraction == 0.9
    assert (defaults.adam_beta1, defaults.adam_beta2, defaults.adam_epsilon) == (0.9, 0.999, 1e-8)


def test_config_rejects_unknown_target():
    assert TrainConfig().target == "self"
    assert TrainConfig(target="pooled").target == "pooled"
    with pytest.raises(ValidationError, match="unknown target"):
        TrainConfig(target="global")


@pytest.mark.parametrize("field, value, kind", [
    ("rounds", 2.5, "an integer"),
    ("seed", 1.5, "an integer"),
    ("minibatch_size", True, "an integer"),
    ("learning_rate", "0.1", "a number"),
    ("mu", False, "a number"),
    ("reset_moments_per_round", 1, "true or false"),
    ("target", None, "a string"),
])
def test_config_values_of_the_wrong_type_name_their_field(field, value, kind):
    with pytest.raises(ValidationError, match=f"^{field} must be {kind}, got {value!r}$"):
        TrainConfig(**{field: value})


def test_config_number_fields_take_integers():
    cfg = TrainConfig(learning_rate=1, train_fraction=1, mu=0)
    assert (cfg.learning_rate, cfg.train_fraction, cfg.mu) == (1, 1, 0)
