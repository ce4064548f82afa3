"""Per-client local objective, analytic gradient and Adam-based local training.

For a client owning batch ``b`` with cells ``z_i`` the local objective is

    mean_i || gamma_b * z_i + beta_b - z_i ||^2
    + mu * (||gamma_b - gamma_b0||^2 + ||beta_b - beta_b0||^2)
    + l2  * (||gamma||_F^2 + ||beta||_F^2)

where ``(gamma_b0, beta_b0)`` is the global adapter state at the start of the
current round (the proximal anchor) and the last term runs over the full
tables of all batches. During local optimization only the client's own rows
move; every other row is held fixed, so its l2 contribution is a constant.

With ``TrainConfig(target="pooled")`` the reconstruction target is no longer
the client's own embedding but that embedding moved, coordinate by
coordinate, onto the federation's pooled moments:

    mean_i || gamma_b * z_i + beta_b - (s_b * z_i + t_b) ||^2 + (same terms)

where ``s_b = sqrt(v / v_b)`` and ``t_b = m - s_b * m_b`` map the batch's own
mean ``m_b`` and variance ``v_b`` onto the cell-weighted grand mean ``m`` and
the pooled within-batch variance ``v`` (location/scale alignment as in
ComBat, without its empirical-Bayes shrinkage). Only per-batch counts, means
and variances leave a client. The default target, ``"self"``, couples no
batches: its fixed point is nearly the identity and does not correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DimensionError, FilmAdapter, ValidationError, field_type_problem

# Stream tags keep the train/holdout split and the mini-batch shuffles on
# independent deterministic substreams of the run seed.
_SPLIT_STREAM = 101
_SHUFFLE_STREAM = 202

TARGETS = ("self", "pooled")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the federated fitting protocol.

    Defaults follow the reference protocol: Adam at 1e-3 for two local epochs
    per round, seven rounds, proximal and l2 coefficients 1e-3, mini-batches
    of 256 cells and a fixed 90 percent training split per client, each
    client reconstructing its own embedding (``target="self"``).
    """

    mu: float = 1e-3
    lam: float = 1e-3
    learning_rate: float = 1e-3
    local_epochs: int = 2
    rounds: int = 7
    minibatch_size: int = 256
    train_fraction: float = 0.9
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    reset_moments_per_round: bool = False
    target: str = "self"

    def __post_init__(self):
        problem = field_type_problem(self)
        if problem:
            raise ValidationError(problem)
        if self.mu < 0 or self.lam < 0:
            raise ValidationError("mu and lambda must be >= 0")
        if self.learning_rate < 0:
            raise ValidationError("learning_rate must be >= 0")
        if self.local_epochs < 1:
            raise ValidationError("local_epochs must be >= 1")
        if self.rounds < 1:
            raise ValidationError("rounds must be >= 1")
        if self.minibatch_size < 1:
            raise ValidationError("minibatch_size must be >= 1")
        if not 0.0 <= self.train_fraction <= 1.0:
            raise ValidationError("train_fraction must be in [0, 1]")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ValidationError("adam betas must be in [0, 1)")
        if self.adam_epsilon <= 0:
            raise ValidationError("adam_epsilon must be > 0")
        if self.target not in TARGETS:
            raise ValidationError(f"unknown target {self.target!r}; expected one of {TARGETS}")


class ClientEmptyError(ValidationError):
    """A client ended up with zero training cells after the split."""


@dataclass
class ClientState:
    """One batch's optimization unit.

    The training split is drawn once from (seed, batch index) and reused for
    every round; the Adam moments ``m`` and ``v`` of the parameter block
    ``[gamma_b; beta_b]`` are (2, d) arrays that persist across rounds unless
    the config says otherwise. ``target`` is the per-coordinate affine map
    ``(scale, shift)`` from the client's cells to its reconstruction target,
    or None for the cells themselves.
    """

    batch_name: str
    batch_index: int
    train_indices: np.ndarray
    holdout_indices: np.ndarray
    m: np.ndarray = field(repr=False, default=None)
    v: np.ndarray = field(repr=False, default=None)
    step: int = 0
    target: tuple[np.ndarray, np.ndarray] | None = field(repr=False, default=None)

    def reset_moments(self, d: int):
        self.m = np.zeros((2, d))
        self.v = np.zeros((2, d))
        self.step = 0


def make_client_state(batch_name: str, batch_index: int, n_cells: int, d: int,
                      cfg: TrainConfig) -> ClientState:
    """Draw the fixed train/holdout split and zero the Adam moments."""
    if n_cells < 1:
        raise ClientEmptyError(f"client {batch_name!r} has no cells")
    rng = np.random.default_rng([cfg.seed, _SPLIT_STREAM, batch_index])
    perm = rng.permutation(n_cells)
    n_train = int(round(cfg.train_fraction * n_cells))
    if n_train == 0:
        raise ClientEmptyError(
            f"client {batch_name!r} has zero training cells after the "
            f"{cfg.train_fraction:.0%} split"
        )
    state = ClientState(
        batch_name=batch_name,
        batch_index=batch_index,
        train_indices=np.sort(perm[:n_train]),
        holdout_indices=np.sort(perm[n_train:]),
    )
    state.reset_moments(d)
    return state


def _check_vectors(cells, *vectors):
    cells = np.asarray(cells, dtype=np.float64)
    if cells.ndim != 2 or cells.shape[0] == 0:
        raise ValidationError("client cells must be a non-empty 2-D matrix")
    d = cells.shape[1]
    for v in vectors:
        if np.asarray(v).shape != (d,):
            raise DimensionError(f"parameter vector shape {np.asarray(v).shape} != ({d},)")
    return cells


def _residual(cells, gamma_b, beta_b, target):
    if target is None:
        return gamma_b * cells + beta_b - cells
    scale, shift = target
    return gamma_b * cells + beta_b - (scale * cells + shift)


def local_loss(cells, gamma_b, beta_b, anchor_gamma_b, anchor_beta_b,
               full_gamma, full_beta, cfg: TrainConfig, target=None) -> float:
    """Local objective value for one client.

    ``full_gamma``/``full_beta`` are the complete tables with the client's own
    row at its current ``(gamma_b, beta_b)`` value; only their Frobenius norms
    enter (the l2 term runs over all batches). ``target`` is the client's
    ``(scale, shift)`` target map; None reconstructs the cells themselves.
    """
    cells = _check_vectors(cells, gamma_b, beta_b, anchor_gamma_b, anchor_beta_b)
    full_gamma = np.asarray(full_gamma, dtype=np.float64)
    full_beta = np.asarray(full_beta, dtype=np.float64)
    if full_gamma.ndim != 2 or full_gamma.shape[1] != cells.shape[1]:
        raise DimensionError("full tables do not match the cell dimension")
    residual = _residual(cells, gamma_b, beta_b, target)
    recon = float(np.mean(np.sum(residual * residual, axis=1)))
    prox = cfg.mu * (
        float(np.sum((gamma_b - anchor_gamma_b) ** 2))
        + float(np.sum((beta_b - anchor_beta_b) ** 2))
    )
    l2 = cfg.lam * (float(np.sum(full_gamma**2)) + float(np.sum(full_beta**2)))
    return recon + prox + l2


def local_gradient(cells, gamma_b, beta_b, anchor_gamma_b, anchor_beta_b,
                   cfg: TrainConfig, target=None) -> np.ndarray:
    """Analytic gradient of the local objective w.r.t. the client's own rows,
    as the (2, d) block ``[d_gamma; d_beta]``.

    Other batches' rows are held fixed during local optimization, so their
    l2 contribution is constant and only ``2*lam*gamma_b`` / ``2*lam*beta_b``
    survive; gradients for those rows are not returned. ``target`` is as in
    ``local_loss``.
    """
    cells = _check_vectors(cells, gamma_b, beta_b, anchor_gamma_b, anchor_beta_b)
    m = cells.shape[0]
    residual = _residual(cells, gamma_b, beta_b, target)
    theta = np.array([gamma_b, beta_b])
    anchor = np.array([anchor_gamma_b, anchor_beta_b])
    recon = np.array([np.sum(cells * residual, axis=0), np.sum(residual, axis=0)])
    return (2.0 / m) * recon + 2.0 * cfg.mu * (theta - anchor) + 2.0 * cfg.lam * theta


def _adam_step(state: ClientState, theta, grad, cfg: TrainConfig):
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    state.m = b1 * state.m + (1 - b1) * grad
    state.v = b2 * state.v + (1 - b2) * grad * grad
    m_hat = state.m / (1 - b1**t)
    v_hat = state.v / (1 - b2**t)
    return theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_epsilon)


def client_local_update(state: ClientState, client_cells, snapshot: FilmAdapter,
                        cfg: TrainConfig, round_index: int):
    """Run one round of local epochs for a single client.

    ``snapshot`` is the immutable round-start global adapter; its rows for
    this client are both the starting point and the proximal anchor for the
    whole round. The client's rows move as one (2, d) block
    ``theta = [gamma_b; beta_b]``. Returns ``(gamma_row, beta_row,
    train_loss, holdout_loss)`` where the losses are evaluated after the last
    epoch (holdout loss is NaN when the split leaves no holdout cells).
    """
    cells = np.asarray(client_cells, dtype=np.float64)
    if cells.ndim != 2:
        raise ValidationError("client cells must be a 2-D matrix")
    row = snapshot.row_index(state.batch_name)
    full = np.array([snapshot.gamma, snapshot.beta])
    anchor = full[:, row].copy()
    if cells.shape[1] != snapshot.d:
        raise DimensionError("client cells do not match the adapter dimension")
    if len(state.train_indices) == 0:
        raise ClientEmptyError(f"client {state.batch_name!r} has zero training cells")
    if cfg.reset_moments_per_round:
        state.reset_moments(snapshot.d)

    train = cells[state.train_indices]
    theta = anchor
    for epoch in range(cfg.local_epochs):
        rng = np.random.default_rng(
            [cfg.seed, _SHUFFLE_STREAM, round_index, epoch, state.batch_index]
        )
        order = rng.permutation(len(train))
        for start in range(0, len(train), cfg.minibatch_size):
            zb = train[order[start:start + cfg.minibatch_size]]
            grad = local_gradient(zb, *theta, *anchor, cfg, state.target)
            theta = _adam_step(state, theta, grad, cfg)

    # Frobenius norms of the full tables with this client's row at its final
    # value; other rows sit at the round-start snapshot.
    full[:, row] = theta
    gamma, beta = theta
    train_loss = local_loss(train, gamma, beta, *anchor, *full, cfg, state.target)
    holdout_loss = float("nan")
    if len(state.holdout_indices):
        holdout_loss = local_loss(cells[state.holdout_indices], gamma, beta, *anchor,
                                  *full, cfg, state.target)
    return gamma, beta, train_loss, holdout_loss
