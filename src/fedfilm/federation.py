"""Round orchestration: broadcast, local updates, weighted averaging, and the
cumulative / continual dataset-evolution drivers.

Every round broadcasts an immutable snapshot of the global adapter, runs all
participating clients against it one after another (each sees only the
snapshot, so the result does not depend on their order) and folds the
updated rows back together with sample-count-weighted averaging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CellMetadata,
    DimensionError,
    EmbeddingMatrix,
    FedfilmError,
    FilmAdapter,
    ValidationError,
    apply_adapter,
    batch_row_indices,
    identity_adapter,
    items_at,
)
from .metrics import MetricsReport, evaluate
from .objective import ClientState, TrainConfig, client_local_update, make_client_state
from .synth import pca

AGGREGATION_MODES = ("full-table", "row-restricted")


class TrainingAbort(FedfilmError):
    """Training produced a non-finite loss or parameter."""


@dataclass(frozen=True)
class RoundRecord:
    """One training-log line: a client's losses for one completed round."""

    round_index: int
    batch_name: str
    train_loss: float
    holdout_loss: float


def aggregate(client_rows, mode: str, base: FilmAdapter) -> FilmAdapter:
    """Fold the clients' adapter rows into the next global adapter.

    ``client_rows`` is a list of ``(batch_name, gamma_row, beta_row, n_b)``:
    a client submits only its own batch's rows, of shape (d,), and that batch
    must be an unfrozen row of ``base``. Each submission stands for ``base``'s
    tables with the client's row written in.

    full-table mode takes the n_b-weighted mean of every entry across those
    tables. row-restricted mode takes each batch's row directly from its
    owning client. Every full-table entry is clamped to the [min, max]
    envelope of the tables, which makes identical submissions a bit-exact
    fixed point and keeps weighted means inside the convex hull under
    rounding; a row that no client submits, a frozen one among them, keeps
    its ``base`` value exactly in both modes.
    """
    if mode not in AGGREGATION_MODES:
        raise ValidationError(f"unknown aggregation mode {mode!r}")
    if not client_rows:
        raise ValidationError("aggregate needs at least one client")
    owners, blocks, weights = [], [], []
    for name, grow, brow, n_b in client_rows:
        grow = np.asarray(grow, dtype=np.float64)
        brow = np.asarray(brow, dtype=np.float64)
        if grow.shape != (base.d,) or brow.shape != grow.shape:
            raise DimensionError(
                f"client {name!r} submitted rows of shape {grow.shape} and "
                f"{brow.shape}, expected {(base.d,)}"
            )
        if n_b < 1:
            raise ValidationError(f"client {name!r} has weight {n_b} < 1")
        row = base.row_index(name)
        if base.frozen[row]:
            raise ValidationError(f"batch {name!r} is frozen")
        owners.append(row)
        blocks.append((grow, brow))
        weights.append(float(n_b))

    new = np.array([base.gamma, base.beta])  # (2, B, d)
    if mode == "full-table":
        # (clients, 2, B, d): base's tables with each client's row written in
        stack = np.repeat(new[None], len(owners), axis=0)
        for ci, row in enumerate(owners):
            stack[ci, :, row] = blocks[ci]
        w = np.array(weights)[:, None, None, None]
        new = np.clip(np.sum(w * stack, axis=0) / sum(weights),
                      stack.min(axis=0), stack.max(axis=0))
    else:
        for row, block in zip(owners, blocks):
            new[:, row] = block
    return FilmAdapter(base.batch_names, new[0], new[1], base.frozen)


def client_moments(cells) -> tuple:
    """What a client reports: its cell count, per-coordinate mean and variance."""
    return len(cells), cells.mean(axis=0), cells.var(axis=0)


def pooled_targets(reports, reference=None) -> dict:
    """Per-client reconstruction targets on the federation's pooled moments.

    ``reports`` maps each batch name to its client's ``client_moments``. The
    server pools them into the cell-weighted grand mean ``m`` and the pooled
    within-batch variance ``v`` and returns, per batch name, the affine map
    ``(scale, shift)`` that takes the batch's own moments onto ``(m, v)``.
    Given a non-empty ``reference`` (batch name -> ``client_moments``), the
    server pools only the reference's reports. A coordinate that is constant
    within a batch keeps scale 1.
    """
    pool = reference or reports
    total = sum(n for n, _, _ in pool.values())
    mean = sum(n * m for n, m, _ in pool.values()) / total
    var = sum(n * v for n, _, v in pool.values()) / total
    targets = {}
    for b, (_, m, v) in reports.items():
        ratio = np.divide(var, v, out=np.ones_like(v), where=v > 0)
        scale = np.sqrt(ratio)
        targets[b] = (scale, mean - scale * m)
    return targets


def run_federated_fit(emb: EmbeddingMatrix, meta: CellMetadata, cfg: TrainConfig,
                      init: FilmAdapter, mode: str = "full-table"):
    """Run the full round loop and return ``(final adapter, training log)``.

    Clients are the non-frozen batches of ``meta`` that have cells in
    ``emb``; all of them participate every round, and each submits to
    ``aggregate`` only its own batch's (gamma, beta) rows with its weight.
    Aggregation weights count all of a batch's cells in ``emb``, not only
    its training split. ``meta`` may cover more cells than ``emb``; its
    batches with no cell there are skipped: they get neither a client nor a
    place in the pooled reference. With ``cfg.target == "pooled"`` each
    client's target map comes from ``pooled_targets``. Its reference is the
    frozen batches in ``meta``, their cells corrected by their frozen rows;
    without frozen batches the participating batches pool among themselves.
    Deterministic given inputs and ``cfg.seed``.
    """
    if init.d != emb.d:
        raise DimensionError(
            f"adapter dimension {init.d} does not match embedding dimension {emb.d}"
        )
    blocks = {b: cells for b, cells in batch_row_indices(emb, meta).items() if len(cells)}
    # each such batch's adapter row: the first without one raises MissingBatchError
    rows = {b: init.row_index(b) for b in blocks}

    participating = [b for b, r in rows.items() if not init.frozen[r]]
    if not participating:
        raise ValidationError("no unfrozen batch to train on")

    clients: list[ClientState] = [
        make_client_state(b, rows[b], len(blocks[b]), emb.d, cfg) for b in participating
    ]
    if cfg.target == "pooled":
        # one batch's cells gathered at a time, each released once its moments are in
        reports = {b: client_moments(emb.values[blocks[b]]) for b in participating}
        # frozen batches at apply_adapter's expression: their corrected cells, bit for bit
        reference = {b: client_moments(init.gamma[r] * emb.values[blocks[b]] + init.beta[r])
                     for b, r in rows.items() if init.frozen[r]}
        targets = pooled_targets(reports, reference)
        for state in clients:
            state.target = targets[state.batch_name]

    adapter = init
    log: list[RoundRecord] = []
    for t in range(cfg.rounds):
        snapshot = adapter
        contributions = []
        for state in clients:
            # the client's cells are gathered on its turn, never held across clients
            gamma_row, beta_row, train_loss, holdout_loss = client_local_update(
                state, emb.values[blocks[state.batch_name]], snapshot, cfg, t)
            if not (np.isfinite(train_loss) and np.isfinite(gamma_row).all()
                    and np.isfinite(beta_row).all()):
                raise TrainingAbort(
                    f"non-finite loss or parameters at round {t}, "
                    f"client {state.batch_name!r}"
                )
            contributions.append((state.batch_name, gamma_row, beta_row,
                                  len(blocks[state.batch_name])))
            log.append(RoundRecord(t, state.batch_name, train_loss, holdout_loss))
        adapter = aggregate(contributions, mode, snapshot)
    return adapter, log


@dataclass(frozen=True)
class ScenarioPlan:
    """Arrival-order protocol for dataset evolution.

    ``stages`` lists disjoint groups of batch names in arrival order.
    ``pca_components`` is the baseline re-embedding dimensionality used by
    cumulative mode when the data source is a raw feature matrix.
    """

    mode: str
    stages: tuple[tuple[str, ...], ...]
    pca_components: int | None = None

    def __post_init__(self):
        if self.mode not in ("cumulative", "continual"):
            raise ValidationError(f"unknown scenario mode {self.mode!r}")
        stages = tuple(tuple(str(b) for b in group) for group in self.stages)
        if not stages or any(not group for group in stages):
            raise ValidationError("stages must be non-empty groups")
        flat = [b for group in stages for b in group]
        if len(set(flat)) != len(flat):
            raise ValidationError("stage groups must be disjoint")
        if self.pca_components is not None and self.pca_components < 1:
            raise ValidationError(f"pca_components must be >= 1, got {self.pca_components}")
        object.__setattr__(self, "stages", stages)


@dataclass
class StageResult:
    stage_index: int
    batch_names: tuple[str, ...]
    corrected: EmbeddingMatrix
    adapter: FilmAdapter
    report: MetricsReport
    baseline_report: MetricsReport
    log: list[RoundRecord]


def run_scenario(plan: ScenarioPlan, data: EmbeddingMatrix, meta: CellMetadata,
                 cfg: TrainConfig, mode: str = "full-table", knn_k: int = 15,
                 kmeans_restarts: int = 10, metrics_seed: int = 0) -> list[StageResult]:
    """Drive a cumulative or continual dataset-evolution protocol.

    cumulative: at every stage re-embed all data seen so far (PCA of ``data``
    treated as raw features when ``plan.pca_components`` is set, otherwise
    ``data`` is used as a fixed precomputed embedding), train a fresh adapter
    from identity over all batches seen, and evaluate corrected vs baseline.

    continual: stage one trains normally and freezes its batches; later stages
    add identity rows for the newly arrived batches, train only those clients
    with row-restricted aggregation (a pooled target aligns them to the frozen
    batches), then correct every cell seen so far; earlier batches' rows are
    frozen, so their corrected coordinates repeat bit-exactly.

    Stage metrics use the scenario-safe metric subset. ``meta`` is joined to
    ``data`` as ``io.load_embeddings`` joins them: every cell of ``data``
    needs metadata, and metadata for other cells is dropped.
    """
    if meta.cell_ids != data.cell_ids:  # else they are joined already, as on the CLI
        rows = meta.rows_for(data.cell_ids)  # raises for a cell of data without metadata
        if len(rows) < len(meta.cell_ids):
            meta = meta.restricted_to(items_at(meta.cell_ids, np.sort(rows)))
        del rows  # not held through the stages
    known = set(meta.batch_names)
    for group in plan.stages:
        for b in group:
            if b not in known:
                raise ValidationError(f"stage references unknown batch {b!r}")

    def score(emb, sub_meta):
        return evaluate(emb, sub_meta, subset="scenario", knn_k=knn_k,
                        seed=metrics_seed, kmeans_restarts=kmeans_restarts)

    results: list[StageResult] = []
    adapter: FilmAdapter | None = None
    seen: list[str] = []
    for si, group in enumerate(plan.stages):
        seen.extend(group)
        # the seen batches' cells, in metadata order
        wanted = [meta.batch_names.index(b) for b in seen]
        cells = items_at(meta.cell_ids, np.flatnonzero(np.isin(meta.batch_codes, wanted)))
        sub_meta = meta.restricted_to(cells)
        base_emb = data.subset(cells)
        if plan.mode == "cumulative" and plan.pca_components is not None:
            base_emb = pca(base_emb, plan.pca_components)
        if plan.mode == "cumulative" or adapter is None:
            init, fit_mode = identity_adapter(sub_meta.batch_names, base_emb.d), mode
        else:
            # Only the new clients train; row-restricted aggregation keeps
            # the frozen reference rows untouched by construction. The
            # frozen batches' cells are the pooled target's reference.
            new = [b for b in sub_meta.batch_names if b in group]
            init, fit_mode = adapter.with_new_batches(new), "row-restricted"
        adapter, log = run_federated_fit(base_emb, sub_meta, cfg, init, mode=fit_mode)
        # apply_adapter is row-local and frozen rows never change, so a
        # continual stage reproduces earlier stages' coordinates bit for bit
        corrected = apply_adapter(base_emb, sub_meta, adapter)
        if plan.mode == "continual":
            adapter = adapter.freeze(group)
        results.append(StageResult(si, tuple(seen), corrected, adapter,
                                   score(corrected, sub_meta), score(base_emb, sub_meta), log))
    return results
