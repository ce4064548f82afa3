import tracemalloc

import numpy as np
import pytest

from fedfilm import (
    CellMetadata,
    EmbeddingMatrix,
    ScenarioPlan,
    SynthSpec,
    TrainConfig,
    aggregate,
    generate,
    identity_adapter,
    run_federated_fit,
    run_scenario,
)
from fedfilm.core import DimensionError, MissingBatchError, ValidationError, batch_row_indices, FilmAdapter
from fedfilm.federation import AGGREGATION_MODES, TrainingAbort, client_moments, pooled_targets

from reference import closed_form_minimizer, full_table_fold, row_tables


def scalar_adapter(names, values, frozen=()):
    values = np.asarray(values, dtype=np.float64)[:, None]
    return FilmAdapter(tuple(names), values, np.zeros_like(values), frozen)


def test_aggregate_weighted_mean_examples():
    base = scalar_adapter(["a", "b"], [0.0, 0.0])
    # two clients, equal weight, scalar rows 2 and 4
    params = [("a", [2.0], [0.0], 5), ("b", [4.0], [0.0], 5)]
    out = aggregate(params, "full-table", base)
    # row a: client a says 2, client b says 0 (round start), weights 5/5
    assert out.gamma[0, 0] == pytest.approx((5 * 2.0 + 5 * 0.0) / 10)
    # weights (1, 3), values (2, 4) -> 3.5 on a single shared coordinate
    single = scalar_adapter(["a"], [0.0])
    params = [("a", [2.0], [0.0], 1), ("a", [4.0], [0.0], 3)]
    out = aggregate(params, "full-table", single)
    assert out.gamma[0, 0] == pytest.approx(3.5)


def test_aggregate_identical_submissions_bit_exact():
    rng = np.random.default_rng(0)
    base = FilmAdapter(("a", "b"), rng.uniform(0.1, 2.0, (2, 3)), rng.standard_normal((2, 3)))
    params = [("a", base.gamma[0], base.beta[0], 1), ("b", base.gamma[1], base.beta[1], 7)]
    out = aggregate(params, "full-table", base)
    assert np.array_equal(out.gamma, base.gamma)
    assert np.array_equal(out.beta, base.beta)


def test_aggregate_full_table_hand_example():
    # B = 2, round-start gamma row_a = 1 everywhere; client a (n=1) updates its
    # row to 2, client b (n=3) leaves row a at 1 -> aggregated row_a = 1.25
    base = identity_adapter(["a", "b"], 2)
    params = [("a", [2.0, 2.0], base.beta[0], 1), ("b", base.gamma[1], base.beta[1], 3)]
    out = aggregate(params, "full-table", base)
    assert np.allclose(out.gamma[0], 1.25)
    assert np.allclose(out.gamma[1], 1.0)


def test_aggregate_row_restricted_takes_owner_rows():
    base = identity_adapter(["a", "b"], 1)
    params = [("a", [5.0], [0.0], 1), ("b", [-3.0], [0.0], 100)]
    out = aggregate(params, "row-restricted", base)
    assert out.gamma[:, 0].tolist() == [5.0, -3.0]


def test_aggregate_convex_hull_property():
    rng = np.random.default_rng(7)
    for trial in range(200):
        n_clients = int(rng.integers(1, 5))
        b, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        base = FilmAdapter(
            tuple(f"b{i}" for i in range(b)),
            rng.standard_normal((b, d)),
            rng.standard_normal((b, d)),
        )
        params = []
        for ci in range(n_clients):
            params.append((f"b{ci % b}", rng.standard_normal(d),
                           rng.standard_normal(d), int(rng.integers(1, 50))))
        out = aggregate(params, "full-table", base)
        stacks = [row_tables(base, *p[:3]) for p in params]
        g_stack = np.stack([g for g, _ in stacks])
        b_stack = np.stack([b for _, b in stacks])
        assert np.all(out.gamma >= g_stack.min(axis=0)) and np.all(out.gamma <= g_stack.max(axis=0))
        assert np.all(out.beta >= b_stack.min(axis=0)) and np.all(out.beta <= b_stack.max(axis=0))


def test_aggregate_errors():
    base = identity_adapter(["a"], 1)
    with pytest.raises(ValidationError):
        aggregate([], "full-table", base)
    with pytest.raises(ValidationError):
        aggregate([("a", np.ones(1), np.zeros(1), 0)], "full-table", base)
    with pytest.raises(DimensionError):
        aggregate([("a", np.ones(2), np.zeros(2), 1)], "full-table", base)
    # a client submits its own row, not the (B, d) tables
    with pytest.raises(DimensionError, match=r"shape \(1, 1\) and \(1, 1\), expected \(1,\)"):
        aggregate([("a", base.gamma, base.beta, 1)], "full-table", base)
    with pytest.raises(MissingBatchError, match="'z'"):
        aggregate([("z", np.ones(1), np.zeros(1), 1)], "full-table", base)


def test_frozen_rows_cannot_be_replaced():
    adapter = identity_adapter(["a", "b"], 2).freeze(["a"])
    for mode in AGGREGATION_MODES:
        with pytest.raises(ValidationError, match="batch 'a' is frozen"):
            aggregate([("a", np.zeros(2), np.zeros(2), 1)], mode, adapter)
        updated = aggregate([("b", np.full(2, 2.0), np.full(2, 3.0), 1)], mode, adapter)
        assert updated.gamma[1].tolist() == [2.0, 2.0]
        assert updated.frozen == (True, False)


def test_aggregate_frozen_rows_pass_through():
    rng = np.random.default_rng(1)
    base = FilmAdapter(("a", "b"), rng.uniform(0.5, 1.5, (2, 2)),
                       rng.standard_normal((2, 2)), (True, False))
    gb = rng.uniform(0.5, 1.5, 2)
    bb = rng.standard_normal(2)
    for mode in AGGREGATION_MODES:
        out = aggregate([("b", gb, bb, 3)], mode, base)
        assert np.array_equal(out.gamma[0], base.gamma[0])
        assert np.array_equal(out.beta[0], base.beta[0])


def test_aggregate_rows_match_the_table_fold():
    # each client's rows fold exactly as the full tables they stand for did
    rng = np.random.default_rng(11)
    with_frozen = shared = 0
    for trial in range(500):
        bsz, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        names = tuple(f"b{i}" for i in range(bsz))
        frozen = rng.random(bsz) < 0.4
        frozen[int(rng.integers(bsz))] = False
        base = FilmAdapter(names, rng.standard_normal((bsz, d)) * 10.0 ** rng.integers(-3, 4),
                           rng.standard_normal((bsz, d)), tuple(frozen))
        open_names = [b for b, f in zip(names, frozen) if not f]
        rows = [(open_names[int(rng.integers(len(open_names)))],
                 rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4),
                 rng.standard_normal(d), int(rng.integers(1, 101)))
                for _ in range(int(rng.integers(1, 6)))]
        tables = [(name, *row_tables(base, name, g, b), n) for name, g, b, n in rows]
        for mode in AGGREGATION_MODES:
            out = aggregate(rows, mode, base)
            gamma, beta = full_table_fold(tables, mode, base)
            assert out.gamma.tobytes() == gamma.tobytes(), (trial, mode)
            assert out.beta.tobytes() == beta.tobytes(), (trial, mode)
        with_frozen += bool(frozen.any())
        shared += len({name for name, *_ in rows}) < len(rows)
    # the instances cover frozen rows and several clients per batch
    assert with_frozen > 100 and shared > 100


def synthetic_instance(**kw):
    spec = dict(n_batches=3, n_types=3, dim=4, cells_per_batch=50,
                effect_scale_range=(0.8, 1.2), effect_shift_sigma=1.0, seed=21)
    spec.update(kw)
    emb, meta, truth = generate(SynthSpec(**spec))
    return emb, meta, truth


@pytest.mark.parametrize("target", ["self", "pooled"])
def test_fit_gathers_each_client_on_its_turn(target):
    rng = np.random.default_rng(12)
    n, d = 20_000, 32
    ids = tuple(f"cell{i}" for i in range(n))
    emb = EmbeddingMatrix(ids, rng.standard_normal((n, d)))
    meta = CellMetadata.from_columns(list(ids), [f"batch{i}" for i in rng.integers(0, 4, n)])
    cfg = TrainConfig(rounds=2, target=target)
    init = identity_adapter(meta.batch_names, d)
    tracemalloc.start()
    try:
        run_federated_fit(emb, meta, cfg, init)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one client's cells and its training split at a time; a copy of every
    # client's cells held through the rounds alone is 1x the values' bytes
    assert peak < 1.4 * emb.values.nbytes


def test_fit_learning_rate_zero_returns_init():
    emb, meta, _ = synthetic_instance()
    cfg = TrainConfig(learning_rate=0.0, rounds=3, seed=1)
    init = identity_adapter(meta.batch_names, emb.d)
    adapter, log = run_federated_fit(emb, meta, cfg, init)
    assert np.array_equal(adapter.gamma, init.gamma)
    assert np.array_equal(adapter.beta, init.beta)
    assert len(log) == 3 * meta.n_batches


def test_fit_single_batch_modes_agree():
    emb, meta, _ = synthetic_instance(n_batches=1)
    cfg = TrainConfig(seed=2, rounds=2)
    init = identity_adapter(meta.batch_names, emb.d)
    a1, _ = run_federated_fit(emb, meta, cfg, init, mode="full-table")
    a2, _ = run_federated_fit(emb, meta, cfg, init, mode="row-restricted")
    assert np.array_equal(a1.gamma, a2.gamma)
    assert np.array_equal(a1.beta, a2.beta)


def test_fit_batch_relabeling_equivariance():
    emb, meta, _ = synthetic_instance()
    cfg = TrainConfig(seed=4, rounds=2)
    a1, _ = run_federated_fit(emb, meta, cfg, identity_adapter(meta.batch_names, emb.d))
    rename = {b: f"study_{b}" for b in meta.batch_names}
    meta2 = CellMetadata.from_columns(
        list(emb.cell_ids),
        [rename[meta.batch_of[c]] for c in emb.cell_ids],
        [meta.label_of[c] for c in emb.cell_ids],
    )
    a2, _ = run_federated_fit(emb, meta2, cfg, identity_adapter(meta2.batch_names, emb.d))
    assert a2.batch_names == tuple(rename[b] for b in meta.batch_names)
    assert np.array_equal(a1.gamma, a2.gamma)
    assert np.array_equal(a1.beta, a2.beta)


def test_fit_frozen_rows_never_move():
    emb, meta, _ = synthetic_instance()
    init = identity_adapter(meta.batch_names, emb.d).freeze([meta.batch_names[0]])
    cfg = TrainConfig(seed=5, rounds=4)
    adapter, log = run_federated_fit(emb, meta, cfg, init)
    assert np.array_equal(adapter.gamma[0], init.gamma[0])
    assert np.array_equal(adapter.beta[0], init.beta[0])
    trained = {rec.batch_name for rec in log}
    assert meta.batch_names[0] not in trained


def test_fit_approaches_closed_form_fixed_point():
    # At the loop's fixed point the proximal term vanishes and each row solves
    # its own mu=0 quadratic; with a generous budget the iterate gets close.
    emb, meta, _ = synthetic_instance(n_batches=2, n_types=3, dim=3, cells_per_batch=40, seed=5)
    lam = 1e-3
    cfg = TrainConfig(seed=1, rounds=150, local_epochs=30, learning_rate=1e-2,
                      minibatch_size=10_000, train_fraction=1.0, mu=1e-3, lam=lam)
    adapter, log = run_federated_fit(emb, meta, cfg, identity_adapter(meta.batch_names, emb.d))
    blocks = batch_row_indices(emb, meta)
    for bi, b in enumerate(meta.batch_names):
        z = emb.values[blocks[b]]
        for j in range(emb.d):
            gs, bs = closed_form_minimizer(z[:, j], adapter.gamma[bi, j],
                                           adapter.beta[bi, j], 0.0, lam)
            assert abs(adapter.gamma[bi, j] - gs) < 1e-3
            assert abs(adapter.beta[bi, j] - bs) < 1e-3
    # net improvement over the run (per-round decrease is not strict: the
    # identity start sits near-stationary and Adam wobbles at the 1e-6 scale)
    first = np.mean([r.train_loss for r in log if r.round_index == 0])
    last = np.mean([r.train_loss for r in log if r.round_index == cfg.rounds - 1])
    assert last < first


def test_pooled_targets_map_batches_onto_pooled_moments():
    emb, meta, _ = synthetic_instance(cells_per_batch=(30, 50, 70))
    blocks = batch_row_indices(emb, meta)
    cells = {b: emb.values[blocks[b]] for b in meta.batch_names}
    targets = pooled_targets({b: client_moments(c) for b, c in cells.items()})
    grand_mean = emb.values.mean(axis=0)
    pooled_var = sum(len(c) * c.var(axis=0) for c in cells.values()) / emb.n
    for b, c in cells.items():
        scale, shift = targets[b]
        moved = scale * c + shift
        assert np.allclose(moved.mean(axis=0), grand_mean, rtol=0, atol=1e-12)
        assert np.allclose(moved.var(axis=0), pooled_var, rtol=1e-12, atol=0)


def test_pooled_targets_edge_cases():
    rng = np.random.default_rng(8)
    single = rng.standard_normal((9, 3)) + 2.0
    scale, shift = pooled_targets({"a": client_moments(single)})["a"]
    assert np.allclose(scale, 1.0, rtol=0, atol=1e-12)
    assert np.allclose(shift, 0.0, rtol=0, atol=1e-12)
    # a coordinate that is constant within a batch keeps scale 1
    flat = np.column_stack([rng.standard_normal(6), np.full(6, 3.0)])
    targets = pooled_targets({"a": client_moments(flat),
                              "b": client_moments(rng.standard_normal((6, 2)))})
    assert targets["a"][0][1] == 1.0
    assert np.all(np.isfinite(targets["a"][1]))


def test_pooled_targets_map_clients_onto_the_reference_alone():
    emb, meta, _ = synthetic_instance(cells_per_batch=(30, 50, 70))
    blocks = batch_row_indices(emb, meta)
    cells = {b: emb.values[blocks[b]] for b in meta.batch_names}
    reference = {b: 1.5 * cells[b] + 2.0 for b in meta.batch_names[:2]}
    targets = pooled_targets({meta.batch_names[2]: client_moments(cells[meta.batch_names[2]])},
                             {b: client_moments(c) for b, c in reference.items()})
    assert list(targets) == [meta.batch_names[2]]
    pooled = np.vstack(list(reference.values()))
    pooled_var = sum(len(c) * c.var(axis=0) for c in reference.values()) / len(pooled)
    scale, shift = targets[meta.batch_names[2]]
    moved = scale * cells[meta.batch_names[2]] + shift
    assert np.allclose(moved.mean(axis=0), pooled.mean(axis=0), rtol=0, atol=1e-12)
    assert np.allclose(moved.var(axis=0), pooled_var, rtol=1e-12, atol=0)


def test_continual_pooled_stages_align_new_batches_to_the_frozen_reference():
    # One batch per stage: pooled among the new batches alone, each later
    # stage's target map would be the identity and the final stage would stay
    # at its baseline (0.1774 -> 0.1775). Aligned to the frozen reference, it
    # corrects (0.5115).
    emb, meta, _ = generate(SynthSpec(4, 6, 16, 600, effect_shift_sigma=1.5, seed=3))
    plan = ScenarioPlan(mode="continual", stages=tuple((b,) for b in meta.batch_names))
    results = run_scenario(plan, emb, meta, TrainConfig(learning_rate=0.1, target="pooled"))
    final = results[-1]
    assert final.report.batch > final.baseline_report.batch + 0.2
    assert final.report.overall > final.baseline_report.overall


def test_fit_pooled_target_approaches_its_closed_form_fixed_point():
    # Same budget as the self-target fixed-point test; each row must solve
    # its mu=0 quadratic toward the batch's cells moved onto the pooled
    # moments, which this test derives from the cells directly.
    emb, meta, _ = synthetic_instance(n_batches=2, n_types=3, dim=3, cells_per_batch=40, seed=5)
    lam = 1e-3
    cfg = TrainConfig(seed=1, rounds=150, local_epochs=30, learning_rate=1e-2,
                      minibatch_size=10_000, train_fraction=1.0, mu=1e-3, lam=lam,
                      target="pooled")
    adapter, _ = run_federated_fit(emb, meta, cfg, identity_adapter(meta.batch_names, emb.d))
    blocks = batch_row_indices(emb, meta)
    grand_mean = emb.values.mean(axis=0)
    pooled_var = sum(len(r) * emb.values[r].var(axis=0) for r in blocks.values()) / emb.n
    for bi, b in enumerate(meta.batch_names):
        z = emb.values[blocks[b]]
        scale = np.sqrt(pooled_var / z.var(axis=0))
        shift = grand_mean - scale * z.mean(axis=0)
        for j in range(emb.d):
            gs, bs = closed_form_minimizer(z[:, j], adapter.gamma[bi, j], adapter.beta[bi, j],
                                           0.0, lam, scale[j], shift[j])
            assert abs(adapter.gamma[bi, j] - gs) < 1e-3
            assert abs(adapter.beta[bi, j] - bs) < 1e-3


def test_fit_single_client_least_squares_limit():
    # mu = 0, lam = 0, B = 1: the local problem's minimizer solves the 2x2
    # least-squares system; from a non-identity start the pipeline reaches it.
    rng = np.random.default_rng(17)
    ids = tuple(f"c{i}" for i in range(30))
    emb = EmbeddingMatrix(ids, rng.standard_normal((30, 2)) * 1.5 + 0.4)
    meta = CellMetadata.from_columns(list(ids), ["b"] * 30)
    init = FilmAdapter(("b",), np.full((1, 2), 0.7), np.full((1, 2), 0.4))
    cfg = TrainConfig(mu=0.0, lam=0.0, learning_rate=1e-2, rounds=1,
                      local_epochs=600, minibatch_size=1000, train_fraction=1.0, seed=6)
    adapter, _ = run_federated_fit(emb, meta, cfg, init)
    for j in range(2):
        z = emb.values[:, j]
        gs, bs = closed_form_minimizer(z, 0.7, 0.4, 0.0, 0.0)
        assert abs(adapter.gamma[0, j] - gs) < 1e-3
        assert abs(adapter.beta[0, j] - bs) < 1e-3


def test_fit_aborts_on_nonfinite():
    emb, meta, _ = synthetic_instance()
    cfg = TrainConfig(learning_rate=1e200, rounds=1, seed=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingAbort, match="round 0"):
            run_federated_fit(emb, meta, cfg, identity_adapter(meta.batch_names, emb.d))


@pytest.mark.parametrize("target", ["self", "pooled"])
def test_fit_on_metadata_covering_more_cells_than_the_matrix(target):
    # clients are sized by the matrix's cells, so extra metadata rows change nothing
    emb, meta, _ = generate(SynthSpec(2, 3, 4, 200, seed=1))
    sub = emb.subset(emb.cell_ids[:300])
    cfg = TrainConfig(seed=4, rounds=3, target=target)
    init = identity_adapter(meta.batch_names, emb.d)
    a1, log1 = run_federated_fit(sub, meta, cfg, init)
    a2, log2 = run_federated_fit(sub, meta.restricted_to(sub.cell_ids), cfg, init)
    assert np.array_equal(a1.gamma, a2.gamma) and np.array_equal(a1.beta, a2.beta)
    assert log1 == log2


@pytest.mark.parametrize("target, frozen", [("self", ()), ("pooled", ()), ("pooled", ("batch1",))],
                         ids=["self", "pooled", "pooled-frozen"])
def test_fit_skips_metadata_batches_without_cells(target, frozen):
    # the matrix holds batch0's cells alone: batch1 gets no client and no
    # place in the pooled reference, and keeps its initial row
    emb, meta, _ = generate(SynthSpec(2, 2, 4, 20, seed=2))
    sub = emb.subset(emb.cell_ids[:20])
    alone = meta.restricted_to(sub.cell_ids)
    assert alone.batch_names == ("batch0",)
    cfg = TrainConfig(seed=4, rounds=3, target=target)
    init = identity_adapter(meta.batch_names, emb.d).freeze(frozen)
    adapter, log = run_federated_fit(sub, meta, cfg, init)
    want, want_log = run_federated_fit(sub, alone, cfg, init)
    assert log == want_log
    assert np.array_equal(adapter.gamma, want.gamma) and np.array_equal(adapter.beta, want.beta)
    assert np.array_equal(adapter.gamma[1], init.gamma[1])
    assert np.array_equal(adapter.beta[1], init.beta[1])


def test_fit_requires_adapter_rows_for_all_batches():
    emb, meta, _ = synthetic_instance()
    from fedfilm.core import MissingBatchError
    partial = identity_adapter(meta.batch_names[:-1], emb.d)
    with pytest.raises(MissingBatchError):
        run_federated_fit(emb, meta, TrainConfig(), partial)


def test_scenario_plan_validation():
    with pytest.raises(ValidationError):
        ScenarioPlan(mode="bogus", stages=(("a",),))
    with pytest.raises(ValidationError):
        ScenarioPlan(mode="continual", stages=(("a",), ("a",)))
    with pytest.raises(ValidationError):
        ScenarioPlan(mode="continual", stages=(("a",), ()))


def test_scenario_continual_freeze_contract():
    emb, meta, _ = synthetic_instance(n_batches=3, cells_per_batch=40)
    plan = ScenarioPlan(mode="continual",
                        stages=((meta.batch_names[0], meta.batch_names[1]),
                                (meta.batch_names[2],)))
    cfg = TrainConfig(seed=7, rounds=2)
    results = run_scenario(plan, emb, meta, cfg, knn_k=10)
    stage1, stage2 = results
    ids1 = set(stage1.corrected.cell_ids)
    rows2 = stage2.corrected.rows_for([c for c in stage2.corrected.cell_ids if c in ids1])
    rows1 = stage1.corrected.rows_for([c for c in stage2.corrected.cell_ids if c in ids1])
    assert np.array_equal(stage2.corrected.values[rows2], stage1.corrected.values[rows1])
    # stage-1 batches are frozen afterwards
    for b in plan.stages[0]:
        i = stage2.adapter.row_index(b)
        assert stage2.adapter.frozen[i]
        j = stage1.adapter.row_index(b)
        assert np.array_equal(stage2.adapter.gamma[i], stage1.adapter.gamma[j])


def test_scenario_cumulative_single_stage_matches_fit():
    emb, meta, _ = synthetic_instance(n_batches=2, cells_per_batch=40)
    plan = ScenarioPlan(mode="cumulative", stages=(tuple(meta.batch_names),))
    cfg = TrainConfig(seed=8, rounds=2)
    results = run_scenario(plan, emb, meta, cfg, knn_k=10)
    direct, _ = run_federated_fit(emb, meta, cfg, identity_adapter(meta.batch_names, emb.d))
    assert np.array_equal(results[0].adapter.gamma, direct.gamma)
    assert np.array_equal(results[0].adapter.beta, direct.beta)
    assert results[0].report.subset == "scenario"


@pytest.mark.parametrize("target", ["self", "pooled"])
def test_scenario_continual_stages_match_direct_fits(target):
    # each stage is one fit on the cells seen so far: the first from identity
    # in the configured mode, each later one from the previous stage's frozen
    # adapter plus identity rows for its new batches, row-restricted
    emb, meta, _ = synthetic_instance(n_batches=4, cells_per_batch=40, seed=23)
    b = meta.batch_names
    plan = ScenarioPlan(mode="continual", stages=((b[0], b[1]), (b[2],), (b[3],)))
    cfg = TrainConfig(seed=5, rounds=3, target=target)
    results = run_scenario(plan, emb, meta, cfg, mode="full-table", knn_k=10)
    previous, seen = None, []
    for result, group in zip(results, plan.stages):
        seen.extend(group)
        cells = [c for c in meta.cell_ids if meta.batch_of[c] in seen]
        if previous is None:
            init, mode = identity_adapter(group, emb.d), "full-table"
        else:
            init, mode = previous.with_new_batches(group), "row-restricted"
        direct, log = run_federated_fit(emb.subset(cells), meta.restricted_to(cells), cfg,
                                        init, mode=mode)
        direct = direct.freeze(group)
        assert result.adapter.batch_names == direct.batch_names
        assert result.adapter.frozen == direct.frozen
        assert np.array_equal(result.adapter.gamma, direct.gamma)
        assert np.array_equal(result.adapter.beta, direct.beta)
        assert result.log == log
        previous = result.adapter


def test_scenario_unknown_batch_rejected():
    emb, meta, _ = synthetic_instance(n_batches=2, cells_per_batch=30)
    plan = ScenarioPlan(mode="continual", stages=(("nope",),))
    with pytest.raises(ValidationError, match="unknown batch"):
        run_scenario(plan, emb, meta, TrainConfig(rounds=1))


def superset_metadata_instance():
    """A matrix of two thirds of batches 0-2's cells, in reverse order, and
    metadata for all the cells of batches 0-3."""
    emb, meta, _ = synthetic_instance(n_batches=4, cells_per_batch=30, seed=27)
    last = meta.batch_names[3]
    kept = [c for i, c in enumerate(meta.cell_ids) if i % 3 and meta.batch_of[c] != last]
    return emb.subset(kept[::-1]), meta


def assert_same_stages(results, expected):
    assert len(results) == len(expected)
    for got, want in zip(results, expected):
        assert (got.stage_index, got.batch_names) == (want.stage_index, want.batch_names)
        assert got.corrected.cell_ids == want.corrected.cell_ids
        assert got.corrected.values.tobytes() == want.corrected.values.tobytes()
        assert (got.adapter.batch_names, got.adapter.frozen) == (want.adapter.batch_names,
                                                                 want.adapter.frozen)
        assert got.adapter.gamma.tobytes() == want.adapter.gamma.tobytes()
        assert got.adapter.beta.tobytes() == want.adapter.beta.tobytes()
        assert got.log == want.log
        assert got.report == want.report
        assert got.baseline_report == want.baseline_report


@pytest.mark.parametrize("mode", ["continual", "cumulative"])
def test_scenario_joins_metadata_that_covers_more_cells(mode):
    # as load_embeddings joins them: the metadata of cells outside the matrix
    # is dropped and the metadata order kept, so the stages are those of the
    # run on the restricted metadata, bit for bit
    data, meta = superset_metadata_instance()
    b = meta.batch_names
    plan = ScenarioPlan(mode=mode, stages=((b[0],), (b[1], b[2])))
    cfg = TrainConfig(seed=4, rounds=2, target="pooled")
    kept = set(data.cell_ids)
    restricted = meta.restricted_to([c for c in meta.cell_ids if c in kept])
    assert_same_stages(run_scenario(plan, data, meta, cfg, knn_k=8),
                       run_scenario(plan, data, restricted, cfg, knn_k=8))


def test_scenario_rejects_a_matrix_cell_without_metadata():
    emb, meta, _ = synthetic_instance(n_batches=2, cells_per_batch=30)
    data = EmbeddingMatrix(emb.cell_ids + ("zz",), np.vstack([emb.values, np.zeros(emb.d)]))
    plan = ScenarioPlan(mode="continual", stages=tuple((b,) for b in meta.batch_names))
    with pytest.raises(ValidationError, match="cell 'zz' has no batch assignment"):
        run_scenario(plan, data, meta, TrainConfig(rounds=1))


def test_scenario_rejects_a_metadata_batch_without_matrix_cells():
    data, meta = superset_metadata_instance()
    plan = ScenarioPlan(mode="continual", stages=((meta.batch_names[0],), (meta.batch_names[3],)))
    with pytest.raises(ValidationError,
                       match=f"stage references unknown batch '{meta.batch_names[3]}'"):
        run_scenario(plan, data, meta, TrainConfig(rounds=1))


def test_scenario_five_stage_both_orders_complete():
    emb, meta, _ = synthetic_instance(n_batches=5, n_types=3, dim=4, cells_per_batch=30, seed=31)
    order = tuple((b,) for b in meta.batch_names)
    cfg = TrainConfig(seed=9, rounds=2)
    for stages in (order, tuple(reversed(order))):
        plan = ScenarioPlan(mode="continual", stages=stages)
        results = run_scenario(plan, emb, meta, cfg, knn_k=8)
        assert len(results) == 5
        assert all(r.report.subset == "scenario" for r in results)
        assert all(np.isfinite(r.report.overall) for r in results)


def test_scenario_five_stage_pinned_reference_values():
    # Pinned aggregates from the reference run of the protocol-arrival plan.
    # The refined aggregate dips a few 1e-5 below the baseline at stages with
    # more than one batch: the adapters here are tiny shrinkage maps (see the
    # acceptance notes), so these are regression values, not quality claims.
    spec = SynthSpec(n_batches=5, n_types=4, dim=10, cells_per_batch=120,
                     effect_scale_range=(0.8, 1.3), effect_shift_sigma=1.0,
                     noise_sigma=0.5, centroid_scale=3.0, seed=4242)
    emb, meta, _ = generate(spec)
    plan = ScenarioPlan(mode="continual", stages=tuple((b,) for b in meta.batch_names))
    results = run_scenario(plan, emb, meta, TrainConfig(seed=3, rounds=7), knn_k=15)
    refined = [r.report.overall for r in results]
    baseline = [r.baseline_report.overall for r in results]
    assert refined == pytest.approx([0.985438387701, 0.663482976069, 0.668332693794,
                                     0.668099549091, 0.676798739672], abs=1e-6)
    assert baseline == pytest.approx([0.985436164422, 0.663499986798, 0.668361497937,
                                      0.668123904958, 0.676830229285], abs=1e-6)
    assert refined[0] > baseline[0]
    assert all(r < b for r, b in zip(refined[1:], baseline[1:]))
