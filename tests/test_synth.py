import math

import numpy as np
import pytest

from fedfilm import EmbeddingMatrix, SynthSpec, generate, pca
from fedfilm.core import CellMetadata, ValidationError
from fedfilm.synth import _allocate_counts


def test_generate_no_effect_batches_share_distribution():
    spec = SynthSpec(n_batches=3, n_types=2, dim=4, cells_per_batch=400,
                     effect_scale_range=(1.0, 1.0), effect_shift_sigma=0.0, seed=1)
    emb, meta, truth = generate(spec)
    assert np.all(truth.scale == 1.0)
    assert np.all(truth.shift == 0.0)
    blocks = {}
    for cid, b in meta.batch_of.items():
        blocks.setdefault(b, []).append(cid)
    means = [emb.values[emb.rows_for(ids)].mean(axis=0) for ids in blocks.values()]
    # same generative distribution per batch: means agree to sampling noise
    spread = np.max(np.abs(np.array(means) - np.mean(means, axis=0)))
    assert spread < 0.2


def test_generate_noiseless_cells_sit_on_affine_images():
    spec = SynthSpec(n_batches=2, n_types=3, dim=3, cells_per_batch=3,
                     noise_sigma=0.0, effect_scale_range=(0.5, 2.0),
                     effect_shift_sigma=1.0, seed=7)
    emb, meta, truth = generate(spec)
    for cid in emb.cell_ids:
        i = emb.rows_for([cid])[0]
        b = int(meta.batch_of[cid].removeprefix("batch"))
        t = int(meta.label_of[cid].removeprefix("type"))
        expected = truth.scale[b] * truth.centroids[t] + truth.shift[b]
        assert np.allclose(emb.values[i], expected, atol=0, rtol=0)


def test_generate_deterministic_bit_identical():
    spec = SynthSpec(n_batches=2, n_types=2, dim=5, cells_per_batch=30, seed=13)
    e1, m1, t1 = generate(spec)
    e2, m2, t2 = generate(spec)
    assert np.array_equal(e1.values, e2.values)
    assert e1.cell_ids == e2.cell_ids
    assert m1.batch_of == m2.batch_of and m1.label_of == m2.label_of
    assert np.array_equal(t1.scale, t2.scale) and np.array_equal(t1.shift, t2.shift)


def test_generate_type_mixture_counts():
    spec = SynthSpec(n_batches=2, n_types=3, dim=2, cells_per_batch=10,
                     type_mixture=((0.5, 0.3, 0.2), (0.0, 0.0, 1.0)), seed=3)
    emb, meta, _ = generate(spec)
    counts = {}
    for cid in emb.cell_ids:
        key = (meta.batch_of[cid], meta.label_of[cid])
        counts[key] = counts.get(key, 0) + 1
    assert counts[("batch0", "type0")] == 5
    assert counts[("batch0", "type1")] == 3
    assert counts[("batch0", "type2")] == 2
    assert counts[("batch1", "type2")] == 10
    assert ("batch1", "type0") not in counts


def test_generate_lays_cells_out_by_batch_then_type():
    # the reference layout, by loops: each batch's cells in turn, within a
    # batch each type's allocated count in turn, absent types included
    spec = SynthSpec(n_batches=3, n_types=4, dim=2, cells_per_batch=(7, 12, 5),
                     type_mixture=((0.0, 0.5, 0.25, 0.25), (0.1, 0.0, 0.0, 0.9),
                                   (0.25, 0.25, 0.25, 0.25)), seed=2)
    _, meta, _ = generate(spec)
    batches, types = [], []
    for b, (n, row) in enumerate(zip(spec.cells_per_batch, spec.type_mixture)):
        for t, count in enumerate(_allocate_counts(n, np.array(row))):
            batches += [f"batch{b}"] * int(count)
            types += [f"type{t}"] * int(count)
    assert [meta.batch_of[c] for c in meta.cell_ids] == batches
    assert [meta.label_of[c] for c in meta.cell_ids] == types


def test_generate_numbers_groups_as_from_columns_does():
    # type 0 is absent from batch 0, so the types first appear as 1, 2, 0
    spec = SynthSpec(n_batches=3, n_types=3, dim=2, cells_per_batch=(6, 9, 4),
                     type_mixture=((0.0, 0.5, 0.5), (0.6, 0.2, 0.2), (0.0, 0.0, 1.0)),
                     seed=5)
    _, meta, _ = generate(spec)
    want = CellMetadata.from_columns(meta.cell_ids,
                                     [meta.batch_of[c] for c in meta.cell_ids],
                                     [meta.label_of[c] for c in meta.cell_ids])
    assert meta.label_names == want.label_names == ("type1", "type2", "type0")
    assert meta.batch_names == want.batch_names == ("batch0", "batch1", "batch2")
    assert np.array_equal(meta.label_codes, want.label_codes)
    assert np.array_equal(meta.batch_codes, want.batch_codes)


def test_generate_noise_variance_scales_quadratically():
    def within_type_var(sigma):
        spec = SynthSpec(n_batches=1, n_types=1, dim=6, cells_per_batch=4000,
                         noise_sigma=sigma, effect_scale_range=(1.0, 1.0),
                         effect_shift_sigma=0.0, seed=5)
        emb, _, _ = generate(spec)
        return float(np.mean(np.var(emb.values, axis=0)))

    v1, v2 = within_type_var(0.5), within_type_var(1.0)
    assert v2 / v1 == pytest.approx(4.0, rel=0.1)


def test_generate_validation():
    with pytest.raises(ValidationError):
        SynthSpec(n_batches=0, n_types=1, dim=1, cells_per_batch=1)
    with pytest.raises(ValidationError):
        SynthSpec(n_batches=1, n_types=1, dim=1, cells_per_batch=1,
                  effect_scale_range=(0.0, 1.0))
    with pytest.raises(ValidationError):
        SynthSpec(n_batches=2, n_types=2, dim=1, cells_per_batch=1,
                  type_mixture=((0.5, 0.5),))
    with pytest.raises(ValidationError):
        SynthSpec(n_batches=1, n_types=2, dim=1, cells_per_batch=1,
                  type_mixture=((0.7, 0.7),))


@pytest.mark.parametrize("name, value", [
    ("centroid_scale", math.inf),
    ("noise_sigma", math.nan),
    ("effect_shift_sigma", math.nan),
    pytest.param("effect_scale_range", (0.7, math.inf), id="effect_scale_range-hi-inf"),
    pytest.param("effect_scale_range", (math.nan, 1.0), id="effect_scale_range-lo-nan"),
    pytest.param("type_mixture", ((math.nan, 1.0), (0.5, 0.5)), id="type_mixture-nan"),
])
def test_spec_rejects_non_finite_numbers(name, value):
    # a nan mixture entry passes the probability-vector checks and miscounts the cells
    with pytest.raises(ValidationError, match=f"^{name} must be finite, got "):
        SynthSpec(2, 2, 2, 5, **{name: value})


def test_correcting_adapter_inverts_effects():
    spec = SynthSpec(n_batches=2, n_types=2, dim=3, cells_per_batch=20,
                     noise_sigma=0.0, effect_scale_range=(0.5, 1.8),
                     effect_shift_sigma=2.0, seed=9)
    emb, meta, truth = generate(spec)
    from fedfilm import apply_adapter
    fixed = apply_adapter(emb, meta, truth.correcting_adapter())
    # after exact inversion every cell sits on its type centroid
    for cid in emb.cell_ids:
        i = emb.rows_for([cid])[0]
        t = int(meta.label_of[cid].removeprefix("type"))
        assert np.allclose(fixed.values[i], truth.centroids[t], atol=1e-12)


# ---------------------------------------------------------------- pca

def test_pca_rank_one_line_is_exact():
    t = np.linspace(-2, 3, 12)[:, None]
    direction = np.array([[2.0, -1.0]])
    points = t @ direction + np.array([[5.0, 1.0]])
    emb = EmbeddingMatrix(tuple(f"c{i}" for i in range(12)), points)
    scores = pca(emb, 1)
    # reconstruct from the single component: exact for rank-1 data
    centered = points - points.mean(axis=0)
    axis = direction / np.linalg.norm(direction)
    recon = scores.values @ axis
    assert np.allclose(np.abs(recon), np.abs(centered), atol=1e-10)
    with pytest.raises(ValidationError):
        pca(emb, 2)  # exceeds effective rank


def test_pca_isotropic_cloud_has_flat_spectrum():
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((4000, 3))
    emb = EmbeddingMatrix(tuple(f"c{i}" for i in range(4000)), pts)
    scores = pca(emb, 3)
    variances = np.var(scores.values, axis=0)
    shares = variances / variances.sum()
    assert np.all(np.abs(shares - 1 / 3) < 0.05)


def test_pca_matches_dense_eigensolver_oracle():
    pts = np.array([
        [2.0, 0.0, 1.0],
        [1.0, 3.0, -1.0],
        [0.0, 1.0, 4.0],
        [-1.0, 2.0, 0.5],
    ])
    emb = EmbeddingMatrix(("a", "b", "c", "d"), pts)
    scores = pca(emb, 2)
    centered = pts - pts.mean(axis=0)
    # oracle via SVD, a different route than the covariance eigh
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    oracle = centered @ vt[:2].T
    for j in range(2):
        col = scores.values[:, j]
        assert (np.allclose(col, oracle[:, j], atol=1e-10)
                or np.allclose(col, -oracle[:, j], atol=1e-10))


def test_pca_scores_are_uncorrelated():
    rng = np.random.default_rng(22)
    pts = rng.standard_normal((60, 5)) @ rng.standard_normal((5, 5))
    emb = EmbeddingMatrix(tuple(f"c{i}" for i in range(60)), pts)
    scores = pca(emb, 4)
    cov = np.cov(scores.values.T)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 1e-8


def test_pca_sign_convention_and_bounds():
    rng = np.random.default_rng(23)
    pts = rng.standard_normal((20, 4))
    emb = EmbeddingMatrix(tuple(f"c{i}" for i in range(20)), pts)
    pca(emb, 4)
    with pytest.raises(ValidationError):
        pca(emb, 5)
    with pytest.raises(ValidationError):
        pca(emb, 0)
    # flipping the input sign flips scores but the convention fixes loadings:
    # rerun on negated data gives identical score magnitudes
    s1 = pca(emb, 2).values
    emb2 = EmbeddingMatrix(emb.cell_ids, -pts)
    s2 = pca(emb2, 2).values
    assert np.allclose(np.abs(s1), np.abs(s2), atol=1e-10)
