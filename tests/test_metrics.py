import ctypes
import os
import platform
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest

from fedfilm import (CellMetadata, EmbeddingMatrix, SynthSpec, aggregate_scores, evaluate,
                     generate, metrics)
from fedfilm.core import _ROW_CHUNK, ValidationError
from fedfilm.metrics import (
    MetricsReport,
    ari,
    build_neighbor_graph,
    chi2_sf,
    clisi_score,
    graph_connectivity,
    ilisi_score,
    isolated_label_f1,
    kbet_per_label,
    kmeans,
    lisi,
    nmi,
    pcr_score,
    silhouette_batch_asw,
    silhouette_label_asw,
    silhouette_samples,
)

from reference import (
    assign_by_broadcast,
    best_two_partition_inertia,
    gram_sq_dists,
    lexsort_knn,
    reference_kmeans,
    slow_ari,
    slow_connectivity,
    slow_knn,
    slow_lisi,
    slow_nmi,
    slow_pcr,
    slow_silhouette,
)


# ---------------------------------------------------------------- kmeans

def test_kmeans_separated_clouds_recovers_split():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 2))
    b = rng.standard_normal((6, 2)) + 200.0
    values = np.vstack([a, b])
    labels, inertia = kmeans(values, 2, seed=0)
    assert len(set(labels[:6].tolist())) == 1
    assert len(set(labels[6:].tolist())) == 1
    assert labels[0] != labels[6]
    best_inertia, _ = best_two_partition_inertia(values)
    assert inertia == pytest.approx(best_inertia, rel=1e-10)


def test_kmeans_degenerate_k():
    values = np.random.default_rng(1).standard_normal((8, 3))
    labels, _ = kmeans(values, 1, seed=0)
    assert set(labels.tolist()) == {0}
    labels, inertia = kmeans(values, 8, seed=0)
    assert inertia == 0.0
    assert len(set(labels.tolist())) == 8
    with pytest.raises(ValidationError):
        kmeans(values, 9, seed=0)


def test_kmeans_deterministic():
    values = np.random.default_rng(2).standard_normal((40, 4))
    l1, i1 = kmeans(values, 4, seed=5)
    l2, i2 = kmeans(values, 4, seed=5)
    assert np.array_equal(l1, l2) and i1 == i2



def assign(values, centers):
    values = np.asarray(values, dtype=np.float64)
    return metrics._assign(values, np.sum(values * values, axis=1),
                           np.asarray(centers, dtype=np.float64), np.empty_like(values))


def same_assignment(got, want):
    labels, min_d2 = got
    want_labels, want_d2 = want
    return (np.array_equal(labels, want_labels)
            and min_d2.tobytes() == want_d2.tobytes())


def test_assign_equals_broadcast_oracle_bit_for_bit():
    rng = np.random.default_rng(30)
    for n, d, k in [(200, 1, 3), (200, 2, 5), (500, 7, 8), (300, 32, 8), (50, 130, 4)]:
        values = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)
        centers = values[rng.choice(n, k, replace=False)]
        assert same_assignment(assign(values, centers), assign_by_broadcast(values, centers))


def test_assign_ties_go_to_the_first_center():
    # x = 0 is equally far from -1 and +1; duplicate centers tie everywhere
    values = np.array([[0.0], [-1.0], [1.0], [0.5], [-3.0]])
    for centers in ([[1.0], [-1.0]], [[-1.0], [1.0]], [[2.0], [2.0], [-1.0], [-1.0]]):
        centers = np.array(centers)
        assert same_assignment(assign(values, centers), assign_by_broadcast(values, centers))
    labels, _ = assign(values, np.array([[1.0], [-1.0]]))
    assert labels[0] == 0
    labels, _ = assign(values, np.array([[2.0], [2.0], [-1.0], [-1.0]]))
    assert labels.tolist() == [2, 2, 0, 0, 2]


def bisector_cells(seed, d, copies=20):
    """A point and its copy with the first two coordinates swapped, each
    repeated, and cells with equal first two coordinates: those lie on the
    bisector of the two points, where the exact distances tie to the bit
    while the matrix product may split them by an ulp."""
    rng = np.random.default_rng(seed)
    point = rng.standard_normal(d) + np.eye(1, d)[0] * 3.0
    diagonal = rng.standard_normal((40, d))
    diagonal[:, 1] = diagonal[:, 0]
    swapped = point[np.r_[1, 0, 2:d]]
    return np.vstack([np.tile(point, (copies, 1)), np.tile(swapped, (copies, 1)), diagonal])


def test_assign_on_the_bisector_of_two_centers_matches_the_oracle():
    for seed in range(5):
        values = bisector_cells(seed, 3, copies=1)
        centers = values[[0, 1, 2]]  # the two swapped points, then a diagonal cell
        got = assign(values, centers)
        assert same_assignment(got, assign_by_broadcast(values, centers))
        assert 1 not in got[0][2:].tolist()  # a tie goes to the first center


def synth_values(seed, cells):
    emb, _, _ = generate(SynthSpec(4, 8, 32, cells // 4, seed=seed, effect_shift_sigma=1.5))
    return emb.values


def integer_grid(seed):
    # coordinates 0..3: every distance is an exact integer and ties are everywhere
    return np.random.default_rng(seed).integers(0, 4, (600, 3)).astype(np.float64)


def duplicate_points(seed):
    # 3 distinct points: k-means++ picks duplicate centers and clusters come up empty
    rng = np.random.default_rng(seed)
    return rng.standard_normal((3, 4))[rng.integers(0, 3, 60)]


def chunked_cells():
    # two whole row chunks and a 3-row remainder for the exact distances
    return synth_values(6, 2 * _ROW_CHUNK + 4)[:2 * _ROW_CHUNK + 3]


def huge_clouds(seed):
    # two clouds near 0.9e154 and 1.2e154: x.c overflows in the matrix product
    # while every exact squared distance stays finite
    rng = np.random.default_rng(seed)
    near = 0.9e154 + rng.standard_normal((6, 1)) * 1e150
    far = 1.2e154 + rng.standard_normal((6, 1)) * 1e150
    return np.hstack([np.vstack([near, far]), np.zeros((12, 1))])


ORACLE_CASES = (
    [pytest.param(synth_values(s, 2500), 8, id=f"synth-2.5k-seed{s}") for s in range(4)]
    + [pytest.param(synth_values(s, 5000), 8, id=f"synth-5k-seed{s}") for s in range(2)]
    + [pytest.param(synth_values(0, 10000), 8, id="synth-10k-seed0")]
    + [pytest.param(integer_grid(s), k, id=f"grid-seed{s}-k{k}") for s in range(2) for k in (2, 5)]
    + [pytest.param(duplicate_points(s), 5, id=f"duplicates-seed{s}") for s in range(2)]
    + [pytest.param(bisector_cells(s, 3), k, id=f"bisector-seed{s}-k{k}")
       for s in range(2) for k in (2, 3)]
    + [pytest.param(huge_clouds(s), 2, id=f"huge-seed{s}") for s in range(3)]
    + [pytest.param(synth_values(1, 2500), 1, id="synth-2.5k-k1")]
    + [pytest.param(chunked_cells(), 8, id="chunked-2x4096+3")]
)


@pytest.mark.parametrize("values, k", ORACLE_CASES)
def test_kmeans_matches_the_per_center_reference(values, k):
    want = reference_kmeans(values, k, seed=3)
    got = kmeans(values, k, seed=3)
    assert np.array_equal(got[0], want[0])
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


def test_exact_distances_over_row_chunks_equal_the_whole_matrix_sums():
    values = chunked_cells()
    n, d = values.shape
    rng = np.random.default_rng(16)
    centers = rng.standard_normal((5, d))
    labels = rng.integers(0, 5, n)
    buf = np.empty((_ROW_CHUNK, d))
    whole = np.sum((values - centers[2]) ** 2, axis=1)
    assert np.array_equal(metrics._sq_dist(values, centers[2], buf).view(np.int64),
                          whole.view(np.int64))
    labeled = np.sum((values - centers[labels]) ** 2, axis=1)
    assert np.array_equal(metrics._center_d2(values, centers, labels, buf).view(np.int64),
                          labeled.view(np.int64))
    every = np.stack([np.sum((values - center) ** 2, axis=1) for center in centers])
    assert np.array_equal(metrics._exact_labels(values, centers, buf), np.argmin(every, axis=0))


@pytest.mark.parametrize("k, times", [(4, 2.8), (1, 4.5)])
def test_kmeans_lanes_hold_row_chunks_not_copies_of_the_matrix(monkeypatch, k, times):
    # two lanes whatever the machine; each lane's scratch is 4096 of the
    # 12,293 rows, where lanes holding an (n, d) copy each peaked at 3.5
    # times the matrix's bytes, and at 5.3 when k = 1 sends every row down
    # the exact path
    monkeypatch.setattr(metrics, "usable_cpus", lambda: 2)
    values = np.random.default_rng(15).standard_normal((3 * _ROW_CHUNK + 5, 16))
    tracemalloc.start()
    try:
        kmeans(values, k, seed=0, restarts=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= times * values.nbytes


@pytest.mark.parametrize("seed", range(2))
def test_lloyd_stops_when_clusters_empty_on_duplicate_points(monkeypatch, seed):
    # 3 distinct points and 5 centers: an empty cluster whose worst-fit point
    # already sits on a center keeps its center instead of taking a twin's
    # cells every iteration, so no restart runs to the iteration cap
    calls = []
    nearest = metrics._nearest_center
    monkeypatch.setattr(metrics, "_nearest_center", lambda *a: calls.append(1) or nearest(*a))
    labels, _ = kmeans(duplicate_points(seed), 5, seed=3, restarts=10)
    assert len(calls) <= 10 * 5  # each restart's iterations and its last assignment
    assert len(set(labels.tolist())) == 3


@pytest.mark.parametrize("call, cause", [
    (lambda v, emb, meta: kmeans(v, 3, seed=0, restarts=0), "restarts = 0"),
    (lambda v, emb, meta: kmeans(np.where(v > 1.0, np.nan, v), 3, seed=0), "finite"),
    (lambda v, emb, meta: evaluate(emb, meta, knn_k=5, kmeans_restarts=0), "restarts = 0"),
    (lambda v, emb, meta: evaluate(emb, meta, knn_k=5, seed=-1), "seed = -1"),
], ids=["kmeans-restarts-0", "kmeans-nan", "evaluate-restarts-0", "evaluate-seed-minus-1"])
def test_kmeans_arguments_that_give_no_labels_are_rejected(call, cause):
    emb, meta = eval_instance()
    with pytest.raises(ValidationError, match=cause):
        call(emb.values, emb, meta)


@pytest.mark.parametrize("restarts", [1, 5])
def test_kmeans_results_do_not_depend_on_the_cpu_count(monkeypatch, restarts):
    emb, _, _ = generate(SynthSpec(3, 5, 6, (300, 250, 200), seed=4))
    results = []
    for count in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, count=count: set(range(count)))
        labels, inertia = kmeans(emb.values, 5, seed=3, restarts=restarts)
        results.append((labels.tobytes(), np.float64(inertia).tobytes()))
    assert results[0] == results[1]


def test_kmeans_rejects_squared_distances_that_overflow():
    # finite cells whose squared distances pass the largest float: k-means++
    # has no probabilities to draw from (RuntimeWarnings fail this suite)
    with pytest.raises(ValidationError, match="overflow"):
        kmeans([[1e200], [-1e200], [3e200]], 2, seed=0)


def test_kmeans_keeps_labels_when_the_inertia_overflows():
    values = np.array([[1e200], [-1e200], [3e200]])
    with np.errstate(over="ignore"):
        labels, inertia = kmeans(values, 1, seed=0)
    assert labels.tolist() == [0, 0, 0] and inertia == np.inf


# ---------------------------------------------------------------- nmi / ari

def test_nmi_examples():
    assert nmi([1, 1, 2, 2], [1, 1, 2, 2]) == pytest.approx(1.0)
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)
    got = nmi([0, 0, 1, 1, 2, 2], [0, 0, 0, 1, 1, 1])
    assert got == pytest.approx(slow_nmi([0, 0, 1, 1, 2, 2], [0, 0, 0, 1, 1, 1]), abs=1e-12)


def test_ari_examples():
    assert ari(["x", "x", "y"], ["x", "x", "y"]) == 1.0
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5
    assert ari([0, 0, 0], [7, 7, 7]) == 1.0  # degenerate single-cluster pair


def test_nmi_ari_match_bruteforce_and_are_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        a = rng.integers(0, 3, n).tolist()
        b = rng.integers(0, 4, n).tolist()
        assert nmi(a, b) == pytest.approx(slow_nmi(a, b), abs=1e-10)
        assert ari(a, b) == pytest.approx(slow_ari(a, b), abs=1e-10)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)
        assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)


def test_nmi_ari_empty_inputs():
    with pytest.raises(ValidationError):
        nmi([], [])
    with pytest.raises(ValidationError):
        ari([], [])


# ---------------------------------------------------------------- silhouettes

def test_label_asw_hand_instance():
    values = np.array([[0.0], [0.1], [1.0], [1.1]])
    codes = np.array(["A", "A", "B", "B"])
    s = silhouette_samples(values, codes)
    expected = slow_silhouette(values, codes.tolist())
    assert np.allclose(s, expected, atol=1e-12)
    assert silhouette_label_asw(values, codes) == pytest.approx((expected.mean() + 1) / 2)


def test_label_asw_limits():
    rng = np.random.default_rng(4)
    tight = rng.standard_normal((20, 2)) * 0.01
    apart = np.vstack([tight, tight + 1000.0])
    codes = np.array(["a"] * 20 + ["b"] * 20)
    assert silhouette_label_asw(apart, codes) > 0.999
    # random labels over one tight cloud: s ~ 0 -> score ~ 0.5
    labels = rng.choice(["a", "b"], 40)
    score = silhouette_label_asw(np.vstack([tight, tight + 0.001]), labels)
    assert abs(score - 0.5) < 0.1
    with pytest.raises(ValidationError):
        silhouette_label_asw(tight, np.array(["a"] * 20))


def test_silhouette_matches_bruteforce_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        values = rng.standard_normal((n, 3))
        codes = rng.integers(0, 3, n)
        if len(set(codes.tolist())) < 2:
            continue
        assert np.allclose(silhouette_samples(values, codes),
                           slow_silhouette(values, codes.tolist()), atol=1e-10)


def test_batch_asw_mixing_limits():
    rng = np.random.default_rng(6)
    # perfectly interleaved batches inside each label
    base = rng.standard_normal((30, 2)) * 0.01
    values = np.vstack([base, base + 1e-6])
    batches = np.array(["b1"] * 30 + ["b2"] * 30)
    labels = np.tile(np.array(["t1"] * 15 + ["t2"] * 15), 2)
    assert silhouette_batch_asw(values, batches, labels) > 0.9
    # batches fully separated within the label
    values2 = np.vstack([rng.standard_normal((15, 2)) * 0.01,
                         rng.standard_normal((15, 2)) * 0.01 + 500.0])
    batches2 = np.array(["b1"] * 15 + ["b2"] * 15)
    labels2 = np.array(["t"] * 30)
    assert silhouette_batch_asw(values2, batches2, labels2) < 0.05
    with pytest.raises(ValidationError):
        silhouette_batch_asw(values2, np.array(["b"] * 30), labels2)


def test_batch_asw_hand_instance_per_label():
    values = np.array([[0.0], [0.1], [1.0], [1.1]])
    batches = np.array(["p", "q", "p", "q"])
    labels = np.array(["t", "t", "t", "t"])
    s = slow_silhouette(values, batches.tolist())
    expected = np.mean(1 - np.abs(s))
    assert silhouette_batch_asw(values, batches, labels) == pytest.approx(expected, abs=1e-12)


def test_batch_asw_is_one_when_no_label_spans_two_batches():
    # each cell type sits in one batch only: no label has batches to mix
    emb = EmbeddingMatrix(("c0", "c1", "c2", "c3"),
                          np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]]))
    meta = CellMetadata.from_columns(list(emb.cell_ids), ["x", "x", "y", "y"],
                                     ["a", "a", "b", "b"])
    assert silhouette_batch_asw(emb.values, ["x", "x", "y", "y"], ["a", "a", "b", "b"]) == 1.0
    report = evaluate(emb, meta, knn_k=2)
    assert report.scores["batch_asw"] == 1.0


# ---------------------------------------------------------------- lisi

def test_lisi_formula_values():
    # proportions [1, 0] -> 1; [.5, .5] -> 2; [.5, .25, .25] -> 8/3
    graph = build_neighbor_graph(np.arange(5.0)[:, None], 4)
    codes = np.array([0, 0, 0, 0, 0])
    assert np.allclose(lisi(graph, codes), 1.0)
    values = np.array([[0.0], [0.01], [0.02], [10.0], [10.01], [10.02]])
    # self excluded: each point's 2 nearest neighbors sit in its own block
    per_cell = lisi(build_neighbor_graph(values, 2), np.array([0, 1, 0, 1, 0, 1]))
    assert np.all(per_cell >= 1.0) and np.all(per_cell <= 2.0)
    p = np.array([0.5, 0.25, 0.25])
    assert 1.0 / np.sum(p * p) == pytest.approx(8 / 3)
    graph4 = build_neighbor_graph(np.arange(5.0)[:, None] * 0.1, 4)
    codes4 = np.array(["a", "a", "b", "c", "a"])
    got = lisi(graph4, codes4)
    expected = slow_lisi([list(r) for r in graph4.neighbors], codes4.tolist())
    assert np.allclose(got, expected, atol=1e-12)
    assert got[0] == pytest.approx(8 / 3)  # neighbors: 2 a, 1 b, 1 c


def test_lisi_bounds_and_rescaling():
    rng = np.random.default_rng(7)
    values = rng.standard_normal((30, 3))
    codes = rng.choice(["a", "b", "c"], 30)
    per_cell = lisi(build_neighbor_graph(values, 10), codes)
    assert np.all(per_cell >= 1.0) and np.all(per_cell <= 3.0)
    assert ilisi_score(1.0, 4) == 0.0
    assert ilisi_score(4.0, 4) == 1.0
    assert ilisi_score(2.5, 4) == pytest.approx(0.5)
    assert clisi_score(1.0, 5) == 1.0
    assert clisi_score(5.0, 5) == 0.0
    with pytest.raises(ValidationError):
        build_neighbor_graph(values, 30)


def test_neighbor_graph_invariants():
    rng = np.random.default_rng(8)
    values = rng.standard_normal((12, 2))
    graph = build_neighbor_graph(values, 5)
    assert graph.neighbors.shape == (12, 5)
    for i in range(12):
        assert i not in graph.neighbors[i]
        assert len(set(graph.neighbors[i].tolist())) == 5
    expected = slow_knn(values, 5)
    assert [list(r) for r in graph.neighbors] == expected


def integer_points(seed, n, d, hi):
    # small integer coordinates: every distance is computed exactly, and many
    # rows have several points at their k-th distance
    return np.random.default_rng(seed).integers(0, hi, (n, d)).astype(np.float64)


def exact_sq_dists(values, rows):
    d2 = ((values[rows, None, :] - values[None, :, :]) ** 2).sum(axis=2)
    d2[np.arange(len(rows)), rows] = np.inf
    return d2


def test_neighbor_graph_ties_match_bruteforce():
    for seed, n, d, hi in [(20, 15, 1, 6), (21, 24, 2, 4), (22, 30, 2, 5)]:
        values = integer_points(seed, n, d, hi)
        d2 = exact_sq_dists(values, np.arange(n))
        for k in (1, 2, 4, 7, n - 1):
            graph = build_neighbor_graph(values, k)
            assert [list(r) for r in graph.neighbors] == slow_knn(values, k)
        kth = np.sort(d2, axis=1)[:, 3]
        assert np.any(np.sum(d2 <= kth[:, None], axis=1) > 4)  # ties at k = 4


def test_neighbor_graph_ties_across_row_blocks():
    # 3000 rows take several row blocks, a short remainder joined to the last
    values = integer_points(23, 3000, 2, 30)
    n = len(values)
    for k in (1, 5, 15):
        graph = build_neighbor_graph(values, k)
        tied = untied = 0
        for start in range(0, n, 500):
            rows = np.arange(start, min(start + 500, n))
            d2 = exact_sq_dists(values, rows)
            index = np.broadcast_to(np.arange(n), d2.shape)
            order = np.lexsort((index, d2), axis=1)
            assert np.array_equal(graph.neighbors[rows], order[:, :k])
            kth = np.take_along_axis(d2, order[:, k - 1:k], axis=1)
            at_or_below = np.sum(d2 <= kth, axis=1)
            tied += int(np.sum(at_or_below > k))
            untied += int(np.sum(at_or_below == k))
        assert tied > 0 and untied > 0



@pytest.mark.parametrize("values", [
    pytest.param(np.ones((50, 3)), id="all-rows-identical"),
    pytest.param(np.where(np.random.default_rng(24).random((60, 3)) < 0.5, 0.0, 1.0),
                 id="two-distinct-values"),
    pytest.param(np.repeat([[0.0, 1.0], [2.0, 5.0]], 40, axis=0), id="two-distinct-rows"),
])
def test_neighbor_graph_mass_ties_match_full_sort(values):
    d2 = gram_sq_dists(values)
    n = len(values)
    for k in sorted({1, 2, 5, 15, n // 4, n // 4 + 1, n - 1}):
        assert np.array_equal(build_neighbor_graph(values, k).neighbors, lexsort_knn(d2, k))


def test_neighbor_graph_on_distances_that_overflow():
    # squared norms near 1e310 overflow: the distances from the large rows are
    # inf or nan. nan entries are candidates like any other and sort after
    # every number and inf, so each row keeps the full (distance, index) order.
    rng = np.random.default_rng(25)
    values = np.vstack([rng.standard_normal((30, 4)) * 1e155, rng.standard_normal((30, 4))])
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = gram_sq_dists(values)
        assert np.isnan(d2).any() and np.isinf(d2[~np.eye(60, dtype=bool)]).any()
        for k in (1, 5, 15, 29, 45):
            got = build_neighbor_graph(values, k).neighbors
            assert np.array_equal(got, lexsort_knn(d2, k))


def test_neighbor_candidates_include_entries_at_the_sampled_bound():
    # on tie-heavy points a row's sampled bound is often its k-th distance
    # itself; the entries equal to it are candidates
    values = integer_points(24, 400, 2, 20)
    d2 = gram_sq_dists(values)
    for k in (1, 5, 15):
        assert np.array_equal(build_neighbor_graph(values, k).neighbors, lexsort_knn(d2, k))
    # a row whose minimum sits in a sampled column: the bound is that minimum
    assert metrics._nearest(np.arange(9.0)[None, :], 1).tolist() == [[0]]


# ---------------------------------------------------------------- kbet

def test_chi2_sf_against_scipy():
    from scipy.stats import chi2 as scipy_chi2
    for df in (1, 2, 3, 4, 7, 12, 40):
        for x in (1e-10, 0.2, 1.0, 2.5, 7.0, 15.0, 55.0, 200.0):
            assert chi2_sf(x, df) == pytest.approx(scipy_chi2.sf(x, df), abs=1e-10)
    assert chi2_sf(0.0, 3) == 1.0
    assert chi2_sf(15.0, 1) < 0.05


def test_chi2_sf_rejects_non_integer_degrees_of_freedom():
    with pytest.raises(ValidationError, match="integer"):
        chi2_sf(3.0, 2.5)


def test_kbet_uniform_neighborhoods_accepted():
    # neighborhood composition == global composition for every cell
    coords = np.arange(16.0)[:, None]
    graph = build_neighbor_graph(coords, 15)  # everyone sees everyone else
    batches = np.array(["a", "b"] * 8)
    labels = np.array(["t"] * 16)
    # each cell sees 7 of its own batch and 8 of the other: stat is small
    assert kbet_per_label(graph, batches, labels) == 1.0


def test_kbet_single_batch_neighborhoods_rejected():
    # balanced 2-batch label, every neighborhood drawn from one batch:
    # chi-square statistic 15 at df 1 -> p << 0.05 -> acceptance 0
    left = np.arange(16.0)[:, None]
    right = np.arange(16.0)[:, None] + 1e6
    values = np.vstack([left, right])
    batches = np.array(["a"] * 16 + ["b"] * 16)
    labels = np.array(["t"] * 32)
    graph = build_neighbor_graph(values, 15)
    assert kbet_per_label(graph, batches, labels) == 0.0
    stat = (15 - 7.5) ** 2 / 7.5 + (0 - 7.5) ** 2 / 7.5
    assert stat == 15.0 and chi2_sf(15.0, 1) < 1e-3


def test_lisi_and_kbet_match_per_cell_loops():
    from scipy.stats import chi2 as scipy_chi2
    rng = np.random.default_rng(25)
    n = 600
    values = rng.standard_normal((n, 3))
    batches = rng.choice(["a", "b", "c"], n, p=[0.5, 0.3, 0.2])
    labels = rng.choice(["x", "y", "z"], n)
    batches[(labels == "y") & (batches == "c")] = "b"  # 'y' lacks batch 'c'
    batches[labels == "z"] = "a"  # 'z' holds one batch and scores 1
    graph = build_neighbor_graph(values, 15)
    nbrs = [list(r) for r in graph.neighbors]
    assert np.allclose(lisi(graph, batches), slow_lisi(nbrs, batches.tolist()), atol=1e-12)

    per_label = []
    for lab in ("x", "y", "z"):
        cells = np.flatnonzero(labels == lab)
        cats = sorted(set(batches[cells].tolist()))
        if len(cats) < 2:
            per_label.append(1.0)
            continue
        pi = np.array([np.sum(batches[cells] == c) for c in cats]) / len(cells)
        accepted = 0
        for i in cells:
            counts = np.array([sum(batches[j] == c for j in nbrs[i]) for c in cats])
            if counts.sum() == 0:
                accepted += 1
                continue
            expected = pi * counts.sum()
            stat = np.sum((counts - expected) ** 2 / expected)
            accepted += scipy_chi2.sf(stat, len(cats) - 1) >= 0.05
        per_label.append(accepted / len(cells))
    assert kbet_per_label(graph, batches, labels) == pytest.approx(np.mean(per_label), abs=1e-12)


def test_kbet_single_batch_label_scores_one():
    # label 'solo' contains a single batch and contributes acceptance 1 by
    # convention; 'duo' is perfectly mixed, so the mean stays high
    rng = np.random.default_rng(9)
    values = rng.standard_normal((20, 2))
    batches = np.array(["a"] * 10 + ["a", "b"] * 5)
    labels = np.array(["solo"] * 10 + ["duo"] * 10)
    graph = build_neighbor_graph(values, 5)
    score = kbet_per_label(graph, batches, labels)
    # score = (1 + duo acceptance) / 2, so the solo convention forces >= 0.5
    assert 0.5 <= score <= 1.0


# ---------------------------------------------------------------- connectivity

def test_graph_connectivity_examples():
    # two tight pairs far apart, one label: k=1 graph splits 2 + 2 -> 0.5
    values = np.array([[0.0], [0.1], [100.0], [100.1]])
    graph = build_neighbor_graph(values, 1)
    assert graph_connectivity(graph, np.array(["t"] * 4)) == 0.5
    # fully connected label
    graph2 = build_neighbor_graph(values, 3)
    assert graph_connectivity(graph2, np.array(["t"] * 4)) == 1.0
    # 3 + 1 split within one label -> 0.75
    values3 = np.array([[0.0], [0.1], [0.2], [50.0], [50.1], [50.2], [50.3]])
    labels3 = np.array(["x", "x", "x", "y", "y", "y", "x"])
    graph3 = build_neighbor_graph(values3, 1)
    # label x: nodes {0,1,2,6}; 6's neighbor is 5 (label y) -> component {6}
    assert graph_connectivity(graph3, labels3) == pytest.approx((0.75 + 1.0) / 2)


def test_graph_connectivity_long_chains():
    # a 1-nn graph on a shuffled line forms long chains, which an array
    # union-find must merge over several rounds
    rng = np.random.default_rng(26)
    n = 400
    positions = np.cumsum(rng.exponential(size=n))
    perm = rng.permutation(n)
    values = positions[perm][:, None]
    labels = np.array(["a", "b", "c", "d"])[perm * 4 // n]
    for k in (1, 2):
        graph = build_neighbor_graph(values, k)
        expected = slow_connectivity([list(r) for r in graph.neighbors], labels.tolist())
        assert graph_connectivity(graph, labels) == pytest.approx(expected, abs=1e-12)


def test_graph_connectivity_matches_union_find():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n = int(rng.integers(6, 20))
        values = rng.standard_normal((n, 2))
        labels = rng.choice(["a", "b", "c"], n).tolist()
        graph = build_neighbor_graph(values, 2)
        expected = slow_connectivity([list(r) for r in graph.neighbors], labels)
        assert graph_connectivity(graph, np.array(labels)) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------- pcr

def test_pcr_batch_independent_embedding_scores_high():
    rng = np.random.default_rng(11)
    values = rng.standard_normal((120, 6))
    batches = rng.permutation(np.array(["a", "b", "c"] * 40))
    score = pcr_score(values, batches)
    assert score > 0.9


def test_pcr_perfect_predictor_component():
    rng = np.random.default_rng(12)
    batches = np.array(["a", "b"] * 30)
    values = np.zeros((60, 3))
    values[:, 0] = (batches == "a") * 1000.0
    values[:, 1:] = rng.standard_normal((60, 2))
    # dominant component is the batch indicator: R^2 = 1 for it
    score = pcr_score(values, batches)
    assert score == pytest.approx(1.0 - (1.0 + 0.0 + 0.0) / 3, abs=0.05)


def test_pcr_matches_normal_equation_oracle():
    rng = np.random.default_rng(13)
    values = rng.standard_normal((6, 2)) + np.array([[1.0, -0.5]])
    batches = np.array(["a", "a", "a", "b", "b", "b"])
    assert pcr_score(values, batches) == pytest.approx(slow_pcr(values, batches), abs=1e-10)
    for _ in range(10):
        n = int(rng.integers(5, 12))
        values = rng.standard_normal((n, 3))
        batches = rng.choice(["a", "b"], n - 2).tolist() + ["a", "b"]
        assert pcr_score(values, np.array(batches)) == pytest.approx(
            slow_pcr(values, batches), abs=1e-10)


def test_pcr_preconditions():
    rng = np.random.default_rng(14)
    with pytest.raises(ValidationError):
        pcr_score(rng.standard_normal((5, 2)), np.array(["a"] * 5))
    with pytest.raises(ValidationError):
        pcr_score(rng.standard_normal((2, 2)), np.array(["a", "b"]))


# ---------------------------------------------------------------- isolated labels

def test_isolated_f1_perfect_capture():
    batches = np.array(["b1"] * 4 + ["b2"] * 4)
    labels = np.array(["rare"] * 2 + ["common"] * 2 + ["common"] * 4)
    clusters = np.array([0, 0, 1, 1, 1, 1, 1, 1])
    score, flag = isolated_label_f1(batches, labels, clusters)
    assert score == 1.0 and not flag


def test_isolated_f1_half_coverage():
    # the only isolated label is 'iso' (one batch); its best cluster covers
    # half its cells and nothing else -> precision 1, recall 0.5, F1 = 2/3
    batches = np.array(["b1", "b1", "b1", "b1", "b1", "b2", "b2"])
    labels = np.array(["iso"] * 4 + ["other"] * 3)
    clusters = np.array([0, 0, 1, 1, 2, 2, 2])
    score, flag = isolated_label_f1(batches, labels, clusters)
    assert score == pytest.approx(2 / 3)
    assert not flag


def test_isolated_f1_exhaustive_and_flag():
    rng = np.random.default_rng(15)
    batches = np.array(["b1"] * 6 + ["b2"] * 6)
    labels = np.array(["x", "x", "y", "y", "z", "z"] * 2)
    clusters = rng.integers(0, 3, 12)
    score, flag = isolated_label_f1(batches, labels, clusters)
    assert flag  # every label in every batch -> all isolated by the min rule
    # exhaustive max-F1 per label
    expected = []
    for lab in ["x", "y", "z"]:
        truth = labels == lab
        best = 0.0
        for c in set(clusters.tolist()):
            pred = clusters == c
            tp = np.sum(pred & truth)
            if tp == 0:
                continue
            p, r = tp / pred.sum(), tp / truth.sum()
            best = max(best, 2 * p * r / (p + r))
        expected.append(best)
    assert score == pytest.approx(np.mean(expected), abs=1e-12)


# ---------------------------------------------------------------- evaluate

def eval_instance(seed=16, n=48):
    rng = np.random.default_rng(seed)
    ids = tuple(f"c{i}" for i in range(n))
    types = rng.choice(["t1", "t2", "t3"], n)
    centers = {"t1": 0.0, "t2": 4.0, "t3": 8.0}
    values = rng.standard_normal((n, 3)) + np.array([[centers[t] for t in types]]).T
    batches = rng.choice(["b1", "b2"], n)
    emb = EmbeddingMatrix(ids, values)
    meta = CellMetadata.from_columns(list(ids), batches.tolist(), types.tolist())
    return emb, meta


def three_batch_instance(n, seed=24):
    rng = np.random.default_rng(seed)
    ids = tuple(f"c{i}" for i in range(n))
    types = rng.integers(0, 4, n)
    batches = rng.integers(0, 3, n)
    values = (rng.standard_normal((n, 6)) + 3.0 * rng.standard_normal((4, 6))[types]
              + rng.standard_normal((3, 6))[batches])
    emb = EmbeddingMatrix(ids, values)
    meta = CellMetadata.from_columns(
        list(ids), [f"b{b}" for b in batches], [f"t{t}" for t in types])
    return emb, meta


def test_evaluate_matches_standalone_metrics():
    emb, meta = three_batch_instance(3000)
    values = emb.values
    batches = np.asarray(meta.batches_for(emb))
    labels = np.asarray(meta.labels_for(emb))
    report = evaluate(emb, meta, subset="full", knn_k=15, seed=0)
    graph = build_neighbor_graph(values, 15)
    clusters, _ = kmeans(values, 4, seed=0, restarts=10)
    assert report.scores == {
        "kmeans_nmi": nmi(clusters.tolist(), labels.tolist()),
        "kmeans_ari": float(np.clip(ari(clusters.tolist(), labels.tolist()), 0.0, 1.0)),
        "label_asw": silhouette_label_asw(values, labels),
        "isolated_f1": isolated_label_f1(batches, labels, clusters)[0],
        "clisi_score": clisi_score(float(np.mean(lisi(graph, labels))), 4),
        "batch_asw": silhouette_batch_asw(values, batches, labels),
        "ilisi_score": ilisi_score(float(np.mean(lisi(graph, batches))), 3),
        "kbet_per_label": kbet_per_label(graph, batches, labels),
        "graph_connectivity": graph_connectivity(graph, labels),
        "pcr_score": pcr_score(values, batches),
    }


@pytest.mark.parametrize("subset", ["full", "scenario"])
def test_evaluate_sweeps_all_distances_once(monkeypatch, subset):
    emb, meta = three_batch_instance(600)
    sizes = []
    sweep = metrics._distance_sweep

    def counting_sweep(values, k, codes):
        sizes.append(len(values))
        return sweep(values, k, codes)

    monkeypatch.setattr(metrics, "_distance_sweep", counting_sweep)
    evaluate(emb, meta, subset=subset, knn_k=15)
    assert sizes.count(emb.n) == 1
    # the other sweeps are the batch silhouettes within each label
    _, label_sizes = np.unique(meta.labels_for(emb), return_counts=True)
    assert sorted(sizes) == sorted(label_sizes.tolist() + [emb.n])


def test_evaluate_overall_is_weighted_mean():
    emb, meta = eval_instance()
    report = evaluate(emb, meta, subset="full", knn_k=8, seed=0)
    assert report.overall == pytest.approx(0.6 * report.bio + 0.4 * report.batch, abs=1e-12)
    assert set(report.scores) == {
        "kmeans_nmi", "kmeans_ari", "label_asw", "isolated_f1", "clisi_score",
        "batch_asw", "ilisi_score", "kbet_per_label", "graph_connectivity", "pcr_score",
    }
    assert all(0.0 <= v <= 1.0 for v in report.scores.values())
    assert report.bio == pytest.approx(np.mean([report.scores[m] for m in (
        "kmeans_nmi", "kmeans_ari", "label_asw", "isolated_f1", "clisi_score")]))


def test_evaluate_scenario_subset():
    emb, meta = eval_instance()
    report = evaluate(emb, meta, subset="scenario", knn_k=8, seed=0)
    assert set(report.scores) == {"kmeans_nmi", "kmeans_ari", "label_asw",
                                  "batch_asw", "ilisi_score"}
    assert report.overall == pytest.approx(0.6 * report.bio + 0.4 * report.batch, abs=1e-12)


def test_aggregate_weighting_reference_values():
    assert aggregate_scores(0.7239, 0.8047) == pytest.approx(0.7562, abs=5e-5)
    assert aggregate_scores(0.7359, 0.8269) == pytest.approx(0.7723, abs=5e-5)
    assert aggregate_scores(0.42, 0.42) == pytest.approx(0.42)
    report = MetricsReport.from_scores("scenario", {
        "kmeans_nmi": 0.5, "kmeans_ari": 0.5, "label_asw": 0.5,
        "batch_asw": 0.5, "ilisi_score": 0.5})
    assert report.overall == pytest.approx(0.5)


def test_evaluate_deterministic_bit_exact():
    emb, meta = eval_instance()
    r1 = evaluate(emb, meta, subset="full", knn_k=8, seed=3)
    copy = EmbeddingMatrix(emb.cell_ids, emb.values.copy())
    r2 = evaluate(copy, meta, subset="full", knn_k=8, seed=3)
    assert r1 == r2


def test_evaluate_invariant_to_group_renaming():
    emb, meta = eval_instance()
    r1 = evaluate(emb, meta, subset="full", knn_k=8, seed=3)
    meta2 = CellMetadata.from_columns(
        list(emb.cell_ids),
        [f"B_{meta.batch_of[c]}" for c in emb.cell_ids],
        [f"T_{meta.label_of[c]}" for c in emb.cell_ids],
    )
    r2 = evaluate(emb, meta2, subset="full", knn_k=8, seed=3)
    assert r1.scores == r2.scores


def test_evaluate_requires_labels():
    emb, meta = eval_instance()
    unlabeled = CellMetadata.from_columns(
        list(emb.cell_ids), [meta.batch_of[c] for c in emb.cell_ids])
    with pytest.raises(ValidationError):
        evaluate(emb, unlabeled)


def test_evaluate_invariant_to_row_permutation():
    # well-separated types so the seeded clustering recovers one partition
    # regardless of row order; remaining metrics differ only by summation
    # order rounding
    rng = np.random.default_rng(19)
    n = 45
    types = np.repeat(["t1", "t2", "t3"], 15)
    centers = {"t1": 0.0, "t2": 6.0, "t3": 12.0}
    values = rng.standard_normal((n, 3)) * 0.5 + np.array([[centers[t] for t in types]]).T
    batches = rng.choice(["b1", "b2"], n)
    ids = tuple(f"c{i}" for i in range(n))
    emb = EmbeddingMatrix(ids, values)
    meta = CellMetadata.from_columns(list(ids), batches.tolist(), types.tolist())
    r1 = evaluate(emb, meta, subset="full", knn_k=8, seed=2)
    perm = rng.permutation(n)
    emb2 = EmbeddingMatrix(tuple(ids[i] for i in perm), values[perm])
    r2 = evaluate(emb2, meta, subset="full", knn_k=8, seed=2)
    for name in r1.scores:
        assert r1.scores[name] == pytest.approx(r2.scores[name], abs=1e-12)


def test_evaluate_rejects_coordinates_whose_squares_overflow():
    emb, meta = eval_instance()
    huge = EmbeddingMatrix(emb.cell_ids, emb.values * 1e155)
    with pytest.raises(ValidationError, match="overflow"):
        evaluate(huge, meta, subset="full", knn_k=8)


def test_evaluate_single_batch_degenerate_convention():
    rng = np.random.default_rng(17)
    ids = tuple(f"c{i}" for i in range(20))
    emb = EmbeddingMatrix(ids, rng.standard_normal((20, 2)))
    meta = CellMetadata.from_columns(
        list(ids), ["b"] * 20, rng.choice(["t1", "t2"], 20).tolist())
    report = evaluate(emb, meta, subset="scenario", knn_k=5)
    assert report.scores["batch_asw"] == 1.0
    assert report.scores["ilisi_score"] == 1.0


@pytest.mark.parametrize("subset, reads_graph", [("scenario", False), ("full", True)])
def test_one_batch_evaluate_builds_the_graph_only_for_a_metric_that_reads_it(
        monkeypatch, subset, reads_graph):
    # one batch: iLISI and kBET take their 1.0 default; cLISI (full) reads the graph
    emb, meta = three_batch_instance(300)
    one = CellMetadata.from_columns(list(emb.cell_ids), ["b"] * emb.n,
                                    [meta.label_of[c] for c in emb.cell_ids])
    sweep = metrics._distance_sweep
    ks = []

    def recording_sweep(values, k, codes):
        ks.append(k)
        return sweep(values, k, codes)

    monkeypatch.setattr(metrics, "_distance_sweep", recording_sweep)
    report = evaluate(emb, one, subset=subset, knn_k=15)
    assert ks == [15 if reads_graph else None]
    monkeypatch.setattr(metrics, "_distance_sweep",
                        lambda values, k, codes: sweep(values, 15, codes))
    assert evaluate(emb, one, subset=subset, knn_k=15) == report


def test_distance_sweep_holds_one_block_of_distances():
    # one coordinate: products one wide, so a panel holds 2^20 distances
    rng = np.random.default_rng(8)
    values = rng.standard_normal((1000, 1))
    codes = rng.integers(0, 4, 1000)
    tracemalloc.start()
    try:
        metrics._distance_sweep(values, 15, codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert metrics._panel_plan(1000, 1) == [0, 1000]  # one (1000, 1000) panel
    assert peak <= 1.3 * 1000 * 1000 * 8


def lane_buffers(cuts, parts):
    """Rows of each lane's panel buffer when the panels between ``cuts`` are
    dealt to ``parts`` lanes in turn: the tallest panel the lane runs."""
    spans = list(zip(cuts, cuts[1:]))
    lanes = min(parts, len(spans))
    return [max(hi - lo for lo, hi in spans[i::lanes]) for i in range(lanes)]


# (cells, width): the rows of each panel and of the last one. Products one
# wide hold 2^20 distances a panel; the others are the sweeps of
# evaluate-20k, of a continual-10k stage, of its first stage and of its
# per-label batch silhouettes
PANEL_SIZES = {
    (1000, 1): (1056, 1000), (20_000, 1): (64, 96), (50_000, 1): (32, 48),
    (200_000, 1): (32, 32), (20_000, 8): (32, 32), (10_000, 8): (32, 48),
    (2_500, 8): (64, 68), (1_250, 4): (224, 354),
}


def plan_case(n, width, cpus):
    rows = PANEL_SIZES[n, width][0]
    # a width-1 case is named as it was when every panel held 2^20 distances
    name = f"{n}-{cpus}-{rows}" if width == 1 else f"{n}x{width}-{cpus}-{rows}"
    return pytest.param(n, width, cpus, id=name)


@pytest.mark.parametrize("n, width, cpus", [
    plan_case(n, width, cpus) for n, width in PANEL_SIZES for cpus in (1, 2, 8)])
def test_panel_plan_gives_every_cpu_a_panel(n, width, cpus):
    rows, last = PANEL_SIZES[n, width]
    assert metrics._panel_rows(n, width) == rows
    # the fewest whole chunks whose products reach 2^20: both of a panel's
    # products stay on the large-matrix path
    assert rows * n * width >= 1 << 20 > (rows - 32) * n * width
    cuts = metrics._panel_plan(n, width)
    # panels of `rows` rows from row 0; a remainder shorter than one panel
    # joins the last, so it is under two panels, and the input alone sets them
    assert cuts == list(range(0, n - last + 1, rows)) + [n]
    assert last < 2 * rows
    # the panels are dealt to the CPUs in turn: every CPU gets one while
    # there are as many panels as CPUs, and an input under two panels runs
    # on one
    lanes = lane_buffers(cuts, cpus)
    assert len(lanes) == min(cpus, len(cuts) - 1)
    # each lane's buffer is one panel tall, and the last panel's lane's as tall as it
    assert sorted(lanes) == [rows] * (len(lanes) - 1) + [last]
    # the bound the plan states: all lanes together under (lanes + 1) panels
    # of under 2^20 / width + 32 n distances each
    assert rows * n < (1 << 20) / width + 32 * n and sum(lanes) < (len(lanes) + 1) * rows
    if n == 200_000 and cpus == 8:
        # one 32-row panel per CPU: 410 MB of distances, 8 times one CPU's
        assert sum(lanes) * n == 8 * 32 * 200_000


@pytest.mark.parametrize("cpus", [1, 2])
def test_distance_sweep_holds_its_panels_of_distances(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    n = 4000
    rng = np.random.default_rng(11)
    values = rng.standard_normal((n, 8))
    codes = rng.integers(0, 4, n)
    parts = cpus if metrics._openblas_controls() else 1
    panels = sum(lane_buffers(metrics._panel_plan(n, 4), parts))  # 8 coordinates, 4 groups
    tracemalloc.start()
    try:
        metrics._distance_sweep(values, 15, codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the lanes' panel buffers (not a 64 MB block) and the chunk scratch
    assert peak <= 1.3 * (panels + metrics._CHUNK_ROWS) * n * 8


def test_distance_sweep_panels_are_sized_by_their_products(monkeypatch):
    # evaluate's sweep at a continual-10k first stage: 2,500 cells of 32
    # coordinates in 8 groups. Panels of 2^20 distances, 448 rows and a last
    # one of 708, held 25 MB on two lanes; products of 2^20 need 64 rows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    rng = np.random.default_rng(14)
    values = rng.standard_normal((2500, 32))
    codes = rng.integers(0, 8, 2500)
    tracemalloc.start()
    try:
        metrics._distance_sweep(values, 15, codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_sweep_results_do_not_depend_on_the_panels_or_the_cpu_count(monkeypatch):
    n = 3000
    rng = np.random.default_rng(12)
    values = rng.standard_normal((n, 16))
    group_counts = (2, 4)
    groupings = [rng.integers(0, groups, n) for groups in group_counts]
    results, joined = [], False
    heights = (None, 32, 96, 160, 1024)  # None: the planned panels
    for height in heights:
        if height is not None:
            monkeypatch.setattr(metrics, "_panel_rows", lambda n, width, rows=height: rows)
            cuts = metrics._panel_plan(n, 1)
            joined |= cuts[-1] - cuts[-2] > height
        by_cpus = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            by_cpus.append([metrics._distance_sweep(values, 15, codes) for codes in groupings])
        # the same panels give the same bytes on any CPU count
        for got in by_cpus[1:]:
            for (neighbors, silhouette), (want_neighbors, want_silhouette) in zip(got, by_cpus[0]):
                assert neighbors.tobytes() == want_neighbors.tobytes()
                assert silhouette.tobytes() == want_silhouette.tobytes()
        results.append(by_cpus[0])
    assert joined  # some height leaves a short remainder for the last panel
    want = results[0]
    exact = 0
    for height, got in zip(heights[1:], results[1:]):
        for groups, (neighbors, silhouette), (want_neighbors, want_silhouette) in zip(
                group_counts, got, want):
            # rows x d x n reaches 2^20 at every height here
            assert neighbors.tobytes() == want_neighbors.tobytes()
            if height * n * groups >= 1 << 20:
                # both products off the small-matrix path, where a panel's
                # height can move only its last rows' entries in the last
                # n mod 8 columns, and 3,000 is a multiple of 8
                assert silhouette.tobytes() == want_silhouette.tobytes()
                exact += 1
            else:
                assert np.allclose(silhouette, want_silhouette, rtol=0, atol=1e-12)
    assert 0 < exact < 2 * (len(heights) - 1)  # heights on both sides of the bound
    # the slow references take about 20 ms a row: both ends, both sides of
    # some cuts, and a sample
    rows = sorted({0, 31, 32, 95, 96, 159, 160, 1023, 1024, 2879, 2880, n - 1,
                   *rng.choice(n, 30, replace=False).tolist()})
    assert want[0][0][rows].tolist() == slow_knn(values, 15, rows)
    for codes, (_, silhouette) in zip(groupings, want):
        assert np.allclose(silhouette[rows], slow_silhouette(values, codes.tolist(), rows),
                           rtol=0, atol=1e-12)


def test_sweep_clamps_squared_distances_that_round_below_zero():
    # near-duplicate rows: the Gram form of their squared distance rounds to
    # either sign of zero, and the sweep clamps it to +0.0 as the reference
    # does, so each row's twins tie at 0 and go by row index
    rng = np.random.default_rng(15)
    values = np.repeat(100 * rng.standard_normal((40, 4)), 3, axis=0)
    values += 1e-13 * rng.standard_normal(values.shape)
    codes = rng.integers(0, 3, len(values))
    sq = np.sum(values * values, axis=1)
    gram = (sq[:, None] + sq[None, :]) - (2.0 * values) @ values.T
    assert (gram < 0).any() and (gram > 0).any()
    neighbors, silhouette = metrics._distance_sweep(values, 5, codes)
    assert neighbors.tobytes() == lexsort_knn(gram_sq_dists(values), 5).tobytes()
    # a negative left under the square root would be nan and warn
    assert np.allclose(silhouette, slow_silhouette(values, codes.tolist()), rtol=0, atol=1e-6)


@pytest.mark.parametrize("run", ["sweep", "batch_asw"])
def test_results_are_the_same_bytes_on_any_cpu_count(monkeypatch, run):
    # inputs whose last bits followed the CPU count while the cuts did
    if run == "sweep":
        rng = np.random.default_rng(1000)
        values = 3 * rng.standard_normal((1000, 16))
        codes = rng.integers(0, 4, 1000)

        def compute():
            neighbors, silhouette = metrics._distance_sweep(values, 15, codes)
            return neighbors.tobytes() + silhouette.tobytes()
    else:
        emb, meta, _ = generate(SynthSpec(4, 8, 32, 1250, effect_scale_range=(0.8, 1.25),
                                          effect_shift_sigma=1.5, seed=3))

        def compute():
            asw = silhouette_batch_asw(emb.values, meta.batches_for(emb), meta.labels_for(emb))
            return np.float64(asw).tobytes()
    results = []
    for cpus in (1, 2, 3, 4, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
        results.append(compute())
    assert results == [results[0]] * 5


@pytest.mark.parametrize("call", ["sweep", "kmeans"])
def test_a_failing_worker_thread_is_joined_and_the_blas_threads_restored(
        request, monkeypatch, call):
    controls = metrics._openblas_controls()
    if not controls:
        pytest.skip("numpy's BLAS is not an OpenBLAS whose threads can be set")
    get_threads, set_threads = controls[0]
    request.addfinalizer(partial(set_threads, get_threads()))
    set_threads(2)  # not the held count, so a count left unrestored shows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    values = np.random.default_rng(9).standard_normal((200, 4))
    held = []

    def failing(target):
        def run(*args):
            held.append(get_threads())
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("in a worker thread")
            return target(*args)
        return run

    if call == "sweep":
        # 32-row panels, so that 200 cells make panels for both lanes
        monkeypatch.setattr(metrics, "_panel_rows", lambda n, width: 32)
        monkeypatch.setattr(metrics, "_nearest", failing(metrics._nearest))
        run = lambda: metrics._distance_sweep(values, 5, None)  # noqa: E731
    else:
        monkeypatch.setattr(metrics, "_lloyd", failing(metrics._lloyd))
        run = lambda: kmeans(values, 3, seed=0, restarts=4)  # noqa: E731
    threads = threading.active_count()
    with pytest.raises(MemoryError, match="in a worker thread"):
        run()
    assert set(held) == {1}  # every part ran with the BLAS held to one thread
    assert get_threads() == 2
    assert threading.active_count() == threads


@pytest.mark.parametrize("call", ["sweep", "kmeans", "nested"])
def test_a_call_joins_its_threads_and_restores_the_blas_threads(request, monkeypatch, call):
    controls = metrics._openblas_controls()
    if not controls:
        pytest.skip("numpy's BLAS is not an OpenBLAS whose threads can be set")
    get_threads, set_threads = controls[0]
    request.addfinalizer(partial(set_threads, get_threads()))
    set_threads(2)  # not the held count, so a count left unrestored shows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    values = np.random.default_rng(9).standard_normal((200, 4))
    held, ran_on = [], set()

    def recording(target):
        def run(*args):
            held.append(get_threads())
            ran_on.add(threading.get_ident())
            return target(*args)
        return run

    if call == "sweep":
        monkeypatch.setattr(metrics, "_panel_rows", lambda n, width: 32)
        want = metrics._distance_sweep(values, 5, None)[0]
        monkeypatch.setattr(metrics, "_nearest", recording(metrics._nearest))
        run = lambda: metrics._distance_sweep(values, 5, None)[0]  # noqa: E731
    else:
        want = kmeans(values, 3, seed=0, restarts=4)[0]
        monkeypatch.setattr(metrics, "_lloyd", recording(metrics._lloyd))
        run = lambda: kmeans(values, 3, seed=0, restarts=4)[0]  # noqa: E731
    if call == "nested":
        # two lanes that each run k-means on two lanes of their own
        inner = run
        run = lambda: metrics._in_lanes([0, 1], lambda lane, lanes: [inner() for _ in lane])  # noqa: E731
        want = [want, want]
    threads = threading.active_count()
    got = run()
    assert np.array_equal(np.asarray(got), np.asarray(want))
    assert set(held) == {1}  # every part ran with the BLAS held to one thread
    assert len(ran_on) > 1  # on more than one thread
    assert get_threads() == 2
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("held", [True, False])
def test_in_lanes_deals_the_items_in_turn_and_returns_them_in_order(monkeypatch, cpus, held):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    if not held:
        monkeypatch.setattr(metrics, "_openblas_controls", lambda: ())
    elif not metrics._openblas_controls():
        pytest.skip("numpy's BLAS is not an OpenBLAS whose threads can be set")
    items = ["a", "b", "c", "d", "e"]
    calls = []

    def work(lane, lanes):
        calls.append((lane, lanes, threading.get_ident()))
        return [item.upper() for item in lane]

    assert metrics._in_lanes(items, work) == ["A", "B", "C", "D", "E"]
    # one lane per CPU, up to one per item, while the BLAS can be held
    lanes = min(cpus, len(items)) if held else 1
    # lane i gets every lanes-th item from item i, and lane 0 runs on this thread
    lane_of = {tuple(lane): (count, ident) for lane, count, ident in calls}
    assert len(calls) == lanes
    assert set(lane_of) == {tuple(items[i::lanes]) for i in range(lanes)}
    assert all(count == lanes for count, _ in lane_of.values())
    idents = [lane_of[tuple(items[i::lanes])][1] for i in range(lanes)]
    assert idents[0] == threading.get_ident()
    assert threading.get_ident() not in idents[1:]


@pytest.mark.parametrize("held", [True, False])
def test_in_lanes_releases_the_heaps_once_when_the_outermost_call_leaves(monkeypatch, held):
    trims = []
    monkeypatch.setattr(metrics, "_malloc_trim", lambda: trims.append)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    if not held:
        monkeypatch.setattr(metrics, "_openblas_controls", lambda: ())

    def inner(lane, lanes):
        return [len(trims) for _ in lane]

    def outer(lane, lanes):
        return [metrics._in_lanes([0, 1, 2], inner) for _ in lane]

    assert metrics._in_lanes([0, 1], outer) == [[0, 0, 0]] * 2  # none inside
    assert trims == [0]

    def failing(lane, lanes):
        metrics._in_lanes([0, 1], inner)
        raise MemoryError("after a nested call")

    with pytest.raises(MemoryError, match="after a nested call"):
        metrics._in_lanes([0, 1], failing)
    assert trims == [0, 0]
    # the batch silhouette's per-label sweeps nest in one call of its own
    rng = np.random.default_rng(17)
    silhouette_batch_asw(rng.standard_normal((300, 3)), rng.integers(0, 2, 300),
                         rng.integers(0, 3, 300))
    assert trims == [0, 0, 0]


@pytest.mark.parametrize("libc", ["without-malloc-trim", "no-handle"])
def test_a_libc_without_malloc_trim_releases_nothing(monkeypatch, libc):
    if platform.libc_ver()[0] == "glibc":
        assert metrics._malloc_trim() is not None
    metrics._openblas_controls()  # cached before ctypes.CDLL is replaced

    def cdll(name):
        if libc == "no-handle":
            raise OSError("no handle on the program's own symbols")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    lookup = metrics._malloc_trim.__wrapped__
    assert lookup() is None
    monkeypatch.setattr(metrics, "_malloc_trim", lookup)
    assert metrics._in_lanes([1, 2, 3], lambda lane, lanes: [-x for x in lane]) == [-1, -2, -3]


def test_sweep_and_kmeans_on_more_threads_than_cpus_under_fast_switching(monkeypatch):
    # eight lanes on at most a few CPUs, switching threads every microsecond:
    # lanes that shared a row of a buffer would lose each other's writes
    rng = np.random.default_rng(10)
    values = rng.standard_normal((700, 3))
    codes = rng.integers(0, 3, 700)
    monkeypatch.setattr(metrics, "_panel_rows", lambda n, width: 32)  # 700 cells in 21 panels

    def run():
        neighbors, silhouette = metrics._distance_sweep(values, 7, codes)
        labels, inertia = kmeans(values, 4, seed=2, restarts=6)
        return neighbors, silhouette, labels, inertia

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    want = run()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run()
    finally:
        sys.setswitchinterval(interval)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    assert got[2].tobytes() == want[2].tobytes() and got[3] == want[3]


def test_sweep_lanes_of_several_parts_under_fast_switching(monkeypatch):
    # 32-row panels on eight threads: each thread runs every eighth panel in
    # its own buffer, so a lane that wrote into another's rows shows
    rng = np.random.default_rng(13)
    values = rng.standard_normal((700, 3))
    codes = rng.integers(0, 3, 700)
    monkeypatch.setattr(metrics, "_panel_rows", lambda n, width: 32)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    want = metrics._distance_sweep(values, 7, codes)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert len(metrics._panel_plan(700, 3)) - 1 > 8  # more panels than lanes
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = metrics._distance_sweep(values, 7, codes)
    finally:
        sys.setswitchinterval(interval)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
