import tracemalloc

import numpy as np
import pytest

from fedfilm import CellMetadata, EmbeddingMatrix, aggregate_scores, evaluate, metrics
from fedfilm.core import ValidationError
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
        assert same_assignment(metrics._assign(values, centers),
                               assign_by_broadcast(values, centers))


def test_assign_ties_go_to_the_first_center():
    # x = 0 is equally far from -1 and +1; duplicate centers tie everywhere
    values = np.array([[0.0], [-1.0], [1.0], [0.5], [-3.0]])
    for centers in ([[1.0], [-1.0]], [[-1.0], [1.0]], [[2.0], [2.0], [-1.0], [-1.0]]):
        centers = np.array(centers)
        got = metrics._assign(values, centers)
        assert same_assignment(got, assign_by_broadcast(values, centers))
    labels, _ = metrics._assign(values, np.array([[1.0], [-1.0]]))
    assert labels[0] == 0
    labels, _ = metrics._assign(values, np.array([[2.0], [2.0], [-1.0], [-1.0]]))
    assert labels.tolist() == [2, 2, 0, 0, 2]


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
    per_cell = lisi(values, np.array([0, 1, 0, 1, 0, 1]), k=2)
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
    per_cell = lisi(values, codes, k=10)
    assert np.all(per_cell >= 1.0) and np.all(per_cell <= 3.0)
    assert ilisi_score(1.0, 4) == 0.0
    assert ilisi_score(4.0, 4) == 1.0
    assert ilisi_score(2.5, 4) == pytest.approx(0.5)
    assert clisi_score(1.0, 5) == 1.0
    assert clisi_score(5.0, 5) == 0.0
    with pytest.raises(ValidationError):
        lisi(values, codes)  # k required with raw coordinates
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
    # 3000 rows take two row blocks, the second one short
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
    rng = np.random.default_rng(8)
    values = rng.standard_normal((1000, 8))
    codes = rng.integers(0, 4, 1000)
    tracemalloc.start()
    try:
        metrics._distance_sweep(values, 15, codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert metrics._row_block_size(1000) == 1000  # one (1000, 1000) block
    assert peak <= 1.3 * 1000 * 1000 * 8
