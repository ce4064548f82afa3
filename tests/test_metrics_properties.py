"""Property tests of the kNN selection, the k-means assignment, the kNN
graph's equivariance under matrix row permutation and the evaluation
report's independence from metadata row order and group names."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedfilm import CellMetadata, EmbeddingMatrix, SynthSpec, evaluate, generate, metrics
from fedfilm import io as fio
from fedfilm.metrics import build_neighbor_graph, graph_connectivity, kbet_per_label, lisi

from reference import assign_by_broadcast, gram_sq_dists, lexsort_knn

PROPERTY_SETTINGS = settings(max_examples=80, deadline=None)

FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
# small integers: distances are exact and many rows tie at their k-th
SMALL_INTEGERS = st.integers(0, 3).map(float)
# each matrix draws all its entries from one of the two
ELEMENT_KINDS = st.sampled_from([FLOATS, SMALL_INTEGERS])


@st.composite
def matrices(draw, rows, cols, elements):
    n, d = draw(rows), draw(cols)
    flat = draw(st.lists(elements, min_size=n * d, max_size=n * d))
    return np.array(flat, dtype=np.float64).reshape(n, d)


@st.composite
def points_and_k(draw):
    """Up to 48 points, so k falls on both sides of the sampled-bound
    condition ceil(n / 4) >= k, and any k from 1 to n - 1."""
    values = draw(matrices(st.integers(2, 48), st.integers(1, 4), draw(ELEMENT_KINDS)))
    return values, draw(st.integers(1, len(values) - 1))


@PROPERTY_SETTINGS
@given(points_and_k())
def test_neighbor_graph_equals_full_row_sort(case):
    values, k = case
    graph = build_neighbor_graph(values, k)
    assert np.array_equal(graph.neighbors, lexsort_knn(gram_sq_dists(values), k))


@pytest.mark.parametrize("seed", range(20))
def test_neighbor_graph_is_equivariant_under_matrix_row_permutation(seed):
    # Gaussian cells have no distance ties, so each cell keeps its neighbors
    # in the same order. The scores built on the graph may differ in the last
    # bits: permuting the rows renumbers the batch and label groups.
    rng = np.random.default_rng(seed)
    emb, meta, _ = generate(SynthSpec(3, 4, 8, tuple(rng.integers(150, 201, 3).tolist()),
                                      seed=seed))
    perm = rng.permutation(emb.n)
    batches = np.array(meta.batches_for(emb))
    labels = np.array(meta.labels_for(emb))
    graph = build_neighbor_graph(emb.values, 15)
    moved = build_neighbor_graph(emb.values[perm], 15)
    # row i of the permuted matrix is cell perm[i]; map its neighbors back
    assert np.array_equal(perm[moved.neighbors], graph.neighbors[perm])
    assert np.allclose(lisi(moved, batches[perm]), lisi(graph, batches)[perm], rtol=0, atol=1e-12)
    assert kbet_per_label(moved, batches[perm], labels[perm]) == pytest.approx(
        kbet_per_label(graph, batches, labels), rel=0, abs=1e-12)
    assert graph_connectivity(moved, labels[perm]) == pytest.approx(
        graph_connectivity(graph, labels), rel=0, abs=1e-12)


@st.composite
def distance_tables(draw):
    """Nonnegative tables with ties, infinities and nan, and a k up to the
    width."""
    entries = st.one_of(st.sampled_from([0.0, 1.0, 2.0, np.inf, np.nan]), st.floats(0, 10))
    d2 = draw(matrices(st.integers(1, 6), st.integers(1, 60), entries))
    return d2, draw(st.integers(1, d2.shape[1]))


@PROPERTY_SETTINGS
@given(distance_tables())
def test_nearest_equals_full_row_sort(case):
    d2, k = case
    assert np.array_equal(metrics._nearest(d2, k), lexsort_knn(d2, k))


@st.composite
def values_and_centers(draw):
    values = draw(matrices(st.integers(1, 40), st.integers(1, 40), draw(ELEMENT_KINDS)))
    n_centers = draw(st.integers(1, 6))
    picks = draw(st.lists(st.integers(0, len(values) - 1),
                          min_size=n_centers, max_size=n_centers))
    return values, values[picks]  # picks may repeat: duplicate centers


@PROPERTY_SETTINGS
@given(values_and_centers())
def test_assign_equals_broadcast_oracle(case):
    values, centers = case
    labels, min_d2 = metrics._assign(values, centers)
    want_labels, want_d2 = assign_by_broadcast(values, centers)
    assert np.array_equal(labels, want_labels)
    assert min_d2.tobytes() == want_d2.tobytes()


@st.composite
def evaluation_case(draw):
    """Cells with two to three labels and one to three batches, a permutation
    of the metadata rows and a renaming of the batch and label names."""
    n = draw(st.integers(8, 24))
    values = draw(matrices(st.just(n), st.integers(1, 3), FLOATS))
    batches = draw(st.lists(st.sampled_from(["b0", "b1", "b2"]), min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from(["t0", "t1", "t2"]), min_size=n, max_size=n)
                  .filter(lambda v: len(set(v)) > 1))
    perm = draw(st.permutations(range(n)))
    batch_names = dict(zip(["b0", "b1", "b2"], draw(st.permutations(["z", "a", "m"]))))
    label_names = dict(zip(["t0", "t1", "t2"], draw(st.permutations(["y", "c", "q"]))))
    return values, batches, labels, perm, batch_names, label_names


def report_bytes(report):
    return (fio.report_to_text(report) + fio.report_to_csv(report)).encode()


@settings(max_examples=25, deadline=None)
@given(evaluation_case())
def test_evaluate_report_ignores_metadata_row_order_and_group_names(case):
    values, batches, labels, perm, batch_names, label_names = case
    ids = [f"c{i}" for i in range(len(values))]
    emb = EmbeddingMatrix(tuple(ids), values)

    def report(meta):
        return report_bytes(evaluate(emb, meta, knn_k=3, seed=1, kmeans_restarts=2))

    expected = report(CellMetadata.from_columns(ids, batches, labels))
    permuted = CellMetadata.from_columns(
        [ids[i] for i in perm], [batches[i] for i in perm], [labels[i] for i in perm])
    assert report(permuted) == expected
    renamed = CellMetadata.from_columns(
        ids, [batch_names[b] for b in batches], [label_names[t] for t in labels])
    assert report(renamed) == expected
