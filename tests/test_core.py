import tracemalloc

import numpy as np
import pytest

from fedfilm import (
    CellMetadata,
    DimensionError,
    EmbeddingMatrix,
    FilmAdapter,
    MissingBatchError,
    ValidationError,
    apply_adapter,
    identity_adapter,
)

from reference import elementwise_adapter


def small_instance():
    emb = EmbeddingMatrix(("a", "b", "c"), np.array([[2.0, -1.0], [0.5, 3.0], [1.0, 1.0]]))
    meta = CellMetadata.from_columns(["a", "b", "c"], ["B1", "B2", "B1"])
    return emb, meta


def test_apply_adapter_hand_example():
    emb = EmbeddingMatrix(("a",), np.array([[2.0, -1.0]]))
    meta = CellMetadata.from_columns(["a"], ["b"])
    adapter = FilmAdapter(("b",), np.array([[0.5, 2.0]]), np.array([[1.0, 0.0]]))
    out = apply_adapter(emb, meta, adapter)
    assert out.values.tolist() == [[2.0, -2.0]]
    assert out.cell_ids == ("a",)


def test_identity_adapter_is_identity_map():
    emb, meta = small_instance()
    ident = identity_adapter(meta.batch_names, emb.d)
    out = apply_adapter(emb, meta, ident)
    assert np.array_equal(out.values, emb.values)
    assert out.cell_ids == emb.cell_ids


def test_identity_adapter_tables():
    a = identity_adapter(["A", "B"], 2)
    assert a.gamma.tolist() == [[1.0, 1.0], [1.0, 1.0]]
    assert a.beta.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert a.frozen == (False, False)
    b = identity_adapter(["A"], 1)
    assert b.gamma.tolist() == [[1.0]] and b.beta.tolist() == [[0.0]]
    with pytest.raises(ValidationError):
        identity_adapter(["A", "A"], 2)
    with pytest.raises(ValidationError, match="at least one batch"):
        identity_adapter([], 2)
    with pytest.raises(ValidationError, match="dimension must be >= 1, got 0"):
        identity_adapter(["A"], 0)


def test_apply_matches_elementwise_oracle():
    emb, meta = small_instance()
    adapter = FilmAdapter(
        ("B1", "B2"),
        np.array([[0.5, 2.0], [3.0, -1.0]]),
        np.array([[1.0, 0.0], [-2.0, 0.5]]),
    )
    out = apply_adapter(emb, meta, adapter)
    rows = [adapter.row_index(b) for b in meta.batches_for(emb)]
    expected = elementwise_adapter(emb.values, rows, adapter.gamma, adapter.beta)
    assert np.array_equal(out.values, expected)


def test_apply_is_row_local_under_permutation():
    rng = np.random.default_rng(11)
    n, d = 20, 4
    ids = tuple(f"c{i}" for i in range(n))
    emb = EmbeddingMatrix(ids, rng.standard_normal((n, d)))
    batches = rng.choice(["x", "y", "z"], n).tolist()
    meta = CellMetadata.from_columns(list(ids), batches)
    adapter = FilmAdapter(
        tuple(meta.batch_names),
        rng.uniform(0.5, 2.0, (3, d)),
        rng.standard_normal((3, d)),
    )
    out = apply_adapter(emb, meta, adapter)
    perm = rng.permutation(n)
    emb_p = EmbeddingMatrix(tuple(ids[i] for i in perm), emb.values[perm])
    out_p = apply_adapter(emb_p, meta, adapter)
    assert np.array_equal(out_p.values, out.values[perm])


def test_adapter_composition():
    rng = np.random.default_rng(3)
    n, d = 15, 5
    ids = tuple(f"c{i}" for i in range(n))
    emb = EmbeddingMatrix(ids, rng.standard_normal((n, d)))
    meta = CellMetadata.from_columns(list(ids), rng.choice(["p", "q"], n).tolist())
    g1, b1 = rng.uniform(0.5, 2.0, (2, d)), rng.standard_normal((2, d))
    g2, b2 = rng.uniform(0.5, 2.0, (2, d)), rng.standard_normal((2, d))
    a1 = FilmAdapter(meta.batch_names, g1, b1)
    a2 = FilmAdapter(meta.batch_names, g2, b2)
    twice = apply_adapter(apply_adapter(emb, meta, a1), meta, a2)
    composed = FilmAdapter(meta.batch_names, g2 * g1, g2 * b1 + b2)
    once = apply_adapter(emb, meta, composed)
    assert np.allclose(twice.values, once.values, rtol=1e-12, atol=1e-12)


def test_apply_adapter_partition_independence():
    # row-local: applying to disjoint row ranges separately and stitching
    # equals one full application, exactly
    rng = np.random.default_rng(29)
    n, d = 24, 3
    ids = tuple(f"c{i}" for i in range(n))
    emb = EmbeddingMatrix(ids, rng.standard_normal((n, d)))
    meta = CellMetadata.from_columns(list(ids), rng.choice(["u", "v"], n).tolist())
    adapter = FilmAdapter(meta.batch_names, rng.uniform(0.5, 2.0, (2, d)),
                          rng.standard_normal((2, d)))
    full = apply_adapter(emb, meta, adapter)
    for split in (1, 7, 12, 23):
        left = apply_adapter(emb.subset(ids[:split]), meta, adapter)
        right = apply_adapter(emb.subset(ids[split:]), meta, adapter)
        stitched = np.vstack([left.values, right.values])
        assert np.array_equal(stitched, full.values)


def test_missing_batch_and_dimension_errors():
    emb, meta = small_instance()
    only_b1 = FilmAdapter(("B1",), np.ones((1, 2)), np.zeros((1, 2)))
    with pytest.raises(MissingBatchError):
        apply_adapter(emb, meta, only_b1)
    wrong_d = identity_adapter(meta.batch_names, 3)
    with pytest.raises(DimensionError):
        apply_adapter(emb, meta, wrong_d)


def test_apply_does_not_modify_input():
    emb, meta = small_instance()
    before = emb.values.copy()
    adapter = FilmAdapter(("B1", "B2"), np.full((2, 2), 2.0), np.ones((2, 2)))
    apply_adapter(emb, meta, adapter)
    assert np.array_equal(emb.values, before)
    assert not emb.values.flags.writeable


def test_apply_adapter_holds_one_table_beside_its_input():
    rng = np.random.default_rng(5)
    n, d = 20_000, 32
    ids = tuple(f"c{i}" for i in range(n))
    emb = EmbeddingMatrix(ids, rng.standard_normal((n, d)))
    meta = CellMetadata.from_columns(list(ids), rng.choice(["x", "y", "z"], n).tolist())
    adapter = FilmAdapter(meta.batch_names, rng.uniform(0.5, 2.0, (3, d)),
                          rng.standard_normal((3, d)))
    idx = np.array([adapter.row_index(b) for b in meta.batch_names])[meta.batch_codes]
    tracemalloc.start()
    try:
        out = apply_adapter(emb, meta, adapter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result and the row indices, but no gathered beta table beside them
    assert peak < 1.5 * emb.values.nbytes
    assert out.values.tobytes() == (adapter.gamma[idx] * emb.values + adapter.beta[idx]).tobytes()


def test_embedding_validation():
    with pytest.raises(ValidationError):
        EmbeddingMatrix(("a", "a"), np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        EmbeddingMatrix(("a",), np.array([[np.nan]]))
    with pytest.raises(ValidationError):
        EmbeddingMatrix(("a", "b"), np.zeros((3, 2)))


def test_apply_ignores_metadata_batches_without_cells():
    emb, meta = small_instance()
    # "B3" has a metadata row but no cell in the embedding and no adapter row
    wider = CellMetadata.from_columns(["a", "z", "b", "c"], ["B1", "B3", "B2", "B1"])
    adapter = FilmAdapter(("B2", "B1"), np.array([[2.0, 2.0], [0.5, 1.0]]),
                          np.array([[1.0, 0.0], [0.0, -1.0]]))
    out = apply_adapter(emb, wider, adapter)
    assert np.array_equal(out.values, apply_adapter(emb, meta, adapter).values)
    with pytest.raises(MissingBatchError, match="B3"):
        apply_adapter(EmbeddingMatrix(("z",), np.ones((1, 2))), wider, adapter)


def test_metadata_validation():
    with pytest.raises(ValidationError):
        CellMetadata.from_columns(["a", "a"], ["x", "x"])
    with pytest.raises(ValidationError):
        CellMetadata.from_columns(["a", "b"], ["x"])
    # partial labels are rejected
    with pytest.raises(ValidationError):
        CellMetadata.from_columns(["a", "b"], ["x", "y"], ["t1"])
    meta = CellMetadata.from_columns(["a", "b", "c"], ["y", "x", "y"])
    assert meta.batch_names == ("y", "x")  # first-appearance order
    assert meta.batch_sizes() == {"y": 2, "x": 1}


def test_coded_metadata_validation():
    ids = ("a", "b", "c")
    meta = CellMetadata(ids, np.array([1, 0, 1]), ("y", "x"))
    assert dict(meta.batch_of) == {"a": "x", "b": "y", "c": "x"}
    assert meta.label_of is None
    for codes, names in [([0, 1, 2], ("x", "y")),      # code out of range
                         ([0, -1, 0], ("x", "y")),     # negative code
                         ([0, 0, 0], ("x", "y")),      # unused name
                         ([0, 1, 0], ("x", "x")),      # duplicate names
                         ([0, 1], ("x", "y"))]:        # a cell without a code
        with pytest.raises(ValidationError):
            CellMetadata(ids, np.array(codes), names)
    with pytest.raises(ValidationError):
        CellMetadata(ids, np.zeros(3, dtype=int), ("x",), np.array([0, 0, 2]), ("t", "u"))


def test_adapter_validation():
    with pytest.raises(ValidationError):
        FilmAdapter(("a", "a"), np.ones((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        FilmAdapter(("a",), np.ones((1, 2)), np.zeros((1, 3)))
    with pytest.raises(ValidationError):
        FilmAdapter(("a",), np.array([[np.inf]]), np.array([[0.0]]))


def test_duplicate_cell_ids_are_named_in_linear_time():
    import time
    ids = [f"c{i}" for i in range(20_000)] + ["c7", "c3", "c3"]
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=r"duplicate cell ids: \['c3', 'c7'\]$"):
        EmbeddingMatrix(tuple(ids), np.zeros((len(ids), 1)))
    # a per-id count is quadratic: several seconds at this size
    assert time.perf_counter() - start < 2.0
    with pytest.raises(ValidationError, match=r"\['c0', 'c1', 'c2', 'c3', 'c4'\]$"):
        EmbeddingMatrix(tuple(ids[:10] * 2), np.zeros((20, 1)))


def test_restricting_metadata_holds_no_set_of_its_ids():
    n = 20_000
    rng = np.random.default_rng(4)
    ids = [f"cell{i}" for i in range(n)]
    meta = CellMetadata.from_columns(ids, rng.integers(0, 4, n).astype(str),
                                     rng.integers(0, 8, n).astype(str))
    wanted = [ids[i] for i in rng.permutation(n)]
    tracemalloc.start()
    try:
        sub = meta.restricted_to(wanted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the row index and the new metadata's id tuple and uniqueness check; a
    # set of 20,000 ids alone holds 0.4x the bytes of an (n, 32) float64 table
    assert peak < 0.4 * n * 32 * 8
    assert sub.cell_ids == tuple(wanted)


def test_rows_for_the_held_id_tuple_builds_no_id_index():
    n = 20_000
    rng = np.random.default_rng(7)
    ids = tuple(f"cell{i}" for i in range(n))
    meta = CellMetadata.from_columns(ids, rng.integers(0, 4, n).astype(str))
    emb = EmbeddingMatrix(ids, np.zeros((n, 1)))
    for held in (meta, emb):
        tracemalloc.start()
        try:
            rows = held.rows_for(held.cell_ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the returned rows alone; an id -> row dict of 20,000 ids is about 8x them
        assert peak < 1.5 * n * np.dtype(np.intp).itemsize
        assert rows.dtype == np.intp
        assert np.array_equal(rows, held.rows_for(list(held.cell_ids)))  # the dict path
        order = rng.permutation(n)
        assert np.array_equal(held.rows_for(tuple(ids[i] for i in order)), order)
    with pytest.raises(ValidationError, match="^cell 'nope' has no batch assignment$"):
        meta.rows_for(meta.cell_ids + ("nope",))
    with pytest.raises(ValidationError, match="^unknown cell id 'nope'$"):
        emb.rows_for(emb.cell_ids + ("nope",))
