"""Property tests of the integer-coded cell metadata against dict-based oracles
on random cell ids, batches and labels, and of the adapter's use of it."""

import string
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from fedfilm import CellMetadata, EmbeddingMatrix, FilmAdapter, apply_adapter
from fedfilm import io as fio
from fedfilm.core import batch_row_indices, encode_groups

from reference import elementwise_adapter
from test_io_properties import ranges

CELL_IDS = st.text(alphabet=string.ascii_letters + string.digits + "_.-",
                   min_size=1, max_size=6)
# any text, including characters numpy's fixed-width strings would drop
ANY_NAMES = st.text(max_size=3)
# names the metadata file format can hold
FILE_NAMES = st.text(alphabet=st.characters(blacklist_characters=",\r\n",
                                            blacklist_categories=("Cs",)),
                     min_size=1, max_size=4)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def columns(draw, names=ANY_NAMES):
    """(cell ids, batches, labels or None) for 1 to 30 cells."""
    n = draw(st.integers(1, 30))
    ids = draw(st.lists(CELL_IDS, min_size=n, max_size=n, unique=True))
    batch_pool = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    batches = draw(st.lists(st.sampled_from(batch_pool), min_size=n, max_size=n))
    labels = None
    if draw(st.booleans()):
        label_pool = draw(st.lists(names, min_size=1, max_size=5, unique=True))
        labels = draw(st.lists(st.sampled_from(label_pool), min_size=n, max_size=n))
    return ids, batches, labels


@st.composite
def columns_and_selection(draw):
    """Columns plus a permuted subset of their cell ids."""
    ids, batches, labels = draw(columns())
    chosen = draw(st.permutations(ids))[:draw(st.integers(1, len(ids)))]
    return ids, batches, labels, chosen


@PROPERTY_SETTINGS
@given(columns())
def test_from_columns_matches_dict_oracle(cols):
    ids, batches, labels = cols
    meta = CellMetadata.from_columns(ids, batches, labels)
    assert meta.cell_ids == tuple(ids)
    assert meta.batch_names == tuple(dict.fromkeys(batches))
    assert dict(meta.batch_of) == dict(zip(ids, batches))
    assert meta.batch_sizes() == {b: batches.count(b) for b in dict.fromkeys(batches)}
    if labels is None:
        assert meta.label_of is None
    else:
        assert dict(meta.label_of) == dict(zip(ids, labels))


@PROPERTY_SETTINGS
@given(columns_and_selection())
def test_restricted_to_keeps_order_and_rederives_batch_order(case):
    ids, batches, labels, chosen = case
    meta = CellMetadata.from_columns(ids, batches, labels)
    batch_of = dict(zip(ids, batches))
    sub = meta.restricted_to(chosen)
    assert sub.cell_ids == tuple(chosen)
    assert sub.batch_names == tuple(dict.fromkeys(batch_of[c] for c in chosen))
    assert dict(sub.batch_of) == {c: batch_of[c] for c in chosen}
    if labels is not None:
        label_of = dict(zip(ids, labels))
        assert dict(sub.label_of) == {c: label_of[c] for c in chosen}


@PROPERTY_SETTINGS
@given(columns_and_selection())
def test_batches_for_on_permuted_subset_embedding(case):
    ids, batches, labels, chosen = case
    meta = CellMetadata.from_columns(ids, batches, labels)
    batch_of = dict(zip(ids, batches))
    emb = EmbeddingMatrix(tuple(chosen), np.zeros((len(chosen), 1)))
    assert meta.batches_for(emb) == [batch_of[c] for c in chosen]
    if labels is not None:
        label_of = dict(zip(ids, labels))
        assert meta.labels_for(emb) == [label_of[c] for c in chosen]
    blocks = batch_row_indices(emb, meta)
    assert list(blocks) == list(meta.batch_names)
    for b, rows in blocks.items():
        assert rows.tolist() == [i for i, c in enumerate(chosen) if batch_of[c] == b]


@PROPERTY_SETTINGS
@given(columns(names=FILE_NAMES))
def test_metadata_file_round_trip_is_exact(cols):
    ids, batches, labels = cols
    meta = CellMetadata.from_columns(ids, batches, labels)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "m1.csv"), Path(tmp, "m2.csv")
        fio.save_metadata(first, meta)
        loaded = fio.load_metadata(first)
        fio.save_metadata(second, loaded)
        assert second.read_bytes() == first.read_bytes()
    assert loaded.cell_ids == meta.cell_ids
    assert loaded.batch_names == meta.batch_names
    assert np.array_equal(loaded.batch_codes, meta.batch_codes)
    assert loaded.label_names == meta.label_names
    if labels is not None:
        assert np.array_equal(loaded.label_codes, meta.label_codes)


@PROPERTY_SETTINGS
@given(columns(names=FILE_NAMES), st.integers(1, 6))
# names first seen late in the file, with and without a cell_type column
@example((["c0", "c1", "c2", "c3", "c4", "c5"], ["a", "a", "b", "a", "c", "b"],
          ["t", "t", "t", "u", "u", "v"]), 3)
@example((["c0", "c1", "c2", "c3", "c4", "c5"], ["a", "a", "b", "a", "c", "b"], None), 6)
def test_metadata_coded_as_parsed_is_from_columns_in_any_ranges(cols, count):
    ids, batches, labels = cols
    want = CellMetadata.from_columns(ids, batches, labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "meta.csv")
        fio.save_metadata(path, want)
        with ranges(count):
            got = fio.load_metadata(path)
    assert (got.cell_ids, got.batch_names, got.label_names) \
        == (want.cell_ids, want.batch_names, want.label_names)
    assert np.array_equal(got.batch_codes, want.batch_codes)
    if labels is None:
        assert got.label_codes is None
    else:
        assert np.array_equal(got.label_codes, want.label_codes)


@PROPERTY_SETTINGS
@given(st.one_of(
    st.lists(st.integers(-3, 3)).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(ANY_NAMES).map(np.array),
    st.lists(ANY_NAMES).map(lambda v: np.array(v, dtype=object)),
))
def test_encoder_matches_first_appearance_oracle(values):
    names, codes = encode_groups(values)
    order = list(dict.fromkeys(values.tolist()))
    assert names.tolist() == order
    assert codes.tolist() == [order.index(v) for v in values.tolist()]


@st.composite
def adapter_case(draw):
    """Columns with a matrix of finite values, an adapter with a row for each
    batch in a drawn order, and two row permutations."""
    ids, batches, _ = draw(columns())
    d = draw(st.integers(1, 4))
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)

    def table(rows):
        flat = draw(st.lists(finite, min_size=rows * d, max_size=rows * d))
        return np.array(flat, dtype=np.float64).reshape(rows, d)

    names = draw(st.permutations(list(dict.fromkeys(batches))))
    adapter = FilmAdapter(tuple(names), table(len(names)), table(len(names)))
    return (ids, batches, table(len(ids)), adapter,
            draw(st.permutations(range(len(ids)))), draw(st.permutations(range(len(ids)))))


@PROPERTY_SETTINGS
@given(adapter_case())
def test_apply_adapter_is_row_local_and_permutation_equivariant(case):
    ids, batches, values, adapter, row_perm, meta_perm = case
    meta = CellMetadata.from_columns(ids, batches)
    out = apply_adapter(EmbeddingMatrix(tuple(ids), values), meta, adapter)
    rows = [adapter.row_index(b) for b in batches]
    assert out.cell_ids == tuple(ids)
    assert np.array_equal(out.values,
                          elementwise_adapter(values, rows, adapter.gamma, adapter.beta))
    # permuting the matrix rows permutes the output rows
    permuted = EmbeddingMatrix(tuple(ids[i] for i in row_perm), values[list(row_perm)])
    assert np.array_equal(apply_adapter(permuted, meta, adapter).values,
                          out.values[list(row_perm)])
    # permuting the metadata rows changes nothing
    meta_p = CellMetadata.from_columns([ids[i] for i in meta_perm],
                                       [batches[i] for i in meta_perm])
    assert np.array_equal(apply_adapter(EmbeddingMatrix(tuple(ids), values), meta_p,
                                        adapter).values, out.values)
    # each row alone gives its row of the whole
    for i in range(0, len(ids), 7):
        alone = apply_adapter(EmbeddingMatrix((ids[i],), values[i:i + 1]), meta, adapter)
        assert np.array_equal(alone.values[0], out.values[i])
