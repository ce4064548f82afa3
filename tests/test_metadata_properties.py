"""Property tests of the integer-coded cell metadata against dict-based oracles
on random cell ids, batches and labels."""

import string
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from fedfilm import CellMetadata, EmbeddingMatrix
from fedfilm import io as fio
from fedfilm.core import batch_row_indices, encode_groups

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
