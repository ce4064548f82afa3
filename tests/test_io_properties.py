"""Property tests of the file formats: bit-exact round trips of the matrix CSV,
the adapter JSON and the run config, and the error a corrupted matrix line
raises, read as one range or several."""

import os
import re
import string
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from fedfilm import EmbeddingMatrix, FilmAdapter, TrainConfig
from fedfilm import io as fio
from fedfilm.federation import AGGREGATION_MODES
from fedfilm.metrics import METRIC_SUBSETS
from fedfilm.objective import TARGETS

CELL_IDS = st.text(alphabet=string.ascii_letters + string.digits + "_.-",
                   min_size=1, max_size=6)
# every finite double, with the edge cases drawn often
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
NAMES = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=4)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def tables(draw, rows=st.integers(1, 6), cols=st.integers(1, 4)):
    n, d = draw(rows), draw(cols)
    flat = draw(st.lists(FINITE, min_size=n * d, max_size=n * d))
    return np.array(flat, dtype=np.float64).reshape(n, d)


@st.composite
def matrices(draw, rows=st.integers(1, 6)):
    values = draw(tables(rows=rows))
    ids = draw(st.lists(CELL_IDS, min_size=len(values), max_size=len(values), unique=True))
    return EmbeddingMatrix(tuple(ids), values)


@PROPERTY_SETTINGS
@given(matrices())
def test_matrix_csv_round_trip_is_bit_exact(emb):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "emb.csv")
        fio.save_embeddings(path, emb)
        loaded = fio.load_embedding_matrix(path)
        assert loaded.cell_ids == emb.cell_ids
        assert loaded.values.tobytes() == emb.values.tobytes()
        again = Path(tmp, "again.csv")
        fio.save_embeddings(again, loaded)
        assert again.read_bytes() == path.read_bytes()


@contextmanager
def ranges(count):
    """Cut every CSV that fedfilm.io reads or writes into ``count`` ranges
    where it has the bytes for them, as if the process could run on
    ``count`` CPUs and one byte were enough for a range."""
    with mock.patch.object(fio, "_MIN_RANGE_BYTES", 1), \
            mock.patch.object(fio.os, "sched_getaffinity", lambda pid: set(range(count))):
        yield


@PROPERTY_SETTINGS
@given(matrices(rows=st.integers(1, 12)), st.integers(2, 6))
def test_matrix_csv_in_ranges_is_the_one_range_csv(emb, count):
    with tempfile.TemporaryDirectory() as tmp:
        one, split = Path(tmp, "one.csv"), Path(tmp, "split.csv")
        fio.save_embeddings(one, emb)
        with ranges(count):
            fio.save_embeddings(split, emb)
            loaded = fio.load_embedding_matrix(one)
        assert split.read_bytes() == one.read_bytes()
        assert loaded.cell_ids == emb.cell_ids
        assert loaded.values.tobytes() == emb.values.tobytes()
        assert sorted(os.listdir(tmp)) == ["one.csv", "split.csv"]


# how the earlier matrix differs from the first cells of the one written:
# only "same" lets the writer copy the earlier file
PREFIX_CHANGES = ("same", "sign of zero", "id", "d", "order")


@PROPERTY_SETTINGS
@given(matrices(rows=st.integers(2, 12)), st.sampled_from(PREFIX_CHANGES),
       st.integers(1, 3), st.data())
def test_matrix_csv_after_an_earlier_file_is_the_whole_csv(emb, change, count, data):
    m = data.draw(st.integers(2 if change == "order" else 1, emb.n) | st.just(emb.n), label="m")
    ids, values = emb.cell_ids, emb.values.copy()
    before_ids, before = ids[:m], values[:m].copy()
    if change == "sign of zero":
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, emb.d - 1))
        values[i, j], before[i, j] = data.draw(st.permutations([0.0, -0.0]))
    elif change == "id":
        i = data.draw(st.integers(0, m - 1))
        before_ids = before_ids[:i] + ("x" * 7,) + before_ids[i + 1:]  # drawn ids have 6 at most
    elif change == "d":
        before = np.hstack([before, before[:, :1]])
    elif change == "order":
        before_ids, before = before_ids[::-1], before[::-1]
    emb, before = EmbeddingMatrix(ids, values), EmbeddingMatrix(before_ids, before)
    with tempfile.TemporaryDirectory() as tmp, ranges(count):
        whole, earlier, after = (Path(tmp, name) for name in ("whole", "earlier", "after"))
        fio.save_embeddings(whole, emb)
        fio.save_embeddings(earlier, before)
        with mock.patch.object(fio, "_write_rows", wraps=fio._write_rows) as write_rows:
            fio.save_embeddings(after, emb, earlier=(earlier, before))
        assert after.read_bytes() == whole.read_bytes()
        formatted = len(write_rows.call_args.args[2])
        assert formatted == (emb.n - m if change == "same" else emb.n)


@st.composite
def adapters(draw):
    gamma = draw(tables(cols=st.integers(1, 3)))
    beta = draw(tables(rows=st.just(len(gamma)), cols=st.just(gamma.shape[1])))
    names = draw(st.lists(NAMES, min_size=len(gamma), max_size=len(gamma), unique=True))
    frozen = draw(st.lists(st.booleans(), min_size=len(gamma), max_size=len(gamma)))
    return FilmAdapter(tuple(names), gamma, beta, tuple(frozen))


@PROPERTY_SETTINGS
@given(adapters())
def test_adapter_json_round_trip_is_bit_exact(adapter):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "adapter.json")
        fio.save_adapter(path, adapter)
        loaded = fio.load_adapter(path)
        assert loaded.batch_names == adapter.batch_names
        assert loaded.frozen == adapter.frozen
        assert loaded.gamma.tobytes() == adapter.gamma.tobytes()
        assert loaded.beta.tobytes() == adapter.beta.tobytes()


BAD_IDS = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                         blacklist_characters=",\n"),
                  min_size=1, max_size=4).filter(
    lambda s: not re.fullmatch(r"[A-Za-z0-9_.-]+", s))
NON_NUMERIC = st.sampled_from(["", "abc", "1.0.0", "--1", "0x10", "1e", "one", "1x"])
NON_FINITE = st.sampled_from(["inf", "-inf", "+inf", "nan", "-nan", "NaN", "Infinity",
                              "1e400", "-1e400", "1e309"])


@PROPERTY_SETTINGS
@given(matrices(), st.data())
def test_corrupt_matrix_line_names_the_line_and_token(emb, data):
    lines = [",".join(["cell_id", *(f"z{j}" for j in range(emb.d))])]
    lines += [cid + "," + ",".join(map(repr, row.tolist()))
              for cid, row in zip(emb.cell_ids, emb.values)]
    row = data.draw(st.integers(1, emb.n), label="row")
    fields = lines[row].split(",")
    kinds = ["short", "bad id", "non-numeric", "non-finite"] + (["duplicate"] if row > 1 else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "short":
        del fields[-1]
        expected = f"expected {emb.d + 1} columns, got {emb.d}"
    elif kind == "bad id":
        fields[0] = data.draw(BAD_IDS, label="id")
        expected = f"cell id {fields[0]!r} contains characters outside"
    elif kind == "duplicate":
        fields[0] = emb.cell_ids[data.draw(st.integers(0, row - 2), label="earlier")]
        expected = f"duplicate cell id {fields[0]!r}"
    else:
        token = data.draw(NON_NUMERIC if kind == "non-numeric" else NON_FINITE, label="token")
        fields[data.draw(st.integers(1, emb.d), label="column")] = token
        expected = f"{kind} coordinate {token!r}"
    lines[row] = ",".join(fields)
    count = data.draw(st.integers(1, 6), label="ranges")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "emb.csv")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        messages = []
        for cut in (1, count):
            with ranges(cut):
                try:
                    fio.load_embedding_matrix(path)
                except fio.LoadError as exc:
                    messages.append(str(exc))
                else:
                    raise AssertionError(f"{kind} on line {row + 1} was accepted")
        assert messages[0].startswith(f"{path}:{row + 1}: {expected}"), messages[0]
        assert messages[1] == messages[0]


RUN_CONFIGS = st.builds(
    fio.RunConfig,
    train=st.builds(
        TrainConfig,
        mu=st.floats(0, 1e3), lam=st.floats(0, 1e3), learning_rate=st.floats(0, 10),
        local_epochs=st.integers(1, 50), rounds=st.integers(1, 50),
        minibatch_size=st.integers(1, 4096), train_fraction=st.floats(0, 1),
        seed=st.integers(0, 2**63), target=st.sampled_from(TARGETS)),
    aggregation_mode=st.sampled_from(AGGREGATION_MODES),
    metric_subset=st.sampled_from(sorted(METRIC_SUBSETS)),
    knn_k=st.integers(1, 500), kmeans_restarts=st.integers(1, 100),
    threads=st.integers(0, 64),
)


@PROPERTY_SETTINGS
@given(RUN_CONFIGS)
def test_config_round_trip_holds_for_random_configs(cfg):
    assert fio.config_from_dict(fio.config_to_dict(cfg)) == cfg
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        fio.save_config(path, cfg)
        assert fio.load_config(path) == cfg
