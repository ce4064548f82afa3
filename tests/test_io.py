import io
import json
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from fedfilm import (CellMetadata, EmbeddingMatrix, FilmAdapter, TrainConfig, apply_adapter, cli,
                     identity_adapter)
from fedfilm import io as fio
from fedfilm.core import _ROW_CHUNK, corrected_rows
from fedfilm.federation import RoundRecord
from fedfilm.metrics import MetricsReport


def random_embedding(seed=0, n=6, d=3):
    rng = np.random.default_rng(seed)
    ids = tuple(f"c{i}" for i in range(n))
    emb = EmbeddingMatrix(ids, rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4))
    meta = CellMetadata.from_columns(
        list(ids), rng.choice(["b1", "b2"], n).tolist(),
        rng.choice(["t1", "t2"], n).tolist())
    return emb, meta


def test_embeddings_round_trip_full_precision(tmp_path):
    emb, meta = random_embedding(seed=1)
    fio.save_embeddings(tmp_path / "emb.csv", emb)
    fio.save_metadata(tmp_path / "meta.csv", meta)
    emb2, meta2 = fio.load_embeddings(tmp_path / "emb.csv", tmp_path / "meta.csv")
    assert emb2.cell_ids == emb.cell_ids
    assert np.array_equal(emb2.values, emb.values)  # bit-exact via repr
    assert meta2.batch_of == meta.batch_of
    assert meta2.label_of == meta.label_of


def test_metadata_without_labels_round_trip(tmp_path):
    meta = CellMetadata.from_columns(["a", "b"], ["x", "y"])
    fio.save_metadata(tmp_path / "meta.csv", meta)
    loaded = fio.load_metadata(tmp_path / "meta.csv")
    assert loaded.label_of is None
    assert loaded.batch_names == ("x", "y")


def test_load_join_error_names_missing_cell(tmp_path):
    (tmp_path / "emb.csv").write_text("cell_id,z0\nc0,1.0\nc1,2.0\n")
    (tmp_path / "meta.csv").write_text("cell_id,batch\nc0,b\n")
    with pytest.raises(fio.LoadError, match="c1"):
        fio.load_embeddings(tmp_path / "emb.csv", tmp_path / "meta.csv")


def test_load_metadata_superset_is_restricted(tmp_path):
    (tmp_path / "emb.csv").write_text("cell_id,z0\nc0,1.0\n")
    (tmp_path / "meta.csv").write_text("cell_id,batch\nc1,other\nc0,b\n")
    emb, meta = fio.load_embeddings(tmp_path / "emb.csv", tmp_path / "meta.csv")
    assert set(meta.batch_of) == {"c0"}
    assert meta.batch_names == ("b",)


def test_load_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "emb.csv"
    p.write_text("cell_id,z0,z1\nc0,1.0,2.0\nc1,3.0\n")
    with pytest.raises(fio.LoadError, match=r":3"):
        fio.load_embedding_matrix(p)
    p.write_text("cell_id,z0\nc0,abc\n")
    with pytest.raises(fio.LoadError, match=r":2.*abc"):
        fio.load_embedding_matrix(p)
    p.write_text("cell_id,z0\nc0,1.0\nc0,2.0\n")
    with pytest.raises(fio.LoadError, match=r":3.*duplicate"):
        fio.load_embedding_matrix(p)
    p.write_text("cell_id,z0\nbad cell,1.0\n")
    with pytest.raises(fio.LoadError, match=r":2"):
        fio.load_embedding_matrix(p)
    p.write_text("cell_id,z0\nc0,inf\n")
    with pytest.raises(fio.LoadError, match="non-finite"):
        fio.load_embedding_matrix(p)


def test_metadata_unknown_column_rejected(tmp_path):
    p = tmp_path / "meta.csv"
    p.write_text("cell_id,batch,cell_type,extra\nc0,b,t,x\n")
    with pytest.raises(fio.LoadError, match="header"):
        fio.load_metadata(p)
    p.write_text("cell_id,batch,cell_type\nc0,b,\n")
    with pytest.raises(fio.LoadError, match="partial labels"):
        fio.load_metadata(p)


def test_adapter_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    adapter = FilmAdapter(("a", "b"), rng.uniform(0.1, 3.0, (2, 4)),
                          rng.standard_normal((2, 4)) * 1e-7, (True, False))
    path = tmp_path / "adapter.json"
    fio.save_adapter(path, adapter)
    loaded = fio.load_adapter(path)
    assert loaded.batch_names == adapter.batch_names
    assert loaded.frozen == adapter.frozen
    assert np.array_equal(loaded.gamma, adapter.gamma)
    assert np.array_equal(loaded.beta, adapter.beta)


def test_adapter_save_load_save_is_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    adapter = FilmAdapter(("a",), rng.uniform(0.1, 3.0, (1, 5)), rng.standard_normal((1, 5)))
    p1, p2 = tmp_path / "a1.json", tmp_path / "a2.json"
    fio.save_adapter(p1, adapter)
    fio.save_adapter(p2, fio.load_adapter(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_adapter_version_and_shape_validation(tmp_path):
    path = tmp_path / "adapter.json"
    fio.save_adapter(path, identity_adapter(["a"], 2))
    doc = json.loads(path.read_text())
    doc["format"] = "film-adapter/999"
    path.write_text(json.dumps(doc))
    with pytest.raises(fio.LoadError, match="format"):
        fio.load_adapter(path)
    doc["format"] = fio.ADAPTER_FORMAT
    doc["d"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(fio.LoadError, match="d = 3"):
        fio.load_adapter(path)


def test_config_defaults_and_strict_keys(tmp_path):
    cfg = fio.config_from_dict({})
    assert cfg.train == TrainConfig()
    assert cfg.aggregation_mode == "full-table"
    assert cfg.knn_k == 15
    assert cfg.kmeans_restarts == 10
    with pytest.raises(fio.ConfigError, match="unknown config keys: typo"):
        fio.config_from_dict({"typo": 1})
    # the file key "lambda" maps onto TrainConfig.lam
    cfg = fio.config_from_dict({"lambda": 0.5, "mu": 0.25})
    assert cfg.train.lam == 0.5 and cfg.train.mu == 0.25
    with pytest.raises(fio.ConfigError):
        fio.config_from_dict({"rounds": 0})
    path = tmp_path / "cfg.json"
    path.write_text('{"rounds": 3, "aggregation_mode": "row-restricted"}')
    cfg = fio.load_config(path)
    assert cfg.train.rounds == 3 and cfg.aggregation_mode == "row-restricted"


# Adam's betas and epsilon are fixed and its moments always persist, so
# effective_config.json files written while they were settable name them
@pytest.mark.parametrize("key, value", [("adam_beta1", 0.9), ("adam_beta2", 0.999),
                                        ("adam_epsilon", 1e-8),
                                        ("reset_moments_per_round", False)])
def test_config_naming_a_fixed_training_value_is_a_config_error(key, value):
    with pytest.raises(fio.ConfigError, match=f"^unknown config keys: {key}$"):
        fio.config_from_dict({"rounds": 3, key: value})


@pytest.mark.parametrize("doc, kind", [
    ({"rounds": 2.5}, "an integer"),
    ({"rounds": "7"}, "an integer"),
    ({"seed": 1.5}, "an integer"),
    ({"minibatch_size": True}, "an integer"),
    ({"knn_k": None}, "an integer"),
    ({"learning_rate": "0.1"}, "a number"),
    ({"mu": False}, "a number"),
    ({"train_fraction": "0.5"}, "a number"),
    ({"target": 3}, "a string"),
    ({"aggregation_mode": ["full-table"]}, "a string"),
    ({"learning_rate": float("nan")}, "a number"),
    ({"mu": float("inf")}, "a number"),
    ({"lambda": 10**400}, "a number"),  # past the largest float
])
def test_config_values_of_the_wrong_type_are_config_errors(doc, kind):
    [(key, value)] = doc.items()
    with pytest.raises(fio.ConfigError, match=re.escape(f"config key {key!r} must be {kind}")):
        fio.config_from_dict(doc)


def test_config_number_fields_take_integers():
    cfg = fio.config_from_dict({"learning_rate": 1, "train_fraction": 1, "rounds": 3})
    assert cfg.train.learning_rate == 1 and cfg.train.train_fraction == 1
    assert cfg.train.rounds == 3


def test_config_round_trip(tmp_path):
    cfg = fio.RunConfig(train=TrainConfig(mu=0.1, lam=0.2, rounds=4, seed=9),
                        aggregation_mode="row-restricted", knn_k=20, threads=2)
    path = tmp_path / "cfg.json"
    fio.save_config(path, cfg)
    assert fio.load_config(path) == cfg


def test_training_log_format(tmp_path):
    records = [RoundRecord(0, "b1", 0.5, 0.6), RoundRecord(0, "b2", 0.25, float("nan"))]
    path = tmp_path / "log.csv"
    fio.save_training_log(path, records)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,client,train_loss,val_loss"
    assert lines[1] == "0,b1,0.5,0.6"
    assert lines[2] == "0,b2,0.25,nan"


@pytest.mark.parametrize("name", ["x,y", "x\ny", "x\ry"])
def test_training_log_rejects_names_it_cannot_read_back(tmp_path, name):
    records = [RoundRecord(0, "b1", 0.5, 0.6), RoundRecord(0, name, 0.25, float("nan"))]
    path = tmp_path / "log.csv"
    with pytest.raises(fio.LoadError, match=f"name {re.escape(repr(name))} is empty or "
                                            "contains a comma or a line break"):
        fio.save_training_log(path, records)
    assert not path.exists()


def test_report_serialization_stable(tmp_path):
    report = MetricsReport.from_scores("scenario", {
        "kmeans_nmi": 0.5, "kmeans_ari": 0.25, "label_asw": 1.0,
        "batch_asw": 0.75, "ilisi_score": 0.5})
    text = fio.report_to_text(report)
    assert text.splitlines()[0] == "metric_subset=scenario"
    assert "overall=" in text
    csv = fio.report_to_csv(report)
    header, row = csv.splitlines()
    assert header.split(",")[0] == "metric_subset"
    assert len(header.split(",")) == len(row.split(","))
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    d1.mkdir(); d2.mkdir()
    fio.save_report(d1, report)
    fio.save_report(d2, report)
    assert (d1 / "metrics.txt").read_bytes() == (d2 / "metrics.txt").read_bytes()
    assert (d1 / "metrics.csv").read_bytes() == (d2 / "metrics.csv").read_bytes()


def test_save_rejects_invalid_cell_ids(tmp_path):
    emb = EmbeddingMatrix(("ok", "has space"), np.ones((2, 1)))
    with pytest.raises(fio.LoadError, match="has space"):
        fio.save_embeddings(tmp_path / "emb.csv", emb)
    meta = CellMetadata.from_columns(["a,b"], ["x"])
    with pytest.raises(fio.LoadError):
        fio.save_metadata(tmp_path / "meta.csv", meta)


def test_writers_are_deterministic(tmp_path):
    emb, meta = random_embedding(seed=4)
    p1, p2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    fio.save_embeddings(p1, emb)
    fio.save_embeddings(p2, emb)
    assert p1.read_bytes() == p2.read_bytes()
    m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    fio.save_metadata(m1, meta)
    fio.save_metadata(m2, meta)
    assert m1.read_bytes() == m2.read_bytes()


@pytest.mark.parametrize("key, value", [
    pytest.param("batch_names", "ab", id="batch_names-string"),
    pytest.param("batch_names", [1, 2], id="batch_names-numbers"),
    pytest.param("frozen", ["false", "false"], id="frozen-strings"),
    pytest.param("frozen", [0, 1], id="frozen-numbers"),
    pytest.param("d", 2.0, id="d-float"),
    pytest.param("gamma", [["1", "1"], ["1", "1"]], id="gamma-numeric-strings"),
    pytest.param("beta", [[False, 0], [0, 0]], id="beta-booleans"),
])
def test_load_adapter_rejects_wrong_json_types(tmp_path, key, value):
    path = tmp_path / "adapter.json"
    fio.save_adapter(path, identity_adapter(["a", "b"], 2))
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(fio.LoadError, match=repr(key)):
        fio.load_adapter(path)


@pytest.mark.parametrize("frozen", [[], [True]], ids=["empty", "short"])
def test_load_adapter_rejects_frozen_flags_that_miss_a_batch(tmp_path, frozen):
    # an empty list must not read as "none frozen"
    path = tmp_path / "adapter.json"
    fio.save_adapter(path, identity_adapter(["a", "b"], 2))
    doc = json.loads(path.read_text())
    doc["frozen"] = frozen
    path.write_text(json.dumps(doc))
    with pytest.raises(fio.LoadError, match=re.escape(
            f"{path}: invalid adapter document: frozen flags must match batch names")):
        fio.load_adapter(path)


def test_load_plan_reads_a_valid_plan(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"mode": "cumulative", "stages": [["a", "b"], ["c"]],
                                "pca_components": 3}))
    plan = fio.load_plan(path)
    assert (plan.mode, plan.stages, plan.pca_components) == (
        "cumulative", (("a", "b"), ("c",)), 3)
    path.write_text(json.dumps({"mode": "continual", "stages": [["a"]],
                                "pca_components": None}))
    assert fio.load_plan(path).pca_components is None


@pytest.mark.parametrize("key, value", [
    pytest.param("mode", None, id="mode-missing"),
    pytest.param("mode", 1, id="mode-number"),
    pytest.param("stages", None, id="stages-missing"),
    pytest.param("stages", "ab", id="stages-string"),
    pytest.param("stages", ["ab"], id="stages-list-of-strings"),
    pytest.param("stages", [[0]], id="stages-numbers"),
    pytest.param("pca_components", "7", id="pca_components-string"),
    pytest.param("pca_components", 7.0, id="pca_components-float"),
    pytest.param("pca_components", True, id="pca_components-boolean"),
])
def test_load_plan_rejects_wrong_json_types(tmp_path, key, value):
    doc = {"mode": "continual", "stages": [["a"], ["b"]]}
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fio.LoadError, match=repr(key)):
        fio.load_plan(path)


@pytest.mark.parametrize("content", [
    pytest.param(b'[["a"]]', id="not-an-object"),
    pytest.param(b'{"mode": "continual", "stages": [["\xff"]]}', id="not-utf8"),
    pytest.param(b'{"mode": "sideways", "stages": [["a"]]}', id="unknown-mode"),
    pytest.param(b'{"mode": "continual", "stages": [["a"], ["a"]]}', id="overlapping-stages"),
    pytest.param(b'{"mode": "cumulative", "stages": [["a"]], "pca_components": 0}',
                 id="pca-components-zero"),
    pytest.param(b'{"mode": "cumulative", "stages": [["a"]], "pca_components": -3}',
                 id="pca-components-negative"),
])
def test_load_plan_rejects_malformed_documents(tmp_path, content):
    path = tmp_path / "plan.json"
    path.write_bytes(content)
    with pytest.raises(fio.LoadError, match=re.escape(str(path))):
        fio.load_plan(path)


def test_load_plan_rejects_unknown_keys(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"mode": "cumulative", "stages": [["a"], ["b"]],
                                "pca_component": 40}))
    with pytest.raises(fio.LoadError, match=re.escape(
            f"{path}: unknown scenario plan keys: pca_component")):
        fio.load_plan(path)


@pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb", ""])
@pytest.mark.parametrize("column", ["batch", "cell type"])
def test_save_metadata_rejects_names_it_cannot_read_back(tmp_path, name, column):
    batches, labels = ["x", "y"], ["t", "u"]
    (batches if column == "batch" else labels)[1] = name
    meta = CellMetadata.from_columns(["c0", "c1"], batches, labels)
    path = tmp_path / "meta.csv"
    with pytest.raises(fio.LoadError, match="cell type name"):
        fio.save_metadata(path, meta)
    assert not path.exists()


@pytest.mark.parametrize("header", ["cell_id,batch", "cell_id,batch,cell_type"])
def test_header_only_metadata_names_the_file(tmp_path, header):
    p = tmp_path / "meta.csv"
    p.write_text(header + "\n")
    with pytest.raises(fio.LoadError, match=f"^{re.escape(str(p))}: no data rows$"):
        fio.load_metadata(p)


@pytest.mark.parametrize("later", ["c9,1.0", "bad id,1.0,2.0", "c0,1.0,2.0", "c9,abc,1.0"])
@pytest.mark.parametrize("earlier, token", [("c8,inf,1.0", "inf"), ("c8,1.0,1e400", "1e400"),
                                            ("c8,nan,abc", "nan")])
def test_load_reports_the_earlier_of_two_faulty_lines(tmp_path, earlier, token, later):
    p = tmp_path / "emb.csv"
    p.write_text("\n".join(["cell_id,z0,z1", "c0,1.0,2.0", earlier, "c1,3.0,4.0", later]) + "\n")
    with pytest.raises(fio.LoadError, match=f"^{re.escape(str(p))}:3: non-finite coordinate '{token}'$"):
        fio.load_embedding_matrix(p)


def test_save_rejects_cell_id_ending_in_a_line_break(tmp_path):
    emb = EmbeddingMatrix(("c0\n",), np.ones((1, 1)))
    with pytest.raises(fio.LoadError, match="'c0\\\\n'"):
        fio.save_embeddings(tmp_path / "emb.csv", emb)
    assert not (tmp_path / "emb.csv").exists()


def test_lone_carriage_return_in_a_cell_id_is_a_bad_id_on_its_own_line(tmp_path):
    p = tmp_path / "emb.csv"
    p.write_bytes(b"cell_id,z0\r\nc0,1.0\r\n\r,2.0\nc1,3.0\n")
    with pytest.raises(fio.LoadError, match=f"^{re.escape(str(p))}:3: cell id '\\\\r' contains"):
        fio.load_embedding_matrix(p)
    p.write_bytes(b"cell_id,z0\r\nc0,1.0\r\nc1,2.0\r\n")
    assert fio.load_embedding_matrix(p).cell_ids == ("c0", "c1")


@pytest.mark.parametrize("load", [fio.load_embedding_matrix, fio.load_metadata,
                                  fio.load_adapter, fio.load_config])
def test_loaders_reject_bytes_that_are_not_utf8(tmp_path, load):
    p = tmp_path / "file"
    p.write_bytes(b"cell_id,z0\nc0,\xff\n")
    with pytest.raises(fio.LoadError, match=re.escape(str(p))):
        load(p)


def test_adapter_document_that_is_not_an_object_is_a_load_error(tmp_path):
    p = tmp_path / "adapter.json"
    p.write_text("[1, 2]")
    with pytest.raises(fio.LoadError, match="expected format 'film-adapter/1', got None"):
        fio.load_adapter(p)


def whole_file_lines(data: bytes) -> list[str]:
    """The lines of a file read whole: decoded, "\\r\\n" folded, split at "\\n"."""
    lines = data.decode("utf-8").replace("\r\n", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def load_outcome(load, path):
    """What a loader gives for ``path``: its result's fields, or its error."""
    try:
        result = load(path)
    except fio.LoadError as exc:
        return str(exc)
    if isinstance(result, EmbeddingMatrix):
        return result.cell_ids, result.values.tobytes()
    return result.cell_ids, result.batch_names, result.batch_codes.tolist(), result.label_of


SPLIT_FILES = [
    pytest.param(b"cell_id,batch,cell_type\r\nc0,b\xc3\xa9,t\xe2\x82\xac\r\nc1,x\ry,t\r\n"
                 b"c2,b\xc3\xa9,t\r", id="multibyte-crlf-lone-cr-no-final-newline"),
    pytest.param(b"cell_id,batch\nc0,b\n\nc1,b\n", id="blank-line-mid-file"),
    pytest.param(b"cell_id,z0,z1\nc0,1.0,2.0\r\nc1,3.0,4.0", id="no-final-newline"),
    pytest.param(b"cell_id,z0,z1\nc0,1.0,2.0\nc1,3.0\n", id="short-row"),
    pytest.param(b"cell_id,z0\nc0,abc\n", id="non-numeric"),
    pytest.param(b"cell_id,z0\nc0,1.0\nc0,2.0\n", id="duplicate-id"),
    pytest.param(b"cell_id,z0\nbad cell,1.0\n", id="bad-id"),
    pytest.param(b"cell_id,z0\r\nc0,1.0\r\n\r,2.0\nc1,3.0\n", id="lone-cr-id"),
    pytest.param(b"cell_id,z0,z1\nc0,1.0,2.0\nc8,nan,abc\nc1,3.0,4.0\nc9,abc,1.0\n",
                 id="earlier-of-two-faults"),
    pytest.param(b"cell_id,z0,z1\nc0,1.0,2.0\nc8,1.0,1e400\nc1,3.0,4.0\nc0,1.0,2.0\n",
                 id="non-finite-before-duplicate"),
]


@pytest.fixture
def chunk_size(monkeypatch):
    """``chunk_size(n)`` makes the files that fedfilm.io reads come in reads
    of ``n`` bytes, and its text streams flush ``n`` bytes at a time, so
    every small file splits at every byte."""
    def set_size(size):
        def open_in_chunks(file, mode="r", **kwargs):
            if mode == "rb":
                return io.BufferedReader(io.FileIO(file), buffer_size=size)
            stream = open(file, mode, **kwargs)
            stream._CHUNK_SIZE = size
            return stream
        monkeypatch.setattr(fio, "open", open_in_chunks, raising=False)
    return set_size


@pytest.mark.parametrize("read_bytes", [1, 2, 3, 5])
@pytest.mark.parametrize("content", SPLIT_FILES)
def test_reading_in_small_blocks_gives_the_whole_file_result(tmp_path, chunk_size,
                                                            content, read_bytes):
    p = tmp_path / "table.csv"
    p.write_bytes(content)
    whole = {load: load_outcome(load, p) for load in (fio.load_embedding_matrix,
                                                      fio.load_metadata)}
    chunk_size(read_bytes)
    assert list(fio._lines(p)) == list(enumerate(whole_file_lines(content), 1))
    for load, outcome in whole.items():
        assert load_outcome(load, p) == outcome


def test_reading_in_small_blocks_keeps_line_breaks_and_characters(tmp_path, chunk_size):
    p = tmp_path / "meta.csv"
    p.write_bytes(SPLIT_FILES[0].values[0])
    chunk_size(3)
    meta = fio.load_metadata(p)
    assert meta.batch_of == {"c0": "bé", "c1": "x\ry", "c2": "bé"}
    assert meta.label_of == {"c0": "t€", "c1": "t", "c2": "t\r"}


def test_a_file_of_many_chunks_reads_as_the_whole_file(tmp_path):
    # each piece's first `cut` bytes end one 8 KiB chunk of the text stream's
    # default reads: a character, a "\r\n" or a lone "\r" split across chunks
    chunk = 8192
    data = b"cell_id,batch,cell_type\n"
    for k, (piece, cut) in enumerate([("é", 1), ("€", 1), ("€", 2), ("\r\n", 1),
                                      ("\r", 1), ("é", 1)], 1):
        head = f"c{k},b,t".encode()
        filler = f"f{k},b,t".encode()
        pad = k * chunk - cut - len(data) - len(head) - len(filler) - 1
        data += (filler + b"p" * pad + b"\n" + head + piece.encode()
                 + (b"" if piece.endswith("\n") else b"y\n"))
    assert len(data) > 5 * chunk
    p = tmp_path / "meta.csv"
    p.write_bytes(data)
    assert list(fio._lines(p)) == list(enumerate(whole_file_lines(data), 1))
    meta = fio.load_metadata(p)
    assert [meta.label_of[f"c{k}"] for k in range(1, 7)] == ["téy", "t€y", "t€y", "t",
                                                            "t\ry", "téy"]


def test_a_byte_that_is_not_utf8_far_into_a_file_names_its_line(tmp_path):
    rows = [f"c{i},{i}.5" for i in range(5000)]
    rows[4000] = "c4000,4000.\udcff"  # the byte 0xff, past many 8 KiB chunks
    p = tmp_path / "emb.csv"
    p.write_bytes("\n".join(["cell_id,z0", *rows, ""]).encode("utf-8", "surrogateescape"))
    assert p.stat().st_size > 5 * 8192
    with pytest.raises(fio.LoadError, match=f"^{re.escape(str(p))}:4002: byte b'\\\\xff' "
                                            "is not UTF-8 \\(invalid start byte\\)$"):
        fio.load_embedding_matrix(p)


@pytest.mark.parametrize("read_bytes", [1, 4, 1 << 18])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, chunk_size, read_bytes):
    chunk_size(read_bytes)
    p = tmp_path / "emb.csv"
    p.write_bytes(b"cell_id,z0\nc0,1.0\nc1,2.\xff\nc2,3.0\n")
    with pytest.raises(fio.LoadError, match=f"^{re.escape(str(p))}:3: byte b'\\\\xff' is not UTF-8"):
        fio.load_embedding_matrix(p)
    # an earlier line's fault comes first
    p.write_bytes(b"cell_id,z0\nc0,inf\nc1,2.\xff\n")
    with pytest.raises(fio.LoadError, match=f"^{re.escape(str(p))}:2: non-finite coordinate 'inf'$"):
        fio.load_embedding_matrix(p)
    # a character cut by its line break, or by the end of the file
    for data, reason in ((b"\n", "invalid continuation byte"), (b"", "unexpected end of data")):
        p.write_bytes(b"cell_id,z0\nc0,1.0\nc1,2.\xe2\x82" + data)
        with pytest.raises(fio.LoadError, match=re.escape(
                f"{p}:3: byte b'\\xe2\\x82' is not UTF-8 ({reason})")):
            fio.load_embedding_matrix(p)


def test_matrix_and_metadata_load_through_a_pipe(tmp_path):
    emb, meta = random_embedding(seed=5, n=40, d=3)
    fio.save_embeddings(tmp_path / "emb.csv", emb)
    fio.save_metadata(tmp_path / "meta.csv", meta)
    for name, load in (("emb.csv", fio.load_embedding_matrix), ("meta.csv", fio.load_metadata)):
        fifo = tmp_path / f"{name}.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=((tmp_path / name).read_bytes(),))
        writer.start()
        try:
            piped = load_outcome(load, fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert piped == load_outcome(load, tmp_path / name)


def traced_peak(call):
    """The peak traced allocation of ``call()``, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ranges -> the most a load may trace, in the values' bytes: one range adopts
# its own parse buffer (a copy of it would trace about 2.35 times)
LOAD_PEAK_BOUND = {1: 1.75, 2: 2}


@pytest.mark.parametrize("count", LOAD_PEAK_BOUND)
def test_loading_and_saving_a_matrix_hold_a_few_copies_of_its_values(tmp_path, monkeypatch,
                                                                     count):
    rng = np.random.default_rng(6)
    emb = EmbeddingMatrix(tuple(f"c{i}" for i in range(20_000)), rng.standard_normal((20_000, 32)))
    path = tmp_path / "emb.csv"
    monkeypatch.setattr(fio.os, "sched_getaffinity", lambda pid: set(range(count)))
    assert traced_peak(lambda: fio.save_embeddings(path, emb)) <= 0.1 * emb.values.nbytes
    assert len(fio._line_ranges(path)) == count + 1
    assert traced_peak(lambda: fio.load_embedding_matrix(path)) \
        <= LOAD_PEAK_BOUND[count] * emb.values.nbytes


def large_instance(n=20_000, d=32):
    """A matrix of 4 batches and 8 cell types, 20,000 x 32 by default, its
    metadata and an adapter."""
    rng = np.random.default_rng(13)
    ids = tuple(f"cell{i}" for i in range(n))
    emb = EmbeddingMatrix(ids, rng.standard_normal((n, d)))
    meta = CellMetadata.from_columns(list(ids), [f"batch{i}" for i in rng.integers(0, 4, n)],
                                     [f"type{i}" for i in rng.integers(0, 8, n)])
    adapter = FilmAdapter(meta.batch_names, rng.uniform(0.5, 2.0, (4, d)),
                          rng.standard_normal((4, d)))
    return emb, meta, adapter


def test_loading_metadata_holds_no_per_row_names(tmp_path):
    emb, meta, _ = large_instance()
    path = tmp_path / "meta.csv"
    fio.save_metadata(path, meta)
    # the ids, their uniqueness check and the codes; a string column per
    # name column alone holds about 0.5x the values' bytes
    assert traced_peak(lambda: fio.load_metadata(path)) < 0.8 * emb.values.nbytes


def test_transform_writes_its_rows_without_a_result_table(tmp_path):
    emb, meta, adapter = large_instance()
    fio.save_embeddings(tmp_path / "emb.csv", emb)
    fio.save_metadata(tmp_path / "meta.csv", meta)
    emb, meta = fio.load_embeddings(tmp_path / "emb.csv", tmp_path / "meta.csv")
    streamed = traced_peak(lambda: fio.save_embedding_rows(
        tmp_path / "streamed.csv", emb.cell_ids, emb.d, corrected_rows(emb, meta, adapter)))
    whole = traced_peak(lambda: fio.save_embeddings(tmp_path / "whole.csv",
                                                    apply_adapter(emb, meta, adapter)))
    assert streamed < 0.5 * emb.values.nbytes <= whole
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("field, value", [("knn_k", 2.0), ("kmeans_restarts", True),
                                          ("threads", "1"), ("metric_subset", None)])
def test_run_config_values_of_the_wrong_type_name_their_field(field, value):
    with pytest.raises(fio.ConfigError, match=f"^{field} must be "):
        fio.RunConfig(train=TrainConfig(), **{field: value})


@pytest.mark.parametrize("write_lines", [1, 2, 3])
def test_writing_in_small_blocks_gives_the_whole_text(tmp_path, chunk_size, write_lines):
    emb, _ = random_embedding(seed=7, n=7, d=2)
    chunk_size(write_lines)
    fio.save_embeddings(tmp_path / "emb.csv", emb)
    lines = ["cell_id,z0,z1", *(f"{cid},{a!r},{b!r}" for cid, (a, b)
                                in zip(emb.cell_ids, emb.values.tolist()))]
    assert (tmp_path / "emb.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.fixture
def ranges(monkeypatch):
    """``ranges(count)`` cuts every CSV that fedfilm.io reads or writes into
    ``count`` ranges where it has the bytes for them, as if the process
    could run on ``count`` CPUs and one byte were enough for a range."""
    def set_count(count):
        monkeypatch.setattr(fio, "_MIN_RANGE_BYTES", 1)
        monkeypatch.setattr(fio.os, "sched_getaffinity", lambda pid: set(range(count)))
    return set_count


@pytest.fixture
def worker_pids(monkeypatch):
    """The pids of the workers that fedfilm.io starts during the test."""
    pids = []
    start = fio._Worker.__init__

    def record(worker, task):
        start(worker, task)  # a worker itself never returns from this
        pids.append(worker.pid)

    monkeypatch.setattr(fio._Worker, "__init__", record)
    return pids


def all_reaped(pids) -> bool:
    """True when each of ``pids`` has ended and been reaped."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True


def test_range_count_follows_the_affinity_mask_and_the_minimum(monkeypatch):
    monkeypatch.setattr(fio.os, "sched_getaffinity", lambda pid: {0, 2, 5})
    least = fio._MIN_RANGE_BYTES
    assert [fio._range_count(size) for size in (0, 2 * least - 1, 2 * least, 100 * least)] \
        == [1, 1, 2, 3]
    monkeypatch.setattr(fio.os, "sched_getaffinity", lambda pid: {1})
    assert fio._range_count(100 * least) == 1


def test_the_first_range_holds_a_data_line_when_the_header_is_most_of_the_file(
        tmp_path, ranges):
    # three ranges of a 2-byte data line: the first cut would fall at the
    # header's end and leave the first range no data line
    ranges(3)
    path = tmp_path / "emb.csv"
    path.write_text("cell_id,z0\n0\n", encoding="utf-8")
    assert fio._line_ranges(path) == [0, None]
    with pytest.raises(fio.LoadError, match=r"emb\.csv:2: expected 2 columns, got 1"):
        fio.load_embedding_matrix(path)


def test_a_large_matrix_splits_and_reads_and_writes_as_one_range(tmp_path, monkeypatch,
                                                                  worker_pids):
    emb, meta = random_embedding(seed=8, n=4000, d=16)
    fio.save_embeddings(tmp_path / "one.csv", emb)
    fio.save_metadata(tmp_path / "one_meta.csv", meta)
    assert (tmp_path / "one.csv").stat().st_size > 4 * fio._MIN_RANGE_BYTES
    monkeypatch.setattr(fio.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert len(fio._line_ranges(tmp_path / "one.csv")) == 4  # three ranges
    fio.save_embeddings(tmp_path / "split.csv", emb)
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    loaded = fio.load_embedding_matrix(tmp_path / "one.csv")
    assert loaded.cell_ids == emb.cell_ids
    assert loaded.values.tobytes() == emb.values.tobytes()
    assert not loaded.values.flags.writeable
    assert sorted(os.listdir(tmp_path)) == ["one.csv", "one_meta.csv", "split.csv"]
    assert worker_pids and all_reaped(worker_pids)


def test_metadata_split_into_ranges_reads_and_writes_as_one_range(tmp_path, ranges,
                                                                  worker_pids):
    emb, meta = random_embedding(seed=9, n=25, d=1)
    fio.save_metadata(tmp_path / "one.csv", meta)
    ranges(4)
    fio.save_metadata(tmp_path / "split.csv", meta)
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert len(fio._line_ranges(tmp_path / "one.csv")) == 5
    assert worker_pids and all_reaped(worker_pids)
    worker_pids.clear()
    # metadata is read in the calling process, however many ranges it has
    loaded = fio.load_metadata(tmp_path / "one.csv")
    assert not worker_pids
    assert loaded.cell_ids == meta.cell_ids
    assert loaded.batch_of == meta.batch_of and loaded.label_of == meta.label_of


@pytest.mark.parametrize("n", [_ROW_CHUNK - 1, _ROW_CHUNK + 1])
@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_streamed_transform_is_the_saved_applied_matrix(tmp_path, ranges, count, n):
    emb, meta, adapter = large_instance(n=n, d=3)
    fio.save_embeddings(tmp_path / "emb.csv", emb)
    fio.save_metadata(tmp_path / "meta.csv", meta)
    fio.save_adapter(tmp_path / "adapter.json", adapter)
    fio.save_embeddings(tmp_path / "whole.csv", apply_adapter(emb, meta, adapter))
    ranges(count)
    assert cli.main(["transform", "--embeddings", str(tmp_path / "emb.csv"),
                     "--metadata", str(tmp_path / "meta.csv"),
                     "--adapter", str(tmp_path / "adapter.json"),
                     "--out", str(tmp_path / "out")]) == 0
    assert len(fio._line_ranges(tmp_path / "whole.csv")) == count + 1
    assert (tmp_path / "out" / "corrected_embeddings.csv").read_bytes() \
        == (tmp_path / "whole.csv").read_bytes()


DATA_ROWS = [f"c{i},{i}.5,-{i}.25" for i in range(12)]
# fault -> (data line i as bytes, the error's text after "<path>:<line>: ");
# a duplicate repeats row 0's id, so it goes on row 1 or later
LINE_FAULTS = {
    "width": (lambda i: f"c{i},{i}.5".encode(), "expected 3 columns, got 2"),
    "bad-id": (lambda i: f"c {i},{i}.5,1.0".encode(),
               "cell id 'c {i}' contains characters outside [A-Za-z0-9_.-]"),
    "non-numeric": (lambda i: f"c{i},{i}.5,x{i}".encode(), "non-numeric coordinate 'x{i}'"),
    "non-finite": (lambda i: f"c{i},1e999,{i}.0".encode(), "non-finite coordinate '1e999'"),
    "non-utf8": (lambda i: f"c{i},{i}.5,1.".encode() + b"\xff",
                 "byte b'\\xff' is not UTF-8 (invalid start byte)"),
    "duplicate": (lambda i: f"c0,{i}.5,1.0".encode(), "duplicate cell id 'c0'"),
    "duplicate-before-coordinate": (lambda i: b"c0,abc,1.0", "duplicate cell id 'c0'"),
}
ENDINGS = {"lf": (b"\n", True), "crlf": (b"\r\n", True), "no-final-newline": (b"\n", False)}


def table_bytes(lines, ending=b"\n", final=True):
    return ending.join(lines) + (ending if final else b"")


def range_of_line(path, data, line_index):
    """``"first"``, ``"later"`` or ``"later-first-line"``: where the 0-based
    line ``line_index`` of ``data`` falls among the ranges of ``path``."""
    start = sum(len(line) + 1 for line in data.split(b"\n")[:line_index])
    cuts = fio._line_ranges(path)[1:-1]
    if start in cuts:
        return "later-first-line"
    return "later" if cuts and start > cuts[0] else "first"


@pytest.mark.parametrize("ending", ENDINGS)
@pytest.mark.parametrize("fault", LINE_FAULTS)
def test_a_faulty_line_in_any_range_raises_the_one_range_error(tmp_path, ranges, worker_pids,
                                                               fault, ending):
    line_at, text = LINE_FAULTS[fault]
    p = tmp_path / "emb.csv"
    placed = set()
    for row in range(1 if fault.startswith("duplicate") else 0, len(DATA_ROWS)):
        lines = [b"cell_id,z0,z1", *(r.encode() for r in DATA_ROWS)]
        lines[row + 1] = line_at(row)
        data = table_bytes(lines, *ENDINGS[ending])
        p.write_bytes(data)
        ranges(1)
        one = load_outcome(fio.load_embedding_matrix, p)
        assert one == f"{p}:{row + 2}: {text.format(i=row)}"
        ranges(3)
        assert load_outcome(fio.load_embedding_matrix, p) == one
        placed.add(range_of_line(p, data, row + 1))
        assert worker_pids and all_reaped(worker_pids)
    assert placed == {"first", "later", "later-first-line"}


@pytest.mark.parametrize("ending", ENDINGS)
def test_ranges_join_to_the_one_range_matrix(tmp_path, ranges, ending):
    p = tmp_path / "emb.csv"
    p.write_bytes(table_bytes([b"cell_id,z0,z1", *(r.encode() for r in DATA_ROWS)],
                              *ENDINGS[ending]))
    ranges(1)
    one = load_outcome(fio.load_embedding_matrix, p)
    assert one[0] == tuple(f"c{i}" for i in range(12))
    for count in (2, 3, 5, 12, 20):
        ranges(count)
        assert load_outcome(fio.load_embedding_matrix, p) == one


def test_a_duplicate_of_an_earlier_range_comes_before_a_later_fault(tmp_path, ranges):
    p = tmp_path / "emb.csv"
    placed = set()
    for row in range(1, len(DATA_ROWS) - 1):
        lines = [b"cell_id,z0,z1", *(r.encode() for r in DATA_ROWS)]
        lines[row + 1] = f"c0,{row}.5,1.0".encode()
        lines[row + 2] = b"c99,1.0"  # too few columns
        data = table_bytes(lines)
        p.write_bytes(data)
        ranges(1)
        one = load_outcome(fio.load_embedding_matrix, p)
        assert one == f"{p}:{row + 2}: duplicate cell id 'c0'"
        ranges(3)
        assert load_outcome(fio.load_embedding_matrix, p) == one
        placed.add(range_of_line(p, data, row + 1))
    assert placed == {"first", "later", "later-first-line"}


METADATA_FAULTS = {
    "width": (lambda i: f"c{i},b", "expected 3 columns, got 2"),
    "bad-id": (lambda i: f"c{i}!,b,t",
               "cell id 'c{i}!' contains characters outside [A-Za-z0-9_.-]"),
    "empty-batch": (lambda i: f"c{i},,t", "empty batch name"),
    "empty-cell-type": (lambda i: f"c{i},b,", "empty cell type (partial labels are not allowed)"),
    "duplicate": (lambda i: "c0,b,", "duplicate cell id 'c0'"),
}


@pytest.mark.parametrize("fault", METADATA_FAULTS)
def test_a_faulty_metadata_line_in_any_range_raises_the_one_range_error(tmp_path, ranges,
                                                                        worker_pids, fault):
    line_at, text = METADATA_FAULTS[fault]
    p = tmp_path / "meta.csv"
    for row in range(1 if fault == "duplicate" else 0, 10):
        lines = ["cell_id,batch,cell_type", *(f"c{i},b{i % 3},t{i % 2}" for i in range(10))]
        lines[row + 1] = line_at(row)
        p.write_text("\n".join(lines) + "\n")
        ranges(1)
        one = load_outcome(fio.load_metadata, p)
        assert one == f"{p}:{row + 2}: {text.format(i=row)}"
        ranges(3)
        assert load_outcome(fio.load_metadata, p) == one
        assert len(fio._line_ranges(p)) == 4 and not worker_pids  # read in this process


def test_a_worker_error_the_re_read_cannot_find_is_raised(tmp_path, ranges, monkeypatch,
                                                         worker_pids):
    emb, _ = random_embedding(seed=13, n=30, d=2)
    p = tmp_path / "emb.csv"
    fio.save_embeddings(p, emb)
    parent = os.getpid()
    real_lines = fio._lines

    def lines(path, *args):
        if os.getpid() != parent:
            raise fio.LoadError(f"cannot read {path}: device gone")
        return real_lines(path, *args)

    monkeypatch.setattr(fio, "_lines", lines)
    ranges(3)
    with pytest.raises(fio.LoadError, match=f"^cannot read {re.escape(str(p))}: device gone$"):
        fio.load_embedding_matrix(p)
    assert worker_pids and all_reaped(worker_pids)


def test_workers_end_with_their_call_and_leave_no_part_file(tmp_path, ranges, monkeypatch,
                                                            worker_pids):
    emb, _ = random_embedding(seed=10, n=30, d=2)
    p = tmp_path / "emb.csv"
    ranges(3)
    fio.save_embeddings(p, emb)
    assert os.listdir(tmp_path) == ["emb.csv"]
    assert worker_pids and all_reaped(worker_pids)
    worker_pids.clear()
    parent = os.getpid()
    real_parse = fio._parse_rows

    def parse_rows(path, lines, width, parse):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real_parse(path, lines, width, parse)

    monkeypatch.setattr(fio, "_parse_rows", parse_rows)
    with pytest.raises(KeyboardInterrupt):
        fio.load_embedding_matrix(p)
    assert worker_pids and all_reaped(worker_pids)


def test_a_worker_never_unwinds_through_its_caller(tmp_path, ranges, monkeypatch,
                                                   worker_pids):
    emb, _ = random_embedding(seed=11, n=30, d=2)
    p = tmp_path / "emb.csv"
    fio.save_embeddings(p, emb)
    parent = os.getpid()
    real_parse = fio._parse_rows

    def parse_rows(path, lines, width, parse):
        if os.getpid() != parent:
            raise KeyboardInterrupt
        return real_parse(path, lines, width, parse)

    monkeypatch.setattr(fio, "_parse_rows", parse_rows)
    ranges(3)
    log = tmp_path / "finally.log"
    try:
        with pytest.raises(fio.FedfilmError, match="ended without a result"):
            fio.load_embedding_matrix(p)
    finally:
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()}\n")
    assert log.read_text(encoding="utf-8") == f"{parent}\n"
    assert worker_pids and all_reaped(worker_pids)


def test_a_worker_that_sends_too_few_items_fails_the_load(tmp_path, ranges, monkeypatch,
                                                         worker_pids):
    emb, _ = random_embedding(seed=14, n=30, d=2)
    p = tmp_path / "emb.csv"
    fio.save_embeddings(p, emb)
    parent = os.getpid()
    real_parse = fio._parse_rows

    def parse_rows(path, lines, width, parse):
        if os.getpid() == parent:
            return real_parse(path, lines, width, parse)
        skipped = []  # a worker keeps its first line's id but not its items

        def parse_all_but_first(fields):
            if skipped:
                return parse(fields)
            skipped.append(fields)

        return real_parse(path, lines, width, parse_all_but_first)

    monkeypatch.setattr(fio, "_parse_rows", parse_rows)
    ranges(3)
    with pytest.raises(fio.FedfilmError, match="ended before sending all its data"):
        fio.load_embedding_matrix(p)
    assert len(worker_pids) == 2 and all_reaped(worker_pids)


def test_a_worker_error_is_raised_by_the_call(tmp_path, ranges, monkeypatch, worker_pids):
    emb, _ = random_embedding(seed=12, n=30, d=2)
    parent = os.getpid()

    class FailingStream(io.TextIOWrapper):
        def writelines(self, lines):
            if os.getpid() != parent:
                raise OSError(28, "No space left on device")
            return super().writelines(lines)

    def open_failing(file, mode="r", **kwargs):
        stream = open(file, mode, **kwargs)
        if mode == "w":
            return FailingStream(stream.detach(), encoding="utf-8")
        return stream

    monkeypatch.setattr(fio, "open", open_failing, raising=False)
    ranges(3)
    with pytest.raises(OSError, match="No space left on device"):
        fio.save_embeddings(tmp_path / "emb.csv", emb)
    assert os.listdir(tmp_path) == ["emb.csv"]
    assert worker_pids and all_reaped(worker_pids)
