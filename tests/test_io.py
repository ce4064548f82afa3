import json
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from fedfilm import CellMetadata, EmbeddingMatrix, FilmAdapter, TrainConfig, identity_adapter
from fedfilm import io as fio
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


@pytest.mark.parametrize("doc, kind", [
    ({"rounds": 2.5}, "an integer"),
    ({"rounds": "7"}, "an integer"),
    ({"seed": 1.5}, "an integer"),
    ({"minibatch_size": True}, "an integer"),
    ({"knn_k": None}, "an integer"),
    ({"learning_rate": "0.1"}, "a number"),
    ({"mu": False}, "a number"),
    ({"reset_moments_per_round": 1}, "true or false"),
    ({"target": 3}, "a string"),
    ({"aggregation_mode": ["full-table"]}, "a string"),
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
])
def test_load_plan_rejects_malformed_documents(tmp_path, content):
    path = tmp_path / "plan.json"
    path.write_bytes(content)
    with pytest.raises(fio.LoadError, match=re.escape(str(path))):
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


@pytest.mark.parametrize("read_bytes", [1, 2, 3, 5])
@pytest.mark.parametrize("content", SPLIT_FILES)
def test_reading_in_small_blocks_gives_the_whole_file_result(tmp_path, monkeypatch,
                                                            content, read_bytes):
    p = tmp_path / "table.csv"
    p.write_bytes(content)
    whole = {load: load_outcome(load, p) for load in (fio.load_embedding_matrix,
                                                      fio.load_metadata)}
    monkeypatch.setattr(fio, "_READ_BYTES", read_bytes)
    assert [line for block in fio._line_blocks(p) for line in block] == whole_file_lines(content)
    for load, outcome in whole.items():
        assert load_outcome(load, p) == outcome


def test_reading_in_small_blocks_keeps_line_breaks_and_characters(tmp_path, monkeypatch):
    p = tmp_path / "meta.csv"
    p.write_bytes(SPLIT_FILES[0].values[0])
    monkeypatch.setattr(fio, "_READ_BYTES", 3)
    meta = fio.load_metadata(p)
    assert meta.batch_of == {"c0": "bé", "c1": "x\ry", "c2": "bé"}
    assert meta.label_of == {"c0": "t€", "c1": "t", "c2": "t\r"}


@pytest.mark.parametrize("read_bytes", [1, 4, 1 << 18])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, monkeypatch, read_bytes):
    monkeypatch.setattr(fio, "_READ_BYTES", read_bytes)
    p = tmp_path / "emb.csv"
    p.write_bytes(b"cell_id,z0\nc0,1.0\nc1,2.\xff\nc2,3.0\n")
    with pytest.raises(fio.LoadError, match=f"^{re.escape(str(p))}:3: byte b'\\\\xff' is not UTF-8"):
        fio.load_embedding_matrix(p)
    # an earlier line's fault comes first
    p.write_bytes(b"cell_id,z0\nc0,inf\nc1,2.\xff\n")
    with pytest.raises(fio.LoadError, match=f"^{re.escape(str(p))}:2: non-finite coordinate 'inf'$"):
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


def test_loading_and_saving_a_matrix_hold_a_few_copies_of_its_values(tmp_path):
    rng = np.random.default_rng(6)
    emb = EmbeddingMatrix(tuple(f"c{i}" for i in range(20_000)), rng.standard_normal((20_000, 32)))
    path = tmp_path / "emb.csv"
    assert traced_peak(lambda: fio.save_embeddings(path, emb)) <= 2 * emb.values.nbytes
    assert traced_peak(lambda: fio.load_embedding_matrix(path)) <= 3 * emb.values.nbytes


@pytest.mark.parametrize("field, value", [("knn_k", 2.0), ("kmeans_restarts", True),
                                          ("threads", "1"), ("metric_subset", None)])
def test_run_config_values_of_the_wrong_type_name_their_field(field, value):
    with pytest.raises(fio.ConfigError, match=f"^{field} must be "):
        fio.RunConfig(train=TrainConfig(), **{field: value})


@pytest.mark.parametrize("write_lines", [1, 2, 3])
def test_writing_in_small_blocks_gives_the_whole_text(tmp_path, monkeypatch, write_lines):
    emb, _ = random_embedding(seed=7, n=7, d=2)
    monkeypatch.setattr(fio, "_WRITE_LINES", write_lines)
    fio.save_embeddings(tmp_path / "emb.csv", emb)
    lines = ["cell_id,z0,z1", *(f"{cid},{a!r},{b!r}" for cid, (a, b)
                                in zip(emb.cell_ids, emb.values.tolist()))]
    assert (tmp_path / "emb.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
