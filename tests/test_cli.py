import json

import numpy as np
import pytest

from fedfilm import cli
from fedfilm import io as fio
from fedfilm.core import EmbeddingMatrix, apply_adapter


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = run(["synth", "--batches", "3", "--types", "3", "--dim", "4",
                "--cells-per-batch", "40", "--shift-sigma", "1.0",
                "--seed", "5", "--out", str(out)])
    assert code == 0
    return out


def test_synth_writes_instance_with_sidecar(synth_dir):
    assert (synth_dir / "embeddings.csv").exists()
    assert (synth_dir / "metadata.csv").exists()
    truth = json.loads((synth_dir / "ground_truth.json").read_text())
    assert set(truth) >= {"batch_names", "scale", "shift", "centroids", "exact_inverse"}
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert "embeddings.csv" in manifest["artifacts"]


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["synth", "--batches", "2", "--types", "2", "--dim", "3",
                    "--cells-per-batch", "10", "--seed", "3", "--out", str(out)]) == 0
    assert (a / "embeddings.csv").read_bytes() == (b / "embeddings.csv").read_bytes()
    assert (a / "metadata.csv").read_bytes() == (b / "metadata.csv").read_bytes()


def test_fit_writes_adapter_log_and_manifest(synth_dir, tmp_path):
    out = tmp_path / "run"
    code = run(["fit", "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--out", str(out), "--seed", "1"])
    assert code == 0
    assert (out / "adapter.json").exists()
    log_lines = (out / "training_log.csv").read_text().splitlines()
    assert log_lines[0] == "round,client,train_loss,val_loss"
    assert len(log_lines) - 1 == 7 * 3  # default 7 rounds x 3 batches
    cfg = json.loads((out / "effective_config.json").read_text())
    assert cfg["rounds"] == 7 and cfg["seed"] == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 1


def test_fit_rejects_rounds_zero_before_touching_files(synth_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["fit", "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--out", str(out), "--rounds", "0"])
    assert code == 2
    assert not out.exists()
    assert "rounds" in capsys.readouterr().err


def test_fit_is_deterministic_across_threads(synth_dir, tmp_path):
    outs = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r3", "3")):
        out = tmp_path / name
        assert run(["fit", "--embeddings", str(synth_dir / "embeddings.csv"),
                    "--metadata", str(synth_dir / "metadata.csv"),
                    "--out", str(out), "--seed", "2", "--threads", threads]) == 0
        outs.append((out / "adapter.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_fit_resumes_from_init_adapter(synth_dir, tmp_path):
    from fedfilm import identity_adapter
    emb, meta = fio.load_embeddings(synth_dir / "embeddings.csv",
                                    synth_dir / "metadata.csv")
    init = identity_adapter(meta.batch_names, emb.d).freeze(["batch0"])
    init_path = tmp_path / "init.json"
    fio.save_adapter(init_path, init)
    out = tmp_path / "run"
    assert run(["fit", "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--init-adapter", str(init_path),
                "--out", str(out), "--seed", "6", "--rounds", "2"]) == 0
    fitted = fio.load_adapter(out / "adapter.json")
    i = fitted.row_index("batch0")
    assert fitted.frozen[i]
    assert np.array_equal(fitted.gamma[i], init.gamma[i])
    # frozen batch contributes no training-log records
    log = (out / "training_log.csv").read_text()
    assert ",batch0," not in log


def test_transform_identity_reproduces_input(synth_dir, tmp_path):
    from fedfilm import identity_adapter
    emb, meta = fio.load_embeddings(synth_dir / "embeddings.csv",
                                    synth_dir / "metadata.csv")
    adapter_path = tmp_path / "ident.json"
    fio.save_adapter(adapter_path, identity_adapter(meta.batch_names, emb.d))
    out = tmp_path / "t"
    assert run(["transform", "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--adapter", str(adapter_path), "--out", str(out)]) == 0
    corrected = fio.load_embedding_matrix(out / "corrected_embeddings.csv")
    assert np.array_equal(corrected.values, emb.values)


def test_transform_matches_library_call(synth_dir, tmp_path):
    fit_out = tmp_path / "fit"
    assert run(["fit", "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--out", str(fit_out), "--seed", "4"]) == 0
    out = tmp_path / "t"
    assert run(["transform", "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--adapter", str(fit_out / "adapter.json"), "--out", str(out)]) == 0
    emb, meta = fio.load_embeddings(synth_dir / "embeddings.csv",
                                    synth_dir / "metadata.csv")
    adapter = fio.load_adapter(fit_out / "adapter.json")
    expected = apply_adapter(emb, meta, adapter)
    got = fio.load_embedding_matrix(out / "corrected_embeddings.csv")
    assert np.array_equal(got.values, expected.values)


def test_transform_missing_batch_row_fails(synth_dir, tmp_path, capsys):
    from fedfilm import identity_adapter
    adapter_path = tmp_path / "partial.json"
    fio.save_adapter(adapter_path, identity_adapter(["batch0"], 4))
    out = tmp_path / "t"
    code = run(["transform", "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--adapter", str(adapter_path), "--out", str(out)])
    assert code == 1
    assert "batch" in capsys.readouterr().err


def test_evaluate_report_and_arithmetic(synth_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    code = run(["evaluate", "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--out", str(out), "--knn-k", "10"])
    assert code == 0
    text = (out / "metrics.txt").read_text()
    values = dict(line.split("=", 1) for line in text.splitlines())
    bio, batch, overall = (float(values[k]) for k in ("bio", "batch", "overall"))
    assert overall == pytest.approx(0.6 * bio + 0.4 * batch, abs=1e-12)
    # rerun is byte-identical
    out2 = tmp_path / "eval2"
    run(["evaluate", "--embeddings", str(synth_dir / "embeddings.csv"),
         "--metadata", str(synth_dir / "metadata.csv"),
         "--out", str(out2), "--knn-k", "10"])
    assert (out / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_evaluate_aggregate_self_test(capsys):
    assert run(["evaluate", "--bio", "0.7239", "--batch", "0.8047"]) == 0
    out = capsys.readouterr().out
    overall = float(out.strip().split("overall=")[1])
    assert overall == pytest.approx(0.7562, abs=5e-5)
    assert run(["evaluate", "--bio", "0.7359", "--batch", "0.8269"]) == 0
    overall = float(capsys.readouterr().out.strip().split("overall=")[1])
    assert overall == pytest.approx(0.7723, abs=5e-5)


def test_evaluate_flag_conflicts(capsys, synth_dir):
    assert run(["evaluate", "--bio", "0.5"]) == 2
    assert run(["evaluate", "--bio", "0.5", "--batch", "0.5",
                "--embeddings", str(synth_dir / "embeddings.csv")]) == 2
    assert run(["evaluate"]) == 2


def test_evaluate_coordinates_whose_squares_overflow_is_runtime_error(
        synth_dir, tmp_path, capsys):
    emb = fio.load_embedding_matrix(synth_dir / "embeddings.csv")
    huge = tmp_path / "huge.csv"
    fio.save_embeddings(huge, EmbeddingMatrix(emb.cell_ids, emb.values * 1e155))
    assert run(["evaluate", "--embeddings", str(huge),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fedfilm evaluate: ") and "overflow" in err


def test_scenario_cli_continual(synth_dir, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "mode": "continual",
        "stages": [["batch0", "batch1"], ["batch2"]],
    }))
    out = tmp_path / "scen"
    code = run(["scenario", "--plan", str(plan),
                "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--out", str(out), "--rounds", "2", "--knn-k", "8"])
    assert code == 0
    for stage in ("stage0", "stage1"):
        assert (out / stage / "metrics.csv").exists()
        assert (out / stage / "baseline_metrics.csv").exists()
        assert (out / stage / "corrected_embeddings.csv").exists()
    # stage-1 coordinates preserved inside stage-2 output
    s0 = fio.load_embedding_matrix(out / "stage0" / "corrected_embeddings.csv")
    s1 = fio.load_embedding_matrix(out / "stage1" / "corrected_embeddings.csv")
    rows = s1.rows_for(s0.cell_ids)
    assert np.array_equal(s1.values[rows], s0.values)


def test_scenario_cli_cumulative_over_features(tmp_path):
    # raw features: synthetic embedding file reused as a feature matrix
    data = tmp_path / "data"
    assert run(["synth", "--batches", "2", "--types", "2", "--dim", "6",
                "--cells-per-batch", "30", "--seed", "8", "--out", str(data)]) == 0
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "mode": "cumulative",
        "stages": [["batch0"], ["batch1"]],
        "pca_components": 3,
    }))
    out = tmp_path / "scen"
    code = run(["scenario", "--plan", str(plan),
                "--features", str(data / "embeddings.csv"),
                "--metadata", str(data / "metadata.csv"),
                "--out", str(out), "--rounds", "2", "--knn-k", "6"])
    assert code == 0
    s1 = fio.load_embedding_matrix(out / "stage1" / "corrected_embeddings.csv")
    assert s1.d == 3  # re-embedded to the plan's PCA dimensionality


def test_scenario_single_stage_equals_fit_plus_transform(synth_dir, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "mode": "cumulative",
        "stages": [["batch0", "batch1", "batch2"]],
    }))
    scen = tmp_path / "scen"
    assert run(["scenario", "--plan", str(plan),
                "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--out", str(scen), "--seed", "5", "--knn-k", "8"]) == 0
    fit_out = tmp_path / "fit"
    assert run(["fit", "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--out", str(fit_out), "--seed", "5"]) == 0
    tr = tmp_path / "tr"
    assert run(["transform", "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--adapter", str(fit_out / "adapter.json"), "--out", str(tr)]) == 0
    assert ((scen / "stage0" / "corrected_embeddings.csv").read_bytes()
            == (tr / "corrected_embeddings.csv").read_bytes())
    assert ((scen / "stage0" / "adapter.json").read_bytes()
            == (fit_out / "adapter.json").read_bytes())


def test_scenario_flag_validation(tmp_path, synth_dir, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"mode": "continual", "stages": [["batch0"]]}))
    assert run(["scenario", "--plan", str(plan),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--out", str(tmp_path / "x")]) == 2
    assert run(["scenario", "--plan", str(plan),
                "--features", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--out", str(tmp_path / "y")]) == 2



def run_plan(plan, synth_dir, tmp_path):
    return run(["scenario", "--plan", str(plan),
                "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--out", str(tmp_path / "scen"), "--rounds", "1", "--knn-k", "5"])


def test_scenario_plan_that_is_not_utf8_is_usage_error(tmp_path, synth_dir, capsys):
    plan = tmp_path / "plan.json"
    plan.write_bytes(b'{"mode": "continual", "stages": [["batch\xff"]]}')
    assert run_plan(plan, synth_dir, tmp_path) == 2
    assert str(plan) in capsys.readouterr().err


def test_scenario_plan_stages_as_string_is_usage_error(tmp_path, synth_dir, capsys):
    # a string is a sequence of one-character batch names, not a list of stages
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"mode": "continual", "stages": "ab"}))
    assert run_plan(plan, synth_dir, tmp_path) == 2
    err = capsys.readouterr().err
    assert str(plan) in err and "'stages'" in err


@pytest.mark.parametrize("key, value", [
    pytest.param("stages", [[0]], id="stages-numbers"),
    pytest.param("pca_components", "7", id="pca_components-string"),
])
def test_scenario_plan_values_of_the_wrong_type_are_usage_errors(
        tmp_path, synth_dir, capsys, key, value):
    doc = {"mode": "cumulative", "stages": [["batch0"], ["batch1"]]}
    doc[key] = value
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    assert run_plan(plan, synth_dir, tmp_path) == 2
    err = capsys.readouterr().err
    assert str(plan) in err and repr(key) in err
    assert not (tmp_path / "scen").exists()


@pytest.mark.parametrize("data_flag", ["--features", "--embeddings"])
def test_scenario_plan_with_pca_components_below_one_is_usage_error(
        tmp_path, synth_dir, capsys, data_flag):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"mode": "cumulative", "stages": [["batch0"], ["batch1"]],
                                "pca_components": 0}))
    code = run(["scenario", "--plan", str(plan), data_flag, str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"), "--out", str(tmp_path / "scen")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(plan) in err and "pca_components must be >= 1, got 0" in err
    assert not (tmp_path / "scen").exists()


MISSING = "cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"


@pytest.mark.parametrize("argv, cause", [
    pytest.param(["fit", "--embeddings", "{missing}", "--metadata", "{meta}"],
                 MISSING, id="fit"),
    pytest.param(["transform", "--embeddings", "{emb}", "--metadata", "{meta}",
                  "--adapter", "{missing}"], MISSING, id="transform"),
    pytest.param(["fit", "--embeddings", "{emb}", "--metadata", "{meta}",
                  "--config", "{missing}"], MISSING, id="fit-config"),
    pytest.param(["evaluate", "--embeddings", "{missing}", "--metadata", "{meta}"],
                 MISSING, id="evaluate"),
    pytest.param(["scenario", "--plan", "{plan}", "--embeddings", "{missing}",
                  "--metadata", "{meta}"], MISSING, id="scenario"),
    pytest.param(["scenario", "--plan", "{plan}", "--features", "{emb}", "--metadata", "{meta}"],
                 "components = 50 exceeds min(cells, features) = 4", id="scenario-pca-bound"),
    pytest.param(["baseline-pca", "--features", "{missing}", "--components", "2"],
                 MISSING, id="baseline-pca"),
    pytest.param(["synth", "--batches", "0", "--types", "2", "--dim", "2",
                  "--cells-per-batch", "5"], "counts and dimension must be >= 1", id="synth"),
])
def test_failed_command_leaves_no_out_directory(tmp_path, synth_dir, capsys, argv, cause):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"mode": "cumulative", "stages": [["batch0"], ["batch1"]],
                                "pca_components": 50}))
    paths = {"missing": tmp_path / "missing.csv", "plan": plan,
             "emb": synth_dir / "embeddings.csv", "meta": synth_dir / "metadata.csv"}
    out = tmp_path / "out"
    code = run([arg.format(**paths) for arg in argv] + ["--out", str(out)])
    assert code == 1
    assert cause.format(**paths) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["synth", "--batches", "2", "--types", "2", "--dim", "2",
                  "--cells-per-batch", "5"], id="synth"),
    pytest.param(["fit", "--embeddings", "{emb}", "--metadata", "{meta}", "--rounds", "1"],
                 id="fit"),
])
def test_out_naming_an_existing_file_is_an_error_line(tmp_path, synth_dir, capsys, argv):
    out = tmp_path / "afile"
    out.touch()
    paths = {"emb": synth_dir / "embeddings.csv", "meta": synth_dir / "metadata.csv"}
    code = run([arg.format(**paths) for arg in argv] + ["--out", str(out)])
    assert code == 1  # an error line, not a FileExistsError traceback
    err = capsys.readouterr().err
    assert err.startswith(f"fedfilm {argv[0]}: ") and str(out) in err


def test_baseline_pca_cli(tmp_path, synth_dir):
    out = tmp_path / "pca"
    code = run(["baseline-pca", "--features", str(synth_dir / "embeddings.csv"),
                "--components", "2", "--out", str(out)])
    assert code == 0
    emb = fio.load_embedding_matrix(out / "embeddings.csv")
    assert emb.d == 2


def test_config_file_and_flag_precedence(synth_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rounds": 3, "mu": 0.5}))
    out = tmp_path / "run"
    assert run(["fit", "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--out", str(out), "--config", str(cfg_path), "--mu", "0.25"]) == 0
    eff = json.loads((out / "effective_config.json").read_text())
    assert eff["rounds"] == 3    # from the file
    assert eff["mu"] == 0.25     # flag wins over the file
    log_lines = (out / "training_log.csv").read_text().splitlines()
    assert len(log_lines) - 1 == 3 * 3


def test_fit_target_flag_and_config_key(synth_dir, tmp_path):
    data = ["--embeddings", str(synth_dir / "embeddings.csv"),
            "--metadata", str(synth_dir / "metadata.csv"), "--seed", "3"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"target": "pooled"}))
    runs = {"default": [], "flag": ["--target", "pooled"], "file": ["--config", str(cfg_path)]}
    for name, extra in runs.items():
        assert run(["fit", *data, "--out", str(tmp_path / name), *extra]) == 0
    adapters = {name: (tmp_path / name / "adapter.json").read_bytes() for name in runs}
    assert adapters["flag"] == adapters["file"] != adapters["default"]
    eff = json.loads((tmp_path / "flag" / "effective_config.json").read_text())
    assert eff["target"] == "pooled"
    eff = json.loads((tmp_path / "default" / "effective_config.json").read_text())
    assert eff["target"] == "self"
    cfg_path.write_text(json.dumps({"target": "global"}))
    assert run(["fit", *data, "--out", str(tmp_path / "bad"), "--config", str(cfg_path)]) == 2


def test_unknown_config_key_is_usage_error(synth_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"no_such_knob": 1}))
    code = run(["fit", "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--out", str(tmp_path / "run"), "--config", str(cfg_path)])
    assert code == 2
    assert "no_such_knob" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"rounds": 2.5}, {"rounds": "7"}, {"seed": 1.5},
                                 {"learning_rate": "0.1"}, {"minibatch_size": True}])
def test_config_value_of_the_wrong_type_is_usage_error(synth_dir, tmp_path, capsys, doc):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = run(["fit", "--embeddings", str(synth_dir / "embeddings.csv"),
                "--metadata", str(synth_dir / "metadata.csv"),
                "--out", str(tmp_path / "run"), "--config", str(cfg_path)])
    assert code == 2
    [key] = doc
    assert f"config key {key!r} must be" in capsys.readouterr().err
    assert not (tmp_path / "run" / "adapter.json").exists()


def test_help_documents_flags(capsys):
    for sub, expected_flag in [
        ("fit", "--embeddings"), ("transform", "--adapter"),
        ("evaluate", "--bio"), ("synth", "--cells-per-batch"),
        ("scenario", "--plan"), ("baseline-pca", "--components"),
    ]:
        with pytest.raises(SystemExit) as exc:
            run([sub, "--help"])
        assert exc.value.code == 0
        assert expected_flag in capsys.readouterr().out


def test_usage_error_exit_code_is_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["fit"])  # missing required flags
    assert exc.value.code == 2
