"""Tests of the benchmark itself, on a tiny size that runs every code path of
the three workloads in seconds:

    python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

TINY_CELLS_PER_BATCH = 40


def tiny_run(tmp_path, name, seed=0, trace=False, pin=None):
    w = dataclasses.replace(run.WORKLOADS[name], cells_per_batch=TINY_CELLS_PER_BATCH)
    text = io.StringIO()
    result = run.run_workload(w, seed, 0, trace, pin, tmp_path / f"{name}-{seed}", out=text)
    return result, text.getvalue().splitlines()


def printed(lines, metric):
    return next(line.split() for line in lines if line.split()[:1] == [metric])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(tmp_path, name):
    result, lines = tiny_run(tmp_path, name, trace=True)
    assert result["correct"] and result["failed"] == 0, lines
    assert {m: v["unit"] for m, v in result["metrics"].items()} == run.PER_LAYER
    for metric, unit in run.PER_LAYER.items():
        _, value, printed_unit, *_ = printed(lines, metric)
        assert printed_unit == unit
        assert value == "n/a" or float(value) == pytest.approx(result["metrics"][metric]["value"],
                                                               rel=1e-5, abs=1e-12)
    for metric, unit in run.END_TO_END.items():
        assert printed(lines, metric)[2] == unit
    if name == "correct-100k":
        assert printed(lines, "fit_s")[2] == printed(lines, "transform_s")[2] == "s"
    assert printed(lines, "fail_frac")[1] == "0"


def test_untraced_result_carries_every_end_to_end_metric(tmp_path):
    result, _ = tiny_run(tmp_path, "correct-100k")
    assert result["correct"]
    assert result["attempted"] == run.MIN_SETUPS + 2 * run.MIN_REPETITIONS
    assert {m: v["unit"] for m, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("after", ["fit", "transform"])
def test_flipping_one_adapter_byte_counts_as_a_failure(tmp_path, monkeypatch, after):
    real_run_child = run.run_child
    flipped = []

    def run_child_then_flip(step, argv, log):
        call = real_run_child(step, argv, log)
        if step == after and not flipped:
            out = Path(argv[argv.index("--out") + 1])
            adapter = (out if step == "fit" else out.parent / "fit") / "adapter.json"
            data = bytearray(adapter.read_bytes())
            # a digit past the middle: the file stays valid JSON, one value changes
            i = next(i for i in range(len(data) // 2, len(data)) if chr(data[i]).isdigit())
            data[i] ^= 1
            adapter.write_bytes(bytes(data))
            flipped.append(adapter)
        return call

    monkeypatch.setattr(run, "run_child", run_child_then_flip)
    # flipped after fit: transform and its check agree with the corrupt file,
    # so the traced pass's fingerprint comparison must catch it
    result, lines = tiny_run(tmp_path, "correct-100k", trace=(after == "fit"))
    assert flipped
    assert not result["correct"] and result["failed"] >= 1, lines
    assert float(printed(lines, "fail_frac")[1]) > 0


def test_a_call_that_fails_before_writing_its_output_is_counted(tmp_path, monkeypatch):
    real_workload_steps = run.workload_steps

    def steps_with_an_unknown_flag(*args):
        # argparse rejects the flag and exits before --out is created
        return [(step, [*cli_args, "--no-such-flag"])
                for step, cli_args in real_workload_steps(*args)]

    monkeypatch.setattr(run, "workload_steps", steps_with_an_unknown_flag)
    result, lines = tiny_run(tmp_path, "evaluate-20k")
    assert not result["correct"]
    assert result["failed"] == run.MIN_REPETITIONS, lines
    assert result["attempted"] == run.MIN_SETUPS + run.MIN_REPETITIONS
    assert float(printed(lines, "fail_frac")[1]) > 0


def test_traced_counts_that_do_not_repeat_are_a_failure(tmp_path, monkeypatch):
    real_layer_metrics = run.layer_metrics
    passes = []

    def layer_metrics_with_extra_step(*args):
        values = real_layer_metrics(*args)
        values["objective.local_gradient.calls"] += len(passes)
        passes.append(values)
        return values

    monkeypatch.setattr(run, "layer_metrics", layer_metrics_with_extra_step)
    result, lines = tiny_run(tmp_path, "correct-100k", trace=True)
    assert len(passes) == 2
    assert not result["correct"] and result["failed"] == 1
    assert any("objective.local_gradient.calls" in line for line in lines if line.startswith("FAILED "))


def test_score_check_rejects_out_of_range_and_wrong_aggregate(tmp_path):
    report = tmp_path / "metrics.txt"
    report.write_text("metric_subset=full\nlabel_asw=0.5\nbio=0.5\nbatch=0.25\n"
                      f"overall={0.6 * 0.5 + 0.4 * 0.25!r}\nall_labels_isolated=false\n")
    assert checks.check_scores(report) == []
    report.write_text("metric_subset=full\nlabel_asw=1.5\nbio=0.5\nbatch=0.25\n"
                      "overall=0.5\nall_labels_isolated=false\n")
    errors = checks.check_scores(report)
    assert len(errors) == 2 and "label_asw" in errors[0] and "overall" in errors[1]


def test_second_seed_passes_every_check_but_the_pinned_fingerprint(tmp_path):
    name = "continual-10k"
    first, lines = tiny_run(tmp_path, name, seed=0)
    pin = json.loads(next(line for line in lines if line.startswith("fingerprint "))
                     .split(" ", 1)[1])
    assert first["correct"]
    assert tiny_run(tmp_path, name, seed=0, pin=pin)[0]["correct"]
    assert tiny_run(tmp_path, name, seed=1)[0]["correct"]
    pinned, lines = tiny_run(tmp_path, name, seed=1, pin=pin)
    failures = [line for line in lines if line.startswith("FAILED ")]
    assert not pinned["correct"] and failures
    assert all("pinned fingerprint" in line for line in failures)


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "evaluate-20k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
