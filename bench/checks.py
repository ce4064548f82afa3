"""Output checks for the benchmark: fingerprints, the transform identity, score
ranges and the continual freeze contract.

Every check returns a list of error strings; an empty list means it passed.
The checks read only the files the CLI wrote and recompute what they can
with numpy, independently of fedfilm's own code paths.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

BIO_WEIGHT, BATCH_WEIGHT = 0.6, 0.4
_NON_SCORES = ("metric_subset", "all_labels_isolated")


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fingerprint(directory, patterns) -> dict[str, str]:
    """sha256 of every file under ``directory`` matching one of ``patterns``."""
    directory = Path(directory)
    files = sorted({p for pat in patterns for p in directory.glob(pat) if p.is_file()})
    return {p.relative_to(directory).as_posix(): sha256(p) for p in files}


def compare_fingerprints(got: dict, want: dict, what: str) -> list[str]:
    if not got:
        return [f"{what}: no output files to fingerprint"]
    errors = [f"{what}: {name} missing" for name in sorted(set(want) - set(got))]
    errors += [f"{what}: unexpected {name}" for name in sorted(set(got) - set(want))]
    errors += [f"{what}: {name} sha256 {got[name][:12]} != {want[name][:12]}"
               for name in sorted(set(got) & set(want)) if got[name] != want[name]]
    return errors


def _read_matrix(path):
    """Cell ids and the exact float64 values of an embedding CSV."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        ids = [line.split(",", 1)[0] for line in fh]
    values = np.loadtxt(path, delimiter=",", skiprows=1,
                        usecols=range(1, len(header)), ndmin=2)
    return ids, values


def _read_batches(path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return {cid: batch for cid, batch, *_ in (line.rstrip("\n").split(",") for line in fh)}


def _read_adapter(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    names = list(doc["batch_names"])
    gamma = np.array(doc["gamma"], dtype=np.float64)
    beta = np.array(doc["beta"], dtype=np.float64)
    if len(set(names)) != len(names) or gamma.shape != beta.shape \
            or gamma.shape[0] != len(names) or len(doc["frozen"]) != len(names):
        raise ValueError("inconsistent adapter tables")
    return names, gamma, beta, [f is True for f in doc["frozen"]]


def check_transform(embeddings, metadata, adapter, corrected) -> list[str]:
    """``corrected`` must equal ``gamma[b] * z + beta[b]`` bit for bit, for
    every cell it holds, recomputed from the CSV and JSON inputs."""
    try:
        ids, z = _read_matrix(embeddings)
        out_ids, out = _read_matrix(corrected)
        batch_of = _read_batches(metadata)
        names, gamma, beta, _ = _read_adapter(adapter)
        row_of_cell = {c: i for i, c in enumerate(ids)}
        row_of_batch = {b: i for i, b in enumerate(names)}
        rows = np.array([row_of_cell[c] for c in out_ids], dtype=np.intp)
        brow = np.array([row_of_batch[batch_of[c]] for c in out_ids], dtype=np.intp)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"transform check on {corrected}: cannot read inputs: {exc!r}"]
    expected = gamma[brow] * z[rows] + beta[brow]
    if out.shape != expected.shape:
        return [f"{corrected}: shape {out.shape} != {expected.shape}"]
    bad = np.flatnonzero(np.any(expected.view(np.int64) != out.view(np.int64), axis=1))
    if len(bad):
        return [f"{corrected}: {len(bad)} rows differ from gamma[b]*z + beta[b], "
                f"first {out_ids[bad[0]]}"]
    return []


def check_scores(report) -> list[str]:
    """Every score in [0, 1] and ``overall == 0.6*bio + 0.4*batch`` exactly."""
    try:
        items = dict(line.split("=", 1) for line in
                     Path(report).read_text(encoding="utf-8").splitlines())
        scores = {k: float(v) for k, v in items.items() if k not in _NON_SCORES}
        bio, batch, overall = scores["bio"], scores["batch"], scores["overall"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{report}: cannot read scores: {exc!r}"]
    errors = [f"{report}: {k}={v!r} outside [0, 1]"
              for k, v in scores.items() if not 0.0 <= v <= 1.0]
    if overall != BIO_WEIGHT * bio + BATCH_WEIGHT * batch:
        errors.append(f"{report}: overall={overall!r} != 0.6*bio + 0.4*batch")
    return errors


def check_continual(scenario_dir, embeddings, metadata) -> list[str]:
    """Each stage is a correct transform, and every corrected row and frozen
    adapter row of a stage is carried bit for bit into every later stage."""
    stages = sorted(Path(scenario_dir).glob("stage*"), key=lambda p: int(p.name[5:]))
    if not stages:
        return [f"{scenario_dir}: no stage directories"]
    errors = []
    for stage in stages:
        errors += check_transform(embeddings, metadata, stage / "adapter.json",
                                  stage / "corrected_embeddings.csv")
        for report in ("metrics.txt", "baseline_metrics.txt"):
            errors += check_scores(stage / report)
    for prev, cur in zip(stages, stages[1:]):
        try:
            before = _rows_by_id(prev / "corrected_embeddings.csv")
            after = _rows_by_id(cur / "corrected_embeddings.csv")
            old = _read_adapter(prev / "adapter.json")
            new = _read_adapter(cur / "adapter.json")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors.append(f"{cur}: cannot read stage files: {exc!r}")
            continue
        moved = [c for c, line in before.items() if after.get(c) != line]
        if moved:
            errors.append(f"{cur}: {len(moved)} rows of {prev.name} changed, first {moved[0]}")
        for i, b in enumerate(old[0]):
            j = new[0].index(b) if b in new[0] else None
            if j is None or not new[3][j] \
                    or old[1][i].tobytes() != new[1][j].tobytes() \
                    or old[2][i].tobytes() != new[2][j].tobytes():
                errors.append(f"{cur}: adapter row {b!r} of {prev.name} not frozen bit for bit")
    return errors


def _rows_by_id(path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return {line.split(",", 1)[0]: line for line in fh}
