"""File formats, run configuration, and adapter persistence.

All writers emit deterministic byte streams: UTF-8, ``\\n`` line endings,
comma delimiters without quoting, stable key order, and shortest
round-trip decimal formatting for floats (17 significant digits suffice,
``repr`` gives the shortest form that parses back bit-exactly).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import (CellMetadata, EmbeddingMatrix, FedfilmError, FilmAdapter,
                   ValidationError, items_at)
from .federation import AGGREGATION_MODES, RoundRecord
from .metrics import METRIC_SUBSETS, MetricsReport
from .objective import TrainConfig
from .synth import GroundTruth

ADAPTER_FORMAT = "film-adapter/1"
_CELL_ID_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
_BAD_NAME_RE = re.compile(r"^$|[,\r\n]")


class LoadError(FedfilmError):
    """A file failed to parse; the message carries the line number."""


class ConfigError(FedfilmError):
    """Invalid or unknown configuration key/value."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _check_cell_id(cid: str, where: str):
    if not _CELL_ID_RE.match(cid):
        raise LoadError(f"{where}: cell id {cid!r} contains characters outside [A-Za-z0-9_.-]")


# ---------------------------------------------------------------------------
# embeddings and metadata

def save_embeddings(path, emb: EmbeddingMatrix):
    path = Path(path)
    lines = ["cell_id," + ",".join(f"z{j}" for j in range(emb.d))]
    for cid, row in zip(emb.cell_ids, emb.values):
        _check_cell_id(cid, str(path))
        lines.append(cid + "," + ",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_metadata(path, meta: CellMetadata):
    path = Path(path)
    for name in meta.batch_names + (meta.label_names or ()):
        if _BAD_NAME_RE.search(name):
            raise LoadError(f"{path}: batch or cell type name {name!r} is empty "
                            "or contains a comma or a line break")
    for cid in meta.cell_ids:
        _check_cell_id(cid, str(path))
    header = "cell_id,batch"
    columns = [meta.cell_ids, items_at(meta.batch_names, meta.batch_codes)]
    if meta.label_codes is not None:
        header += ",cell_type"
        columns.append(items_at(meta.label_names, meta.label_codes))
    lines = [header, *map(",".join, zip(*columns))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_lines(path) -> list[str]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise LoadError(f"{path}: empty file")
    return lines


def load_embedding_matrix(path) -> EmbeddingMatrix:
    """Parse the delimited matrix file: header row, ``cell_id`` first, then
    numeric latent coordinates."""
    path = Path(path)
    lines = _read_lines(path)
    header = lines[0].split(",")
    if header[0] != "cell_id" or len(header) < 2:
        raise LoadError(f"{path}:1: header must start with 'cell_id' and name "
                        "at least one coordinate column")
    if len(lines) < 2:
        raise LoadError(f"{path}: no data rows")
    width = len(header)
    ids: list[str] = []
    seen: set[str] = set()
    rows = np.empty((len(lines) - 1, width - 1))
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise LoadError(f"{path}:{ln}: expected {width} columns, got {len(parts)}")
        cid = parts[0]
        _check_cell_id(cid, f"{path}:{ln}")
        if cid in seen:
            raise LoadError(f"{path}:{ln}: duplicate cell id {cid!r}")
        seen.add(cid)
        ids.append(cid)
        for j, tok in enumerate(parts[1:]):
            try:
                v = float(tok)
            except ValueError:
                raise LoadError(f"{path}:{ln}: non-numeric coordinate {tok!r}") from None
            if not math.isfinite(v):
                raise LoadError(f"{path}:{ln}: non-finite coordinate {tok!r}")
            rows[ln - 2, j] = v
    return EmbeddingMatrix(tuple(ids), rows)


def load_metadata(path) -> CellMetadata:
    """Parse the metadata file: header ``cell_id,batch[,cell_type]``; any
    other column is rejected."""
    path = Path(path)
    lines = _read_lines(path)
    header = lines[0].split(",")
    if header == ["cell_id", "batch"]:
        with_labels = False
    elif header == ["cell_id", "batch", "cell_type"]:
        with_labels = True
    else:
        raise LoadError(f"{path}:1: header must be 'cell_id,batch' or "
                        f"'cell_id,batch,cell_type', got {lines[0]!r}")
    width = len(header)
    ids, batches, labels = [], [], []
    seen: set[str] = set()
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise LoadError(f"{path}:{ln}: expected {width} columns, got {len(parts)}")
        cid = parts[0]
        _check_cell_id(cid, f"{path}:{ln}")
        if cid in seen:
            raise LoadError(f"{path}:{ln}: duplicate cell id {cid!r}")
        seen.add(cid)
        if not parts[1]:
            raise LoadError(f"{path}:{ln}: empty batch name")
        ids.append(cid)
        batches.append(parts[1])
        if with_labels:
            if not parts[2]:
                raise LoadError(f"{path}:{ln}: empty cell type (partial labels "
                                "are not allowed)")
            labels.append(parts[2])
    return CellMetadata.from_columns(ids, batches, labels if with_labels else None)


def load_embeddings(matrix_path, metadata_path):
    """Load and join matrix and metadata; every matrix cell needs metadata.

    The metadata file may cover a superset of the matrix cells; the join
    restricts it to the matrix cells, keeping the metadata file's
    first-appearance batch order for those cells.
    """
    emb = load_embedding_matrix(matrix_path)
    meta = load_metadata(metadata_path)
    try:
        rows = meta.rows_for(emb.cell_ids)
    except ValidationError:
        known = set(meta.cell_ids)
        missing = [c for c in emb.cell_ids if c not in known]
        raise LoadError(
            f"{metadata_path}: no metadata for cell id {missing[0]!r}"
            + (f" (and {len(missing) - 1} more)" if len(missing) > 1 else "")
        ) from None
    if len(rows) != len(meta.cell_ids):
        meta = meta.restricted_to(items_at(meta.cell_ids, np.sort(rows)))
    return emb, meta


# ---------------------------------------------------------------------------
# adapter persistence

def save_adapter(path, adapter: FilmAdapter):
    doc = {
        "format": ADAPTER_FORMAT,
        "d": adapter.d,
        "batch_names": list(adapter.batch_names),
        "frozen": list(adapter.frozen),
        "gamma": [[float(v) for v in row] for row in adapter.gamma],
        "beta": [[float(v) for v in row] for row in adapter.beta],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _list_of(value, types) -> bool:
    # exact types: json gives bool for true/false, and bool subclasses int
    return isinstance(value, list) and all(type(v) in types for v in value)


_TABLE = (lambda v: isinstance(v, list) and all(_list_of(r, (int, float)) for r in v),
          "a list of lists of numbers")
_ADAPTER_TYPES = {  # key -> (check of its JSON value, what the value must be)
    "d": (lambda v: type(v) is int, "an integer"),
    "batch_names": (lambda v: _list_of(v, (str,)), "a list of strings"),
    "frozen": (lambda v: _list_of(v, (bool,)), "a list of booleans"),
    "gamma": _TABLE,
    "beta": _TABLE,
}


def load_adapter(path) -> FilmAdapter:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise LoadError(f"cannot parse adapter file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != ADAPTER_FORMAT:
        raise LoadError(f"{path}: expected format {ADAPTER_FORMAT!r}, "
                        f"got {doc.get('format')!r}")
    for key, (valid, kind) in _ADAPTER_TYPES.items():
        if not valid(doc.get(key)):
            raise LoadError(f"{path}: {key!r} must be {kind}")
    try:
        adapter = FilmAdapter(
            tuple(doc["batch_names"]),
            np.array(doc["gamma"], dtype=np.float64),
            np.array(doc["beta"], dtype=np.float64),
            tuple(doc["frozen"]),
        )
    except (ValueError, FedfilmError) as exc:
        raise LoadError(f"{path}: invalid adapter document: {exc}") from exc
    if adapter.d != doc.get("d"):
        raise LoadError(f"{path}: declared d = {doc.get('d')} but tables have "
                        f"d = {adapter.d}")
    return adapter


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class RunConfig:
    """Training hyperparameters plus pipeline knobs."""

    train: TrainConfig
    aggregation_mode: str = "full-table"
    metric_subset: str = "full"
    knn_k: int = 15
    kmeans_restarts: int = 10
    threads: int = 1

    def __post_init__(self):
        if self.aggregation_mode not in AGGREGATION_MODES:
            raise ConfigError(f"unknown aggregation_mode {self.aggregation_mode!r}")
        if self.metric_subset not in METRIC_SUBSETS:
            raise ConfigError(f"unknown metric_subset {self.metric_subset!r}")
        if self.knn_k < 1:
            raise ConfigError("knn_k must be >= 1")
        if self.kmeans_restarts < 1:
            raise ConfigError("kmeans_restarts must be >= 1")
        if self.threads < 0:
            raise ConfigError("threads must be >= 0 (0 = auto)")


# the config file key for TrainConfig.lam is "lambda"
_TRAIN_KEYS = {
    "mu": "mu", "lambda": "lam", "learning_rate": "learning_rate",
    "local_epochs": "local_epochs", "rounds": "rounds",
    "minibatch_size": "minibatch_size", "train_fraction": "train_fraction",
    "seed": "seed", "adam_beta1": "adam_beta1", "adam_beta2": "adam_beta2",
    "adam_epsilon": "adam_epsilon",
    "reset_moments_per_round": "reset_moments_per_round",
    "target": "target",
}
_RUN_KEYS = ("aggregation_mode", "metric_subset", "knn_k", "kmeans_restarts", "threads")


def config_to_dict(cfg: RunConfig) -> dict:
    out = {}
    for file_key, attr in _TRAIN_KEYS.items():
        out[file_key] = getattr(cfg.train, attr)
    for key in _RUN_KEYS:
        out[key] = getattr(cfg, key)
    return out


def config_from_dict(doc: dict, base: RunConfig | None = None) -> RunConfig:
    """Build a RunConfig from a flat mapping; unknown keys are an error."""
    if base is None:
        base = RunConfig(train=TrainConfig())
    known = set(_TRAIN_KEYS) | set(_RUN_KEYS)
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    train_kwargs = {attr: getattr(base.train, attr) for attr in
                    (f.name for f in fields(TrainConfig))}
    run_kwargs = {key: getattr(base, key) for key in _RUN_KEYS}
    for key, value in doc.items():
        if key in _TRAIN_KEYS:
            train_kwargs[_TRAIN_KEYS[key]] = value
        else:
            run_kwargs[key] = value
    try:
        return RunConfig(train=TrainConfig(**train_kwargs), **run_kwargs)
    except FedfilmError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise LoadError(f"cannot parse config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a flat key/value document")
    return config_from_dict(doc, base=base)


def save_config(path, cfg: RunConfig):
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=1) + "\n",
                          encoding="utf-8")


# ---------------------------------------------------------------------------
# training log, reports, ground truth, manifest

def save_training_log(path, records: list[RoundRecord]):
    lines = ["round,client,train_loss,val_loss"]
    for rec in records:
        lines.append(f"{rec.round_index},{rec.batch_name},"
                     f"{_fmt(rec.train_loss)},{_fmt(rec.holdout_loss)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _report_items(report: MetricsReport) -> list[tuple[str, str]]:
    items = [("metric_subset", report.subset)]
    items += [(name, _fmt(v)) for name, v in report.scores.items()]
    items += [
        ("bio", _fmt(report.bio)),
        ("batch", _fmt(report.batch)),
        ("overall", _fmt(report.overall)),
        ("all_labels_isolated", "true" if report.all_labels_isolated else "false"),
    ]
    return items


def report_to_text(report: MetricsReport) -> str:
    return "\n".join(f"{k}={v}" for k, v in _report_items(report)) + "\n"


def report_to_csv(report: MetricsReport) -> str:
    items = _report_items(report)
    header = ",".join(k for k, _ in items)
    row = ",".join(v for _, v in items)
    return header + "\n" + row + "\n"


def save_report(directory, report: MetricsReport, stem: str = "metrics"):
    directory = Path(directory)
    (directory / f"{stem}.txt").write_text(report_to_text(report), encoding="utf-8")
    (directory / f"{stem}.csv").write_text(report_to_csv(report), encoding="utf-8")
    return [f"{stem}.txt", f"{stem}.csv"]


def save_ground_truth(path, truth: GroundTruth):
    doc = {
        "batch_names": list(truth.batch_names),
        "scale": [[float(v) for v in row] for row in truth.scale],
        "shift": [[float(v) for v in row] for row in truth.shift],
        "centroids": [[float(v) for v in row] for row in truth.centroids],
        "exact_inverse": {
            "gamma": [[float(v) for v in row] for row in 1.0 / truth.scale],
            "beta": [[float(v) for v in row] for row in -truth.shift / truth.scale],
        },
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def save_manifest(directory, command: str, artifacts: list[str], cfg: RunConfig | None):
    doc = {
        "command": command,
        "artifacts": sorted(artifacts),
        "config": config_to_dict(cfg) if cfg is not None else None,
    }
    Path(directory, "manifest.json").write_text(json.dumps(doc, indent=1) + "\n",
                                                encoding="utf-8")
