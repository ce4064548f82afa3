"""File formats, run configuration, scenario plans and adapter persistence.

All writers emit deterministic byte streams: UTF-8, ``\\n`` line endings,
comma delimiters without quoting, stable key order, and shortest
round-trip decimal formatting for floats (17 significant digits suffice,
``repr`` gives the shortest form that parses back bit-exactly).
"""

from __future__ import annotations

import json
import math
import re
from array import array
from contextlib import closing
from dataclasses import dataclass, fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .core import (FIELD_KINDS, CellMetadata, EmbeddingMatrix, FedfilmError,
                   FilmAdapter, ValidationError, field_type_problem, items_at)
from .federation import AGGREGATION_MODES, RoundRecord, ScenarioPlan
from .metrics import METRIC_SUBSETS, MetricsReport
from .objective import TrainConfig
from .synth import GroundTruth

ADAPTER_FORMAT = "film-adapter/1"
_CELL_ID_RE = re.compile(r"[A-Za-z0-9_.-]+")
_BAD_NAME_RE = re.compile(r"^$|[,\r\n]")


class LoadError(FedfilmError):
    """A file failed to parse; the message carries the line number."""


class ConfigError(FedfilmError):
    """Invalid or unknown configuration key/value."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_json(path, doc):
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise LoadError(f"cannot parse {what} file {path}: {exc}") from exc


def _check_cell_id(cid: str, path, ln: int | None = None):
    if not _CELL_ID_RE.fullmatch(cid):
        where = path if ln is None else f"{path}:{ln}"
        raise LoadError(f"{where}: cell id {cid!r} contains characters outside [A-Za-z0-9_.-]")


# ---------------------------------------------------------------------------
# embeddings and metadata

def _write_rows(path, columns, cell_ids, rows):
    """Write a header ``cell_id,<columns>`` and one line per cell id: the id,
    then its row's fields. Every id is checked before anything is written;
    the lines go through the text stream's buffer, never joined whole."""
    path = Path(path)
    for cid in cell_ids:
        _check_cell_id(cid, path)
    with open(path, "w", encoding="utf-8") as file:
        file.write(",".join(["cell_id", *columns]) + "\n")
        file.writelines(f"{cid},{','.join(fields)}\n" for cid, fields in zip(cell_ids, rows))


def save_embeddings(path, emb: EmbeddingMatrix):
    _write_rows(path, [f"z{j}" for j in range(emb.d)], emb.cell_ids,
                (map(repr, row.tolist()) for row in emb.values))


def _check_names(path, names):
    """Raise before anything is written when a batch or cell type name could
    not be read back as one CSV field."""
    for name in names:
        if _BAD_NAME_RE.search(name):
            raise LoadError(f"{Path(path)}: batch or cell type name {name!r} is empty "
                            "or contains a comma or a line break")


def save_metadata(path, meta: CellMetadata):
    _check_names(path, meta.batch_names + (meta.label_names or ()))
    columns = {"batch": items_at(meta.batch_names, meta.batch_codes)}
    if meta.label_codes is not None:
        columns["cell_type"] = items_at(meta.label_names, meta.label_codes)
    _write_rows(path, list(columns), meta.cell_ids, zip(*columns.values()))


def _lines(path):
    """Yield ``(line number, line)`` for the file's lines, read once through
    a buffered text stream, with a "\\r\\n" ending folded.

    Only "\\n" ends a line: a lone "\\r" stays in its line, so a cell id
    holding one is a bad id on its own line. A byte that is not UTF-8
    raises after the lines before it, so an earlier line's fault comes first.
    """
    try:
        with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as file:
            for ln, line in enumerate(file, 1):
                if not line.isascii():
                    try:  # with its ending, as a whole-file decode would see it
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise LoadError(f"{path}:{ln}: byte {exc.object[exc.start:exc.end]!r} "
                                        f"is not UTF-8 ({exc.reason})") from None
                if line.endswith("\n"):
                    line = line[:-2] if line.endswith("\r\n") else line[:-1]
                yield ln, line
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc


def _read_rows(path, header_problem):
    """Read a comma-delimited table whose rows start with a cell id.

    ``header_problem(header fields)`` returns what is wrong with the header,
    or None. Returns the header fields and an iterator of ``(line number,
    fields)`` over the data rows, which checks each row's width, its cell
    id's characters and that the id is new as it reaches the row. The file
    is read once, as the iterator goes, and closed when it ends or is
    dropped.
    """
    path = Path(path)
    lines = _lines(path)
    top = next(lines, None)
    if top is None:
        raise LoadError(f"{path}: empty file")
    header = top[1].split(",")
    problem = header_problem(header)
    if problem:
        lines.close()
        raise LoadError(f"{path}:1: {problem}")
    first = next(lines, None)
    if first is None:
        raise LoadError(f"{path}: no data rows")

    def rows():
        seen: set[str] = set()
        with closing(lines):
            for ln, line in chain([first], lines):
                fields = line.split(",")
                if len(fields) != len(header):
                    raise LoadError(f"{path}:{ln}: expected {len(header)} columns, "
                                    f"got {len(fields)}")
                cid = fields[0]
                _check_cell_id(cid, path, ln)
                if cid in seen:
                    raise LoadError(f"{path}:{ln}: duplicate cell id {cid!r}")
                seen.add(cid)
                yield ln, fields

    return header, rows()


def _coordinate_error(path, ln: int, fields) -> LoadError:
    """The error for the first coordinate of a row that is not a finite number."""
    for tok in fields[1:]:
        try:
            v = float(tok)
        except ValueError:
            return LoadError(f"{path}:{ln}: non-numeric coordinate {tok!r}")
        if not math.isfinite(v):
            return LoadError(f"{path}:{ln}: non-finite coordinate {tok!r}")


def load_embedding_matrix(path) -> EmbeddingMatrix:
    """Parse the delimited matrix file: header row, ``cell_id`` first, then
    numeric latent coordinates."""
    _, rows = _read_rows(path, lambda header: (
        None if header[0] == "cell_id" and len(header) >= 2 else
        "header must start with 'cell_id' and name at least one coordinate column"))
    ids: list[str] = []
    values = array("d")  # the coordinates, row after row, grown in place
    for ln, fields in rows:
        try:
            row = list(map(float, fields[1:]))
        except ValueError:
            raise _coordinate_error(path, ln, fields) from None
        # a sum that is not finite holds an inf or a nan, or passed the largest float
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            raise _coordinate_error(path, ln, fields)
        values.fromlist(row)
        ids.append(fields[0])
    return EmbeddingMatrix(tuple(ids), np.frombuffer(values).reshape(len(ids), -1))


_METADATA_HEADERS = (["cell_id", "batch"], ["cell_id", "batch", "cell_type"])


def load_metadata(path) -> CellMetadata:
    """Parse the metadata file: header ``cell_id,batch[,cell_type]``; any
    other column is rejected."""
    header, rows = _read_rows(path, lambda header: (
        None if header in _METADATA_HEADERS else "header must be 'cell_id,batch' or "
        f"'cell_id,batch,cell_type', got {','.join(header)!r}"))
    columns = tuple([] for _ in header)
    for ln, fields in rows:
        if not fields[1]:
            raise LoadError(f"{path}:{ln}: empty batch name")
        if len(fields) == 3 and not fields[2]:
            raise LoadError(f"{path}:{ln}: empty cell type (partial labels "
                            "are not allowed)")
        for column, field in zip(columns, fields):
            column.append(field)
    return CellMetadata.from_columns(*columns)


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
    _write_json(path, {
        "format": ADAPTER_FORMAT,
        "d": adapter.d,
        "batch_names": list(adapter.batch_names),
        "frozen": list(adapter.frozen),
        "gamma": adapter.gamma.tolist(),
        "beta": adapter.beta.tolist(),
    })


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
    doc = _read_json(path, "adapter")
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != ADAPTER_FORMAT:
        raise LoadError(f"{path}: expected format {ADAPTER_FORMAT!r}, got {found!r}")
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
# scenario plans

_PLAN_TYPES = {  # key -> (check of its JSON value, what the value must be)
    "mode": (lambda v: type(v) is str, "a string"),
    "stages": (lambda v: isinstance(v, list) and all(_list_of(g, (str,)) for g in v),
               "a list of lists of strings"),
    "pca_components": (lambda v: v is None or type(v) is int,
                       "absent, null or an integer"),
}


def load_plan(path) -> ScenarioPlan:
    """Read a scenario plan: a JSON object with ``mode``, ``stages`` and an
    optional ``pca_components``."""
    path = Path(path)
    doc = _read_json(path, "scenario plan")
    if not isinstance(doc, dict):
        raise LoadError(f"{path}: a scenario plan must be a JSON object")
    for key, (valid, kind) in _PLAN_TYPES.items():
        if not valid(doc.get(key)):
            raise LoadError(f"{path}: {key!r} must be {kind}")
    try:
        return ScenarioPlan(doc["mode"], tuple(tuple(g) for g in doc["stages"]),
                            doc.get("pca_components"))
    except ValidationError as exc:
        raise LoadError(f"{path}: invalid scenario plan: {exc}") from exc


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
        problem = field_type_problem(self)
        if problem:
            raise ConfigError(problem)
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


# config file key -> (True for a TrainConfig field, False for a RunConfig
# field, field name, value check by the field's annotation); the key of
# TrainConfig.lam is "lambda"
CONFIG_KEYS = {
    {"lam": "lambda"}.get(f.name, f.name): (cls is TrainConfig, f.name, FIELD_KINDS[f.type])
    for cls in (TrainConfig, RunConfig) for f in fields(cls) if f.name != "train"
}


def config_to_dict(cfg: RunConfig) -> dict:
    return {key: getattr(cfg.train if in_train else cfg, name)
            for key, (in_train, name, _) in CONFIG_KEYS.items()}


def config_from_dict(doc: dict, base: RunConfig | None = None) -> RunConfig:
    """Build a RunConfig from a flat mapping; unknown keys and values of the
    wrong type are an error."""
    if base is None:
        base = RunConfig(train=TrainConfig())
    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    train_kwargs, run_kwargs = {}, {}
    for key, value in doc.items():
        in_train, name, (valid, kind) = CONFIG_KEYS[key]
        if not valid(value):
            raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
        (train_kwargs if in_train else run_kwargs)[name] = value
    try:
        return replace(base, train=replace(base.train, **train_kwargs), **run_kwargs)
    except FedfilmError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    path = Path(path)
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a flat key/value document")
    return config_from_dict(doc, base=base)


def save_config(path, cfg: RunConfig):
    _write_json(path, config_to_dict(cfg))


# ---------------------------------------------------------------------------
# training log, reports, ground truth, manifest

def save_training_log(path, records: list[RoundRecord]):
    _check_names(path, (rec.batch_name for rec in records))
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
    _write_json(path, {
        "batch_names": list(truth.batch_names),
        "scale": truth.scale.tolist(),
        "shift": truth.shift.tolist(),
        "centroids": truth.centroids.tolist(),
        "exact_inverse": {
            "gamma": (1.0 / truth.scale).tolist(),
            "beta": (-truth.shift / truth.scale).tolist(),
        },
    })


def save_manifest(directory, command: str, artifacts: list[str], cfg: RunConfig | None):
    _write_json(Path(directory, "manifest.json"), {
        "command": command,
        "artifacts": sorted(artifacts),
        "config": config_to_dict(cfg) if cfg is not None else None,
    })
