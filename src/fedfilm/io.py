"""File formats, run configuration, scenario plans and adapter persistence.

All writers emit deterministic byte streams: UTF-8, ``\\n`` line endings,
comma delimiters without quoting, stable key order, and shortest
round-trip decimal formatting for floats (17 significant digits suffice,
``repr`` gives the shortest form that parses back bit-exactly).
"""

from __future__ import annotations

import json
import math
import os
import pickle
import re
import shutil
import signal
import stat
import tempfile
from array import array
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from .core import (_ROW_CHUNK, FIELD_KINDS, CellMetadata, EmbeddingMatrix, FedfilmError,
                   FilmAdapter, ValidationError, field_type_problem, items_at, usable_cpus)
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
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise LoadError(f"cannot parse {what} file {path}: {exc}") from exc


def _cell_id_problem(cid: str) -> str | None:
    if not _CELL_ID_RE.fullmatch(cid):
        return f"cell id {cid!r} contains characters outside [A-Za-z0-9_.-]"
    return None


# ---------------------------------------------------------------------------
# byte ranges and worker processes

# The fewest bytes of CSV a range holds. On a 2-vCPU Xeon, two ranges of a
# 32-column matrix broke even at about 0.15 MB each, reading and writing:
# below that, forking the worker and joining its result cost what the
# second CPU saves.
_MIN_RANGE_BYTES = 1 << 18


def _range_count(size: int) -> int:
    """How many ranges ``size`` bytes of CSV are cut into: one per CPU this
    process may run on, but none smaller than ``_MIN_RANGE_BYTES``."""
    return max(1, min(usable_cpus(), size // _MIN_RANGE_BYTES))


class _Worker:
    """A forked child process that runs ``task()`` once and sends back what
    it returns.

    ``task`` returns ``(value, raw)``: ``value`` goes back pickled, then
    ``raw``, a buffer or None, byte for byte. An exception that ``task``
    raises goes back in place of the value, and ``result`` raises it here.
    The child ends through ``os._exit``, also on an interrupt, so it never
    runs its caller's ``finally`` blocks or exit handlers and never flushes a
    stream it inherited. It runs no BLAS call, so the fork is safe although
    numpy's BLAS keeps threads of its own.
    """

    def __init__(self, task):
        read, write = os.pipe()
        # an interrupt before the child is inside its try block would unwind
        # it through its caller, so the child starts with SIGINT blocked
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            self.pid = os.fork()
            if self.pid == 0:
                status = 1
                try:
                    os.close(read)
                    signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
                    with os.fdopen(write, "wb") as out:
                        try:
                            value, raw = task()
                            pickle.dump((True, value), out)
                        except Exception as exc:
                            raw = None
                            pickle.dump((False, exc), out)
                        if raw is not None:
                            out.write(raw)
                    status = 0
                finally:
                    os._exit(status)
        except BaseException:
            os.close(read)
            raise
        finally:
            os.close(write)
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        self.pipe = os.fdopen(read, "rb")

    def result(self):
        """The task's value; raises the task's exception."""
        try:
            ok, value = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            raise FedfilmError(f"worker process {self.pid} ended without a result") from None
        if not ok:
            raise value
        return value

    def readinto(self, buffer):
        """Fill ``buffer`` with the raw bytes the task sent after its value."""
        view = memoryview(buffer).cast("B")
        if self.pipe.readinto(view) != len(view):
            raise FedfilmError(f"worker process {self.pid} ended before sending all its data")

    def close(self):
        """Close the pipe, stop the child if it still runs and reap it."""
        self.pipe.close()
        os.kill(self.pid, signal.SIGKILL)  # an unreaped child keeps its pid
        os.waitpid(self.pid, 0)


@contextmanager
def _workers(tasks):
    """A started ``_Worker`` for each task, all stopped and reaped on the way
    out, on an error or an interrupt too."""
    workers = []
    try:
        for task in tasks:
            workers.append(_Worker(task))
        yield workers
    finally:
        for worker in workers:
            worker.close()


def _line_ranges(path) -> list:
    """Byte offsets that cut the file at ``path`` into ``_range_count`` ranges
    of whole lines: ``[0, cut, ..., None]``, where None is the end of the file.

    The first range holds the header line and at least one line after it. A
    file that is not a regular file, or cannot be read, is one range, whose
    reader says what is wrong.
    """
    try:
        info = os.stat(path)
        parts = _range_count(info.st_size) if stat.S_ISREG(info.st_mode) else 1
        cuts = [0]
        if parts > 1:
            with open(path, "rb") as file:
                head = len(file.readline())
                for i in range(1, parts):
                    file.seek(head + i * (info.st_size - head) // parts - 1)
                    file.readline()  # to the end of the line holding that byte
                    # a cut at the header's end would leave the first range no data line
                    if max(cuts[-1], head) < file.tell() < info.st_size:
                        cuts.append(file.tell())
    except OSError:
        cuts = [0]
    return cuts + [None]


# ---------------------------------------------------------------------------
# embeddings and metadata

def _write_rows(path, columns, cell_ids, rows, head=None):
    """Write a header ``cell_id,<columns>`` and one line per cell id: the id,
    then the fields that ``rows(lo, hi)`` gives for each row from ``lo`` to
    ``hi``. Every id is checked before anything is written.

    With ``head``, the path of a file that holds that header and lines for
    cells before these, the file's bytes are copied in place of the header,
    and the lines of ``cell_ids`` follow them.

    The rows are cut into ``_range_count`` ranges of equal row count, sized
    by the first row's line. The first range is written here; each later one
    is formatted by a worker into an unnamed part file, which is appended in
    order. Lines go through a text stream's buffer, never joined whole.
    """
    path = Path(path)
    for cid in cell_ids:
        problem = _cell_id_problem(cid)
        if problem:
            raise LoadError(f"{path}: {problem}")

    def write(file, lo, hi):
        file.writelines(f"{cid},{','.join(fields)}\n"
                        for cid, fields in zip(cell_ids[lo:hi], rows(lo, hi)))

    def write_part(part, lo, hi):
        with open(part.fileno(), "w", encoding="utf-8", closefd=False) as file:
            write(file, lo, hi)
        return None, None

    n = len(cell_ids)  # 0 when head holds every line
    first = f"{cell_ids[0]},{','.join(next(iter(rows(0, 1))))}\n" if n else ""
    parts = _range_count(n * len(first.encode("utf-8")))
    cuts = [i * n // parts for i in range(parts + 1)]
    with open(path, "w", encoding="utf-8") as file, ExitStack() as stack:
        if head is None:
            file.write(",".join(["cell_id", *columns]) + "\n")
        else:
            with open(head, "rb") as earlier:
                shutil.copyfileobj(earlier, file.buffer)
        temps = [stack.enter_context(tempfile.TemporaryFile(dir=path.parent)) for _ in cuts[2:]]
        with _workers(partial(write_part, *args)
                      for args in zip(temps, cuts[1:], cuts[2:])) as workers:
            write(file, 0, cuts[1])
            file.flush()
            for worker, temp in zip(workers, temps):
                worker.result()
                temp.seek(0)
                shutil.copyfileobj(temp, file.buffer)


def save_embeddings(path, emb: EmbeddingMatrix, earlier=None):
    """Write ``emb`` as an embedding file.

    ``earlier`` is ``(path, matrix)``: a file this function wrote for
    ``matrix``. When ``emb``'s first ``matrix.n`` cells are that matrix's
    cells in the same order, and their rows are bit-identical (``-0.0`` and
    ``0.0`` differ), the file's bytes are copied and only the rows after
    them are formatted; otherwise every row is. The bytes written are the
    same either way.
    """
    m, head = 0, None
    if earlier is not None:
        path_before, before = earlier
        # the int64 views compare bits, and array_equal also compares shapes
        if (emb.cell_ids[:before.n] == before.cell_ids
                and np.array_equal(emb.values[:before.n].view(np.int64),
                                   before.values.view(np.int64))):
            m, head = before.n, path_before
    save_embedding_rows(path, emb.cell_ids[m:], emb.d,
                        lambda lo, hi: emb.values[m + lo:m + hi], head)


def save_embedding_rows(path, cell_ids, d: int, block, head=None):
    """Write an embedding file of ``cell_ids`` and ``d`` coordinates whose
    rows ``lo`` to ``hi`` are the float64 array ``block(lo, hi)``. Blocks of
    ``_ROW_CHUNK`` rows are asked for, one at a time, so a computed matrix,
    such as a corrected one, is formatted without being held whole.

    ``head``, when given, is an embedding file of ``d`` coordinates whose
    bytes are copied in place of the header; ``cell_ids`` are the cells
    after its lines."""
    def rows(lo, hi):
        for start in range(lo, hi, _ROW_CHUNK):
            chunk = block(start, min(start + _ROW_CHUNK, hi))
            yield from (map(repr, row.tolist()) for row in chunk)
            del chunk  # before the next chunk is computed

    _write_rows(path, [f"z{j}" for j in range(d)], cell_ids, rows, head)


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
    _write_rows(path, list(columns), meta.cell_ids,
                lambda lo, hi: zip(*(column[lo:hi] for column in columns.values())))


def _lines(path, start: int = 0, stop: int | None = None):
    """Yield ``(line number, line)`` for the lines of the file from byte
    ``start`` to byte ``stop`` (both line starts; None is the end of the
    file), numbered from 1, decoded, with a "\\r\\n" ending folded.

    Only "\\n" ends a line: a lone "\\r" stays in its line, so a cell id
    holding one is a bad id on its own line. A line that is not UTF-8 raises
    after the lines before it, so an earlier line's fault comes first.
    """
    pos = start
    try:
        with open(path, "rb") as file:
            if start:
                file.seek(start)
            for ln, raw in enumerate(file, 1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise LoadError(f"{path}:{ln}: byte {exc.object[exc.start:exc.end]!r} "
                                    f"is not UTF-8 ({exc.reason})") from None
                if line.endswith("\n"):
                    line = line[:-2] if line.endswith("\r\n") else line[:-1]
                yield ln, line
                pos += len(raw)
                if pos == stop:
                    return
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc


def _read_header(path, lines) -> list[str]:
    """The fields of the first of ``lines``, the header of the file at ``path``."""
    top = next(lines, None)
    if top is None:
        raise LoadError(f"{path}: empty file")
    return top[1].split(",")


def _parse_rows(path, lines, width: int, parse) -> dict:
    """Check data lines and hand each line's fields to ``parse``, which
    returns what is wrong with them, or None; return the lines' cell ids as
    the keys of an insertion-ordered dict.

    Each line must have ``width`` fields and a cell id of the allowed
    characters that no line before it has. Raises ``LoadError`` naming the
    first faulty line, or the file when it has no data line.
    """
    ids = {}
    with closing(lines):
        for ln, line in lines:
            fields = line.split(",")
            if len(fields) != width:
                raise LoadError(f"{path}:{ln}: expected {width} columns, got {len(fields)}")
            cid = fields[0]
            problem = _cell_id_problem(cid)
            if problem:
                raise LoadError(f"{path}:{ln}: {problem}")
            if cid in ids:
                raise LoadError(f"{path}:{ln}: duplicate cell id {cid!r}")
            problem = parse(fields)
            if problem:
                raise LoadError(f"{path}:{ln}: {problem}")
            ids[cid] = None
    if not ids:
        raise LoadError(f"{path}: no data rows")
    return ids


def _coordinate_problem(fields) -> str:
    """What is wrong with the first coordinate of a row that is not a finite number."""
    for tok in fields[1:]:
        try:
            v = float(tok)
        except ValueError:
            return f"non-numeric coordinate {tok!r}"
        if not math.isfinite(v):
            return f"non-finite coordinate {tok!r}"


def _parse_coordinates(path, lines, width: int):
    """``(ids, values)``: the cell ids of the data ``lines`` and their
    coordinates, row after row, as checked by ``_parse_rows``."""
    values = array("d")  # grown in place

    def parse(fields):
        try:
            row = list(map(float, fields[1:]))
        except ValueError:
            return _coordinate_problem(fields)
        # a sum that is not finite holds an inf or a nan, or passed the largest float
        if not math.isfinite(sum(row)) and not all(map(math.isfinite, row)):
            return _coordinate_problem(fields)
        values.fromlist(row)

    return _parse_rows(path, lines, width, parse), values


def load_embedding_matrix(path) -> EmbeddingMatrix:
    """Parse the delimited matrix file: header row, ``cell_id`` first, then
    numeric latent coordinates.

    The file is read in its ``_line_ranges``: the first here, each later one
    in a worker, which sends back its ids, then its coordinates as raw
    float64 bytes. A later range that fails, or repeats an id of an earlier
    one, makes this process read the whole file as one range, so the error
    raised is the one a one-range read raises.
    """
    path = Path(path)
    cuts = _line_ranges(path)
    with closing(_lines(path, 0, cuts[1])) as lines:
        header = _read_header(path, lines)
        if header[0] != "cell_id" or len(header) < 2:
            raise LoadError(f"{path}:1: header must start with 'cell_id' and name at least "
                            "one coordinate column")
        width = len(header)

        def task(start, stop):
            ids, values = _parse_coordinates(path, _lines(path, start, stop), width)
            return list(ids), values

        with _workers(partial(task, *cut) for cut in zip(cuts[1:-1], cuts[2:])) as workers:
            ids, table = _parse_coordinates(path, lines, width)
            table = np.frombuffer(table, np.float64).reshape(-1, width - 1)
            counts = []
            for start, worker in zip(cuts[1:], workers):
                try:
                    range_ids = worker.result()
                    if not ids.keys().isdisjoint(range_ids):
                        raise LoadError(f"{path}: a cell id from byte {start} on repeats an "
                                        "earlier one")
                except LoadError:
                    whole = _lines(path)
                    next(whole, None)  # the header, checked above
                    _parse_coordinates(path, whole, width)  # raises the error at its line
                    raise
                ids.update(zip(range_ids, repeat(None)))
                counts.append(len(range_ids))
            if workers:
                first, table = table, np.empty((len(ids), width - 1))
                pos = len(first)
                table[:pos] = first
                del first  # the first range's buffer, before the workers' bytes arrive
                for rows, worker in zip(counts, workers):
                    worker.readinto(table[pos:pos + rows])
                    pos += rows
    return EmbeddingMatrix._adopt(tuple(ids), table)


_METADATA_HEADERS = (["cell_id", "batch"], ["cell_id", "batch", "cell_type"])


def load_metadata(path) -> CellMetadata:
    """Parse the metadata file: header ``cell_id,batch[,cell_type]``; any
    other column is rejected.

    The file is read in this process, and batch and cell type names are
    coded as each line is parsed, numbered by first appearance, the order
    ``encode_groups`` gives.
    """
    path = Path(path)
    with closing(_lines(path)) as lines:
        header = _read_header(path, lines)
        if header not in _METADATA_HEADERS:
            raise LoadError(f"{path}:1: header must be 'cell_id,batch' or "
                            f"'cell_id,batch,cell_type', got {','.join(header)!r}")
        width = len(header)
        books = [{} for _ in header[1:]]  # name -> code, by first appearance
        codes = [array("q") for _ in header[1:]]  # a code per row and name column

        def parse(fields):
            if not fields[1]:
                return "empty batch name"
            if width == 3 and not fields[2]:
                return "empty cell type (partial labels are not allowed)"
            for book, column, name in zip(books, codes, fields[1:]):
                column.append(book.setdefault(name, len(book)))

        ids = _parse_rows(path, lines, width, parse)
    labels = (codes[1], tuple(books[1])) if width == 3 else ()
    return CellMetadata(tuple(ids), codes[0], tuple(books[0]), *labels)


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
    elif np.array_equal(rows, np.arange(len(rows))):
        # the same cells in the same order: the metadata shares the matrix's
        # id tuple, and its own id strings are freed
        meta = CellMetadata(emb.cell_ids, meta.batch_codes, meta.batch_names,
                            meta.label_codes, meta.label_names)
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
        if len(doc["frozen"]) != len(doc["batch_names"]):  # () would read as none frozen
            raise ValidationError("frozen flags must match batch names")
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
    optional ``pca_components``, and no other key."""
    path = Path(path)
    doc = _read_json(path, "scenario plan")
    if not isinstance(doc, dict):
        raise LoadError(f"{path}: a scenario plan must be a JSON object")
    unknown = sorted(set(doc) - set(_PLAN_TYPES))
    if unknown:
        raise LoadError(f"{path}: unknown scenario plan keys: {', '.join(unknown)}")
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
