"""Data model for cell embeddings, batch metadata and FiLM adapters.

The adapter transform is a per-batch affine map in latent space:
``z_tilde = gamma[b] * z + beta[b]`` for a cell of batch ``b``.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType

import numpy as np


class FedfilmError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(FedfilmError):
    """Shapes of embeddings / adapters do not line up."""


class MissingBatchError(FedfilmError):
    """A cell's batch has no corresponding adapter row."""


class ValidationError(FedfilmError):
    """Invalid value at construction time."""


# a config field's annotation -> (check of a value, what the value must be);
# bool is a subclass of int, so neither number kind takes it, and a number
# is a finite float or an integer within the float range: a nan, an infinite
# or a too large setting would fail the fit at its first step
FIELD_KINDS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                         and abs(v) <= sys.float_info.max), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def field_type_problem(config) -> str | None:
    """What is wrong with the first field of the dataclass ``config`` whose
    value does not fit its annotation in ``FIELD_KINDS``, or None."""
    for f in fields(config):
        if f.type in FIELD_KINDS:
            valid, kind = FIELD_KINDS[f.type]
            value = getattr(config, f.name)
            if not valid(value):
                return f"{f.name} must be {kind}, got {value!r}"
    return None


def _as_readonly(values, name: str) -> np.ndarray:
    return _checked_readonly(np.array(values, dtype=np.float64, copy=True), name)


def _checked_readonly(arr: np.ndarray, name: str) -> np.ndarray:
    """Check that the float64 array ``arr`` is a finite matrix of at least
    one entry, and make it read-only."""
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"{name} must be at least 1x1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EmbeddingMatrix:
    """N x d matrix of cell latent coordinates, row-aligned with cell ids."""

    cell_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        self._set(_as_readonly(self.values, "embedding values"))

    @classmethod
    def _adopt(cls, cell_ids, values: np.ndarray) -> "EmbeddingMatrix":
        """A matrix that takes ``values``, a float64 array the package has
        just built and no caller holds, without copying it; the checks are
        the constructor's, and ``values`` becomes read-only."""
        emb = cls.__new__(cls)
        object.__setattr__(emb, "cell_ids", cell_ids)
        emb._set(_checked_readonly(values, "embedding values"))
        return emb

    def _set(self, arr: np.ndarray):
        ids = tuple(str(c) for c in self.cell_ids)
        if len(dict.fromkeys(ids)) != len(ids):  # a set of the ids holds 4x the bytes
            dupes = sorted(c for c, n in Counter(ids).items() if n > 1)
            raise ValidationError(f"duplicate cell ids: {dupes[:5]}")
        if arr.shape[0] != len(ids):
            raise ValidationError(
                f"{len(ids)} cell ids but {arr.shape[0]} matrix rows"
            )
        object.__setattr__(self, "cell_ids", ids)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def rows_for(self, cell_ids) -> np.ndarray:
        """Row indices of the given cell ids, in the given order."""
        return _positions(self.cell_ids, cell_ids, "unknown cell id {!r}")

    def subset(self, cell_ids) -> "EmbeddingMatrix":
        rows = self.rows_for(cell_ids)
        return EmbeddingMatrix._adopt(tuple(cell_ids), self.values[rows])


@dataclass(frozen=True, eq=False)
class CellMetadata:
    """Per-cell batch assignment and optional cell-type label, integer-coded.

    ``batch_codes[i]`` indexes the batch of ``cell_ids[i]`` in ``batch_names``;
    ``label_codes``/``label_names`` code cell types the same way, or are None.
    ``batch_names`` is the canonical batch order (``from_columns`` numbers
    groups by first appearance); all internal row indices derive from it.
    """

    cell_ids: tuple[str, ...]
    batch_codes: np.ndarray
    batch_names: tuple[str, ...]
    label_codes: np.ndarray | None = None
    label_names: tuple[str, ...] | None = None

    @classmethod
    def from_columns(cls, cell_ids, batches, labels=None) -> "CellMetadata":
        cell_ids = tuple(map(str, cell_ids))

        def encode(column, what):
            column = np.array(list(map(str, column)), dtype=object)
            if len(column) != len(cell_ids):
                raise ValidationError(f"{what} must cover all cells")
            return encode_groups(column)

        batch_names, batch_codes = encode(batches, "batches")
        label_names, label_codes = (None, None) if labels is None else encode(labels, "labels")
        return cls(cell_ids, batch_codes, batch_names, label_codes, label_names)

    def __post_init__(self):
        ids = tuple(self.cell_ids)
        if not ids:
            raise ValidationError("metadata must cover at least one cell")
        if len(dict.fromkeys(ids)) != len(ids):  # a set of the ids holds several times the bytes
            raise ValidationError("duplicate cell ids in metadata")
        object.__setattr__(self, "cell_ids", ids)
        _set_codes(self, "batch")
        if self.label_codes is not None or self.label_names is not None:
            _set_codes(self, "label")

    @property
    def n_batches(self) -> int:
        return len(self.batch_names)

    @cached_property
    def batch_of(self) -> MappingProxyType:
        """Read-only view cell id -> batch name, built on first access."""
        names = items_at(self.batch_names, self.batch_codes)
        return MappingProxyType(dict(zip(self.cell_ids, names)))

    @cached_property
    def label_of(self) -> MappingProxyType | None:
        """Read-only view cell id -> cell type, or None without labels."""
        if self.label_codes is None:
            return None
        names = items_at(self.label_names, self.label_codes)
        return MappingProxyType(dict(zip(self.cell_ids, names)))

    def batch_sizes(self) -> dict[str, int]:
        return dict(zip(self.batch_names, np.bincount(self.batch_codes).tolist()))

    def rows_for(self, cell_ids) -> np.ndarray:
        """Metadata row of each given cell id, in the given order."""
        return _positions(self.cell_ids, cell_ids, "cell {!r} has no batch assignment")

    def batches_for(self, emb: EmbeddingMatrix) -> list[str]:
        """Batch name per embedding row; every cell must be covered."""
        return items_at(self.batch_names, self.batch_codes[self.rows_for(emb.cell_ids)])

    def labels_for(self, emb: EmbeddingMatrix) -> list[str]:
        if self.label_codes is None:
            raise ValidationError("metadata carries no cell-type labels")
        return items_at(self.label_names, self.label_codes[self.rows_for(emb.cell_ids)])

    def restricted_to(self, cell_ids) -> "CellMetadata":
        """Sub-metadata for the given cells in the given order, with group
        orders re-derived by first appearance among them."""
        rows = self.rows_for(cell_ids)
        batch_order, batch_codes = encode_groups(self.batch_codes[rows])
        label_names = label_codes = None
        if self.label_codes is not None:
            label_order, label_codes = encode_groups(self.label_codes[rows])
            label_names = items_at(self.label_names, label_order)
        return CellMetadata(items_at(self.cell_ids, rows), batch_codes,
                            items_at(self.batch_names, batch_order), label_codes, label_names)


def encode_groups(values) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values in first-appearance order, and each value's code: the
    index of its value in that order."""
    uniq, first, inverse = np.unique(np.asarray(values), return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)
    return uniq[order], np.argsort(order)[inverse]  # argsort inverts a permutation


def _set_codes(meta: CellMetadata, what: str):
    """Check ``meta``'s ``<what>_codes`` against its ``<what>_names``: one
    code per cell, names distinct and each in use; store both read-only."""
    names = tuple(getattr(meta, f"{what}_names"))
    codes = np.array(getattr(meta, f"{what}_codes"), dtype=np.intp)
    if (len(set(names)) != len(names) or codes.shape != (len(meta.cell_ids),)
            or not np.array_equal(np.unique(codes), np.arange(len(names)))):
        raise ValidationError(f"{what} codes must give every cell one of the "
                              f"{what} names, which must be distinct and all used")
    codes.setflags(write=False)
    object.__setattr__(meta, f"{what}_names", names)
    object.__setattr__(meta, f"{what}_codes", codes)


def items_at(seq, indices) -> list:
    """The items of a sequence at the given indices (say, names at codes)."""
    return np.array(seq, dtype=object)[indices].tolist()


def _positions(ids, wanted, missing: str) -> np.ndarray:
    """Index in ``ids`` of each wanted id; raises ``missing.format(id)``."""
    if wanted is ids:  # the very tuple held, as a matrix and its loaded metadata share
        return np.arange(len(ids), dtype=np.intp)
    index = dict(zip(ids, range(len(ids))))
    try:
        return np.fromiter(map(index.__getitem__, wanted), dtype=np.intp)
    except KeyError as exc:
        raise ValidationError(missing.format(exc.args[0])) from None


def usable_cpus() -> int:
    """How many CPUs this process may run on: the size of its affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return 1


@dataclass(frozen=True)
class FilmAdapter:
    """Per-batch scale and shift tables; the global parameter state.

    Row order of ``gamma``/``beta`` follows ``batch_names``. ``frozen`` marks
    batches whose rows must never change (continual-training references).
    """

    batch_names: tuple[str, ...]
    gamma: np.ndarray
    beta: np.ndarray
    frozen: tuple[bool, ...] = field(default=())

    def __post_init__(self):
        names = tuple(str(b) for b in self.batch_names)
        if len(set(names)) != len(names):
            raise ValidationError("adapter batch names contain duplicates")
        if not names:
            raise ValidationError("adapter needs at least one batch")
        gamma = _as_readonly(self.gamma, "gamma")
        beta = _as_readonly(self.beta, "beta")
        if gamma.shape != beta.shape:
            raise DimensionError(
                f"gamma {gamma.shape} and beta {beta.shape} differ in shape"
            )
        if gamma.shape[0] != len(names):
            raise DimensionError(
                f"{len(names)} batch names but {gamma.shape[0]} adapter rows"
            )
        frozen = tuple(bool(f) for f in self.frozen) if self.frozen else (False,) * len(names)
        if len(frozen) != len(names):
            raise ValidationError("frozen flags must match batch names")
        object.__setattr__(self, "batch_names", names)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "frozen", frozen)

    @property
    def n_batches(self) -> int:
        return len(self.batch_names)

    @property
    def d(self) -> int:
        return self.gamma.shape[1]

    def row_index(self, batch_name: str) -> int:
        try:
            return self.batch_names.index(batch_name)
        except ValueError:
            raise MissingBatchError(
                f"batch {batch_name!r} has no adapter row"
            ) from None

    def with_new_batches(self, batch_names) -> "FilmAdapter":
        """Append identity-initialized, unfrozen rows for new batch names."""
        new = [str(b) for b in batch_names]
        for b in new:
            if b in self.batch_names:
                raise ValidationError(f"batch {b!r} already present in adapter")
        gamma = np.vstack([self.gamma, np.ones((len(new), self.d))])
        beta = np.vstack([self.beta, np.zeros((len(new), self.d))])
        return FilmAdapter(
            self.batch_names + tuple(new), gamma, beta,
            self.frozen + (False,) * len(new),
        )

    def freeze(self, batch_names) -> "FilmAdapter":
        flags = list(self.frozen)
        for b in batch_names:
            flags[self.row_index(b)] = True
        return FilmAdapter(self.batch_names, self.gamma, self.beta, tuple(flags))


def identity_adapter(batch_names, d: int) -> FilmAdapter:
    """Identity transform: gamma all ones, beta all zeros, nothing frozen."""
    names = tuple(batch_names)
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    return FilmAdapter(names, np.ones((len(names), d)), np.zeros((len(names), d)))


def batch_row_indices(emb: EmbeddingMatrix, meta: CellMetadata) -> dict[str, np.ndarray]:
    """Embedding row indices per batch, in canonical batch order."""
    codes = meta.batch_codes[meta.rows_for(emb.cell_ids)]
    return {b: np.flatnonzero(codes == i) for i, b in enumerate(meta.batch_names)}


# rows that apply_adapter and the embedding writer take at once, so neither
# holds a gathered (n, d) table of gamma or beta rows
_ROW_CHUNK = 4096


def corrected_rows(emb: EmbeddingMatrix, meta: CellMetadata, adapter: FilmAdapter):
    """Check that ``adapter`` applies to every cell of ``emb``, and return
    ``rows(lo, hi, out=None)``: rows ``lo:hi`` of ``gamma[b] * z + beta[b]``,
    the product rounded and then the sum, written into ``out`` when given.

    Cells whose batch has no adapter row are a hard error, they are never
    passed through.
    """
    if adapter.d != emb.d:
        raise DimensionError(
            f"adapter dimension {adapter.d} does not match embedding dimension {emb.d}"
        )
    # batches present, by first appearance among the rows: the first without a row raises
    sub = meta.restricted_to(emb.cell_ids)
    idx = np.array([adapter.row_index(b) for b in sub.batch_names], dtype=np.intp)[sub.batch_codes]

    def rows(lo, hi, out=None):
        out = np.multiply(adapter.gamma[idx[lo:hi]], emb.values[lo:hi], out=out)
        out += adapter.beta[idx[lo:hi]]
        return out

    return rows


def apply_adapter(emb: EmbeddingMatrix, meta: CellMetadata, adapter: FilmAdapter) -> EmbeddingMatrix:
    """Apply the per-batch affine transform to every cell.

    Returns a new matrix with the same cell ids and row order. Cells whose
    batch has no adapter row are a hard error, they are never passed through.
    """
    rows = corrected_rows(emb, meta, adapter)
    out = np.empty_like(emb.values)
    for lo in range(0, emb.n, _ROW_CHUNK):
        rows(lo, lo + _ROW_CHUNK, out[lo:lo + _ROW_CHUNK])
    return EmbeddingMatrix._adopt(emb.cell_ids, out)
