"""Seeded synthetic embeddings with known affine batch effects, and a PCA
baseline embedder.

Cells are drawn around cell-type centroids and distorted per batch by an
affine effect ``z = a_b * (centroid + noise) + c_b``, so the adapter family
contains the exact inverse (``gamma = 1/a_b``, ``beta = -c_b/a_b``) and tests
can reason about correction direction against known ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CellMetadata, EmbeddingMatrix, FilmAdapter, ValidationError, encode_groups


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters; all randomness flows from the counter-based seed."""

    n_batches: int
    n_types: int
    dim: int
    cells_per_batch: int | tuple[int, ...]
    centroid_scale: float = 3.0
    noise_sigma: float = 0.5
    effect_scale_range: tuple[float, float] = (0.7, 1.4)
    effect_shift_sigma: float = 1.0
    type_mixture: tuple[tuple[float, ...], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_batches < 1 or self.n_types < 1 or self.dim < 1:
            raise ValidationError("counts and dimension must be >= 1")
        cells = self.cells_per_batch
        if isinstance(cells, int):
            cells = (cells,) * self.n_batches
        else:
            cells = tuple(int(c) for c in cells)
        if len(cells) != self.n_batches or any(c < 1 for c in cells):
            raise ValidationError("cells_per_batch must give >= 1 cell per batch")
        object.__setattr__(self, "cells_per_batch", cells)
        numbers = {"centroid_scale": [self.centroid_scale], "noise_sigma": [self.noise_sigma],
                   "effect_scale_range": self.effect_scale_range,
                   "effect_shift_sigma": [self.effect_shift_sigma],
                   "type_mixture": [float(p) for row in self.type_mixture or () for p in row]}
        for name, values in numbers.items():
            if not all(map(math.isfinite, values)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)!r}")
        lo, hi = self.effect_scale_range
        if not (0 < lo <= hi):
            raise ValidationError("effect scale range must satisfy 0 < lo <= hi")
        if self.noise_sigma < 0 or self.effect_shift_sigma < 0 or self.centroid_scale < 0:
            raise ValidationError("scales must be >= 0")
        if self.type_mixture is not None:
            mix = tuple(tuple(float(p) for p in row) for row in self.type_mixture)
            if len(mix) != self.n_batches or any(len(row) != self.n_types for row in mix):
                raise ValidationError("type_mixture must be n_batches x n_types")
            for row in mix:
                if any(p < 0 for p in row) or abs(sum(row) - 1.0) > 1e-9:
                    raise ValidationError("each mixture row must be a probability vector")
            object.__setattr__(self, "type_mixture", mix)
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


@dataclass(frozen=True)
class GroundTruth:
    """Injected effects: per-batch scale / shift and the type centroids."""

    scale: np.ndarray      # (B, d) multiplicative effect a_b
    shift: np.ndarray      # (B, d) additive effect c_b
    centroids: np.ndarray  # (C, d)
    batch_names: tuple[str, ...]

    def correcting_adapter(self) -> FilmAdapter:
        """The exact inverse of the injected effects."""
        return FilmAdapter(self.batch_names, 1.0 / self.scale, -self.shift / self.scale)


def _allocate_counts(n: int, props: np.ndarray) -> np.ndarray:
    """Largest-remainder allocation of n cells to type proportions."""
    raw = props * n
    base = np.floor(raw).astype(int)
    remainder = n - int(base.sum())
    frac = raw - base
    order = np.lexsort((np.arange(len(props)), -frac))
    base[order[:remainder]] += 1
    return base


def generate(spec: SynthSpec):
    """Deterministic synthetic data: ``(embedding, metadata, ground_truth)``.

    Draw order is fixed (centroids, scale effects, shift effects, then one
    noise block for all cells) on a Philox counter-based stream, so identical
    specs give bit-identical outputs.
    """
    rng = np.random.Generator(np.random.Philox(spec.seed))
    B, C, d = spec.n_batches, spec.n_types, spec.dim
    centroids = spec.centroid_scale * rng.standard_normal((C, d))
    lo, hi = spec.effect_scale_range
    scale = rng.uniform(lo, hi, (B, d))
    shift = spec.effect_shift_sigma * rng.standard_normal((B, d))

    if spec.type_mixture is None:
        mixture = np.full((B, C), 1.0 / C)
    else:
        mixture = np.array(spec.type_mixture, dtype=np.float64)

    counts = np.array([_allocate_counts(n, props)
                       for n, props in zip(spec.cells_per_batch, mixture)])
    type_idx = np.repeat(np.tile(np.arange(C), B), counts.ravel())
    batch_idx = np.repeat(np.arange(B), counts.sum(axis=1))
    n = len(type_idx)

    noise = spec.noise_sigma * rng.standard_normal((n, d))
    values = scale[batch_idx] * (centroids[type_idx] + noise) + shift[batch_idx]

    batch_names = tuple(f"batch{b}" for b in range(B))
    cell_ids = tuple(f"c{i:06d}" for i in range(n))
    emb = EmbeddingMatrix(cell_ids, values)
    # types numbered by first appearance, as from_columns numbers names; every
    # batch has a cell and they come in order, so batch b's code is b
    type_order, type_codes = encode_groups(type_idx)
    meta = CellMetadata(cell_ids, batch_idx, batch_names,
                        type_codes, tuple(f"type{t}" for t in type_order))
    truth = GroundTruth(scale=scale, shift=shift, centroids=centroids,
                        batch_names=batch_names)
    return emb, meta, truth


def principal_axes(values: np.ndarray):
    """``(centered, eigvals, eigvecs)``: the column-centered values and the
    eigenpairs of their covariance, in descending eigenvalue order."""
    centered = values - values.mean(axis=0)
    cov = centered.T @ centered / (len(values) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    return centered, eigvals[order], eigvecs[:, order]


def pca(features: EmbeddingMatrix, components: int) -> EmbeddingMatrix:
    """Project onto the top principal axes of the column-centered features.

    Axes come from an eigendecomposition of the covariance matrix; each
    component is sign-fixed so its largest-magnitude loading is positive.
    Requesting more components than the matrix rank is an error.
    """
    x = features.values
    n, g = x.shape
    if components < 1:
        raise ValidationError("components must be >= 1")
    if components > min(n, g):
        raise ValidationError(
            f"components = {components} exceeds min(cells, features) = {min(n, g)}"
        )
    if n < 2:
        raise ValidationError("pca needs at least two rows")
    centered, eigvals, eigvecs = principal_axes(x)
    rank_tol = max(eigvals[0], 0.0) * 1e-10
    rank = int(np.sum(eigvals > rank_tol))
    if components > rank:
        raise ValidationError(
            f"components = {components} exceeds the effective rank {rank}"
        )
    axes = eigvecs[:, :components].copy()
    for j in range(components):
        i = int(np.argmax(np.abs(axes[:, j])))
        if axes[i, j] < 0:
            axes[:, j] = -axes[:, j]
    return EmbeddingMatrix._adopt(features.cell_ids, centered @ axes)
