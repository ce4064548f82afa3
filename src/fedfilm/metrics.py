"""Integration-quality metrics and aggregate scoring.

Biological conservation: k-means NMI and ARI against cell-type labels,
cell-type silhouette (ASW), isolated-label F1, and cell-type LISI.
Batch-effect removal: batch silhouette within labels, integration LISI,
kBET-style neighborhood composition tests per label, per-label graph
connectivity, and principal-component regression against batch indicators.

All scores are reported in [0, 1] with higher meaning better. The overall
aggregate weighs biological conservation at 0.6 and batch correction at 0.4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CellMetadata, EmbeddingMatrix, ValidationError, encode_groups
from .synth import principal_axes

BIO_METRICS = ("kmeans_nmi", "kmeans_ari", "label_asw", "isolated_f1", "clisi_score")
BATCH_METRICS = ("batch_asw", "ilisi_score", "kbet_per_label",
                 "graph_connectivity", "pcr_score")

# Scenario-safe subset: metrics that stay well defined when the embedding is
# recomputed or extended between stages (no fixed-coordinate assumptions).
METRIC_SUBSETS = {
    "full": (BIO_METRICS, BATCH_METRICS),
    "scenario": (("kmeans_nmi", "kmeans_ari", "label_asw"),
                 ("batch_asw", "ilisi_score")),
}

# batch-mixing metrics that score 1.0 when the evaluated cells span one batch
_SINGLE_BATCH_DEFAULTS = ("batch_asw", "ilisi_score", "kbet_per_label", "pcr_score")

BIO_WEIGHT = 0.6
BATCH_WEIGHT = 0.4

_KMEANS_STREAM = 303


def aggregate_scores(bio: float, batch: float) -> float:
    """Weighted overall score: 0.6 * bio + 0.4 * batch."""
    return BIO_WEIGHT * bio + BATCH_WEIGHT * batch


@dataclass(frozen=True)
class MetricsReport:
    """Per-metric scores plus the bio / batch / overall aggregates."""

    subset: str
    scores: dict[str, float]
    bio: float
    batch: float
    overall: float
    all_labels_isolated: bool = False

    @classmethod
    def from_scores(cls, subset: str, scores: dict[str, float],
                    all_labels_isolated: bool = False) -> "MetricsReport":
        if subset not in METRIC_SUBSETS:
            raise ValidationError(f"unknown metric subset {subset!r}")
        bio_names, batch_names = METRIC_SUBSETS[subset]
        missing = [m for m in bio_names + batch_names if m not in scores]
        if missing:
            raise ValidationError(f"missing scores for {missing}")
        ordered = {m: float(scores[m]) for m in bio_names + batch_names}
        bio = float(np.mean([ordered[m] for m in bio_names]))
        batch = float(np.mean([ordered[m] for m in batch_names]))
        return cls(subset=subset, scores=ordered, bio=bio, batch=batch,
                   overall=aggregate_scores(bio, batch),
                   all_labels_isolated=all_labels_isolated)


@dataclass(frozen=True)
class NeighborGraph:
    """Fixed-k nearest neighbors by Euclidean distance, self excluded."""

    k: int
    neighbors: np.ndarray  # (N, k) int row indices

    def __post_init__(self):
        nbrs = np.asarray(self.neighbors, dtype=np.intp)
        if nbrs.ndim != 2:
            raise ValidationError("neighbor lists must form a 2-D array")
        object.__setattr__(self, "neighbors", nbrs)

    @property
    def n(self) -> int:
        return self.neighbors.shape[0]


def _row_block_size(n: int) -> int:
    # cap each block's distance slice at ~64 MB so big inputs stay in memory
    return max(32, min(n, (1 << 23) // max(n, 1)))


def _distance_sweep(values, k: int | None, codes):
    """The one blocked pass over all pairwise Euclidean distances.

    Returns ``(neighbors, silhouette)``: the (N, k) nearest-neighbor lists,
    self excluded and ties broken by the lower row index, when ``k`` is
    given, and the per-cell silhouette of the grouping ``codes`` when those
    are given; the entry not asked for is None. Each block of rows has its
    squared distances built once, in place in one reused buffer, and feeds
    both.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    neighbors = sums = None
    if k is not None:
        if k < 1:
            raise ValidationError("k must be >= 1")
        if k >= n:
            raise ValidationError(f"k = {k} must be smaller than the cell count {n}")
        neighbors = np.empty((n, k), dtype=np.intp)
    if codes is not None:
        groups, coded = encode_groups(codes)
        if len(groups) < 2:
            raise ValidationError("silhouette needs at least two groups")
        onehot = np.zeros((n, len(groups)))
        onehot[np.arange(n), coded] = 1.0
        sums = np.empty((n, len(groups)))  # total distance from each cell to each group
    sq = np.sum(values * values, axis=1)
    step = _row_block_size(n)
    gram = np.empty((min(step, n), n))  # each block's squared distances, in place
    pair_sq = np.empty((min(_CHUNK_ROWS, n), n))
    for start in range(0, n, step):
        stop = min(start + step, n)
        d2 = np.matmul(2.0 * values[start:stop], values.T, out=gram[:stop - start])
        for lo in range(start, stop, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, stop)
            own = (np.arange(hi - lo), np.arange(lo, hi))  # each row's self entry
            # (|x|^2 + |y|^2) - (2x) @ y.T, rounded exactly as the unbuffered form
            chunk = d2[lo - start:hi - start]
            np.subtract(np.add(sq[lo:hi, None], sq[None, :], out=pair_sq[:hi - lo]),
                        chunk, out=chunk)
            np.maximum(chunk, 0.0, out=chunk)
            if neighbors is not None:
                chunk[own] = np.inf
                neighbors[lo:hi] = _nearest(chunk, k)
            if sums is not None:
                chunk[own] = 0.0
                np.sqrt(chunk, out=chunk)
        if sums is not None:
            np.matmul(d2, onehot, out=sums[start:stop])
    silhouette = None if sums is None else _silhouette_from_sums(sums, coded)
    return neighbors, silhouette


# rows finished at a time after a block's matmul: a chunk stays in cache from
# assembly through selection and sqrt, and _nearest's (rows, N) candidate
# mask stays small enough to be reused from the heap
_CHUNK_ROWS = 32

# _nearest bounds each row's k-th distance by the k-th smallest of every
# _SAMPLE_STRIDE-th column; any stride is exact, 4 was the fastest measured
_SAMPLE_STRIDE = 4


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Each row's k smallest entries by (distance, index), as column indices.

    The k-th smallest of a subset of a row's columns is at least the row's
    k-th distance, so the entries not greater than it hold the k nearest
    and every entry tied with the k-th. When the sample has fewer than k
    columns the bound is nan, and no entry is greater than nan, so the
    whole row is a candidate; nan entries are always candidates and sort
    last. Every row thus has at least k candidates, and one stable sort of
    them by (row, distance) gives each row's k nearest.
    """
    rows, n = d2.shape
    sample = d2[:, ::_SAMPLE_STRIDE]
    if sample.shape[1] >= k:
        bound = np.partition(sample, k - 1, axis=1)[:, k - 1]
    else:
        bound = np.full(rows, np.nan)
    candidate = np.greater(d2, bound[:, None])
    np.logical_not(candidate, out=candidate)
    flat = np.flatnonzero(candidate)
    row = flat // n
    counts = np.bincount(row, minlength=rows)
    # lexsort is stable, so candidates tied in (row, distance) keep their
    # ascending column order
    order = np.lexsort((np.take(d2, flat), row))
    first = np.cumsum(counts) - counts
    return flat[order[first[:, None] + np.arange(k)]] % n


def build_neighbor_graph(values, k: int) -> NeighborGraph:
    """Brute-force kNN graph; ties broken by the lower row index.

    Distances are computed block by block, so memory stays bounded for
    large inputs.
    """
    neighbors, _ = _distance_sweep(values, k, None)
    return NeighborGraph(k=k, neighbors=neighbors)


# ---------------------------------------------------------------------------
# clustering

def kmeans(values, k: int, seed: int, restarts: int = 10,
           max_iter: int = 300, tol: float = 1e-6):
    """Lloyd's algorithm with k-means++ seeding.

    Runs ``restarts`` seeded initializations and keeps the lowest-inertia
    solution. Deterministic given ``seed``. Returns ``(labels, inertia)``.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > n:
        raise ValidationError(f"k = {k} exceeds the cell count {n}")
    best_labels = None
    best_inertia = np.inf
    for r in range(restarts):
        rng = np.random.default_rng([int(seed), _KMEANS_STREAM, r])
        centers = _kmeans_pp(values, k, rng)
        labels, inertia = _lloyd(values, centers, max_iter, tol)
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels, float(best_inertia)


def _kmeans_pp(values, k, rng):
    n = values.shape[0]
    centers = np.empty((k, values.shape[1]))
    first = int(rng.integers(n))
    centers[0] = values[first]
    d2 = np.sum((values - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all remaining mass at distance zero (duplicate points)
            idx = int(rng.integers(n))
        centers[j] = values[idx]
        d2 = np.minimum(d2, np.sum((values - centers[j]) ** 2, axis=1))
    return centers


def _assign(values, centers):
    """Nearest-center labels and squared distances, one center at a time.

    Each distance is the same contiguous length-d sum that a broadcast
    (n, k, d) difference tensor reduces, so the bits do not depend on how
    many centers are done at once; ties go to the first center.
    """
    n, d = values.shape
    d2 = np.empty((len(centers), n))
    diff = np.empty((n, d))
    for c, center in enumerate(centers):
        np.subtract(values, center, out=diff)
        np.multiply(diff, diff, out=diff)
        np.sum(diff, axis=1, out=d2[c])
    labels = np.argmin(d2, axis=0)
    return labels, d2[labels, np.arange(n)]


def _lloyd(values, centers, max_iter, tol):
    centers = centers.copy()
    k = centers.shape[0]
    for _ in range(max_iter):
        labels, min_d2 = _assign(values, centers)
        new_centers = centers.copy()
        for c in range(k):
            mask = labels == c
            if mask.any():
                new_centers[c] = values[mask].mean(axis=0)
            else:
                # re-seed an empty cluster at the worst-fit point
                new_centers[c] = values[int(np.argmax(min_d2))]
        shift = float(np.max(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1))))
        centers = new_centers
        if shift < tol:
            break
    labels, min_d2 = _assign(values, centers)
    return labels, float(np.sum(min_d2))


# ---------------------------------------------------------------------------
# partition agreement

def _contingency(a, b):
    """Counts of each (a, b) group pair; groups in first-appearance order."""
    if len(a) != len(b):
        raise ValidationError("label sequences differ in length")
    if not len(a):
        raise ValidationError("empty label sequences")
    ua, ca = encode_groups(a)
    ub, cb = encode_groups(b)
    counts = np.bincount(ca * len(ub) + cb, minlength=len(ua) * len(ub))
    return counts.reshape(len(ua), len(ub)).astype(np.int64)


def nmi(a, b) -> float:
    """Normalized mutual information 2*I(a;b) / (H(a) + H(b)), natural log.

    Defined as 1 when both partitions are single clusters (both entropies 0).
    """
    table = _contingency(a, b)
    n = table.sum()
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    ha = -np.sum(pa[pa > 0] * np.log(pa[pa > 0]))
    hb = -np.sum(pb[pb > 0] * np.log(pb[pb > 0]))
    if ha + hb == 0.0:
        return 1.0
    pj = table / n
    mask = pj > 0
    mi = np.sum(pj[mask] * (np.log(pj[mask]) - np.log(np.outer(pa, pb)[mask])))
    return float(2.0 * mi / (ha + hb))


def ari(a, b) -> float:
    """Adjusted Rand index via pair counting; 1 for identical partitions.

    Computed in exact integer arithmetic and divided once at the end, so
    rational results like -1/2 come out exact.
    """
    table = _contingency(a, b)
    n = int(table.sum())

    def comb2(x):
        return int(x) * (int(x) - 1) // 2

    sum_ij = sum(comb2(v) for v in table.ravel())
    sum_a = sum(comb2(v) for v in table.sum(axis=1))
    sum_b = sum(comb2(v) for v in table.sum(axis=0))
    total = comb2(n)
    # ari = (sum_ij - sum_a*sum_b/total) / ((sum_a+sum_b)/2 - sum_a*sum_b/total)
    num = 2 * total * sum_ij - 2 * sum_a * sum_b
    den = total * (sum_a + sum_b) - 2 * sum_a * sum_b
    if den == 0:
        return 1.0
    return num / den


# ---------------------------------------------------------------------------
# silhouettes

def _silhouette_from_sums(sums: np.ndarray, coded: np.ndarray) -> np.ndarray:
    """Per-cell silhouette from each cell's total distance to every group."""
    n = len(coded)
    rows = np.arange(n)
    counts = np.bincount(coded, minlength=sums.shape[1]).astype(np.float64)
    own = counts[coded]
    scored = own > 1  # cells in singleton groups score 0
    a = np.divide(sums[rows, coded], own - 1, out=np.zeros(n), where=scored)
    means = sums / counts
    means[rows, coded] = np.inf
    b = means.min(axis=1)
    m = np.maximum(a, b)
    return np.divide(b - a, m, out=np.zeros(n), where=scored & (m != 0))


def silhouette_samples(values, codes) -> np.ndarray:
    """Per-cell Euclidean silhouette; cells in singleton groups score 0."""
    return _distance_sweep(values, None, codes)[1]


def _rescaled_asw(s: np.ndarray) -> float:
    return float((np.mean(s) + 1.0) / 2.0)


def silhouette_label_asw(values, labels) -> float:
    """Cell-type silhouette rescaled to [0, 1] via (mean + 1) / 2."""
    return _rescaled_asw(silhouette_samples(values, labels))


def silhouette_batch_asw(values, batches, labels) -> float:
    """Batch-mixing silhouette: within each label, mean of 1 - |s(i)| over the
    batch silhouette, then averaged across labels.

    Labels containing a single batch are skipped (their batch silhouette is
    undefined). When no label spans two batches the score is 1.0: no label
    has batches to mix, the convention kBET applies to single-batch labels
    and ``evaluate`` to single-batch inputs.
    """
    values = np.asarray(values, dtype=np.float64)
    batch_order, batches = encode_groups(batches)
    label_order, labels = encode_groups(labels)
    if len(batch_order) < 2:
        raise ValidationError("batch silhouette needs at least two batches")
    per_label = []
    for lab in range(len(label_order)):
        mask = labels == lab
        sub_batches = batches[mask]
        if np.all(sub_batches == sub_batches[0]):
            continue
        s = silhouette_samples(values[mask], sub_batches)
        per_label.append(float(np.mean(1.0 - np.abs(s))))
    return float(np.mean(per_label)) if per_label else 1.0


# ---------------------------------------------------------------------------
# neighborhood composition

def lisi(graph_or_values, codes, k: int | None = None) -> np.ndarray:
    """Per-cell inverse Simpson index of the k-neighborhood composition.

    Neighborhood proportions are uniform over the fixed k nearest neighbors,
    self excluded. Accepts a prebuilt ``NeighborGraph`` or raw coordinates
    (then ``k`` is required).
    """
    if isinstance(graph_or_values, NeighborGraph):
        graph = graph_or_values
    else:
        if k is None:
            raise ValidationError("k is required when passing raw coordinates")
        graph = build_neighbor_graph(graph_or_values, k)
    groups, coded = encode_groups(codes)
    p = _neighbor_counts(graph, coded, len(groups)) / graph.neighbors.shape[1]
    return 1.0 / np.sum(p * p, axis=1)


def _neighbor_counts(graph: NeighborGraph, coded: np.ndarray, n_groups: int) -> np.ndarray:
    """(N, n_groups) counts of each cell's k neighbors by group index."""
    flat = coded[graph.neighbors] + n_groups * np.arange(graph.n)[:, None]
    return np.bincount(flat.ravel(), minlength=graph.n * n_groups).reshape(graph.n, n_groups)


def ilisi_score(mean_ilisi: float, n_batches: int) -> float:
    """Rescale mean batch LISI to [0, 1]: (x - 1) / (B - 1), clamped."""
    if n_batches < 2:
        return 1.0
    return float(np.clip((mean_ilisi - 1.0) / (n_batches - 1.0), 0.0, 1.0))


def clisi_score(mean_clisi: float, n_types: int) -> float:
    """Rescale mean cell-type LISI to [0, 1]: (C - x) / (C - 1), clamped."""
    if n_types < 2:
        return 1.0
    return float(np.clip((n_types - mean_clisi) / (n_types - 1.0), 0.0, 1.0))


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function for integer degrees of freedom.

    With h = x / 2 it is the regularized upper incomplete gamma Q(df/2, h),
    which is a finite sum: the terms exp(-h) h^i / i! for i < df/2 when df
    is even, and erfc(sqrt(h)) plus the same terms over half-integer i when
    df is odd.
    """
    if df != int(df):
        raise ValidationError(f"degrees of freedom must be an integer, got {df}")
    if df < 1:
        raise ValidationError("degrees of freedom must be >= 1")
    if x <= 0:
        return 1.0
    h = 0.5 * x
    log_h = math.log(h)
    offset = 0.5 * (df % 2)
    total = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    for j in range(int(df) // 2):
        i = offset + j
        total += math.exp(-h + i * log_h - math.lgamma(i + 1.0))
    return min(1.0, total)


def kbet_per_label(graph: NeighborGraph, batches, labels, alpha: float = 0.05) -> float:
    """Mean per-label acceptance rate of a chi-square goodness-of-fit test of
    each cell's k-neighborhood batch counts against the label's global batch
    composition.

    Batches absent from a label have expected count zero and are merged out
    of that label's test; neighbors from such batches do not enter the
    statistic. Labels containing a single batch score 1 by convention.
    """
    batch_order, bcoded = encode_groups(batches)
    label_order, labels = encode_groups(labels)
    if len(batch_order) < 2:
        raise ValidationError("kbet needs at least two batches")
    neighbor_counts = _neighbor_counts(graph, bcoded, len(batch_order))

    per_label = []
    for lab in range(len(label_order)):
        mask = labels == lab
        present = np.bincount(bcoded[mask], minlength=len(batch_order))
        cats = np.flatnonzero(present)
        if len(cats) < 2:
            per_label.append(1.0)
            continue
        pi = present[cats] / present[cats].sum()
        df = len(cats) - 1
        # the test depends only on the count vector, and few distinct ones occur
        vectors, inverse = np.unique(neighbor_counts[mask][:, cats], axis=0,
                                     return_inverse=True)
        accepts = np.ones(len(vectors), dtype=bool)
        for u, counts in enumerate(vectors):
            tot = counts.sum()
            if tot == 0:  # no neighbor from the label's batches: accepted
                continue
            expected = pi * tot
            stat = float(np.sum((counts - expected) ** 2 / expected))
            accepts[u] = chi2_sf(stat, df) >= alpha
        per_label.append(int(np.count_nonzero(accepts[inverse])) / len(inverse))
    return float(np.mean(per_label))


# ---------------------------------------------------------------------------
# graph connectivity

def graph_connectivity(graph: NeighborGraph, labels) -> float:
    """Average over labels of the largest-connected-component fraction of the
    label-induced subgraph on the symmetrized kNN edges."""
    groups, coded = encode_groups(labels)
    src = np.repeat(np.arange(graph.n), graph.neighbors.shape[1])
    dst = graph.neighbors.ravel()
    same = coded[src] == coded[dst]
    root = _component_roots(graph.n, src[same], dst[same])
    size = np.bincount(root, minlength=graph.n)[root]  # each node's component size
    largest = np.zeros(len(groups), dtype=np.intp)
    np.maximum.at(largest, coded, size)
    return float(np.mean(largest / np.bincount(coded)))


def _component_roots(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Array union-find: a root node for each of n nodes, shared exactly by
    the nodes that the undirected edges (src, dst) connect."""
    parent = np.arange(n)
    while True:
        ru, rv = parent[src], parent[dst]
        if np.array_equal(ru, rv):
            return parent
        # hook the larger root under the smaller, so no cycle can form
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:  # compress until every node points at its root
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


# ---------------------------------------------------------------------------
# principal component regression

def pcr_score(values, batches, max_components: int = 50) -> float:
    """1 minus the mean R^2 of regressing each principal component's scores on
    one-hot batch indicators (least squares via pseudo-inverse).

    Components with zero variance contribute R^2 = 0. Higher is better
    (less batch-associated variance).
    """
    values = np.asarray(values, dtype=np.float64)
    batch_order, batches = encode_groups(batches)
    n, d = values.shape
    if len(batch_order) < 2:
        raise ValidationError("pcr needs at least two batches")
    if n <= len(batch_order):
        raise ValidationError("pcr needs more cells than batches")
    centered, _, axes = principal_axes(values)
    m = min(d, max_components)
    comps = centered @ axes[:, :m]

    design = (batches[:, None] == np.arange(len(batch_order))).astype(np.float64)
    coef, *_ = np.linalg.lstsq(design, comps, rcond=None)
    fitted = design @ coef
    r2 = np.zeros(m)
    for j in range(m):
        t = comps[:, j]
        ss_tot = float(np.sum((t - t.mean()) ** 2))
        if ss_tot == 0.0:
            continue
        ss_res = float(np.sum((t - fitted[:, j]) ** 2))
        r2[j] = 1.0 - ss_res / ss_tot
    return float(1.0 - np.mean(r2))


# ---------------------------------------------------------------------------
# isolated labels

def isolated_label_f1(batches, labels, clusters):
    """Max-F1 recovery of isolated labels by the given clustering.

    Isolated labels are those present in the minimum number of batches. For
    each, the score is the best F1 over clusters of predicting the label by
    cluster membership; the result is the mean over isolated labels. Returns
    ``(score, all_labels_isolated)`` where the flag marks the degenerate case
    of every label being isolated under the minimum rule.
    """
    n_batches_of = np.count_nonzero(_contingency(labels, batches), axis=1)
    isolated = np.flatnonzero(n_batches_of == n_batches_of.min())
    all_isolated = len(isolated) == len(n_batches_of)

    table = _contingency(labels, clusters).astype(np.float64)  # labels x clusters
    tp = table[isolated]
    precision = tp / table.sum(axis=0)
    recall = tp / table.sum(axis=1)[isolated, None]
    f1 = np.divide(2 * precision * recall, precision + recall,
                   out=np.zeros_like(tp), where=tp > 0)
    return float(np.mean(f1.max(axis=1))), all_isolated


# ---------------------------------------------------------------------------
# one-shot evaluation

def evaluate(emb: EmbeddingMatrix, meta: CellMetadata, subset: str = "full",
             knn_k: int = 15, seed: int = 0,
             kmeans_restarts: int = 10) -> MetricsReport:
    """Sweep the pairwise distances once, compute the active metric subset,
    aggregate.

    Cell-type labels are required. When the evaluated cells span a single
    batch, the batch-mixing metrics take their degenerate value 1.0 (there is
    nothing to mix), which keeps single-batch scenario stages well defined.
    """
    if subset not in METRIC_SUBSETS:
        raise ValidationError(f"unknown metric subset {subset!r}")
    values = emb.values
    # numbered by first appearance among the evaluated rows, as the metrics number groups
    sub = meta.restricted_to(emb.cell_ids)
    if sub.label_codes is None:
        raise ValidationError("metadata carries no cell-type labels")
    batches, labels = sub.batch_codes, sub.label_codes
    if emb.n < 2:
        raise ValidationError("evaluation needs at least two cells")
    with np.errstate(over="ignore"):
        # bounds every pairwise squared distance, the k-means++ totals and the PCR covariance
        bound = 4.0 * emb.n * float(np.max(np.sum(values * values, axis=1)))
    if not np.isfinite(bound):
        raise ValidationError("coordinates are too large: squared distances "
                              "between cells overflow float64")
    bio_names, batch_names = METRIC_SUBSETS[subset]
    wanted = set(bio_names + batch_names)
    n_batches = sub.n_batches
    n_types = len(sub.label_names)

    # one distance sweep gives the kNN graph and the label silhouette together;
    # the graph is built only for a metric that will read it
    graph_metrics = {"clisi_score", "ilisi_score", "kbet_per_label", "graph_connectivity"}
    if n_batches < 2:
        graph_metrics -= set(_SINGLE_BATCH_DEFAULTS)
    k = min(knn_k, emb.n - 1) if wanted & graph_metrics else None
    label_codes = labels if "label_asw" in wanted and n_types >= 2 else None
    graph = label_silhouette = None
    if k is not None or label_codes is not None:
        neighbors, label_silhouette = _distance_sweep(values, k, label_codes)
        if k is not None:
            graph = NeighborGraph(k=k, neighbors=neighbors)

    clusters = None
    if wanted & {"kmeans_nmi", "kmeans_ari", "isolated_f1"}:
        clusters, _ = kmeans(values, n_types, seed=seed, restarts=kmeans_restarts)

    scores: dict[str, float] = {}
    all_isolated = False

    for metric in bio_names + batch_names:
        try:
            if n_batches < 2 and metric in _SINGLE_BATCH_DEFAULTS:
                scores[metric] = 1.0
            elif metric == "kmeans_nmi":
                scores[metric] = nmi(clusters, labels)
            elif metric == "kmeans_ari":
                scores[metric] = float(np.clip(ari(clusters, labels), 0.0, 1.0))
            elif metric == "label_asw":
                if n_types < 2:
                    raise ValidationError("label silhouette needs at least two labels")
                scores[metric] = _rescaled_asw(label_silhouette)
            elif metric == "isolated_f1":
                score, all_isolated = isolated_label_f1(batches, labels, clusters)
                scores[metric] = score
            elif metric == "clisi_score":
                scores[metric] = clisi_score(float(np.mean(lisi(graph, labels))), n_types)
            elif metric == "batch_asw":
                scores[metric] = silhouette_batch_asw(values, batches, labels)
            elif metric == "ilisi_score":
                scores[metric] = ilisi_score(float(np.mean(lisi(graph, batches))), n_batches)
            elif metric == "kbet_per_label":
                scores[metric] = kbet_per_label(graph, batches, labels)
            elif metric == "graph_connectivity":
                scores[metric] = graph_connectivity(graph, labels)
            elif metric == "pcr_score":
                scores[metric] = pcr_score(values, batches)
        except ValidationError as exc:
            raise ValidationError(f"{metric}: {exc}") from exc
    return MetricsReport.from_scores(subset, scores, all_labels_isolated=all_isolated)
