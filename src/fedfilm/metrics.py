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

import contextvars
import ctypes
import math
import threading
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import (_ROW_CHUNK, CellMetadata, EmbeddingMatrix, ValidationError, encode_groups,
                   usable_cpus)
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

# fixed reference-protocol values: Lloyd's iteration cap and the center shift
# that ends it, kBET's acceptance level, and the components PCR regresses
_LLOYD_ITERATIONS = 300
_LLOYD_TOL = 1e-6
_KBET_ALPHA = 0.05
_PCR_COMPONENTS = 50


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

    neighbors: np.ndarray  # (N, k) int row indices

    def __post_init__(self):
        nbrs = np.asarray(self.neighbors, dtype=np.intp)
        if nbrs.ndim != 2:
            raise ValidationError("neighbor lists must form a 2-D array")
        object.__setattr__(self, "neighbors", nbrs)

    @property
    def n(self) -> int:
        return self.neighbors.shape[0]

    @property
    def k(self) -> int:
        return self.neighbors.shape[1]


# ---------------------------------------------------------------------------
# CPU threads

# the thread-count functions of numpy's OpenBLAS wheels, then of a plain OpenBLAS
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@cache
def _openblas_controls() -> tuple:
    """``(get, set)`` thread-count functions of each OpenBLAS loaded into
    this process, numpy's among them: none without ``/proc/self/maps`` or
    when numpy uses another BLAS."""
    controls = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = dict.fromkeys(line.split(maxsplit=5)[-1].rstrip("\n")
                                  for line in maps if "openblas" in line)
        for path in paths:
            lib = ctypes.CDLL(path)  # the loaded library's handle, not a second copy
            for get, put in _OPENBLAS_THREAD_FUNCTIONS:
                if hasattr(lib, get) and hasattr(lib, put):
                    get, put = getattr(lib, get), getattr(lib, put)
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    controls.append((get, put))
                    break
    except OSError:
        return ()
    return tuple(controls)


@cache
def _malloc_trim():
    """glibc's ``malloc_trim``, which hands the free pages of every malloc
    heap back to the system, or None where the C library has none (macOS,
    musl)."""
    try:
        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    except (OSError, TypeError):  # no handle on this process's own symbols
        return None
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


# process-wide, as the BLAS thread counts they stand for are
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_saved: list = []


def _in_lanes(items, work) -> list:
    """Run ``work(items[i::lanes], lanes)`` on each lane i, which returns the
    results of its items in turn, and return every item's result in item
    order.

    There is a lane per usable CPU, up to one per item, while every OpenBLAS
    is held to one thread, and one lane when none can be held. Lane 0 runs
    on this thread, the others on pool threads, each in a copy of this
    thread's context so that ``np.errstate`` holds there too. The threads are
    joined before the call returns, also when it fails, and the BLAS thread
    counts are restored when the last of the nested or concurrent calls
    leaves: after a call on several threads an idle OpenBLAS worker
    busy-waits for about 0.14 s, so a lane beside it would share its core
    with that spin. That last call also hands the free memory of every
    malloc heap back to the system where the C library can (glibc): the
    lanes' panels and scratch buffers are freed into the heap of the thread
    that ran them, which would otherwise keep them resident.
    """
    # imported here, not with the module: it adds about 8 ms to every command's start
    from concurrent.futures import ThreadPoolExecutor

    global _blas_holders, _blas_saved
    controls = _openblas_controls()
    lanes = min(usable_cpus(), len(items)) if controls and items else 1
    with _blas_lock:
        if not _blas_holders:
            _blas_saved = [get() for get, _ in controls]
            for _, put in controls:
                put(1)
        _blas_holders += 1
    try:
        with ThreadPoolExecutor(max(1, lanes - 1)) as pool:
            futures = [pool.submit(contextvars.copy_context().run, work, items[i::lanes], lanes)
                       for i in range(1, lanes)]
            runs = [work(items[::lanes], lanes)] + [future.result() for future in futures]
    finally:
        with _blas_lock:
            _blas_holders -= 1
            last = not _blas_holders
            if last:
                for (_, put), count in zip(controls, _blas_saved):
                    put(count)
        if last and (trim := _malloc_trim()) is not None:
            trim(0)
    results = [None] * len(items)
    for i, run in enumerate(runs):
        results[i::lanes] = run
    return results


def _panel_rows(n: int, width: int) -> int:
    """Rows of each panel of distances when an (n, n) sweep whose products
    are at least ``width`` wide is cut into panels: the fewest whole 32-row
    chunks whose products, rows x n x width, reach _PRODUCT_FLOOR."""
    return _CHUNK_ROWS * -(-_PRODUCT_FLOOR // (_CHUNK_ROWS * max(n * width, 1)))


def _panel_plan(n: int, width: int) -> list[int]:
    """The sweep's panel cuts ``[0, per, 2 per, ..., n]``, ``per =
    _panel_rows(n, width)``: a remainder shorter than one panel joins the
    last.

    The cuts depend on ``n`` and ``width`` alone, so every product the sweep
    runs has the same shape on any CPU count. Every panel is ``per`` rows
    but the last, which is under ``2 per``. Each lane holds one panel
    buffer, so ``lanes`` lanes hold fewer than ``(lanes + 1) * per * n``
    distances, where ``per * n < 2^20 / width + 32 n``.
    """
    per = _panel_rows(n, width)
    return list(range(0, max(n - per, 0) + 1, per)) + [n]


def _distance_sweep(values, k: int | None, codes):
    """The one blocked pass over all pairwise Euclidean distances.

    Returns ``(neighbors, silhouette)``: the (N, k) nearest-neighbor lists,
    self excluded and ties broken by the lower row index, when ``k`` is
    given, and the per-cell silhouette of the grouping ``codes`` when those
    are given; the entry not asked for is None. Each panel of rows has its
    squared distances built once, in place in its lane's reused buffer, and
    feeds both.
    """
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
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

    def lane(spans, lanes):
        """Rows lo to hi of each of ``spans`` in turn, each in this lane's
        own panel; the lanes' chunks together are _CHUNK_ROWS tall, as one
        lane's are."""
        chunk_rows = min(max(1, _CHUNK_ROWS // lanes), n)
        panel = np.empty((max(hi - lo for lo, hi in spans), n))
        pair_sq = np.empty((chunk_rows, n))
        # a spent chunk of pair sums, reused as the mask of entries to clamp
        spent = pair_sq.reshape(-1).view(np.bool_)
        for lo, hi in spans:
            d2 = np.matmul(2.0 * values[lo:hi], values.T, out=panel[:hi - lo])
            for a in range(lo, hi, chunk_rows):
                b = min(a + chunk_rows, hi)
                own = (np.arange(b - a), np.arange(a, b))  # each row's self entry
                # (|x|^2 + |y|^2) - (2x) @ y.T, rounded exactly as the unbuffered form
                chunk = d2[a - lo:b - lo]
                np.subtract(np.add(sq[a:b, None], sq[None, :], out=pair_sq[:b - a]),
                            chunk, out=chunk)
                # np.maximum(chunk, 0.0) bit for bit (-0.0 to +0.0, nan kept), and cheaper
                np.copyto(chunk, 0.0, where=np.less_equal(
                    chunk, 0.0, out=spent[:chunk.size].reshape(chunk.shape)))
                if neighbors is not None:
                    chunk[own] = np.inf
                    neighbors[a:b] = _nearest(chunk, k)
                if sums is not None:
                    chunk[own] = 0.0
                    np.sqrt(chunk, out=chunk)
            if sums is not None:
                np.matmul(d2, onehot, out=sums[lo:hi])
        return [None] * len(spans)  # the panels' rows are written in place

    # a panel's products are rows x d x n and, with a silhouette, rows x n x groups;
    # panel i runs on lane i % lanes, and the lanes meet only at the end
    cuts = _panel_plan(n, d if sums is None else min(d, sums.shape[1]))
    _in_lanes(list(zip(cuts, cuts[1:])), lane)
    silhouette = None if sums is None else _silhouette_from_sums(sums, coded)
    return neighbors, silhouette


# rows finished at a time after a panel's matmul: a chunk stays in cache from
# assembly through selection and sqrt, and _nearest's (rows, N) candidate
# mask stays small enough to be reused from the heap
_CHUNK_ROWS = 32

# OpenBLAS runs a product of m * n * k up to 10^6 on its small-matrix path,
# which rounds differently. A panel whose rows x n x width reach this keeps
# both of its products (rows x d x n and rows x n x groups) off it, width
# being the smaller of d and groups; off it, a panel's height moves at most
# the last bit of its last rows' distances in the last n mod 8 columns
_PRODUCT_FLOOR = 1 << 20

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
    return NeighborGraph(neighbors)


# ---------------------------------------------------------------------------
# clustering

def kmeans(values, k: int, seed: int, restarts: int = 10):
    """Lloyd's algorithm with k-means++ seeding.

    Runs ``restarts`` seeded initializations and keeps the lowest-inertia
    solution. Deterministic given ``seed``. Returns ``(labels, inertia)``.
    Each lane of restarts holds one scratch buffer of ``_ROW_CHUNK`` rows
    (fewer for fewer cells) in which the exact distances are formed.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > n:
        raise ValidationError(f"k = {k} exceeds the cell count {n}")
    if restarts < 1:
        raise ValidationError(f"k-means restarts = {restarts} must be >= 1")
    if seed < 0:
        raise ValidationError(f"k-means seed = {seed} must be >= 0")
    if not np.isfinite(values).all():
        raise ValidationError("k-means needs finite values")
    sq = np.einsum("ij,ij->i", values, values)  # |x|^2, shared by every restart

    def restarts_in(lane, lanes):
        buf = np.empty((min(_ROW_CHUNK, n), values.shape[1]))  # this lane's row-chunk scratch
        runs = []
        for r in lane:
            rng = np.random.default_rng([int(seed), _KMEANS_STREAM, r])
            centers = _kmeans_pp(values, k, rng, buf)
            runs.append(_lloyd(values, sq, centers, buf))
        return runs

    # the prefilter's labels are certified and the exact sums use no BLAS, so
    # no result depends on the lane a restart runs on; min keeps the first
    # restart with the lowest inertia (which may overflow to inf)
    return min(_in_lanes(range(restarts), restarts_in), key=lambda run: run[1])


def _kmeans_pp(values, k, rng, buf):
    """k-means++ seeding; ``buf`` is a row-chunk scratch buffer of
    ``values``' width.

    Raises when the squared distances that weigh the draws overflow, since
    they give no probabilities then.
    """
    n = values.shape[0]
    centers = np.empty((k, values.shape[1]))
    centers[0] = values[int(rng.integers(n))]
    d2 = None
    for j in range(1, k):
        with np.errstate(over="ignore"):
            step = _sq_dist(values, centers[j - 1], buf)
            d2 = step if d2 is None else np.minimum(d2, step, out=d2)
            total = d2.sum()
        if not np.isfinite(total):
            raise ValidationError("k-means++ squared distances overflow: the total "
                                  "squared distance to the centers is not finite")
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all remaining mass at distance zero (duplicate points)
            idx = int(rng.integers(n))
        centers[j] = values[idx]
    return centers


def _sq_dist(values, center, buf, out=None):
    """Each row's exact squared distance to ``center``, written into ``out``
    (a new length-n array when None) and returned.

    The rows are formed ``len(buf)`` at a time in ``buf``, a scratch buffer
    of ``values``' width, each as one contiguous length-d sum: the sum a
    broadcast (n, k, d) difference tensor reduces, so the bits depend
    neither on how many centers are done at once nor on the chunk size.
    ``center`` is one row, or one row per row of ``values`` when ``buf``
    holds them all.
    """
    n = len(values)
    out = np.empty(n) if out is None else out
    for lo in range(0, n, len(buf)):
        hi = min(lo + len(buf), n)
        part = buf[:hi - lo]
        np.subtract(values[lo:hi], center, out=part)
        np.multiply(part, part, out=part)
        np.sum(part, axis=1, out=out[lo:hi])
    return out


def _exact_labels(values, centers, buf):
    """Nearest-center labels from the exact squared distances, one center at
    a time through ``buf`` (a row-chunk scratch buffer); ties go to the
    first center."""
    d2 = np.empty((len(centers), len(values)))
    for c, center in enumerate(centers):
        _sq_dist(values, center, buf, d2[c])
    return np.argmin(d2, axis=0)


def _nearest_center(values, sq, centers, buf):
    """The labels ``_exact_labels`` gives, decided for most rows by one
    matrix product; ``sq`` holds the rows' squared norms and ``buf`` is a
    row-chunk scratch buffer of ``values``' width.

    The product gives A = |x|^2 + |c|^2 - 2 x.c for every (row, center). With
    u = 2^-53, eta = 2^-1074 (the subnormal spacing), S = |x|^2 + |c|^2 and
    P = sum_i |x_i c_i| <= S / 2, and with no overflow:
    - |x|^2, |c|^2 and x.c are d-term sums, in whatever order and with or
      without FMA the BLAS uses, so each is off by at most gamma_d times its
      sum of absolute terms (gamma_m = m u / (1 - m u)); the two additions
      forming A add u each. So |A - D| <= (d + 2) u (S + 2P), to first
      order, where D is the true squared distance.
    - ``_exact_labels``' distance is a sum of d nonnegative rounded squares
      of rounded differences: it is off from D by at most
      gamma_(d+2) D <= (d + 2) u (S + 2P).
    - Products and squares that underflow add at most eta / 2 each: about
      2.5 d eta over both paths (a subnormal addition is exact).
    With M = max(|x|^2, max_c |c|^2), S + 2P <= 2 S <= 4 M, so every A is
    within 8 (d + 2) (u M + eta) of the exact distance. ``delta`` doubles
    that for the second-order terms and the rounding of M itself. When a
    row's smallest A beats its second smallest by more than 2 delta, every
    other center's exact distance is above the chosen one's, so the argmin
    agrees, ties included. ``delta`` stays finite while |x|^2 and |c|^2 do,
    but an overflow anywhere in forming A leaves an inf or nan entry. Such
    rows, rows whose gap is within 2 delta (or nan), and every row when
    there is a single center take the exact loop.
    """
    n, d = values.shape
    rows = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        csq = np.einsum("ij,ij->i", centers, centers)
        approx = centers @ values.T  # (k, n): reductions over centers run along rows
        approx *= -2.0
        approx += sq
        approx += csq[:, None]
        finite = np.isfinite(approx).all(axis=0)
        labels = np.argmin(approx, axis=0)
        first = approx[labels, rows]
        approx[labels, rows] = np.inf
        gap = np.min(approx, axis=0) - first
        delta = (16.0 * (d + 2)) * (2.0 ** -53 * np.maximum(sq, np.max(csq)) + 2.0 ** -1074)
        exact = ~(gap > 2.0 * delta) | ~finite | (len(centers) == 1)
    redo = np.flatnonzero(exact)
    # gathered a chunk at a time: every row takes this path when k = 1
    for lo in range(0, len(redo), len(buf)):
        rows = redo[lo:lo + len(buf)]
        labels[rows] = _exact_labels(values[rows], centers, buf)
    return labels


def _center_d2(values, centers, labels, buf):
    """Exact squared distance of each row to its labeled center: ``_sq_dist``
    against the labeled centers, gathered ``len(buf)`` rows at a time into
    ``buf``, a row-chunk scratch buffer of ``values``' width."""
    n = len(values)
    out = np.empty(n)
    for lo in range(0, n, len(buf)):
        hi = min(lo + len(buf), n)
        part = buf[:hi - lo]
        # mode "clip" writes straight into part; "raise" first gathers into a copy
        np.take(centers, labels[lo:hi], axis=0, out=part, mode="clip")
        _sq_dist(values[lo:hi], part, part, out[lo:hi])
    return out


def _assign(values, sq, centers, buf):
    """Nearest-center labels and squared distances, bit for bit those of the
    exact per-center distances; ties go to the first center."""
    labels = _nearest_center(values, sq, centers, buf)
    return labels, _center_d2(values, centers, labels, buf)


def _lloyd(values, sq, centers, buf):
    centers = centers.copy()
    k = centers.shape[0]
    for _ in range(_LLOYD_ITERATIONS):
        labels = _nearest_center(values, sq, centers, buf)
        min_d2 = None
        new_centers = centers.copy()
        for c in range(k):
            mask = labels == c
            if mask.any():
                new_centers[c] = values[mask].mean(axis=0)
            else:
                # re-seed an empty cluster at the worst-fit point, unless that
                # point sits on a center: a duplicate center would trade cells
                # with its twin every iteration, so the center stays put
                if min_d2 is None:
                    min_d2 = _center_d2(values, centers, labels, buf)
                worst = int(np.argmax(min_d2))
                if min_d2[worst] > 0.0:
                    new_centers[c] = values[worst]
        shift = float(np.max(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1))))
        centers = new_centers
        if shift < _LLOYD_TOL:
            break
    labels, min_d2 = _assign(values, sq, centers, buf)
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

    def mixing(item, lanes):
        scores = []
        for lab in range(len(label_order)):
            mask = labels == lab
            sub_batches = batches[mask]
            if np.all(sub_batches == sub_batches[0]):
                continue
            s = silhouette_samples(values[mask], sub_batches)
            scores.append(float(np.mean(1.0 - np.abs(s))))
        return [scores]

    # one item, run on this thread: every label's sweep nests in this call,
    # so the heaps are handed back once, after the last label
    per_label = _in_lanes([None], mixing)[0]
    return float(np.mean(per_label)) if per_label else 1.0


# ---------------------------------------------------------------------------
# neighborhood composition

def lisi(graph: NeighborGraph, codes) -> np.ndarray:
    """Per-cell inverse Simpson index of the k-neighborhood composition.

    Neighborhood proportions are uniform over the graph's k nearest
    neighbors, self excluded.
    """
    groups, coded = encode_groups(codes)
    p = _neighbor_counts(graph, coded, len(groups)) / graph.k
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


def kbet_per_label(graph: NeighborGraph, batches, labels) -> float:
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
            accepts[u] = chi2_sf(stat, df) >= _KBET_ALPHA
        per_label.append(int(np.count_nonzero(accepts[inverse])) / len(inverse))
    return float(np.mean(per_label))


# ---------------------------------------------------------------------------
# graph connectivity

def graph_connectivity(graph: NeighborGraph, labels) -> float:
    """Average over labels of the largest-connected-component fraction of the
    label-induced subgraph on the symmetrized kNN edges."""
    groups, coded = encode_groups(labels)
    src = np.repeat(np.arange(graph.n), graph.k)
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

def pcr_score(values, batches) -> float:
    """1 minus the mean R^2 of regressing each of the first 50 principal
    components' scores on one-hot batch indicators. The least-squares fit on
    such indicators is each batch's mean score, so the fitted values are
    per-batch means.

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
    m = min(d, _PCR_COMPONENTS)
    comps = centered @ axes[:, :m]

    counts = np.bincount(batches)
    r2 = np.zeros(m)
    for j in range(m):
        t = comps[:, j]
        ss_tot = float(np.sum((t - t.mean()) ** 2))
        if ss_tot == 0.0:
            continue
        fitted = (np.bincount(batches, weights=t) / counts)[batches]
        ss_res = float(np.sum((t - fitted) ** 2))
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
            graph = NeighborGraph(neighbors)

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
