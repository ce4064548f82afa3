"""Independent brute-force reference computations used as test oracles.

Everything here is written against the mathematical definition with plain
loops (or a different library routine), never by calling the code under test.
"""

import math

import numpy as np


def elementwise_adapter(values, batch_rows, gamma, beta):
    """Scalar-loop version of the per-batch affine transform."""
    n, d = values.shape
    out = np.empty((n, d))
    for i in range(n):
        r = batch_rows[i]
        for j in range(d):
            out[i, j] = gamma[r][j] * values[i][j] + beta[r][j]
    return out


def fd_gradient(fn, params, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    params = np.asarray(params, dtype=np.float64)
    grad = np.empty_like(params)
    for i in range(len(params)):
        hi = params.copy()
        lo = params.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (fn(hi) - fn(lo)) / (2 * h)
    return grad


def closed_form_minimizer(z, anchor_gamma, anchor_beta, mu, lam,
                          target_scale=1.0, target_shift=0.0):
    """Exact minimizer of the one-dimensional local objective.

    For one coordinate the objective is quadratic in (gamma, beta); setting
    both partial derivatives to zero gives a 2x2 linear system. The
    reconstruction target is ``target_scale * z + target_shift`` (the cells
    themselves by default).
    """
    z = np.asarray(z, dtype=np.float64)
    s1 = float(np.mean(z))
    s2 = float(np.mean(z * z))
    a = np.array([[s2 + mu + lam, s1], [s1, 1.0 + mu + lam]])
    rhs = np.array([target_scale * s2 + target_shift * s1 + mu * anchor_gamma,
                    target_scale * s1 + target_shift + mu * anchor_beta])
    g, b = np.linalg.solve(a, rhs)
    return float(g), float(b)


def slow_nmi(a, b):
    n = len(a)
    pairs = {}
    ca, cb = {}, {}
    for x, y in zip(a, b):
        pairs[(x, y)] = pairs.get((x, y), 0) + 1
        ca[x] = ca.get(x, 0) + 1
        cb[y] = cb.get(y, 0) + 1

    def entropy(counts):
        return -sum((c / n) * math.log(c / n) for c in counts.values() if c)

    ha, hb = entropy(ca), entropy(cb)
    if ha + hb == 0:
        return 1.0
    mi = 0.0
    for (x, y), c in pairs.items():
        p = c / n
        mi += p * math.log(p / ((ca[x] / n) * (cb[y] / n)))
    return 2 * mi / (ha + hb)


def slow_ari(a, b):
    """Pair-counting ARI over all O(n^2) pairs via the 2x2 pair table."""
    n = len(a)
    n11 = n10 = n01 = n00 = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = a[i] == a[j]
            sb = b[i] == b[j]
            if sa and sb:
                n11 += 1
            elif sa:
                n10 += 1
            elif sb:
                n01 += 1
            else:
                n00 += 1
    num = 2 * (n11 * n00 - n10 * n01)
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0:
        return 1.0
    return num / den


def slow_silhouette(values, codes, rows=None):
    """Per-cell silhouettes, of ``rows`` only when given (all cells by default)."""
    values = np.asarray(values, dtype=np.float64)
    n = len(codes)
    rows = range(n) if rows is None else list(rows)
    s = np.zeros(len(rows))
    for r, i in enumerate(rows):
        same = [j for j in range(n) if codes[j] == codes[i] and j != i]
        if not same:
            continue
        a = np.mean([math.dist(values[i], values[j]) for j in same])
        b = math.inf
        for g in set(codes):
            if g == codes[i]:
                continue
            others = [j for j in range(n) if codes[j] == g]
            b = min(b, np.mean([math.dist(values[i], values[j]) for j in others]))
        m = max(a, b)
        s[r] = 0.0 if m == 0 else (b - a) / m
    return s


def slow_knn(values, k, rows=None):
    """Neighbor lists by sorting full distance lists per point, of ``rows``
    only when given (all points by default)."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    out = []
    for i in range(n) if rows is None else rows:
        dists = sorted(
            (math.dist(values[i], values[j]), j) for j in range(n) if j != i
        )
        out.append([j for _, j in dists[:k]])
    return out



def gram_sq_dists(values):
    """Squared distances in the Gram form ``(|x|^2 + |y|^2) - (2x) @ y.T``,
    clamped at 0, with each row's self entry set to inf.

    This is the kNN sweep's own rounding when all rows fit in one block, so
    a neighbor selection can be checked bit for bit on arbitrary floats.
    """
    values = np.asarray(values, dtype=np.float64)
    sq = np.sum(values * values, axis=1)
    d2 = np.maximum((sq[:, None] + sq[None, :]) - (2.0 * values) @ values.T, 0.0)
    d2[np.arange(len(values)), np.arange(len(values))] = np.inf
    return d2


def lexsort_knn(d2, k):
    """Each row's first k columns after a full sort by (distance, index)."""
    index = np.broadcast_to(np.arange(d2.shape[1]), d2.shape)
    return np.lexsort((index, d2), axis=1)[:, :k]


def assign_by_broadcast(values, centers):
    """Nearest-center labels and squared distances from one (n, k, d)
    difference tensor; argmin keeps the first of tied centers."""
    d2 = np.sum((values[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(values)), labels]

def slow_lisi(neighbor_lists, codes):
    out = []
    for nbrs in neighbor_lists:
        counts = {}
        for j in nbrs:
            counts[codes[j]] = counts.get(codes[j], 0) + 1
        k = len(nbrs)
        simpson = sum((c / k) ** 2 for c in counts.values())
        out.append(1.0 / simpson)
    return np.array(out)


def slow_connectivity(neighbor_lists, labels):
    """Union-find over the symmetrized edges, per label."""
    n = len(labels)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    edges = set()
    for i, nbrs in enumerate(neighbor_lists):
        for j in nbrs:
            edges.add((min(i, j), max(i, j)))

    scores = []
    for lab in dict.fromkeys(labels):
        nodes = [i for i in range(n) if labels[i] == lab]
        parent = list(range(n))
        node_set = set(nodes)
        for i, j in edges:
            if i in node_set and j in node_set:
                union(i, j)
        sizes = {}
        for i in nodes:
            r = find(i)
            sizes[r] = sizes.get(r, 0) + 1
        scores.append(max(sizes.values()) / len(nodes))
    return float(np.mean(scores))


def slow_pcr(values, batches, max_components=50):
    """Per-component R^2 from explicit pseudo-inverse normal equations."""
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
    centered = values - values.mean(axis=0)
    # principal axes from SVD (different route than a covariance eigh)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    m = min(d, max_components)
    comps = centered @ vt[:m].T
    batch_order = list(dict.fromkeys(batches))
    design = np.stack([(np.asarray(batches) == b).astype(float) for b in batch_order], axis=1)
    pinv = np.linalg.pinv(design)
    r2 = []
    for j in range(m):
        t = comps[:, j]
        fitted = design @ (pinv @ t)
        ss_tot = np.sum((t - t.mean()) ** 2)
        r2.append(0.0 if ss_tot == 0 else 1.0 - np.sum((t - fitted) ** 2) / ss_tot)
    return 1.0 - float(np.mean(r2))


def best_two_partition_inertia(values):
    """Exhaustive minimum-inertia 2-partition of up to ~16 points."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    best = (math.inf, None)
    for mask in range(1, 2 ** (n - 1)):  # fix point 0 in cluster 0
        sel = [(mask >> i) & 1 for i in range(n)]
        g0 = values[[i for i in range(n) if not sel[i]]]
        g1 = values[[i for i in range(n) if sel[i]]]
        if len(g1) == 0:
            continue
        inertia = np.sum((g0 - g0.mean(axis=0)) ** 2) + np.sum((g1 - g1.mean(axis=0)) ** 2)
        if inertia < best[0]:
            best = (float(inertia), sel)
    return best


def full_table_fold(client_params, mode, base):
    """The table-based aggregation fold that ``aggregate`` replaced, kept
    as its oracle; returns the folded ``(gamma, beta)`` tables.

    ``client_params`` is a list of ``(batch_name, gamma_table, beta_table,
    n_b)`` with full B x d tables per client. full-table mode takes the
    n_b-weighted mean of every entry, clamped to the [min, max] envelope of
    the submissions; row-restricted mode takes each batch's row from its
    owning client. Frozen rows of ``base`` pass through unchanged. Only the
    error classes and the return value differ from the original, so that
    this module imports nothing from the package.
    """
    if mode not in ("full-table", "row-restricted"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    if not client_params:
        raise ValueError("aggregate needs at least one client")
    owners, tables, weights = [], [], []
    for name, gtab, btab, n_b in client_params:
        gtab = np.asarray(gtab, dtype=np.float64)
        btab = np.asarray(btab, dtype=np.float64)
        if gtab.shape != (base.n_batches, base.d) or btab.shape != gtab.shape:
            raise ValueError(
                f"client {name!r} submitted tables of shape {gtab.shape}, "
                f"expected {(base.n_batches, base.d)}"
            )
        if n_b < 1:
            raise ValueError(f"client {name!r} has weight {n_b} < 1")
        owners.append(base.batch_names.index(name))
        tables.append((gtab, btab))
        weights.append(float(n_b))
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("zero total aggregation weight")

    stack = np.array(tables)  # (clients, 2, B, d): gamma and beta tables per client
    base_tables = np.array([base.gamma, base.beta])
    if mode == "full-table":
        w = np.array(weights)[:, None, None, None]
        new = np.clip(np.sum(w * stack, axis=0) / total, stack.min(axis=0), stack.max(axis=0))
    else:
        new = base_tables.copy()
        for ci, row in enumerate(owners):
            new[:, row] = stack[ci, :, row]
    frozen_rows = np.flatnonzero(base.frozen)
    new[:, frozen_rows] = base_tables[:, frozen_rows]
    return new[0], new[1]


def row_tables(base, name, gamma_row, beta_row):
    """``base``'s (gamma, beta) tables with batch ``name``'s row replaced:
    the full tables a client that edits only its own row stands for."""
    row = base.batch_names.index(name)
    gamma, beta = np.array(base.gamma), np.array(base.beta)
    gamma[row], beta[row] = gamma_row, beta_row
    return gamma, beta


def reference_kmeans(values, k, seed, restarts=10, max_iter=300, tol=1e-6):
    """The k-means that the certified prefilter replaced, kept as its
    oracle: k-means++ seeding, then Lloyd iterations that compute every
    cell's exact squared distance to every center, one center at a time.
    Only the error class differs from the original, so that this module
    imports nothing from the package. Returns ``(labels, inertia)``."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k = {k} outside [1, {n}]")

    def kmeans_pp(rng):
        centers = np.empty((k, values.shape[1]))
        centers[0] = values[int(rng.integers(n))]
        d2 = np.sum((values - centers[0]) ** 2, axis=1)
        for j in range(1, k):
            total = d2.sum()
            if total > 0:
                idx = int(rng.choice(n, p=d2 / total))
            else:
                idx = int(rng.integers(n))
            centers[j] = values[idx]
            d2 = np.minimum(d2, np.sum((values - centers[j]) ** 2, axis=1))
        return centers

    def assign(centers):
        d2 = np.empty((len(centers), n))
        diff = np.empty(values.shape)
        for c, center in enumerate(centers):
            np.subtract(values, center, out=diff)
            np.multiply(diff, diff, out=diff)
            np.sum(diff, axis=1, out=d2[c])
        labels = np.argmin(d2, axis=0)
        return labels, d2[labels, np.arange(n)]

    def lloyd(centers):
        centers = centers.copy()
        for _ in range(max_iter):
            labels, min_d2 = assign(centers)
            new_centers = centers.copy()
            for c in range(k):
                mask = labels == c
                if mask.any():
                    new_centers[c] = values[mask].mean(axis=0)
                elif min_d2.max() > 0.0:  # else every cell sits on a center: keep it
                    new_centers[c] = values[int(np.argmax(min_d2))]
            shift = float(np.max(np.sqrt(np.sum((new_centers - centers) ** 2, axis=1))))
            centers = new_centers
            if shift < tol:
                break
        labels, min_d2 = assign(centers)
        return labels, float(np.sum(min_d2))

    best_labels, best_inertia = None, np.inf
    for r in range(restarts):
        rng = np.random.default_rng([int(seed), 303, r])  # metrics._KMEANS_STREAM
        labels, inertia = lloyd(kmeans_pp(rng))
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, float(best_inertia)
