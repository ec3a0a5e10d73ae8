"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: scalar loops, exhaustive enumeration,
textbook algorithms.  Nothing is shared with the package under test, so a
bug has to appear twice (and identically) to go unnoticed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def scalar_distance_matrix(points) -> np.ndarray:
    """Elementwise sqrt-of-sum-of-squares distances, pure Python."""
    points = [list(map(float, row)) for row in points]
    n = len(points)
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for a, b in zip(points[i], points[j]):
                acc += (a - b) ** 2
            d[i][j] = math.sqrt(acc)
    return np.array(d)


def single_linkage_heights(dist) -> list[float]:
    """Merge heights of naive O(N^3) single-linkage agglomeration, sorted."""
    dist = np.asarray(dist, dtype=float)
    clusters = [{i} for i in range(dist.shape[0])]
    heights = []
    while len(clusters) > 1:
        best = (math.inf, -1, -1)
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                h = min(dist[i, j] for i in clusters[a] for j in clusters[b])
                if h < best[0]:
                    best = (h, a, b)
        h, a, b = best
        heights.append(float(h))
        clusters[a] |= clusters[b]
        del clusters[b]
    return sorted(heights)


def prim_mst_weight(dist) -> float:
    """Total MST weight by Prim's algorithm with linear scans."""
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    in_tree = [False] * n
    cost = [math.inf] * n
    cost[0] = 0.0
    total = 0.0
    for _ in range(n):
        u = min((c, i) for i, c in enumerate(cost) if not in_tree[i])[1]
        in_tree[u] = True
        total += cost[u]
        for v in range(n):
            if not in_tree[v] and dist[u, v] < cost[v]:
                cost[v] = dist[u, v]
    return total


def kruskal_bars(dist) -> list[tuple[float, int, int]]:
    """MST edges (length, i, j), i < j, by Kruskal under the (length, i, j) order.

    Edges are accepted in that order, so the list comes out sorted by it.
    """
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    edges = sorted((float(dist[i, j]), i, j) for i in range(n) for j in range(i + 1, n))
    component = list(range(n))

    def root(v):
        while component[v] != v:
            v = component[v]
        return v

    bars = []
    for length, i, j in edges:
        ri, rj = root(i), root(j)
        if ri != rj:
            component[rj] = ri
            bars.append((length, i, j))
    return bars


def entropy_grad_loop(x, bars, eps) -> np.ndarray:
    """Entropy gradient scattered bar by bar: grad[a] += g*dir, grad[b] -= g*dir.

    ``bars`` lists the active (length, a, b) triples.  dE/dl is evaluated as
    the closed form in the regularizer's docstring with the same numpy
    expressions, so only the scatter differs and the sums compare bitwise.
    """
    x = np.asarray(x, dtype=float)
    clamped = np.maximum(np.array([length for length, _, _ in bars]), eps)
    s = float(clamped.sum())
    dE_dl = (-np.log(clamped) + (clamped * np.log(clamped)).sum() / s) / s
    grad = np.zeros_like(x)
    for g, (length, a, b) in zip(dE_dl, bars):
        direction = (x[a] - x[b]) / max(length, eps)
        grad[a] += g * direction
        grad[b] -= g * direction
    return grad


def prufer_to_edges(seq, n) -> list[tuple[int, int]]:
    """Decode a Pruefer sequence into the labeled tree's edge list."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (i for i in range(n) if degree[i] == 1)
    edges.append((u, w))
    return edges


def all_spanning_trees(n):
    """Yield the edge lists of all n**(n-2) labeled trees on n vertices."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_to_edges(seq, n)


def scalar_forward(weights, biases, batch, rep_layer_index):
    """Triple-loop MLP forward pass: tanh hidden, identity output."""
    h = [list(map(float, row)) for row in batch]
    reps = None
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        out = []
        for row in h:
            orow = []
            for j in range(len(b)):
                acc = float(b[j])
                for i, xi in enumerate(row):
                    acc += xi * float(w[i][j])
                orow.append(acc)
            out.append(orow)
        if l != last:
            out = [[math.tanh(v) for v in row] for row in out]
        if l == rep_layer_index:
            reps = out
        h = out
    return h, reps


def scalar_adam_trajectory(x0, grad_fn, lrs, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam on a list-of-floats parameter vector; returns each iterate."""
    x = list(map(float, x0))
    m = [0.0] * len(x)
    v = [0.0] * len(x)
    trajectory = []
    for t, lr in enumerate(lrs, start=1):
        g = grad_fn(x)
        for i in range(len(x)):
            m[i] = beta1 * m[i] + (1 - beta1) * g[i]
            v[i] = beta2 * v[i] + (1 - beta2) * g[i] * g[i]
            if weight_decay:
                x[i] *= 1.0 - lr * weight_decay
            mh = m[i] / (1 - beta1**t)
            vh = v[i] / (1 - beta2**t)
            x[i] -= lr * mh / (math.sqrt(vh) + eps)
        trajectory.append(list(x))
    return trajectory


def entropy_formula(lengths) -> float:
    """-sum(p log p) written out directly."""
    s = float(sum(lengths))
    acc = 0.0
    for l in lengths:
        if l > 0:
            acc -= (l / s) * math.log(l / s)
    return acc
