"""0-dimensional Vietoris-Rips persistence of a finite metric space.

Sweeping the scale parameter over a point cloud merges connected components
exactly at the edge lengths of a minimum spanning tree of the complete
distance graph, so the finite part of the 0-dimensional barcode is the MST
edge-length multiset: N points yield exactly N - 1 finite bars (the one
essential component never dies and is dropped).

Downstream gradient code differentiates through the endpoints that realize
each bar, so ties must be broken the same way every time.  Edges are ordered
strictly by (length, i, j) with i < j.  Under a strict total order the MST
is unique, so any correct MST algorithm returns the same edges; this module
uses dense O(N^2) Prim, which needs O(N) memory beyond the distance matrix
and no edge sort.  Prim keeps, for each point t outside the tree, its least
edge (p, t) to the tree: a new tree point v replaces p when d[v, t] is
shorter, or equally long with v < p (for a fixed t, equal-length edges order
by the other endpoint).  Among outside points with the least edge length it
adds the one whose edge (min(p, t), max(p, t)) is smallest.  The N - 1 edges
are then sorted by (length, i, j), the order in which Kruskal accepts them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import pairwise_distances


@dataclass
class Bar:
    """One finite bar: its length and the MST edge endpoints realizing it.

    Births are all 0 in dimension 0, so the length *is* the death scale and
    equals the distance matrix entry for (endpoint_a, endpoint_b) exactly.
    """

    length: float
    endpoint_a: int
    endpoint_b: int


@dataclass
class Barcode:
    """All finite 0-dim bars of a cloud; the endpoint pairs span the points."""

    bars: list[Bar]
    n_points: int

    def __post_init__(self):
        if len(self.bars) != self.n_points - 1:
            raise ValueError(
                f"barcode must hold n_points - 1 bars, got {len(self.bars)} for {self.n_points} points"
            )

    def lengths(self) -> np.ndarray:
        return np.array([b.length for b in self.bars], dtype=np.float64)


def vr_barcode_0d(d: np.ndarray) -> Barcode:
    """Finite 0-dimensional barcode of a symmetric distance matrix.

    Builds the MST under the strict (length, i, j) edge order with dense
    Prim and returns its edges sorted by that order; the edge lengths are the
    bar lengths.  Requires N >= 2 and finite entries.
    """
    d = np.asarray(d, dtype=np.float64)
    n = d.shape[0]
    if d.ndim != 2 or d.shape[1] != n:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    if n < 2:
        raise ValueError("need at least 2 points for a non-empty barcode")
    # min and max propagate NaN, so this catches NaN and +-inf without an
    # N x N mask
    if not (np.isfinite(d.min()) and np.isfinite(d.max())):
        raise ValueError("distance matrix has non-finite entries")

    # key[t]: length of the least edge from the tree to outside point t,
    # parent[t]: its tree endpoint; points in the tree hold key +inf
    key = d[0].copy()
    key[0] = np.inf
    parent = np.zeros(n, dtype=np.intp)
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    heads = np.empty(n - 1, dtype=np.intp)
    tails = np.empty(n - 1, dtype=np.intp)
    lengths = np.empty(n - 1, dtype=np.float64)
    for step in range(n - 1):
        t = int(np.argmin(key))
        length = key[t]
        ties = np.flatnonzero(key == length)
        if ties.size > 1:
            p = parent[ties]
            t = int(ties[np.argmin(np.minimum(p, ties) * n + np.maximum(p, ties))])
        heads[step], tails[step], lengths[step] = parent[t], t, length
        key[t] = np.inf
        outside[t] = False
        row = d[t]
        better = (row < key) | ((row == key) & (t < parent))
        better &= outside
        np.copyto(key, row, where=better)
        np.copyto(parent, t, where=better)

    a = np.minimum(heads, tails)
    b = np.maximum(heads, tails)
    order = np.lexsort((b, a, lengths))  # last key is primary
    bars = [
        Bar(length=length, endpoint_a=i, endpoint_b=j)
        for length, i, j in zip(lengths[order].tolist(), a[order].tolist(), b[order].tolist())
    ]
    return Barcode(bars=bars, n_points=n)


def cloud_barcode(cloud) -> Barcode:
    """Barcode of a point cloud under the Euclidean metric."""
    return vr_barcode_0d(pairwise_distances(cloud))
