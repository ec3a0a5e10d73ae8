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
uses dense O(N^2) Prim, which needs no edge sort.  Prim keeps only a key per
point outside the tree, the length of its least edge to the tree, and each
step lowers the keys with one masked minimum against the joining point's
row; no parent array is kept.  For a fixed point t, equal-length edges
order by the other endpoint, so t's edge goes to the smallest-index tree
point at distance key[t].  Among outside points with the least key, Prim
adds the one whose edge (min(p, t), max(p, t)) is smallest.  Such ties are
rare, so each step probes for one before searching: it sets the chosen
point's key to +inf and looks again at the minimum; only when that still
equals the key does it find the tied points' endpoints and compare their
edges.  After the loop one N x N equality test against the bar lengths
recovers every endpoint the same way, as the smallest-index point that
joined earlier at exactly the bar length, which needs an exactly symmetric
matrix.  The N - 1 edges are then sorted by (length, i, j), the order in
which Kruskal accepts them.

A ``Barcode`` stores the bars as three parallel arrays in that order: the
lengths, and the endpoints ``a`` and ``b`` of each edge with a < b.  Callers
slice and index these arrays; ``Barcode.bars`` builds ``Bar`` objects from
them on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Bar:
    """One finite bar: its length and the MST edge endpoints realizing it.

    Births are all 0 in dimension 0, so the length *is* the death scale and
    equals the distance matrix entry for (endpoint_a, endpoint_b) exactly.
    """

    length: float
    endpoint_a: int
    endpoint_b: int


class Barcode:
    """All finite 0-dim bars of a cloud as three parallel read-only arrays.

    ``lengths()`` holds the bar lengths, ``a`` and ``b`` the MST edge
    endpoints with a < b, all in (length, a, b) order.  N points give N - 1
    bars, so ``n_points`` is the bar count plus one.
    """

    def __init__(self, lengths, a, b):
        self._lengths = np.array(lengths, dtype=np.float64)
        self.a = np.array(a, dtype=np.intp)
        self.b = np.array(b, dtype=np.intp)
        if not (self._lengths.ndim == 1 and self._lengths.shape == self.a.shape == self.b.shape):
            raise ValueError(
                "barcode needs 1-D length and endpoint arrays of one size, got shapes "
                f"{self._lengths.shape}, {self.a.shape} and {self.b.shape}"
            )
        for arr in (self._lengths, self.a, self.b):
            arr.flags.writeable = False

    @property
    def n_points(self) -> int:
        return self._lengths.size + 1

    @property
    def bars(self) -> list[Bar]:
        """The bars as ``Bar`` objects, built on each access."""
        return [
            Bar(length=length, endpoint_a=i, endpoint_b=j)
            for length, i, j in zip(self._lengths.tolist(), self.a.tolist(), self.b.tolist())
        ]

    def lengths(self) -> np.ndarray:
        return self._lengths


def vr_barcode_0d(d: np.ndarray) -> Barcode:
    """Finite 0-dimensional barcode of a symmetric distance matrix.

    Builds the MST under the strict (length, i, j) edge order with dense
    Prim and returns its edges sorted by that order; the edge lengths are the
    bar lengths.  Requires N >= 2 and finite entries, and, unchecked, an
    exactly symmetric ``d`` as ``pairwise_distances`` returns: tree endpoints
    are found by exact equality of ``d[t]`` with t's key.  ``d`` is not
    modified.
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

    # key[t]: length of the least edge from the tree to outside point t;
    # points in the tree hold key +inf.  The loop records each joining point
    # and its key; the tree endpoints are recovered after it.
    key = d[0].copy()
    key[0] = np.inf
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    tails = []
    lengths = []
    # argmin stands in for min(): at small N most of a ufunc reduction's
    # time is its set-up
    for _ in range(n - 1):
        t = key.argmin()
        length = key[t]
        key[t] = np.inf
        if key[key.argmin()] == length:
            # another outside point ties: take the smallest (min, max) edge,
            # each candidate's endpoint being its smallest tree point at length
            key[t] = length
            ties = (key == length).nonzero()[0]
            p = ((d[ties] == length) & ~outside).argmax(axis=1)
            t = ties[(np.minimum(p, ties) * n + np.maximum(p, ties)).argmin()]
            key[t] = np.inf
        tails.append(t)
        lengths.append(length)
        outside[t] = False
        np.minimum(key, d[t], out=key, where=outside)

    tails = np.array(tails, dtype=np.intp)
    lengths = np.array(lengths)
    # Row t hits its head at t's bar length, the root's -1 hits nothing: N - 1
    # hits are the heads; else the first hit among earlier joins is t's head.
    bar_len = np.full(n, -1.0)
    bar_len[tails] = lengths
    hit = d == bar_len[:, None]
    if np.count_nonzero(hit) != n - 1:
        rank = np.zeros(n, dtype=np.intp)  # join order; the root is 0
        rank[tails] = np.arange(1, n)
        hit &= rank < rank[:, None]
    heads = hit.argmax(axis=1)[tails]
    a = np.minimum(heads, tails)
    b = np.maximum(heads, tails)
    order = np.lexsort((b, a, lengths))  # last key is primary
    return Barcode(lengths[order], a[order], b[order])
