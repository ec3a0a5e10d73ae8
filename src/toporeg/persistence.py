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
point, the length of its least edge to the tree, with NaN at tree points:
minimum keeps a NaN, so each step lowers the keys with the joining point's
row in one unmasked ufunc, and no parent array is kept.  The next point is
the argmin of the keys' int64 view, in which nonnegative doubles keep their
float order and the positive quiet NaN sorts above all of them, so a tree
point is never chosen; -0.0 sorts first.  For a fixed point t, equal-length
edges order by the other endpoint, so t's edge goes to the smallest-index
tree point at distance key[t].  Among outside points with the least key, Prim
adds the one whose edge (min(p, t), max(p, t)) is smallest.  Such ties are
rare, so each step probes for one before searching: it marks the chosen
point's key NaN and looks again at the minimum; only when that still equals
the key (a float test, so -0.0 ties +0.0) does it find the tied points'
endpoints and compare their edges.  The loop runs N - 1 times whatever the
entries hold and raises on none, so the entries are checked after it, in
one pass over blocks of rows that also recovers every endpoint the same
way, as the smallest-index point that joined earlier at exactly that
length: each block is checked for negative and non-finite entries, compared
with the keys, and each row's first hit kept.  Only when the hits do not
number N - 1 are the rows whose first hit did not join earlier read again.
Each tree edge must then hold its key in both directions of the matrix, else
the matrix is rejected as not symmetric, and its bar length is the entry
d[a, b], a < b, bit for bit.  The N - 1 edges are then sorted by
(length, i, j), the order in which Kruskal accepts them.

A ``Barcode`` stores the bars as three parallel arrays in that order: the
lengths, and the endpoints ``a`` and ``b`` of each edge with a < b.  Callers
slice and index these arrays.  ``Bar``, ``Barcode.bars`` (which builds
``Bar`` objects on demand) and ``Barcode.n_points`` stay only because the
benchmark's tracer, ``perfbench/tracing.py``, reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# vr_barcode_0d's pass after the Prim loop takes max(1, _CHUNK_VALUES // N)
# rows at a time: 1 MB of the matrix and a 128 KB mask, so each block is read
# once, from cache.  64 rows at N = 2048, one block at N = 32.
_CHUNK_VALUES = 1 << 17


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

    def __init__(self, lengths: np.ndarray, a: np.ndarray, b: np.ndarray):
        """Adopts the arrays, which ``vr_barcode_0d`` builds, and marks them read-only."""
        self._lengths, self.a, self.b = lengths, a, b
        for arr in (lengths, a, b):
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
    bar lengths, each equal to its entry ``d[a, b]`` bit for bit.  Requires
    N >= 2 and nonnegative finite entries (-0.0 is allowed), as
    ``pairwise_distances`` returns them: argmin on the keys' int64 view
    orders only nonnegative doubles as floats.  The entries are checked
    after the Prim loop, block by block in the pass that recovers the tree
    endpoints, and before any result is used.  Symmetry is checked on the
    tree edges only: each must equal the length it joined at in both
    directions.  Either failure raises ``ValueError``, the entries error
    first.  ``d`` is not modified.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points for a non-empty barcode")
    # key[t]: length of the least edge from the tree to outside point t;
    # tree points hold NaN, which minimum keeps, so one unmasked minimum per
    # join lowers only the outside keys and passes d[t]'s -0.0 through.
    # argmin on the int64 view never picks a NaN key (module docstring).
    # The loop records each joining point and its key; the tree endpoints
    # are recovered after it.
    key = d[0].copy()
    key[0] = np.nan
    bits = key.view(np.int64)
    tails = []
    keys = []
    # argmin stands in for min(): at small N most of a ufunc reduction's
    # time is its set-up
    for _ in range(n - 1):
        t = bits.argmin()
        length = key[t]
        key[t] = np.nan
        if key[bits.argmin()] == length:
            # another outside point ties: take the smallest (min, max) edge,
            # each candidate's endpoint being its smallest tree point at length
            key[t] = length
            ties = (key == length).nonzero()[0]
            p = ((d[ties] == length) & np.isnan(key)).argmax(axis=1)
            t = ties[(np.minimum(p, ties) * n + np.maximum(p, ties)).argmin()]
            key[t] = np.nan
        tails.append(t)
        keys.append(length)
        np.minimum(key, d[t], out=key)

    tails = np.array(tails, dtype=np.intp)
    keys = np.array(keys)
    # Row t hits its head at t's bar length, the root's -1 hits nothing: N - 1
    # hits are the heads; else the first hit among earlier joins is t's head.
    # One pass over row blocks checks the entries (min and max propagate NaN,
    # so they catch NaN, +-inf and negative entries without a mask), counts
    # the hits and keeps each row's first hit.
    bar_len = np.full(n, -1.0)
    bar_len[tails] = keys
    first = np.empty(n, dtype=np.intp)
    hits = 0
    step = max(1, _CHUNK_VALUES // n)
    for r0 in range(0, n, step):
        r1 = r0 + step
        rows = d[r0:r1]
        if not (rows.min() >= 0.0 and np.isfinite(rows.max())):
            raise ValueError("distance matrix has negative or non-finite entries")
        hit = rows == bar_len[r0:r1, None]
        hits += np.count_nonzero(hit)
        hit.argmax(axis=1, out=first[r0:r1])
    if hits != n - 1:
        # Decided on the total, not per block, so that no result depends on
        # the block size.  A first hit that joined earlier is also the first
        # earlier hit; only the other rows (the root, ties) are read again,
        # masked to earlier joins.
        rank = np.zeros(n, dtype=np.intp)  # join order; the root is 0
        rank[tails] = np.arange(1, n)
        late = (rank[first] >= rank).nonzero()[0]
        for r0 in range(0, late.size, step):
            block = late[r0 : r0 + step]
            hit = (d[block] == bar_len[block, None]) & (rank < rank[block, None])
            first[block] = hit.argmax(axis=1)
    heads = first[tails]
    a = np.minimum(heads, tails)
    b = np.maximum(heads, tails)
    # Each tree edge must hold its key in both directions; a bar is then its
    # entry d[a, b] bit for bit, whichever signed zero its key came from.
    lengths = d[a, b]
    if not ((lengths == keys) & (d[b, a] == keys)).all():
        raise ValueError("distance matrix is not symmetric")
    order = np.lexsort((b, a, lengths))  # last key is primary
    return Barcode(lengths[order], a[order], b[order])
