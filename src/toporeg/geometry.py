"""Dense real-matrix primitives: pairwise distances and anisotropy scores.

A point cloud is a plain N x D float64 array, one row per point.

The k-th anisotropy score of an N x D matrix X is

    anisotropy_k(X) = sigma_k**2 / sum_i sigma_i**2

where sigma_1 >= sigma_2 >= ... are the singular values of X.  Scores over
all k = 1..min(N, D) form a distribution (they sum to 1); a score near 1 at
k = 1 means the rows concentrate along a single direction.  With ``centered``
the column mean is subtracted first, which turns the scores into normalized
eigenvalues of the covariance matrix.

Pairwise distances are computed in strips of at least 64 rows (the last
may be shorter).  A strip fills its own square and everything right of it
directly, in blocks of rows whose differences come from a row-repeated copy
minus the contiguous columns, so numpy subtracts in long inner loops.  Each
strip is then mirrored below itself in one transposed copy; the mirror is
exact, so the matrix is exactly symmetric.

Singular values are computed from the Gram matrix of the smaller side with
LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``), which returns the
values without forming singular vectors and costs one small symmetric
eigenproblem of size min(N, D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# pairwise_distances fills max(1, PAIRS_PER_SLICE // N) rows at a time (a
# single row once N exceeds this); each block's row-repeated difference copy
# holds at most about PAIRS_PER_SLICE x D values: 1 MB at D = 16 for N up to
# PAIRS_PER_SLICE, one row of N x D values beyond
PAIRS_PER_SLICE = 8192
# blocks are grouped into strips of at least this many rows, each mirrored
# below the diagonal in one transposed copy.  Mirroring a 2048 x 2048 matrix
# took 21 ms in 4-row strips, 6.4 in 32, 4.6 in 64, 5.0 in 128 and 11 in 256
# (timeit, one core); a strip also computes both halves of its own square
_STRIP_ROWS = 64
_EPS = float(np.finfo(np.float64).eps)


@dataclass
class AnisotropyProfile:
    """Anisotropy scores for k = 1..len(scores)."""

    scores: np.ndarray

    def score(self, k: int) -> float:
        return float(self.scores[k - 1])


def _points(x) -> np.ndarray:
    """``x`` as an N x D float64 array; raises ValueError unless N >= 1,
    D >= 1 and every entry is finite."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"point cloud must be 2-D, got shape {x.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"point cloud needs N >= 1 and D >= 1, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("point cloud contains NaN or Inf entries")
    return x


def pairwise_distances(x) -> np.ndarray:
    """Euclidean distance matrix of an N x D point cloud.

    Rows are filled in blocks of ``max(1, PAIRS_PER_SLICE // N)``, grouped
    into strips of at least ``_STRIP_ROWS`` rows.  Block [lo, hi) of strip
    [s0, s1) computes columns s0: directly, its part of the strip's square
    included; after the strip, its rows are mirrored below it into columns
    s0:s1, so each pair outside the strips' squares is computed once.  A
    block repeats each of its rows once per column (one copy of at most
    about PAIRS_PER_SLICE x D values, 1 MB at D = 16) and subtracts the
    contiguous points s0: from it in place.  Every entry sums its squared
    coordinate differences in the same fixed order, and a - b = -(b - a)
    exactly in IEEE arithmetic, so the result is exactly symmetric with a
    zero diagonal, bitwise equal to computing both triangles, and bitwise
    deterministic.
    """
    x = _points(x)
    n, dim = x.shape
    d = np.empty((n, n), dtype=np.float64)
    rows = max(1, PAIRS_PER_SLICE // n)
    strip = -(-_STRIP_ROWS // rows) * rows  # whole blocks, at least _STRIP_ROWS rows
    for s0 in range(0, n, strip):
        s1 = min(s0 + strip, n)
        m = n - s0
        cols = x[s0:].reshape(1, m * dim)
        for lo in range(s0, s1, rows):
            hi = min(lo + rows, s1)
            diff = np.repeat(x[lo:hi], m, axis=0).reshape(hi - lo, m, dim)
            flat = diff.reshape(hi - lo, m * dim)  # a view: one row of m x D per point
            np.subtract(flat, cols, out=flat)
            np.sqrt(np.einsum("ijk,ijk->ij", diff, diff), out=d[lo:hi, s0:])
        d[s1:, s0:s1] = d[s0:s1, s1:].T
    return d


def anisotropy_profile(m, k_max: int | None = None, centered: bool = False) -> AnisotropyProfile:
    """Anisotropy scores for k = 1..k_max (default: the full spectrum).

    Singular values within rounding noise of the input count as zero; raises
    ValueError when none is left (every row equal, for ``centered``), and on
    NaN or Inf entries or a Gram matrix that overflows float64.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    rank_bound = min(m.shape)
    if k_max is None:
        k_max = rank_bound
    if not 1 <= k_max <= rank_bound:
        raise ValueError(f"k_max must lie in [1, {rank_bound}], got {k_max}")
    # np.add.reduce / N is the computation ndarray.mean runs, minus its wrapper
    work = m - np.add.reduce(m, axis=0, keepdims=True) / m.shape[0] if centered else m
    if not np.isfinite(work).all():
        raise ValueError("matrix contains NaN or Inf entries")
    # singular values from the Gram matrix of the smaller side; it is PSD up
    # to round-off, so eigenvalues are clamped at zero before the square root
    gram = work @ work.T if work.shape[0] < work.shape[1] else work.T @ work
    gram = (gram + gram.T) / 2.0
    if not np.isfinite(gram).all():
        raise ValueError("Gram matrix overflows float64")
    # eigvalsh returns ascending eigenvalues, so sigma is descending
    sigma = np.sqrt(np.maximum(np.linalg.eigvalsh(gram), 0.0)[::-1])
    # rank rule with two noise sources kept apart.  Centering error: as in
    # np.linalg.matrix_rank, a singular value at or below max(N, D) * eps
    # times sqrt(N * D) * max|m| (a bound on the Frobenius norm of the
    # uncentered input) is noise, so identical rows raise centered.  Gram
    # rounding: the eigensolver works on work's Gram matrix, so an
    # eigenvalue at or below max(N, D) * eps * sigma_max**2 is noise and a
    # zero singular value surfaces near sqrt(eps) * sigma_max; identical
    # rows score exactly [1, 0, ...] raw.  That rule is tested on the sigma
    # scale, sigma <= sqrt(max(N, D) * eps) * sigma_max, which squares
    # nothing: sigma is finite and the factor is below 1 unless max(N, D)
    # exceeds 1 / eps, so neither bound can overflow
    noise = max(
        max(m.shape) * math.sqrt(m.size) * _EPS * float(np.abs(m).max()),
        math.sqrt(max(m.shape) * _EPS) * float(sigma[0]),
    )
    if sigma[-1] <= noise:  # sigma is sorted descending
        sigma[sigma <= noise] = 0.0
    total = float((sigma * sigma).sum())
    if total == 0.0:
        raise ValueError("anisotropy undefined: matrix has no singular value above rounding noise")
    if total == np.inf:
        raise ValueError("anisotropy undefined: squared singular values overflow float64")
    return AnisotropyProfile(scores=(sigma[:k_max] ** 2) / total)
