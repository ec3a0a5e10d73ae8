"""Dense real-matrix primitives: point clouds, pairwise distances, singular
values, and anisotropy scores.

The k-th anisotropy score of an N x D matrix X is

    anisotropy_k(X) = sigma_k**2 / sum_i sigma_i**2

where sigma_1 >= sigma_2 >= ... are the singular values of X.  Scores over
all k = 1..min(N, D) form a distribution (they sum to 1); a score near 1 at
k = 1 means the rows concentrate along a single direction.  With ``centered``
the column mean is subtracted first, which turns the scores into normalized
eigenvalues of the covariance matrix.

Pairwise distances are computed for the upper triangle only, in blocks of
rows that share one difference buffer, and mirrored below the diagonal;
the mirror is exact, so the matrix is exactly symmetric.

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
# single row once N exceeds this); its one difference buffer, reused by every
# block, holds at most about PAIRS_PER_SLICE x D values: 1 MB at D = 16 for
# N up to PAIRS_PER_SLICE, one row of N x D values beyond
PAIRS_PER_SLICE = 8192
_EPS = float(np.finfo(np.float64).eps)


@dataclass
class PointCloud:
    """N x D matrix of finite real coordinates (one row per point)."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"point cloud must be 2-D, got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError(f"point cloud needs N >= 1 and D >= 1, got {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("point cloud contains NaN or Inf entries")
        self.data = data

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass
class AnisotropyProfile:
    """Anisotropy scores for k = 1..len(scores)."""

    scores: np.ndarray

    def score(self, k: int) -> float:
        return float(self.scores[k - 1])


def as_cloud(cloud) -> PointCloud:
    if isinstance(cloud, PointCloud):
        return cloud
    return PointCloud(np.asarray(cloud, dtype=np.float64))


def pairwise_distances(cloud) -> np.ndarray:
    """Euclidean distance matrix of a point cloud.

    Rows are filled in blocks of ``max(1, PAIRS_PER_SLICE // N)``.  Block
    [lo, hi) computes only the upper-triangle columns lo: and mirrors its
    rows below the diagonal into columns lo:hi, so each pair is computed
    once.  Every block's differences go into the leading part of one buffer
    of at most about PAIRS_PER_SLICE x D elements (1 MB at D = 16),
    allocated once.  Every entry sums its squared coordinate differences in
    the same fixed order, and a - b = -(b - a) exactly in IEEE arithmetic,
    so the result is exactly symmetric with a zero diagonal, bitwise equal
    to computing both triangles, and bitwise deterministic.
    """
    x = as_cloud(cloud).data
    n, dim = x.shape
    d = np.empty((n, n), dtype=np.float64)
    rows = max(1, PAIRS_PER_SLICE // n)
    buf = np.empty(min(n, rows) * n * dim, dtype=np.float64)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        diff = buf[: (hi - lo) * (n - lo) * dim].reshape(hi - lo, n - lo, dim)
        np.subtract(x[lo:hi, None, :], x[None, lo:, :], out=diff)
        np.sqrt(np.einsum("ijk,ijk->ij", diff, diff), out=d[lo:hi, lo:])
        d[hi:, lo:hi] = d[lo:hi, hi:].T
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
