"""Dense real-matrix primitives: point clouds, pairwise distances, singular
values, and anisotropy scores.

The k-th anisotropy score of an N x D matrix X is

    anisotropy_k(X) = sigma_k**2 / sum_i sigma_i**2

where sigma_1 >= sigma_2 >= ... are the singular values of X.  Scores over
all k = 1..min(N, D) form a distribution (they sum to 1); a score near 1 at
k = 1 means the rows concentrate along a single direction.  With ``centered``
the column mean is subtracted first, which turns the scores into normalized
eigenvalues of the covariance matrix.

Singular values are computed from the Gram matrix of the smaller side with
LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``), which returns the
values without forming singular vectors and costs one small symmetric
eigenproblem of size min(N, D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# pairwise_distances fills max(1, PAIRS_PER_SLICE // N) rows at a time: a
# block of rows x N pairs (a single row once N exceeds this), so its
# difference temporary holds about PAIRS_PER_SLICE x D values
PAIRS_PER_SLICE = 65536
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

    Rows are filled in blocks of ``max(1, PAIRS_PER_SLICE // N)``, so the
    difference temporary holds at most about PAIRS_PER_SLICE x D elements.
    Every entry sums its squared coordinate differences in the same fixed
    order, and a - b = -(b - a) exactly in IEEE arithmetic, so the result is
    exactly symmetric with a zero diagonal and bitwise deterministic.
    """
    x = as_cloud(cloud).data
    n = x.shape[0]
    d = np.empty((n, n), dtype=np.float64)
    rows = max(1, PAIRS_PER_SLICE // n)
    for lo in range(0, n, rows):
        diff = x[lo : lo + rows, None, :] - x[None, :, :]
        np.sqrt(np.einsum("ijk,ijk->ij", diff, diff), out=d[lo : lo + rows])
    return d


def singular_values(m) -> np.ndarray:
    """Singular values of a matrix, sorted descending.

    Computed as square roots of the eigenvalues of the Gram matrix of the
    smaller side (m @ m.T or m.T @ m, whichever is min(N, D) square), with
    eigenvalues clamped at zero first: Gram matrices are PSD up to round-off.
    Returns exactly min(N, D) values; raises ValueError if the Gram matrix overflows.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    if m.shape[0] < m.shape[1]:
        gram = m @ m.T
    else:
        gram = m.T @ m
    gram = (gram + gram.T) / 2.0
    if not np.isfinite(gram).all():
        raise ValueError("Gram matrix overflows float64")
    eigs = np.linalg.eigvalsh(gram)
    eigs = np.clip(eigs, 0.0, None)
    return np.sqrt(np.sort(eigs)[::-1])


def anisotropy(m, k: int, centered: bool = False) -> float:
    """k-th anisotropy score: sigma_k**2 / sum(sigma_i**2), k starting at 1."""
    return anisotropy_profile(m, k_max=k, centered=centered).score(k)


def anisotropy_profile(m, k_max: int | None = None, centered: bool = False) -> AnisotropyProfile:
    """Anisotropy scores for k = 1..k_max (default: the full spectrum).

    Singular values within rounding noise of the input count as zero; raises
    ValueError when none is left (every row equal, for ``centered``).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    rank_bound = min(m.shape)
    if k_max is None:
        k_max = rank_bound
    if not 1 <= k_max <= rank_bound:
        raise ValueError(f"k_max must lie in [1, {rank_bound}], got {k_max}")
    work = m - m.mean(axis=0, keepdims=True) if centered else m
    sigma = singular_values(work)
    # rank rule: as in np.linalg.matrix_rank, a singular value at or below
    # max(N, D) * eps times the scale of the input is rounding noise and
    # counts as zero.  The scale is sqrt(N * D) * max|m|, a bound on the
    # Frobenius norm of the uncentered input that cannot overflow, so the
    # centering error of identical rows scores 0, not 1
    noise = max(m.shape) * math.sqrt(m.size) * _EPS * float(np.abs(m).max())
    if sigma[-1] <= noise:  # sigma is sorted descending
        sigma[sigma <= noise] = 0.0
    total = float((sigma * sigma).sum())
    if total == 0.0:
        raise ValueError("anisotropy undefined: matrix has no singular value above rounding noise")
    if total == np.inf:
        raise ValueError("anisotropy undefined: squared singular values overflow float64")
    return AnisotropyProfile(scores=(sigma[:k_max] ** 2) / total)
