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
directly, in tiles of at most 2**17 differences (1 MB) whatever D, each a
row-repeated copy minus the contiguous columns, so numpy subtracts in long
inner loops; memory is the N x N matrix plus one tile.  Each strip is then
mirrored below itself in one transposed copy; the mirror is exact, so the
matrix is exactly symmetric.  A cloud far from unit scale is filled
rescaled by an exact power of two (the range rule, which ``entropy`` and
``regularizer`` share) and the matrix scaled back, so its squared
differences neither underflow nor overflow.

Singular values are computed from the Gram matrices of the smaller side,
raw and centered, with LAPACK's symmetric eigensolver
(``numpy.linalg.eigvalsh``), which returns the values without forming
singular vectors.  One private core scores a whole S x N x D stack: it
rescales each matrix, forms its two Gram matrices, solves all 2S
eigenproblems of size min(N, D) in one stacked call and applies the clamp
and the rank rule, so each matrix gets bitwise the scores it gets alone.
``anisotropy_profile`` runs it on a stack of one; the training harness
runs it on a chunk of steps' representations.  Each matrix is always
rescaled to max|m| in [0.5, 1), not by the range rule: ``eigvalsh`` is
not bitwise scale-equivariant, so scores would move with the scale inside
the range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# a tile of pairwise_distances holds at most this many differences (1 MB)
# unless one pair's D exceeds it; at D = 16 and N <= 8192 each block of
# 8192 // N rows is one tile
_TILE_VALUES = 1 << 17
# blocks are grouped into strips of at least this many rows, each mirrored
# below the diagonal in one transposed copy.  Mirroring a 2048 x 2048 matrix
# took 21 ms in 4-row strips, 6.4 in 32, 4.6 in 64, 5.0 in 128 and 11 in 256
# (timeit, one core); a strip also computes both halves of its own square
_STRIP_ROWS = 64
# the range rule leaves values as they are when max|x| < 2**e with |e| at
# most this (a quarter of float64's exponent range): squared differences
# stay below 2**514, finite for any D below 2**500, and a difference of at
# least 2**-254 times max|x| squares to a normal number.  Other values are
# rescaled to max|x| in [0.5, 1)
_DIRECT_EXPONENT = np.finfo(np.float64).maxexp // 4
_EPS = float(np.finfo(np.float64).eps)


@dataclass
class AnisotropyProfile:
    """Anisotropy scores for k = 1..len(scores), raw or centered as asked."""

    scores: np.ndarray


def _range_exponent(peak: float) -> int:
    """The range rule: e with peak = f * 2**e, f in [0.5, 1), if |e| > _DIRECT_EXPONENT, else 0."""
    exponent = math.frexp(peak)[1]
    return exponent if abs(exponent) > _DIRECT_EXPONENT else 0


def _points(x) -> tuple[np.ndarray, int]:
    """``x`` as an N x D float64 array, and the range rule's exponent for
    max|x|; raises ValueError unless N >= 1, D >= 1 and every entry is
    finite."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"point cloud must be 2-D, got shape {x.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"point cloud needs N >= 1 and D >= 1, got {x.shape}")
    peak = float(np.maximum.reduce(np.abs(x), axis=None))  # NaN if any entry is
    if not math.isfinite(peak):
        raise ValueError("point cloud contains NaN or Inf entries")
    return x, _range_exponent(peak)


def pairwise_distances(x) -> np.ndarray:
    """Euclidean distance matrix of an N x D point cloud.

    Rows are filled in blocks of ``rows = max(1, _TILE_VALUES // (N * D))``
    in strips of at least ``_STRIP_ROWS`` rows.  Block [lo, hi) of strip
    [s0, s1) computes columns s0: directly, in tiles of
    ``max(1, _TILE_VALUES // (rows * D))`` columns; after the strip, its
    rows are mirrored below it into columns s0:s1, so each pair outside the
    strips' squares is computed once.  A tile [c0, c1) repeats the block's
    rows once per column (at most ``_TILE_VALUES`` values unless D exceeds
    it), subtracts the points c0:c1 in place and is freed before the next:
    memory is the matrix plus one tile whatever D is.  Every entry sums its
    squared coordinate differences in the same fixed order, and a - b =
    -(b - a) exactly in IEEE arithmetic, so the result is exactly symmetric
    with a zero diagonal, bitwise equal to computing both triangles, and
    bitwise deterministic.

    A cloud whose max|x| is 2**256 or more, or nonzero and below 2**-257,
    is filled on x * 2**-e (the range rule) and the matrix is scaled back by
    2**e: both scalings are exact away from subnormals, so bar lengths scale
    exactly with the cloud.  Distances beyond float64's range come out as
    inf, without a warning.
    """
    x, exponent = _points(x)
    if exponent:
        x = np.ldexp(x, -exponent)
    n, dim = x.shape
    d = np.empty((n, n), dtype=np.float64)
    rows = max(1, _TILE_VALUES // (n * dim))
    width = max(1, _TILE_VALUES // (rows * dim))
    strip = -(-_STRIP_ROWS // rows) * rows  # whole blocks, at least _STRIP_ROWS rows
    for s0 in range(0, n, strip):
        s1 = min(s0 + strip, n)
        for c0 in range(s0, n, width):
            c1 = min(c0 + width, n)
            cols = x[c0:c1].reshape(1, -1)
            for lo in range(s0, s1, rows):
                hi = min(lo + rows, s1)
                diff = np.repeat(x[lo:hi], c1 - c0, axis=0).reshape(hi - lo, c1 - c0, dim)
                flat = diff.reshape(hi - lo, -1)  # a view: one row of (c1 - c0) x D per point
                np.subtract(flat, cols, out=flat)
                np.sqrt(np.einsum("ijk,ijk->ij", diff, diff), out=d[lo:hi, c0:c1])
                del diff, flat
        d[s1:, s0:s1] = d[s0:s1, s1:].T
    if exponent:
        with np.errstate(over="ignore"):  # documented: inf past float64's range
            np.ldexp(d, exponent, out=d)
    return d


def _anisotropy_scores(m: np.ndarray) -> np.ndarray:
    """Scores over the full spectrum of every matrix of an S x N x D stack,
    ``scores[s, 0]`` raw and ``scores[s, 1]`` centered.  A variant with no
    singular value above rounding noise, or of a matrix with a NaN or Inf
    entry, scores all 0; any other's first score is at least 1 / min(N, D).
    Each matrix's scores are bitwise those it gets alone, as a stack of one."""
    n, dim = m.shape[1:]
    # max|m| = peak * 2**exponent, peak NaN or inf where an entry is
    peak, exponent = np.frexp(np.maximum.reduce(np.abs(m), axis=(1, 2)))
    finite = np.isfinite(peak)
    if not finite.all():  # solved as all zeros, so the eigensolver sees no NaN
        m = np.where(finite[:, None, None], m, 0.0)
    # the raw then the centered matrix of each, rescaled to max|m| in [0.5, 1);
    # np.add.reduce / N is the computation ndarray.mean runs, minus its wrapper
    work = np.empty((m.shape[0], 2, n, dim))
    raw = np.ldexp(m, -exponent[:, None, None], out=work[:, 0])
    np.subtract(raw, np.add.reduce(raw, axis=1, keepdims=True) / n, out=work[:, 1])
    # singular values from the Gram matrices of the smaller side; they are
    # PSD up to round-off, so eigenvalues are clamped at zero before the
    # square root
    other = work.swapaxes(-1, -2)
    gram = np.matmul(work, other) if n < dim else np.matmul(other, work)
    # eigvalsh returns ascending eigenvalues, so each row of sigma descends
    sigma = np.sqrt(np.maximum(np.linalg.eigvalsh(gram), 0.0)[..., ::-1])
    # rank rule with two noise sources kept apart.  Centering error: as in
    # np.linalg.matrix_rank, a singular value at or below max(N, D) * eps
    # times sqrt(N * D) * max|m| (a bound on the Frobenius norm of the
    # uncentered input) is noise, so identical rows have no centered
    # spectrum.  Gram rounding: the eigensolver works on the Gram matrix, so
    # an eigenvalue at or below max(N, D) * eps * sigma_max**2 is noise and
    # a zero singular value surfaces near sqrt(eps) * sigma_max; identical
    # rows score exactly [1, 0, ...] raw
    floor = max(n, dim) * math.sqrt(n * dim) * _EPS * peak
    noise = np.maximum(floor[:, None], math.sqrt(max(n, dim) * _EPS) * sigma[..., 0])
    sigma *= sigma > noise[..., None]  # zeroes the noise; sigma is finite and >= 0
    squares = sigma * sigma
    totals = np.add.reduce(squares, axis=-1)
    return squares / np.where(totals > 0.0, totals, 1.0)[..., None]


def anisotropy_profile(m, k_max: int | None = None, centered: bool = False) -> AnisotropyProfile:
    """Anisotropy scores for k = 1..k_max (default: the full spectrum), raw
    or ``centered``.

    Works on m rescaled by the power of two that brings max|m| into [0.5, 1),
    which changes no score, in the stacked core, whose values are bitwise
    those of a single-spectrum eigensolve.  Singular values within rounding
    noise of the input count as zero.  Raises ValueError unless m is a finite,
    nonempty 2-D array and k_max an int in [1, min(m.shape)], and when the
    requested variant has no singular value left (every entry zero, or every
    row equal for ``centered``).
    """
    m, _ = _points(m)
    rank_bound = min(m.shape)
    if k_max is None:
        k_max = rank_bound
    integral = isinstance(k_max, (int, np.integer)) and not isinstance(k_max, bool)
    if not (integral and 1 <= k_max <= rank_bound):
        raise ValueError(f"k_max must be an integer in [1, {rank_bound}], got {k_max!r}")
    scores = _anisotropy_scores(m[None])[0, 1 if centered else 0]
    if not scores[0]:
        raise ValueError("anisotropy undefined: matrix has no singular value above rounding noise")
    return AnisotropyProfile(scores=scores[:k_max])
