import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toporeg.geometry import (
    PointCloud,
    anisotropy,
    anisotropy_profile,
    pairwise_distances,
    singular_values,
)

from oracles import scalar_distance_matrix


def reference_singular_values(m):
    """Independent oracle: LAPACK SVD of the matrix itself (gesdd), not the
    symmetric eigensolver on its Gram matrix that singular_values uses."""
    return np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)


class TestPointCloud:
    def test_accepts_finite_matrix(self):
        pc = PointCloud(np.ones((3, 2)))
        assert pc.n == 3 and pc.dim == 2

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((0, 2)), np.ones((2, 0))])
    def test_rejects_bad_shapes(self, bad):
        with pytest.raises(ValueError):
            PointCloud(bad)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, np.nan]]))
        with pytest.raises(ValueError):
            PointCloud(np.array([[np.inf, 1.0]]))


class TestPairwiseDistances:
    def test_3_4_5_triangle(self):
        d = pairwise_distances([[0.0, 0.0], [3.0, 4.0]])
        assert d[0, 1] == 5.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 3))
        d = pairwise_distances(x)
        np.testing.assert_allclose(d, scalar_distance_matrix(x), atol=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_distance_matrix_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        dim = int(rng.integers(1, 6))
        x = rng.normal(scale=rng.uniform(0.1, 10.0), size=(n, dim))
        d = pairwise_distances(x)
        assert (np.diagonal(d) == 0.0).all()
        assert (d == d.T).all()  # exact symmetry, not approximate
        assert (d >= 0.0).all()
        # triangle inequality with 1e-9 absolute slack
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestSingularValues:
    def test_diagonal_matrix(self):
        np.testing.assert_allclose(singular_values(np.diag([3.0, 4.0])), [4.0, 3.0], atol=1e-14)

    def test_rank_one_outer_product(self):
        u = np.array([1.0, 2.0, 2.0]) / 3.0
        v = np.array([0.6, 0.8])
        sv = singular_values(7.0 * np.outer(u, v))
        # a zero singular value of a squared Gram resolves to ~sqrt(eps)*sigma_max
        np.testing.assert_allclose(sv, [7.0, 0.0], atol=1e-6)

    def test_matches_reference_eigensolver(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(8, 5))
        mine = singular_values(m)
        ref = reference_singular_values(m)
        np.testing.assert_allclose(mine, ref, rtol=1e-8, atol=1e-10)

    def test_wide_matrix_returns_min_side(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(3, 9))
        sv = singular_values(m)
        assert sv.shape == (3,)
        np.testing.assert_allclose(sv, reference_singular_values(m), rtol=1e-8, atol=1e-10)

    def test_descending_and_nonnegative(self):
        rng = np.random.default_rng(3)
        sv = singular_values(rng.normal(size=(10, 4)))
        assert (sv >= 0).all()
        assert (np.diff(sv) <= 1e-12).all()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            singular_values(np.array([[1.0, np.nan]]))

    def test_rejects_overflowing_gram_matrix(self):
        # every entry is finite, but their squares are not
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="Gram"):
            singular_values(np.array([[1e308, 0.0], [0.0, 1.0]]))


class TestAnisotropy:
    def test_uniform_spectrum(self):
        # orthogonal matrix: all singular values equal 1
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))
        for k in range(1, 5):
            assert anisotropy(q, k) == pytest.approx(0.25, abs=1e-12)

    def test_diagonal_case(self):
        m = np.diag([3.0, 4.0])
        assert anisotropy(m, 1) == pytest.approx(16 / 25, abs=1e-14)
        assert anisotropy(m, 2) == pytest.approx(9 / 25, abs=1e-14)

    def test_matches_oracle_on_random_matrix(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(64, 16))
        ref = reference_singular_values(m)
        ref_scores = ref**2 / (ref**2).sum()
        for k in (1, 5, 16):
            assert anisotropy(m, k) == pytest.approx(ref_scores[k - 1], rel=1e-8)

    def test_centered_equals_covariance_eigenvalue_share(self):
        rng = np.random.default_rng(17)
        m = rng.normal(size=(40, 6)) + 3.0
        eigs = np.sort(np.linalg.eigvalsh(np.cov(m, rowvar=False)))[::-1]
        share = eigs / eigs.sum()
        assert anisotropy(m, 1, centered=True) == pytest.approx(share[0], rel=1e-8)

    @pytest.mark.parametrize("centered", [False, True])
    def test_equals_profile_score_bitwise(self, centered):
        rng = np.random.default_rng(29)
        m = rng.normal(size=(32, 16)) + 0.5
        for k in (1, 2, 3, 16):
            profile = anisotropy_profile(m, k_max=k, centered=centered)
            assert anisotropy(m, k, centered=centered) == profile.score(k)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            anisotropy(np.ones((3, 2)), 3)
        with pytest.raises(ValueError):
            anisotropy(np.ones((3, 2)), 0)

    def test_zero_matrix_is_undefined(self):
        with pytest.raises(ValueError):
            anisotropy(np.zeros((4, 3)), 1)

    def test_overflowing_spectrum_is_undefined(self):
        # the Gram matrix diag(7e307, 7e307, 7e307) is finite, its trace is not
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            anisotropy(np.sqrt(7e307) * np.eye(3), 1)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_scale_and_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(2, 12)), int(rng.integers(2, 6))
        m = rng.normal(size=(n, dim))
        c = float(rng.uniform(0.01, 100.0)) * (-1 if seed % 2 else 1)
        k = int(rng.integers(1, min(n, dim) + 1))
        base = anisotropy(m, k)
        assert anisotropy(c * m, k) == pytest.approx(base, abs=1e-9)
        assert anisotropy(m[rng.permutation(n)], k) == pytest.approx(base, abs=1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_profile_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(2, 12)), int(rng.integers(2, 6))
        m = rng.normal(size=(n, dim))
        profile = anisotropy_profile(m)
        assert profile.scores.sum() == pytest.approx(1.0, abs=1e-9)
        assert ((profile.scores >= 0) & (profile.scores <= 1)).all()

    def test_profile_k_max_prefix(self):
        rng = np.random.default_rng(23)
        m = rng.normal(size=(20, 8))
        full = anisotropy_profile(m)
        head = anisotropy_profile(m, k_max=3)
        np.testing.assert_allclose(head.scores, full.scores[:3], rtol=1e-12)
