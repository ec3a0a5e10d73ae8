import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toporeg.geometry as geometry
from toporeg.entropy import persistent_entropy, select_features
from toporeg.geometry import anisotropy_profile, pairwise_distances
from toporeg.persistence import vr_barcode_0d
from toporeg.regularizer import entropy_loss_grad, per_class_entropy_loss

from oracles import rowwise_distance_matrix, scalar_distance_matrix, single_spectrum_scores


def reference_singular_values(m):
    """Independent oracle: LAPACK SVD of the matrix itself (gesdd), not the
    symmetric eigensolver on its Gram matrix that anisotropy_profile uses."""
    return np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)


def reference_scores(m):
    """Anisotropy scores sigma_k**2 / sum(sigma_i**2) from the SVD oracle."""
    sv = reference_singular_values(m)
    return sv**2 / (sv**2).sum()


@pytest.mark.parametrize(
    "fn",
    [
        pairwise_distances,
        entropy_loss_grad,
        lambda x: per_class_entropy_loss(x, np.zeros(len(x), dtype=int)),
    ],
    ids=["pairwise_distances", "entropy_loss_grad", "per_class_entropy_loss"],
)
@pytest.mark.parametrize(
    "bad",
    [
        np.ones(3),
        np.ones((0, 2)),
        np.ones((2, 0)),
        np.array([[0.0, np.nan], [1.0, 1.0]]),
        np.array([[np.inf, 1.0], [1.0, 1.0]]),
        np.array([[1.0, 1.0], [-np.inf, 1.0]]),
    ],
    ids=["1d", "zero_rows", "zero_columns", "nan", "+inf", "-inf"],
)
def test_point_cloud_inputs_are_checked(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


class TestPairwiseDistances:
    def test_3_4_5_triangle(self):
        d = pairwise_distances([[0.0, 0.0], [3.0, 4.0]])
        assert d[0, 1] == 5.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 3))
        d = pairwise_distances(x)
        np.testing.assert_allclose(d, scalar_distance_matrix(x), atol=1e-12)

    @pytest.mark.parametrize(
        "n,dim,budget",
        [
            (300, 16, None),
            (363, 16, None),
            (2048, 16, None),
            (70, 16, 256 * 16),
            (300, 16, 256 * 16),
            (100, 16, None),
            (70, 40, 512),
            (150, 48, 1000),
            (9, 40, 32),
            (200, 768, None),
        ],
        ids=[
            "two_blocks",
            "ragged_last_block",
            "64_blocks",
            "ragged_small_blocks",
            "one_row_blocks_ragged_last_strip",
            "one_block_strips",
            "ragged_tiles_short_last_strip",
            "ragged_tiles_every_strip",
            "pair_beyond_budget",
            "bert_width",
        ],
    )
    def test_block_fill_matches_rowwise_oracle(self, monkeypatch, n, dim, budget):
        # n <= 12 below is a single block; these sizes fill and mirror many.
        # At D = 16, blocks of 27, 22, 4, 3, 1 and 81 rows make strips of 81,
        # 66, 64, 66, 64 and 81 rows; every n but 2048 ends in a shorter
        # strip.  Each block is one tile, but for the first strip of 300
        # one-row blocks, whose 300 columns split into tiles of 256 and 44.
        # Wider, one-row blocks split into tiles of 12 columns (the first
        # strip's 70 end in one of 10, the 6-row last strip's 6 are one
        # tile); of 20 (150, 86 and 22 columns end in 10, 6 and 2); of one
        # pair whose 40 differences alone exceed the budget; and of 170 at
        # the default budget and D = 768 (200 columns end in 30)
        if budget is not None:
            monkeypatch.setattr(geometry, "_TILE_VALUES", budget)
        x = np.random.default_rng(n).normal(scale=3.0, size=(n, dim))
        d = pairwise_distances(x)
        assert np.array_equal(d, rowwise_distance_matrix(x))
        assert np.array_equal(d, d.T)
        assert not np.diagonal(d).any()

    def test_fill_holds_the_matrix_plus_one_tile(self):
        # at N = D = 256, blocks of 8192 // N rows would hold 16 MiB of
        # differences each; tiles of 2 rows hold 1 MiB, freed one by one
        x = np.random.default_rng(5).normal(size=(256, 256))
        tracemalloc.start()
        try:
            d = pairwise_distances(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - d.nbytes <= 2 * geometry._TILE_VALUES * 8

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


class TestScaleFreeDistances:
    """Clouds far from unit scale are filled rescaled by a power of two, so
    distances, bars, entropy and selection do not depend on the scale."""

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-1000, 1000))
    @example(seed=0, k=-1000)
    @example(seed=0, k=1000)
    @example(seed=1, k=-260)
    @example(seed=1, k=252)
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scale_scales_bars_exactly(self, seed, k):
        # coordinates on a 1/64 grid below 2**4: every nonzero difference
        # is at least 2**-6, so no square or distance turns subnormal or
        # overflows at 2**k, inside the direct range or outside it
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(2, 20)), int(rng.integers(1, 7))
        x = rng.integers(-1000, 1001, size=(n, dim)) / 64.0
        x[rng.integers(0, n)] = x[0]  # sometimes a duplicate point
        base = vr_barcode_0d(pairwise_distances(x))
        scaled = vr_barcode_0d(pairwise_distances(np.ldexp(x, k)))
        assert np.array_equal(scaled.lengths(), np.ldexp(base.lengths(), k))
        assert np.array_equal(scaled.a, base.a) and np.array_equal(scaled.b, base.b)
        if base.lengths().any():
            assert persistent_entropy(scaled.lengths()) == persistent_entropy(base.lengths())
            got, want = select_features(scaled.lengths()), select_features(base.lengths())
            assert (got.selected, got.noise, got.alpha) == (want.selected, want.noise, want.alpha)

    @pytest.mark.parametrize("k", [-262, -261, -260, -259, -258, 250, 251, 252, 253, 254, 255])
    def test_both_sides_of_the_direct_range(self, k):
        # max|x| = 2**(k + 2) crosses 2**-257 between k = -260 and -259, and
        # 2**256 between k = 253 and 254
        d = pairwise_distances(np.ldexp([[0.0, 0.0], [3.0, 4.0]], k))
        assert d[0, 1] == d[1, 0] == math.ldexp(5.0, k)
        assert d[0, 0] == d[1, 1] == 0.0

    @pytest.mark.parametrize("exponent", [-256, -200, 0, 200, 256])
    def test_clouds_inside_the_direct_range_are_filled_as_they_are(self, exponent):
        # half the points lie 2**-280 times max|x| from the origin; at
        # max|x| ~ 2**-256 their squared differences are subnormal, so a
        # rescaled fill would round them differently
        rng = np.random.default_rng(exponent + 1000)
        x = rng.uniform(0.5, 1.0, size=(12, 3))
        x[6:] *= 2.0**-280
        x = np.ldexp(x, exponent)  # max|x| just below 2**exponent
        assert np.array_equal(pairwise_distances(x), rowwise_distance_matrix(x))

    def test_tiny_distinct_points_keep_their_bars(self):
        # squared, these differences underflow to 0 at their own scale
        x = np.array([[0.0, 0.0], [1e-170, 0.0], [0.0, 3e-170]])
        lengths = np.sort(vr_barcode_0d(pairwise_distances(x)).lengths())
        assert lengths.tolist() == [1e-170, 3e-170]

    def test_distances_beyond_float64_come_out_inf(self):
        # without a RuntimeWarning, which the test run turns into an error
        d = pairwise_distances([[1e308, 1e308], [-1e308, -1e308], [0.0, 0.0]])
        assert d[0, 1] == d[1, 0] == np.inf
        assert d[0, 2] == d[2, 0] == math.hypot(1e308, 1e308)


class TestSingularValues:
    """The singular values inside anisotropy_profile, checked through its
    scores against the SVD oracle."""

    def test_diagonal_matrix(self):
        np.testing.assert_allclose(
            anisotropy_profile(np.diag([3.0, 4.0])).scores, reference_scores(np.diag([3.0, 4.0])), atol=1e-14
        )

    def test_rank_one_outer_product(self):
        u = np.array([1.0, 2.0, 2.0]) / 3.0
        v = np.array([0.6, 0.8])
        m = 7.0 * np.outer(u, v)
        # a zero singular value of a squared Gram resolves to ~sqrt(eps)*sigma_max,
        # which the rank rule zeroes
        np.testing.assert_allclose(anisotropy_profile(m).scores, reference_scores(m), atol=1e-6)
        np.testing.assert_array_equal(anisotropy_profile(m).scores, [1.0, 0.0])

    def test_matches_reference_eigensolver(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(8, 5))
        np.testing.assert_allclose(anisotropy_profile(m).scores, reference_scores(m), rtol=1e-8, atol=1e-10)

    def test_wide_matrix_returns_min_side(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(3, 9))
        scores = anisotropy_profile(m).scores
        assert scores.shape == (3,)
        np.testing.assert_allclose(scores, reference_scores(m), rtol=1e-8, atol=1e-10)

    def test_descending_and_nonnegative(self):
        rng = np.random.default_rng(3)
        scores = anisotropy_profile(rng.normal(size=(10, 4))).scores
        assert (scores >= 0).all()
        assert (np.diff(scores) <= 1e-12).all()

    def test_rejects_nonfinite(self):
        for centered in (False, True):
            with pytest.raises(ValueError, match="NaN or Inf"):
                anisotropy_profile(np.array([[1.0, np.nan], [2.0, 3.0]]), centered=centered)

    def test_gram_matrix_of_huge_entries_is_rescaled(self):
        # 1e308 squared overflows float64, but the rescaled matrix's Gram
        # matrix does not; sigma_2 / sigma_1 = 1e-308, so the scores are 1, 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = anisotropy_profile(np.array([[1e308, 0.0], [0.0, 1.0]])).scores
        np.testing.assert_array_equal(scores, [1.0, 0.0])


class TestAnisotropy:
    def test_uniform_spectrum(self):
        # orthogonal matrix: all singular values equal 1
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)))
        for k in range(1, 5):
            assert anisotropy_profile(q, k_max=k).scores[k - 1] == pytest.approx(0.25, abs=1e-12)

    def test_diagonal_case(self):
        m = np.diag([3.0, 4.0])
        assert anisotropy_profile(m, k_max=1).scores[0] == pytest.approx(16 / 25, abs=1e-14)
        assert anisotropy_profile(m, k_max=2).scores[1] == pytest.approx(9 / 25, abs=1e-14)
        # identical rows have rank one: the Gram matrix's zero eigenvalues
        # come back as rounding noise, whose square roots must still score 0
        rank_one = np.tile([0.3, -1.2, 2.5, 0.7], (16, 1))
        np.testing.assert_array_equal(anisotropy_profile(rank_one, k_max=3).scores, [1.0, 0.0, 0.0])

    def test_matches_oracle_on_random_matrix(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(64, 16))
        ref_scores = reference_scores(m)
        for k in (1, 5, 16):
            assert anisotropy_profile(m, k_max=k).scores[k - 1] == pytest.approx(ref_scores[k - 1], rel=1e-8)

    def test_centered_equals_covariance_eigenvalue_share(self):
        rng = np.random.default_rng(17)
        m = rng.normal(size=(40, 6)) + 3.0
        eigs = np.sort(np.linalg.eigvalsh(np.cov(m, rowvar=False)))[::-1]
        share = eigs / eigs.sum()
        assert anisotropy_profile(m, k_max=1, centered=True).scores[0] == pytest.approx(share[0], rel=1e-8)

    @pytest.mark.parametrize("shape", [(64, 16), (40, 6), (5, 9), (33, 3)])
    def test_centered_equals_explicitly_centered_bitwise(self, shape):
        # on full-rank data no singular value nears the noise floor, so
        # centering inside must give exactly the scores of centering outside
        m = 2.0 + np.random.default_rng(sum(shape)).normal(size=shape)
        explicit = anisotropy_profile(m - m.mean(axis=0, keepdims=True)).scores
        assert np.array_equal(anisotropy_profile(m, centered=True).scores, explicit)

    def test_centered_offset_cloud_keeps_its_directions(self):
        # a large offset makes max|m| huge next to the centered spread; the
        # rank rule must judge the centered spectrum on its own scale, not
        # the offset's, or both real directions are zeroed as noise
        rng = np.random.default_rng(41)
        m = 5e6 + rng.normal(size=(100, 2))
        eigs = np.sort(np.linalg.eigvalsh(np.cov(m, rowvar=False)))[::-1]
        share = eigs / eigs.sum()
        scores = anisotropy_profile(m, centered=True).scores
        assert (scores > 0.3).all()
        np.testing.assert_allclose(scores, share, rtol=1e-8)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            anisotropy_profile(np.ones((3, 2)), k_max=3)
        with pytest.raises(ValueError):
            anisotropy_profile(np.ones((3, 2)), k_max=0)
        with pytest.raises(ValueError):
            anisotropy_profile(np.ones((3, 2)), k_max=2.0)
        with pytest.raises(ValueError):
            anisotropy_profile(np.ones((3, 2)), k_max=True)

    def test_zero_matrix_is_undefined(self):
        with pytest.raises(ValueError):
            anisotropy_profile(np.zeros((4, 3)), k_max=1)

    def test_spectrum_whose_squares_overflow_is_rescaled(self):
        # the Gram matrix diag(7e307, 7e307, 7e307) is finite, its trace is
        # not; the rescaled matrix gives the three equal singular values
        # equal scores
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = anisotropy_profile(np.sqrt(7e307) * np.eye(3)).scores
        assert scores[0] == scores[1] == scores[2] == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 2)], ids=["1d", "3d"])
    def test_rejects_matrix_that_is_not_2d(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            anisotropy_profile(np.ones(shape))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_scale_and_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(2, 12)), int(rng.integers(2, 6))
        m = rng.normal(size=(n, dim))
        c = float(rng.uniform(0.01, 100.0)) * (-1 if seed % 2 else 1)
        k = int(rng.integers(1, min(n, dim) + 1))
        base = anisotropy_profile(m, k_max=k).scores[k - 1]
        assert anisotropy_profile(c * m, k_max=k).scores[k - 1] == pytest.approx(base, abs=1e-9)
        assert anisotropy_profile(m[rng.permutation(n)], k_max=k).scores[k - 1] == pytest.approx(base, abs=1e-9)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-1000, 1000), centered=st.booleans())
    @example(seed=0, k=-1000, centered=False)
    @example(seed=0, k=1000, centered=True)
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scale_keeps_every_bit(self, seed, k, centered):
        # at the extremes the Gram matrix of the unscaled input over- or
        # underflows; scaling by 2**k is exact, so the scores must not move
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(2, 40)), int(rng.integers(1, 17))
        m = rng.normal(size=(n, dim)) + rng.normal(scale=3.0, size=dim)
        # an entry below 2**-22 would turn subnormal at 2**-1000 and lose bits
        m[np.abs(m) < 2.0**-22] = 0.0
        base = anisotropy_profile(m, centered=centered).scores
        assert np.array_equal(anisotropy_profile(np.ldexp(m, k), centered=centered).scores, base)

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


class TestBothSpectra:
    """The raw and the centered scores each agree bit for bit with a
    single-spectrum eigensolve, and a call raises exactly where that solve
    finds no singular value above noise."""

    @staticmethod
    def check(m, k_max):
        for centered in (False, True):
            want = single_spectrum_scores(m, k_max, centered)
            if want is None:
                with pytest.raises(ValueError, match="no singular value"):
                    anisotropy_profile(m, k_max=k_max, centered=centered)
                continue
            profile = anisotropy_profile(m, k_max=k_max, centered=centered)
            assert profile.scores.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "shape,kind",
        [((64, 16), "normal"), ((5, 16), "normal"), ((64, 16), "offset"), ((7, 3), "zero"),
         ((64, 16), "collapsed"), ((5, 16), "collapsed"), ((1, 4), "normal"), ((9, 6), "rank_one")],
        ids=["tall", "wide", "offset", "all_zero", "collapsed_tall", "collapsed_wide", "one_row", "rank_one"],
    )
    def test_named_cases(self, shape, kind):
        rng = np.random.default_rng(3)
        m = rng.normal(size=shape)
        if kind == "offset":
            m += 1e3 * rng.normal(size=shape[1])
        elif kind == "zero":
            m[...] = 0.0
        elif kind == "collapsed":
            m[...] = m[0]
        elif kind == "rank_one":
            m = np.outer(rng.normal(size=shape[0]), rng.normal(size=shape[1]))
        for k_max in (1, min(shape)):
            self.check(m, k_max)

    def test_collapsed_rows_have_no_centered_scores(self):
        m = np.tile([0.5, -2.0, 3.0], (8, 1))
        assert anisotropy_profile(m).scores.tolist() == [1.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="no singular value"):
            anisotropy_profile(m, centered=True)

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["normal", "offset", "collapsed", "sparse"]))
    @settings(max_examples=150, deadline=None)
    def test_random_matrices(self, seed, kind):
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        m = rng.normal(size=(n, dim)) * 10.0 ** float(rng.integers(-20, 21))
        if kind == "offset":
            m += rng.normal(scale=1e4, size=dim) * np.abs(m).max()
        elif kind == "collapsed":
            m[...] = m[0]
        elif kind == "sparse":
            m[rng.random(size=m.shape) < 0.7] = 0.0
        self.check(m, int(rng.integers(1, min(n, dim) + 1)))

    @pytest.mark.parametrize(
        "shape", [(64, 16), (5, 16), (2, 16), (30, 1), (1, 4)], ids=["tall", "wide", "two_rows", "one_column", "one_row"]
    )
    def test_stacked_scores_equal_single_spectrum_solves_bitwise(self, shape):
        # rows of one stack: normal at several scales, offset, all zero,
        # collapsed, sparse, and NaN and Inf entries, which score all zeros
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        stack = rng.normal(size=(9, *shape)) * 10.0 ** rng.integers(-20, 21, size=(9, 1, 1))
        stack[2] += 1e3 * rng.normal(size=shape[1])
        stack[3] = 0.0
        stack[4] = stack[4, 0]
        stack[5][rng.random(size=shape) < 0.7] = 0.0
        stack[6, 0, 0] = np.nan
        stack[7, -1, -1] = -np.inf
        scores = geometry._anisotropy_scores(stack)
        rank_bound = min(shape)
        assert scores.shape == (9, 2, rank_bound)
        for i, m in enumerate(stack):
            for variant, centered in enumerate((False, True)):
                got = scores[i, variant]
                # no spectrum for the NaN and Inf rows either: all zeros, which
                # anisotropy_profile reads from the first score
                want = None if i in (6, 7) else single_spectrum_scores(m, rank_bound, centered)
                if want is None:
                    assert not got.any()
                else:
                    assert got[0] > 0.0 and got.tobytes() == want.tobytes()
