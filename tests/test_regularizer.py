import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toporeg.entropy import select_features
from toporeg.geometry import pairwise_distances
from toporeg.persistence import vr_barcode_0d
from toporeg.regularizer import SelectionMode, entropy_loss_grad, per_class_entropy_loss

from gradcheck import entropy_grad_check, loss_value, discrete_structure
from oracles import entropy_formula, entropy_grad_loop

MODES = [SelectionMode.ALL_BARS, SelectionMode.SELECTED_BARS]


def random_cloud(seed, n=10, dim=4, scale=1.0):
    return scale * np.random.default_rng(seed).normal(size=(n, dim))


class TestEntropyLossValueAndGrad:
    @pytest.mark.parametrize("mode", MODES)
    def test_two_point_cloud_is_flat(self, mode):
        cloud = np.array([[0.0, 0.0], [3.0, 4.0]])
        res = entropy_loss_grad(cloud, mode)
        assert res.value == 0.0
        np.testing.assert_array_equal(res.grad, np.zeros((2, 2)))

    def test_equilateral_triangle_is_stationary(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        res = entropy_loss_grad(tri, SelectionMode.ALL_BARS)
        assert np.linalg.norm(res.grad) <= 1e-9

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_finite_differences(self, mode):
        passed = failures_with_stable_structure = 0
        for seed in range(30):
            ok, unstable = entropy_grad_check(random_cloud(seed), mode)
            passed += ok
            if not ok and not unstable:
                failures_with_stable_structure += 1
        assert failures_with_stable_structure == 0
        assert passed >= 28

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            entropy_loss_grad(np.zeros((1, 3)))

    @pytest.mark.parametrize("mode", ["selected_bars", "all_bars", None])
    def test_mode_must_be_a_selection_mode(self, mode):
        with pytest.raises(ValueError, match=repr(mode)):
            entropy_loss_grad(random_cloud(0), mode)

    def test_all_duplicate_points_degenerate(self):
        cloud = np.ones((4, 2))
        res = entropy_loss_grad(cloud, SelectionMode.ALL_BARS)
        assert res.degenerate
        assert res.value == 0.0
        np.testing.assert_array_equal(res.grad, np.zeros((4, 2)))

    def test_selected_mode_untouched_points_have_zero_rows(self):
        # two tight pairs far apart: the bridge bar dominates selection
        cloud = np.array([[0.0, 0.0], [0.4, 0.0], [30.0, 0.0], [30.0, 0.3], [30.3, 0.0]])
        res = entropy_loss_grad(cloud, SelectionMode.SELECTED_BARS)
        _, active = discrete_structure(cloud, SelectionMode.SELECTED_BARS)
        barcode = vr_barcode_0d(pairwise_distances(cloud))
        touched = set()
        for idx in active:
            touched |= {int(barcode.a[idx]), int(barcode.b[idx])}
        untouched = set(range(5)) - touched
        assert untouched, "test cloud should leave some point untouched"
        for i in untouched:
            np.testing.assert_array_equal(res.grad[i], 0.0)


class TestScatterMatchesPerBarLoop:
    """The one-call gradient scatter adds in the per-bar loop's order."""

    @pytest.mark.parametrize("mode", MODES)
    @given(seed=st.integers(0, 2**32 - 1), n_distinct=st.integers(2, 12), n_copies=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_on_clouds_with_duplicates_and_hubs(self, mode, seed, n_distinct, n_copies):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        # a hub at the origin with points at one radius around it, so MST
        # endpoints are shared by several bars, plus random points; copies of
        # rows add zero-length bars, which the gradient skips
        hub = np.vstack([np.zeros(dim), np.eye(dim), -np.eye(dim)])
        rows = np.vstack([hub, rng.normal(scale=3.0, size=(n_distinct, dim))])
        x = np.vstack([rows, rows[rng.integers(0, len(rows), size=n_copies)]])

        barcode = vr_barcode_0d(pairwise_distances(x))
        assert (barcode.lengths() == 0.0).any()
        assert np.bincount(np.concatenate([barcode.a, barcode.b])).max() >= 2
        active = range(barcode.lengths().size)
        if mode is SelectionMode.SELECTED_BARS:
            active = select_features(barcode.lengths()).selected
        lengths, a, b = barcode.lengths().tolist(), barcode.a.tolist(), barcode.b.tolist()
        bars = [(lengths[i], a[i], b[i]) for i in active]

        res = entropy_loss_grad(x, mode)
        if res.degenerate:
            np.testing.assert_array_equal(res.grad, 0.0)
        else:
            assert np.array_equal(res.grad, entropy_grad_loop(x, bars))


class TestInvariances:
    @pytest.mark.parametrize("mode", MODES)
    def test_translation_invariance(self, mode):
        cloud = random_cloud(1)
        shifted = cloud + np.array([5.0, -2.0, 0.25, 100.0])
        a = entropy_loss_grad(cloud, mode)
        b = entropy_loss_grad(shifted, mode)
        assert b.value == pytest.approx(a.value, abs=1e-12)
        np.testing.assert_allclose(b.grad, a.grad, atol=1e-9)

    @pytest.mark.parametrize("mode", MODES)
    def test_scale_invariance_of_value_and_inverse_scaling_of_grad(self, mode):
        cloud = random_cloud(2)
        c = 3.7
        a = entropy_loss_grad(cloud, mode)
        b = entropy_loss_grad(c * cloud, mode)
        assert b.value == pytest.approx(a.value, abs=1e-9)
        np.testing.assert_allclose(b.grad, a.grad / c, atol=1e-9)

    @pytest.mark.parametrize("mode", MODES)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-1000, 1021))
    @example(seed=0, k=-1000)
    @example(seed=0, k=1010)
    @example(seed=0, k=1021)
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_scale_keeps_the_value_and_scales_the_gradient(self, mode, seed, k):
        # a 1/64-grid cloud below 4 stays normal and finite at every 2**k
        # here, though its distances overflow float64 from about k = 1019 on.
        # 2**k scales every bar exactly, so the value keeps its bits; the
        # gradient scales by 2**-k up to the rounding of log(2**k * l)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 33))
        cloud = rng.integers(-255, 256, size=(n, int(rng.integers(1, 9)))) / 64
        labels = rng.integers(0, 3, size=n)
        for loss in (lambda x: entropy_loss_grad(x, mode), lambda x: per_class_entropy_loss(x, labels, mode)):
            base, scaled = loss(cloud), loss(np.ldexp(cloud, k))
            assert scaled.value == base.value
            unscaled = np.ldexp(scaled.grad, k)
            assert np.isfinite(unscaled).all()
            tol = max(1e-9 * float(np.abs(base.grad).max()), 1e-12)
            assert np.abs(unscaled - base.grad).max() <= tol

    @pytest.mark.parametrize("mode", MODES)
    def test_cloud_whose_distances_overflow_has_a_value_and_gradient(self, mode):
        # the first two points are 2e308 apart; the cloud runs at 2**-1024
        cloud = [[1e308, 1e308], [-1e308, -1e308], [0.0, 0.0]]
        for res in (entropy_loss_grad(cloud, mode), per_class_entropy_loss(cloud, [0, 0, 0], mode)):
            assert res.value == pytest.approx(math.log(2), abs=1e-15)
            assert np.isfinite(res.grad).all()

    def test_gradient_beyond_float64_comes_out_inf(self):
        # bars of 5e-324 and 1e-323 run at 2**1072 times their length; scaled
        # back, the gradient exceeds float64, with no RuntimeWarning
        cloud = [[0.0], [5e-324], [1.5e-323]]
        for res in (entropy_loss_grad(cloud), per_class_entropy_loss(cloud, [0, 0, 0])):
            assert res.value == pytest.approx(entropy_formula([1.0, 2.0]), abs=1e-15)
            assert res.grad.ravel().tolist() == [-math.inf, math.inf, -math.inf]

    @pytest.mark.parametrize("scale", [1e-170, 1e154, 1e300])
    def test_clouds_far_from_unit_scale_keep_the_value(self, scale):
        # their squared differences underflow or overflow; the distances do not
        cloud = np.random.default_rng(0).normal(size=(32, 4))
        base = entropy_loss_grad(cloud)
        scaled = entropy_loss_grad(cloud * scale)
        assert not scaled.degenerate
        assert scaled.value == pytest.approx(base.value, rel=1e-12)
        np.testing.assert_allclose(scaled.grad * scale, base.grad, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_rotation_invariance_of_value(self, mode):
        cloud = random_cloud(3)
        q, _ = np.linalg.qr(np.random.default_rng(99).normal(size=(4, 4)))
        a = entropy_loss_grad(cloud, mode)
        b = entropy_loss_grad(cloud @ q, mode)
        assert b.value == pytest.approx(a.value, abs=1e-9)

    @pytest.mark.parametrize("mode", MODES)
    def test_gradient_rows_sum_to_zero(self, mode):
        for seed in range(10):
            res = entropy_loss_grad(random_cloud(seed, n=12, dim=3), mode)
            np.testing.assert_allclose(res.grad.sum(axis=0), 0.0, atol=1e-9)

    def test_gradient_ascent_increases_value(self):
        increased = skipped = 0
        for seed in range(50):
            cloud = random_cloud(seed, n=8, dim=3)
            res = entropy_loss_grad(cloud, SelectionMode.ALL_BARS)
            base_structure = discrete_structure(cloud, SelectionMode.ALL_BARS)
            gnorm = np.linalg.norm(res.grad)
            if gnorm < 1e-12:
                skipped += 1
                continue
            step = 1e-2 / gnorm
            for _ in range(40):  # backtrack until the MST edge set is stable
                moved = cloud + step * res.grad
                if discrete_structure(moved, SelectionMode.ALL_BARS) == base_structure:
                    break
                step /= 2
            else:
                skipped += 1
                continue
            if loss_value(moved, SelectionMode.ALL_BARS) > res.value:
                increased += 1
            else:
                skipped += 1  # structure changed inside the step
        assert increased >= 45


class TestPerClassLoss:
    def test_single_class_equals_whole_cloud(self):
        cloud = random_cloud(5)
        whole = entropy_loss_grad(cloud, SelectionMode.ALL_BARS)
        split = per_class_entropy_loss(cloud, np.zeros(10, dtype=int), SelectionMode.ALL_BARS)
        assert split.value == pytest.approx(whole.value, abs=1e-12)
        np.testing.assert_allclose(split.grad, whole.grad, atol=1e-12)

    def test_two_pair_classes_have_zero_entropy(self):
        cloud = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
        res = per_class_entropy_loss(cloud, [0, 0, 1, 1], SelectionMode.ALL_BARS)
        assert res.value == 0.0

    @pytest.mark.parametrize("mode", MODES)
    def test_sum_of_independent_class_losses(self, mode):
        # each class's result passes through bitwise, also for a class the
        # range rule rescales while it leaves the others alone
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(5, 3)) + 4.0
        c = rng.normal(size=(5, 3)) * 2.0**300
        cloud = np.vstack([a, b, c])
        labels = np.repeat([0, 1, 2], 5)
        combined = per_class_entropy_loss(cloud, labels, mode)
        ra, rb, rc = (entropy_loss_grad(part, mode) for part in (a, b, c))
        assert combined.value == ra.value + rb.value + rc.value
        for rows, sub in zip((slice(0, 5), slice(5, 10), slice(10, 15)), (ra, rb, rc)):
            assert combined.grad[rows].tobytes() == sub.grad.tobytes()

    def test_small_classes_are_skipped(self):
        cloud = random_cloud(9, n=5, dim=2)
        res = per_class_entropy_loss(cloud, [0, 1, 2, 3, 4], SelectionMode.ALL_BARS)  # all singletons
        assert res.value == 0.0
        np.testing.assert_array_equal(res.grad, 0.0)
        assert res.degenerate

    def test_interleaved_labels_scatter_correctly(self):
        rng = np.random.default_rng(10)
        cloud = rng.normal(size=(12, 2))
        labels = np.tile([0, 1, 2], 4)
        cloud[labels == 2] *= 2.0**300  # rescaled by the range rule, the other classes not
        res = per_class_entropy_loss(cloud, labels, SelectionMode.ALL_BARS)
        value = 0.0
        for c in (0, 1, 2):
            idx = np.flatnonzero(labels == c)
            sub = entropy_loss_grad(cloud[idx], SelectionMode.ALL_BARS)
            value += sub.value
            assert res.grad[idx].tobytes() == sub.grad.tobytes()
        assert res.value == value

    def test_partition_length_mismatch(self):
        with pytest.raises(ValueError, match=re.escape("labels must be a 1-D array of 10 integers, got shape (2,)")):
            per_class_entropy_loss(random_cloud(0), [0, 1])

    @pytest.mark.parametrize("mode", ["selected_bars", "all_bars", None])
    def test_mode_must_be_a_selection_mode(self, mode):
        # every class a singleton, so no class reaches entropy_loss_grad
        with pytest.raises(ValueError, match=repr(mode)):
            per_class_entropy_loss(random_cloud(0, n=3), [0, 1, 2], mode)

    def test_non_finite_point_in_skipped_class_rejected(self):
        cloud = random_cloud(0, n=5, dim=2)
        cloud[4, 1] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            per_class_entropy_loss(cloud, [0, 0, 0, 0, 1])

    @pytest.mark.parametrize("labels", [[0, 0, 1.7, 1.2], np.array([True, True, False, False])])
    def test_labels_must_have_an_integer_dtype(self, labels):
        # an integer cast would train [0, 0, 1.7, 1.2] as [0, 0, 1, 1]
        with pytest.raises(ValueError, match="labels must be integers"):
            per_class_entropy_loss(random_cloud(0, n=4), labels)

    def test_labels_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            per_class_entropy_loss(random_cloud(0), np.zeros((10, 1), dtype=int))
