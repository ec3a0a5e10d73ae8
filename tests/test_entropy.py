import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toporeg.entropy import max_feature_count, persistent_entropy, select_features

from alg1_reference import reference_feature_lengths
from oracles import entropy_formula


def random_barcode(rng) -> np.ndarray:
    """Draw bar lengths from one of several shapes (uniform, lognormal, two-scale)."""
    n = int(rng.integers(2, 40))
    kind = rng.integers(0, 4)
    if kind == 0:
        lengths = rng.uniform(0.05, 3.0, size=n)
    elif kind == 1:
        lengths = rng.lognormal(0.0, 1.2, size=n)
    elif kind == 2:
        big = rng.uniform(5.0, 20.0)
        lengths = np.concatenate(
            [np.full(max(1, n // 5), big), rng.uniform(0.01, 0.4, size=n - max(1, n // 5))]
        )
    else:
        lengths = np.round(rng.uniform(0.0, 4.0, size=n), 1)  # ties and zeros
        lengths[0] = max(lengths.max(), 0.5)
    return lengths


class TestPersistentEntropy:
    def test_uniform_lengths_hit_log_n(self):
        assert persistent_entropy([1, 1, 1, 1]) == pytest.approx(math.log(4), abs=1e-12)

    def test_single_bar_is_zero(self):
        assert persistent_entropy([5.0]) == 0.0

    def test_hand_evaluated_example(self):
        # p = 1/6, 1/3, 1/2
        expected = (
            (1 / 6) * math.log(6) + (1 / 3) * math.log(3) + (1 / 2) * math.log(2)
        )
        assert expected == pytest.approx(1.0114, abs=5e-5)
        assert persistent_entropy([1, 2, 3]) == pytest.approx(expected, abs=1e-12)

    def test_zero_bars_contribute_nothing(self):
        assert persistent_entropy([2.0, 0.0, 2.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_degenerate_total_raises(self):
        with pytest.raises(ValueError):
            persistent_entropy([0.0, 0.0])

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ValueError):
            persistent_entropy([1.0, -0.5])
        with pytest.raises(ValueError):
            persistent_entropy([])

    @pytest.mark.parametrize(
        "bad", [[np.nan], [np.inf], [-np.inf], [1.0, np.nan], [np.nan, 1.0], [np.inf, -np.inf], [1e308, 1e308, -1.0]]
    )
    def test_rejects_non_finite_and_negative(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            persistent_entropy(bad)

    def test_overflowing_total_is_rescaled(self):
        # the sum 2e308 overflows float64; the bars are still two equal ones
        assert persistent_entropy([1e308, 1e308]) == pytest.approx(math.log(2), abs=1e-15)
        lengths = np.array([3.0, 1.0, 0.5, 0.0])
        huge = lengths / 3.0 * sys.float_info.max
        assert persistent_entropy(huge) == pytest.approx(persistent_entropy(lengths), abs=1e-15)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_invariances(self, seed):
        rng = np.random.default_rng(seed)
        lengths = random_barcode(rng)
        if lengths.sum() <= 0:
            return
        e = persistent_entropy(lengths)
        assert 0.0 <= e <= math.log(lengths.size) + 1e-12
        c = float(rng.uniform(0.01, 50.0))
        assert persistent_entropy(c * lengths) == pytest.approx(e, abs=1e-12)
        assert persistent_entropy(lengths[rng.permutation(lengths.size)]) == pytest.approx(e, abs=1e-12)
        assert e == pytest.approx(entropy_formula(lengths), abs=1e-12)


class TestMaxFeatureCount:
    def test_hand_evaluated_values(self):
        assert max_feature_count(0.5, 10) == 4
        assert max_feature_count(0.9, 20) == 10

    def test_vanishes_as_alpha_tends_to_zero(self):
        assert max_feature_count(1e-6, 10) == 0

    def test_approaches_half_n_near_one(self):
        assert max_feature_count(1 - 1e-9, 20) == 10

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_out_of_range_alpha_raises(self, alpha):
        with pytest.raises(ValueError):
            max_feature_count(alpha, 10)

    def test_positive_inside_unit_interval(self):
        for alpha in np.linspace(0.05, 0.95, 19):
            assert max_feature_count(float(alpha), 50) >= 1


class TestSelectFeatures:
    def test_worked_example_two_long_bars(self):
        lengths = np.array([10.0, 9.5, 0.5, 0.4, 0.35, 0.3])
        res = select_features(lengths)
        assert res.selected == [0, 1]
        assert res.noise == [2, 3, 4, 5]
        assert res.alpha == pytest.approx(0.03)
        # the independent step-by-step reference agrees
        assert sorted(reference_feature_lengths(lengths)) == [9.5, 10.0]

    def test_two_bars(self):
        res = select_features(np.array([3.0, 1.0]))
        assert res.selected == [0]
        assert res.noise == [1]

    def test_uniform_barcode_selects_everything(self):
        res = select_features(np.array([2.0, 2.0, 2.0, 2.0]))
        assert res.selected == [0, 1, 2, 3]
        assert res.noise == []
        assert res.alpha == 1.0

    def test_single_bar(self):
        res = select_features(np.array([4.2]))
        assert res.selected == [0] and res.noise == []

    def test_zero_length_bars_leave_only_longest(self):
        res = select_features(np.array([5.0, 2.0, 0.0]))
        assert res.selected == [0]
        assert res.noise == [1, 2]

    def test_all_zero_barcode_counts_as_uniform(self):
        res = select_features(np.array([0.0, 0.0, 0.0]))
        assert res.selected == [0, 1, 2]

    def test_matches_reference_on_random_barcodes(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            lengths = random_barcode(rng)
            res = select_features(lengths)
            got = sorted(lengths[res.selected])
            want = sorted(reference_feature_lengths(lengths))
            np.testing.assert_allclose(got, want, atol=0)

    def test_zero_entropy_tail_stops_exactly_at_c_one(self):
        # tail [0, T] has entropy exactly 0, so step 1 gives C == 1.0 and the
        # second T is noise; for this T, log(P) - T*log(T)/P rounds to 2**-52
        t = 5.334129085967947
        res = select_features(np.array([t, t, 0.0]))
        assert res.q_trace == [(1, 0, 1.0)]
        assert res.selected == [0]
        assert sorted(reference_feature_lengths([t, t, 0.0])) == [t]

    def test_monotone_separation_grid(self):
        # two well-separated scales: exactly the big bars are features
        for ratio in (20.0, 50.0, 100.0):
            for n_big in (1, 2):
                for n_small in (3, 5, 8, 12):
                    for b in (0.1, 1.0):
                        a = b * ratio
                        lengths = np.array([a] * n_big + [b] * n_small)
                        res = select_features(lengths)
                        assert res.selected == list(range(n_big)), (ratio, n_big, n_small, b)
                        got = sorted(lengths[res.selected])
                        want = sorted(reference_feature_lengths(lengths))
                        np.testing.assert_allclose(got, want, atol=0)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_partition_and_extreme_bar_properties(self, seed):
        rng = np.random.default_rng(seed)
        lengths = random_barcode(rng)
        res = select_features(lengths)
        n = lengths.size
        assert sorted(res.selected + res.noise) == list(range(n))
        assert int(np.argmax(lengths)) in res.selected
        if res.alpha < 1.0 and n >= 2:
            assert int(np.argmin(lengths)) in res.noise

    def test_terminates_on_long_smooth_barcodes(self):
        rng = np.random.default_rng(0)
        lengths = np.sort(rng.lognormal(0, 1.5, size=400))[::-1]
        res = select_features(lengths)
        assert 1 <= len(res.selected) <= 400

    def test_q_trace_is_recorded(self):
        res = select_features(np.array([10.0, 9.5, 0.5, 0.4, 0.35, 0.3]))
        assert res.q_trace, "expected per-iteration diagnostics"
        for i, q, c in res.q_trace:
            assert i >= 1 and q >= 0 and c > 0

    def test_empty_barcode_rejected(self):
        with pytest.raises(ValueError):
            select_features(np.array([]))

    @pytest.mark.parametrize(
        "bad", [[np.nan], [np.inf], [-1.0], [1.0, np.nan], [np.nan, 1.0], [np.inf, -np.inf], [1e308, 1e308, -1.0]]
    )
    def test_rejects_non_finite_and_negative(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            select_features(np.array(bad))


def assert_same_selection(scaled, unscaled):
    a, b = select_features(scaled), select_features(unscaled)
    assert (a.selected, a.noise) == (b.selected, b.noise)
    assert [step[:2] for step in a.q_trace] == [step[:2] for step in b.q_trace]
    c_scaled = [step[2] for step in a.q_trace]
    assert np.isfinite(c_scaled).all()
    np.testing.assert_allclose(c_scaled, [step[2] for step in b.q_trace], rtol=1e-12)


class TestSelectFeaturesNearOverflow:
    """Bars whose sums overflow float64 select as their unscaled copies do."""

    def test_total_overflows(self):
        lengths = np.array([1.0, 0.9, 0.3, 0.2, 0.01])
        assert_same_selection(lengths * 1e308, lengths)
        assert select_features(lengths * 1e308).selected == [0]

    def test_entropy_sum_overflows_before_the_total(self):
        # the total is 0.8 of the float64 maximum, but the sum of
        # l * log(T / l) over the 40 middle bars is about 1.5 times it
        big = sys.float_info.max
        lengths = np.concatenate([[big / 4], np.full(40, big / 80), [big / 100]])
        assert np.isfinite(lengths.sum())
        assert_same_selection(lengths, lengths / 1e300)

    @pytest.mark.parametrize("seed", range(100))
    def test_random_barcodes(self, seed):
        lengths = random_barcode(np.random.default_rng(seed))
        assert_same_selection(lengths / lengths.max() * (sys.float_info.max / 3), lengths)
