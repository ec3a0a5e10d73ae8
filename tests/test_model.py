import math

import numpy as np
import pytest

from toporeg.model import (
    MLP,
    AdamState,
    WarmupSchedule,
    adam_step,
    backward_combined,
    forward,
)
from toporeg.regularizer import SelectionMode

from gradcheck import combined_fd_param_gradient, combined_param_stability, gradient_agrees
from oracles import scalar_adam_trajectory, scalar_forward


def small_mlp(seed=0, dims=(3, 5, 4, 2)):
    return MLP.init(list(dims), np.random.default_rng(seed))


class TestForward:
    def test_zero_weights_give_uniform_softmax(self):
        mlp = small_mlp()
        for w in mlp.weights:
            w[:] = 0.0
        batch = np.random.default_rng(1).normal(size=(6, 3))
        logits, _, _ = forward(mlp, batch)
        np.testing.assert_array_equal(logits, 0.0)
        labels = np.array([0, 1, 0, 0, 1, 0])  # unbalanced, so the bias gradient is not zero
        breakdown, grad = backward_combined(mlp, batch, labels, mode=None)
        assert breakdown.ce == pytest.approx(math.log(2), abs=1e-12)
        # uniform softmax: d(ce)/d(output bias) = mean(0.5 - onehot)
        onehot = np.eye(2)[labels]
        output_bias_grad = MLP(mlp.dims, grad).biases[-1]
        np.testing.assert_allclose(output_bias_grad, (0.5 - onehot).mean(axis=0), atol=1e-15)

    def test_matches_scalar_loop_oracle(self):
        mlp = small_mlp(seed=3)
        batch = np.random.default_rng(4).normal(size=(7, 3))
        logits, reps, _ = forward(mlp, batch)
        ref_logits, ref_reps = scalar_forward(mlp.weights, mlp.biases, batch)
        np.testing.assert_allclose(logits, np.array(ref_logits), atol=1e-12)
        np.testing.assert_allclose(reps, np.array(ref_reps), atol=1e-12)

    def test_representation_layer_is_hidden_activation(self):
        mlp = small_mlp(seed=5)
        batch = np.random.default_rng(6).normal(size=(4, 3))
        _, reps, activations = forward(mlp, batch)
        np.testing.assert_array_equal(reps, activations[-2])  # the last hidden layer
        assert reps.shape == (4, 4)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            forward(small_mlp(), np.zeros((2, 7)))

    def test_buffer_must_fit_dims(self):
        # dims (3, 4, 2) need 3*4 + 4 + 4*2 + 2 = 26 values
        MLP(dims=[3, 4, 2], params=np.zeros(26))
        for params in (np.zeros(25), np.zeros(27), np.zeros((2, 13))):
            with pytest.raises(ValueError, match="do not fit dims"):
                MLP(dims=[3, 4, 2], params=params)
        with pytest.raises(ValueError):
            MLP(dims=[3], params=np.zeros(0))
        stacked = MLP(dims=[3, 4, 2], params=np.zeros((5, 26)))
        assert stacked.weights[1].shape == (5, 4, 2) and stacked.biases[1].shape == (5, 2)
        stacked.weights[1][3, 2, 1] = 7.0
        assert stacked.params[3, 3 * 4 + 4 + 2 * 2 + 1] == 7.0  # views, row by row

    @pytest.mark.parametrize("dims", [(3, 5, 4, 2), (4, 8, 2), (3, 1, 2), (2, 16, 3)])
    def test_stacked_forward_slices_equal_single_forward_bitwise(self, dims):
        dims = list(dims)
        rng = np.random.default_rng(21)
        stack = np.stack([small_mlp(seed, dims).params for seed in range(5)])
        stack[1] = 0.0
        stack[3] *= 1e3  # saturated tanh units
        batch = rng.normal(size=(7, dims[0]))
        logits, reps, activations = forward(MLP(dims, stack), batch)
        assert logits.shape == (5, 7, dims[-1]) and activations[0].shape == batch.shape
        for i, row in enumerate(stack):
            want_logits, want_reps, want_activations = forward(MLP(dims, row), batch)
            assert logits[i].tobytes() == want_logits.tobytes()
            assert reps[i].tobytes() == want_reps.tobytes()
            for got, want in zip(activations[1:], want_activations[1:]):
                assert got[i].tobytes() == want.tobytes()

    def test_layers_are_views_of_the_flat_buffer(self):
        mlp = small_mlp(seed=13)
        mlp.weights[1][2, 3] = 7.0
        mlp.biases[2][1] = -5.0
        assert mlp.params[3 * 5 + 5 + 2 * 4 + 3] == 7.0  # w1 follows w0, b0
        assert mlp.params[-1] == -5.0  # b2 ends the buffer
        batch = np.random.default_rng(14).normal(size=(6, 3))
        before, _, _ = forward(mlp, batch)
        state = AdamState.for_params(mlp.params)
        sched = WarmupSchedule(base_lr=0.1, warmup_steps=1, total_steps=10)
        adam_step(mlp.params, np.ones_like(mlp.params), state, sched)
        after, _, _ = forward(mlp, batch)
        assert not np.array_equal(before, after)
        # one unit-gradient step at lr 0.1 moves every parameter by about -0.1
        np.testing.assert_allclose(mlp.biases[2], [-0.1, -5.1], rtol=1e-7)


class TestBackwardCombined:
    def test_lambda_zero_equals_pure_cross_entropy(self):
        mlp = small_mlp(seed=7)
        rng = np.random.default_rng(8)
        batch = rng.normal(size=(8, 3))
        labels = rng.integers(0, 2, size=8)
        bd_off, grad_off = backward_combined(mlp, batch, labels, None)
        bd_zero, grad_zero = backward_combined(mlp, batch, labels, SelectionMode.ALL_BARS, lam=0.0)
        assert bd_off.ent == 0.0
        assert bd_zero.total == pytest.approx(bd_zero.ce, abs=1e-15)
        assert grad_off.shape == mlp.params.shape
        np.testing.assert_allclose(grad_off, grad_zero, atol=1e-12)

    def test_singleton_classes_zero_entropy_term(self):
        mlp = small_mlp(seed=9, dims=(3, 5, 4, 3))
        rng = np.random.default_rng(10)
        batch = rng.normal(size=(3, 3))
        labels = np.array([0, 1, 2])
        bd, grad = backward_combined(mlp, batch, labels, SelectionMode.ALL_BARS, lam=2.0)
        _, ce_grad = backward_combined(mlp, batch, labels, None)
        assert bd.ent == 0.0
        np.testing.assert_allclose(grad, ce_grad, atol=1e-15)

    def test_cross_entropy_is_the_np_mean_bitwise(self):
        # many batch sizes, so a sum times 1/n would round differently somewhere
        for n in range(1, 65):
            mlp = small_mlp(seed=n, dims=(3, 5, 4, 3))
            rng = np.random.default_rng(n + 1)
            batch = rng.normal(size=(n, 3))
            labels = rng.integers(0, 3, size=n)
            logits, _, _ = forward(mlp, batch)
            shifted = logits - logits.max(axis=1, keepdims=True)
            per_row = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(n), labels]
            bd, _ = backward_combined(mlp, batch, labels, None)
            assert bd.ce == float(np.mean(per_row)), n

    def test_breakdown_identity(self):
        mlp = small_mlp(seed=11)
        rng = np.random.default_rng(12)
        batch = rng.normal(size=(10, 3))
        labels = rng.integers(0, 2, size=10)
        bd, _ = backward_combined(mlp, batch, labels, SelectionMode.ALL_BARS, lam=0.7)
        assert bd.total == pytest.approx(bd.ce - 0.7 * bd.ent, abs=1e-12)
        assert bd.ent > 0.0

    @pytest.mark.parametrize("mode", [SelectionMode.ALL_BARS, SelectionMode.SELECTED_BARS])
    def test_parameter_gradients_match_finite_differences(self, mode):
        passed = failures_with_stable_structure = 0
        trials = 20
        for seed in range(trials):
            mlp = small_mlp(seed=seed)
            rng = np.random.default_rng(1000 + seed)
            batch = rng.normal(size=(8, 3))
            labels = rng.integers(0, 2, size=8)
            _, analytic = backward_combined(mlp, batch, labels, mode, lam=1.0)
            numeric = combined_fd_param_gradient(mlp, batch, labels, mode, lam=1.0)
            stable = combined_param_stability(mlp, batch, labels, mode)
            ok = bool(np.all(gradient_agrees(analytic, numeric, rel_tol=1e-3) | ~stable))
            passed += ok
            if not ok and stable.all():
                failures_with_stable_structure += 1
        assert failures_with_stable_structure == 0
        assert passed >= int(0.9 * trials)

    def test_bad_labels_rejected(self):
        mlp = small_mlp()
        with pytest.raises(ValueError):
            backward_combined(mlp, np.zeros((2, 3)), np.array([0, 5]), None)

    @pytest.mark.parametrize("row", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("label", [-1, 2], ids=["negative", "n_classes"])
    @pytest.mark.parametrize("mode", [None, SelectionMode.SELECTED_BARS])
    def test_label_out_of_range_raises_wherever_it_sits(self, row, label, mode):
        labels = np.array([0, 1, 0, 1, 1])
        labels[row] = label
        batch = np.random.default_rng(row).normal(size=(5, 3))
        with pytest.raises(ValueError, match="labels out of range"):
            backward_combined(small_mlp(), batch, labels, mode)

    @pytest.mark.parametrize("labels", [[0, 1, 0], [[0], [1]], 0], ids=["too_many", "2d", "scalar"])
    def test_labels_must_have_one_entry_per_row(self, labels):
        with pytest.raises(ValueError, match="labels shape"):
            backward_combined(small_mlp(), np.zeros((2, 3)), labels, None)

    @pytest.mark.parametrize("labels", [[0, 0.5, 1.9, 1.0], np.array([False, False, True, True])])
    @pytest.mark.parametrize("mode", [None, SelectionMode.ALL_BARS])
    def test_labels_must_have_an_integer_dtype(self, labels, mode):
        # an integer cast would give [0, 0.5, 1.9, 1.0] the gradient of
        # [0, 0, 1, 1] bit for bit
        mlp = small_mlp()
        batch = np.random.default_rng(1).normal(size=(4, 3))
        with pytest.raises(ValueError, match="labels must be integers"):
            backward_combined(mlp, batch, labels, mode)
        backward_combined(mlp, batch, [0, 0, 1, 1], mode)  # a list of ints is fine

    def test_stacked_parameters_rejected(self):
        stacked = MLP([3, 4, 2], np.zeros((2, 26)))
        with pytest.raises(ValueError, match="one parameter vector"):
            backward_combined(stacked, np.ones((5, 3)), np.zeros(5, dtype=int), mode=None)

    def test_mlp_without_hidden_layer_raises(self):
        with pytest.raises(ValueError, match="at least one hidden"):
            MLP.init([3, 3], np.random.default_rng(0))


class TestWarmupSchedule:
    def test_exact_endpoints(self):
        sched = WarmupSchedule(base_lr=0.3, warmup_steps=10, total_steps=100)
        assert sched.lr_at(0) == 0.0
        assert sched.lr_at(10) == 0.3
        assert sched.lr_at(100) == 0.0
        assert sched.lr_at(150) == 0.0

    def test_piecewise_linearity(self):
        sched = WarmupSchedule(base_lr=0.2, warmup_steps=4, total_steps=24)
        for t in range(0, 4):
            assert sched.lr_at(t) == pytest.approx(0.2 * t / 4, abs=1e-15)
        for t in range(4, 25):
            assert sched.lr_at(t) == pytest.approx(0.2 * (24 - t) / 20, abs=1e-15)

    def test_for_total_uses_ten_percent_warmup(self):
        sched = WarmupSchedule.for_total(1e-2, 200)
        assert sched.warmup_steps == 20
        assert sched.total_steps == 200
        assert WarmupSchedule.for_total(1e-2, 5).warmup_steps == 1  # floor of one step


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        params = np.array([1.0, -2.0, 0.5])
        state = AdamState.for_params(params)
        sched = WarmupSchedule(base_lr=0.1, warmup_steps=1, total_steps=10)
        adam_step(params, np.zeros(3), state, sched, weight_decay=0.0)
        np.testing.assert_array_equal(params, [1.0, -2.0, 0.5])

    def test_first_step_moves_by_lr_signwise(self):
        params = np.array([0.0, 0.0])
        state = AdamState.for_params(params)
        sched = WarmupSchedule(base_lr=0.05, warmup_steps=1, total_steps=10)
        adam_step(params, np.array([3.0, -0.2]), state, sched)
        # bias-corrected m/sqrt(v) has unit magnitude for a constant gradient
        np.testing.assert_allclose(params, [-0.05, 0.05], rtol=1e-6)

    def test_decoupled_weight_decay_applies_before_delta(self):
        params = np.array([2.0])
        state = AdamState.for_params(params)
        sched = WarmupSchedule(base_lr=0.1, warmup_steps=1, total_steps=10)
        adam_step(params, np.array([0.0]), state, sched, weight_decay=0.5)
        # zero gradient: the only movement is the multiplicative decay
        np.testing.assert_allclose(params, [2.0 * (1 - 0.1 * 0.5)], rtol=1e-15)

    def test_ten_step_quadratic_matches_scalar_oracle(self):
        target = np.array([1.5, -0.5, 2.0])
        curvature = np.array([1.0, 3.0, 0.5])

        params = np.array([0.0, 0.0, 0.0])
        state = AdamState.for_params(params)
        sched = WarmupSchedule(base_lr=0.2, warmup_steps=2, total_steps=10)
        mine = []
        for _ in range(10):
            adam_step(params, 2.0 * curvature * (params - target), state, sched, weight_decay=0.01)
            mine.append(params.copy())

        lrs = [WarmupSchedule(0.2, 2, 10).lr_at(t) for t in range(1, 11)]
        ref = scalar_adam_trajectory(
            [0.0, 0.0, 0.0],
            lambda x: [2.0 * c * (xi - ti) for c, xi, ti in zip(curvature, x, target)],
            lrs,
            weight_decay=0.01,
        )
        np.testing.assert_allclose(np.array(mine), np.array(ref), atol=1e-10)

    def test_lr_follows_schedule_and_counter(self):
        params = np.zeros(1)
        state = AdamState.for_params(params)
        sched = WarmupSchedule(base_lr=1.0, warmup_steps=2, total_steps=4)
        used = [adam_step(params, np.ones(1), state, sched) for _ in range(4)]
        assert used == [0.5, 1.0, 0.5, 0.0]
        assert state.t == 4

    def test_gradient_shape_must_match(self):
        params = np.zeros(3)
        state = AdamState.for_params(params)
        sched = WarmupSchedule(base_lr=1.0, warmup_steps=2, total_steps=4)
        with pytest.raises(ValueError, match="mismatches gradient"):
            adam_step(params, np.ones(2), state, sched)
