import struct
import warnings
from dataclasses import asdict

import numpy as np
import pytest

import toporeg.harness as harness
import toporeg.regularizer as regularizer
from toporeg.geometry import anisotropy_profile
from toporeg.model import MLP, ObjectiveBreakdown
from toporeg.harness import (
    BlobSpec,
    ConfigError,
    ExperimentConfig,
    RunMetrics,
    generate_blobs,
    run_seed,
    summarize,
    tail_mean,
)

from oracles import per_step_records


def smoke_config(**kw):
    defaults = dict(
        regime="none",
        epochs=3,
        batch_size=16,
        seeds=[0],
        data=BlobSpec(n_per_class=40, n_classes=2, dim=4, spread=3.0),
        hidden_dims=[8, 4],
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def record_bits(records):
    """Each record's keys in order, floats as their bytes: equal exactly
    where the records are equal key for key and bit for bit."""
    return [[(key, struct.pack("<d", v) if type(v) is float else v) for key, v in rec.items()] for rec in records]


class TestGenerateBlobs:
    def test_deterministic_in_seed(self):
        a = generate_blobs(5, 16, 2, 4, 1.0)
        b = generate_blobs(5, 16, 2, 4, 1.0)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        np.testing.assert_array_equal(a[2], b[2])
        np.testing.assert_array_equal(a[3], b[3])

    def test_different_seeds_differ(self):
        a = generate_blobs(1, 16, 2, 4, 1.0)
        b = generate_blobs(2, 16, 2, 4, 1.0)
        assert not np.array_equal(a[0], b[0])

    def test_zero_spread_collapses_classes_onto_centers(self):
        points, labels, _, _ = generate_blobs(3, 16, 2, 4, 0.0)
        for c in (0, 1):
            pts = points[labels == c]
            assert np.ptp(pts, axis=0).max() == 0.0

    def test_split_is_a_partition(self):
        cloud, labels, train, val = generate_blobs(7, 20, 3, 5, 2.0)
        assert len(train) == 48 and len(val) == 12  # 80/20 of 60
        assert sorted(np.concatenate([train, val])) == list(range(60))

    def test_class_mean_separation_matches_expectation(self):
        # centers are unit vectors scaled by spread; in high dimension their
        # distance concentrates near sqrt(2)*spread
        spread = 1.0
        seps = []
        for seed in range(50):
            points, labels, _, _ = generate_blobs(seed, 128, 2, 16, spread)
            m0 = points[labels == 0].mean(axis=0)
            m1 = points[labels == 1].mean(axis=0)
            seps.append(np.linalg.norm(m0 - m1))
        assert np.mean(seps) == pytest.approx(np.sqrt(2.0) * spread, rel=0.10)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_per_class=4),
            dict(dim=1),
            dict(n_classes=1),
            dict(spread=-1.0),
            dict(spread=np.nan),
        ],
    )
    def test_degenerate_parameters_rejected(self, kw):
        args = dict(n_per_class=16, n_classes=2, dim=4, spread=1.0)
        args.update(kw)
        with pytest.raises(ValueError):
            generate_blobs(0, **args)


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.regime in ("none", "selected_bars", "all_bars")
        assert cfg.batch_size == 64
        assert len(cfg.seeds) == 5

    @pytest.mark.parametrize(
        "kw,field",
        [
            (dict(regime="sometimes"), "regime"),
            (dict(epochs=0), "epochs"),
            (dict(batch_size=2), "batch_size"),
            (dict(base_lr=-1.0), "base_lr"),
            (dict(weight_decay=-0.1), "weight_decay"),
            (dict(entropy_weight=-2.0), "entropy_weight"),
            (dict(seeds=[]), "seeds"),
            (dict(hidden_dims=[]), "hidden_dims"),
            (dict(seeds=[True]), "seeds"),
            (dict(base_lr="x"), "base_lr"),
            (dict(data=BlobSpec(n_per_class=4)), "data.n_per_class"),
            (dict(data=BlobSpec(spread=np.inf)), "data.spread"),
            (dict(seeds=[0, 0]), "seeds: must be distinct"),
            # unhashable, so a bare dict lookup would raise TypeError
            (dict(regime=[1]), "regime"),
            (dict(regime={"a": 1}), "regime"),
            (dict(data=5), 'data: must be a blob spec or {"csv": path}'),
            # a bare path is not the {"csv": path} object a config writes
            (dict(data="data.csv"), 'data: must be a blob spec or {"csv": path}'),
            # rejected as not finite, and an int past float64's range as well
            (dict(base_lr=np.inf), "base_lr: must be a finite real > 0"),
            (dict(weight_decay=np.inf), "weight_decay: must be a finite real >= 0"),
            (dict(entropy_weight=np.inf), "entropy_weight: must be a finite real >= 0"),
            (dict(base_lr=10**400), "base_lr: must be a finite real > 0"),
            (dict(entropy_weight=10**400), "entropy_weight: must be a finite real >= 0"),
            (dict(data=BlobSpec(spread=10**400)), "data.spread: must be a finite real >= 0"),
            # numpy floats narrower than float64, whose inf a cast bound would equal
            (dict(base_lr=np.float32(np.inf)), "base_lr: must be a finite real > 0"),
            (dict(base_lr=np.float32(np.nan)), "base_lr: must be a finite real > 0"),
            (dict(weight_decay=np.float16(np.inf)), "weight_decay: must be a finite real >= 0"),
            (dict(data=BlobSpec(spread=np.float32(np.nan))), "data.spread: must be a finite real >= 0"),
        ],
    )
    def test_validation_names_the_field(self, kw, field):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**kw)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_narrow_numpy_floats_validate_without_a_warning(self, dtype):
        # comparing with float64's largest value cast to float32 overflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ExperimentConfig(base_lr=dtype(0.01), weight_decay=dtype(0), data=BlobSpec(spread=dtype(3.0)))
        assert cfg.base_lr == dtype(0.01)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="mystery"):
            ExperimentConfig.from_dict({"mystery": 1})

    def test_from_dict_rejects_unknown_data_fields(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict({"data": {"n_per_class": 16, "foo": 1}})
        assert str(exc.value) == "data.foo: unknown config field"

    @pytest.mark.parametrize(
        "path,problem",
        [("a\x00b.csv", "a null byte"), ("\udc80.csv", "a lone surrogate")],
    )
    def test_csv_path_the_os_cannot_open_is_a_config_error(self, path, problem):
        # built directly, without from_dict, the path never reaches open()
        want = f"data.csv: path contains {problem}, got {path!r}"
        with pytest.raises(ConfigError) as direct:
            run_seed(ExperimentConfig(data={"csv": path}, epochs=1, seeds=[0]), 0)
        assert str(direct.value) == want
        with pytest.raises(ConfigError) as parsed:
            ExperimentConfig.from_dict({"epochs": 1, "seeds": [0], "data": {"csv": path}})
        assert str(parsed.value) == want

    def test_from_dict_roundtrip(self):
        cfg = ExperimentConfig.from_dict(
            {"regime": "all_bars", "epochs": 2, "data": {"n_per_class": 16, "dim": 4}}
        )
        assert cfg.regime == "all_bars"
        assert isinstance(cfg.data, BlobSpec)
        assert cfg.data.n_per_class == 16
        out = asdict(cfg)
        assert out["regime"] == "all_bars"
        assert out["data"]["n_per_class"] == 16


class TestRunSeed:
    def test_identical_config_and_seed_reproduce_records(self):
        cfg = smoke_config(regime="selected_bars")
        a = run_seed(cfg, 0)
        b = run_seed(cfg, 0)
        assert not a.diverged and not b.diverged
        assert a.records == b.records

    def test_emits_one_record_per_step(self):
        cfg = smoke_config(epochs=1)
        run = run_seed(cfg, 0)
        # 64 train points, batch 16 -> 4 steps
        assert [r["step"] for r in run.records] == [1, 2, 3, 4]

    @staticmethod
    def spy_on_barcodes(monkeypatch) -> list:
        """Record every barcode the regularizer computes; returns the call log."""
        calls = []
        real = regularizer.vr_barcode_0d

        def spy(d):
            calls.append(d.shape[0])
            return real(d)

        monkeypatch.setattr(regularizer, "vr_barcode_0d", spy)
        return calls

    def test_regime_none_never_touches_persistence(self, monkeypatch):
        calls = self.spy_on_barcodes(monkeypatch)
        run = run_seed(smoke_config(regime="none"), 0)
        assert calls == []
        assert all(r["ent"] == 0.0 for r in run.records)

    def test_regularized_regime_does_touch_persistence(self, monkeypatch):
        calls = self.spy_on_barcodes(monkeypatch)
        run_seed(smoke_config(regime="all_bars"), 0)
        assert calls

    def test_anisotropy_records_are_distribution_prefixes(self):
        run = run_seed(smoke_config(regime="all_bars"), 1)
        for rec in run.records:
            raw = [rec[f"anisotropy_raw_{k}"] for k in (1, 2, 3)]
            cen = [rec[f"anisotropy_centered_{k}"] for k in (1, 2, 3)]
            for vals in (raw, cen):
                assert all(0.0 <= v <= 1.0 for v in vals)
                assert sum(vals) <= 1.0 + 1e-9

    def test_all_zero_representations_score_zero_anisotropy(self):
        # with every parameter 0, each representation is tanh(0) = 0, whose
        # anisotropy is undefined (anisotropy_profile raises) raw and centered
        dims = [4, 8, 2]
        params = MLP.init(dims, np.random.default_rng(0)).params
        stack = np.stack([params, np.zeros_like(params)])
        live, zero = harness._evaluate(MLP(dims, stack), np.ones((10, 4)), np.zeros(10, dtype=int))
        assert zero["val_accuracy"] == 1.0
        assert all(zero[f"anisotropy_{kind}_{k}"] == 0.0 for kind in ("raw", "centered") for k in (1, 2, 3))
        # the same inputs through live weights coincide: one raw direction
        assert live["anisotropy_raw_1"] == 1.0

    def test_val_accuracy_is_the_mean_of_hits_bitwise(self):
        # many sizes, so a count times 1/n would round differently somewhere
        dims = [4, 8, 3]
        for n in range(1, 65):
            stack = np.stack([MLP.init(dims, np.random.default_rng([n, i])).params for i in range(3)])
            rng = np.random.default_rng(n + 1)
            val_x, val_y = rng.normal(size=(n, 4)), rng.integers(0, 3, size=n)
            records = harness._evaluate(MLP(dims, stack), val_x, val_y)
            assert len(records) == 3
            for row, rec in zip(stack, records):
                logits, _, _ = harness.forward(MLP(dims, row), val_x)
                assert rec["val_accuracy"] == float((np.argmax(logits, axis=1) == val_y).mean()), n

    def test_collapsed_representations_score_zero_centered_anisotropy(self):
        # with spread 0 the validation representations all coincide, so
        # centering leaves only rounding error, which has no direction
        run = run_seed(smoke_config(data=BlobSpec(n_per_class=40, n_classes=2, dim=4, spread=0.0)), 0)
        assert len(run.records) == 12
        assert all(rec["anisotropy_centered_1"] == 0.0 for rec in run.records)
        # raw, they span one direction, so every later score is 0
        assert all(rec["anisotropy_raw_2"] == rec["anisotropy_raw_3"] == 0.0 for rec in run.records)

    def test_every_record_value_is_a_python_scalar(self):
        run = run_seed(smoke_config(regime="selected_bars"), 0)
        for rec in run.records:
            assert type(rec["step"]) is int
            assert all(type(v) is float for key, v in rec.items() if key != "step"), rec

    @staticmethod
    def separate_scores(reps, centered):
        """The first three scores from their own anisotropy_profile call,
        0.0 past the rank bound or where the call raises."""
        k_max = min(3, min(reps.shape))
        try:
            scores = anisotropy_profile(reps, k_max=k_max, centered=centered).scores.tolist()
        except ValueError:
            scores = [0.0] * k_max
        return scores + [0.0] * (3 - k_max)

    @classmethod
    def separate_record(cls, mlp, val_x, val_y):
        """One step's evaluation of a single parameter vector: its own
        forward pass and one anisotropy_profile call per variant."""
        logits, reps, _ = harness.forward(mlp, val_x)
        reps = reps[: harness.EVAL_BATCH_SIZE]
        raw, centered = cls.separate_scores(reps, False), cls.separate_scores(reps, True)
        rec = {"val_accuracy": float((logits.argmax(axis=1) == val_y).mean())}
        for k in (1, 2, 3):
            rec[f"anisotropy_raw_{k}"] = raw[k - 1]
            rec[f"anisotropy_centered_{k}"] = centered[k - 1]
        return rec

    @pytest.mark.parametrize(
        "dims,n_val,collapse_input",
        [([4, 8, 2], 80, False), ([4, 16, 2], 5, False), ([4, 16, 2], 2, False),
         ([4, 6, 3, 2], 70, False), ([4, 1, 2], 30, False), ([4, 8, 2], 30, True)],
        ids=["tall", "wide", "two_rows", "tall_deep", "one_unit", "collapsed_input"],
    )
    def test_evaluate_equals_separate_single_variant_calls_bitwise(self, dims, n_val, collapse_input):
        rng = np.random.default_rng(len(dims) + n_val)
        live = [MLP.init(dims, rng) for _ in range(2)]
        # first-layer weights 0 and biases not: every representation coincides
        collapsed = MLP.init(dims, rng)
        collapsed.weights[0][...] = 0.0
        collapsed.biases[0][...] = rng.normal(size=dims[1])
        stack = np.stack([live[0].params, np.zeros_like(live[0].params), collapsed.params, live[1].params])
        val_x, val_y = rng.normal(size=(n_val, 4)), rng.integers(0, 2, size=n_val)
        if collapse_input:
            val_x[...] = val_x[0]
        got = harness._evaluate(MLP(dims, stack), val_x, val_y)
        want = [self.separate_record(MLP(dims, row), val_x, val_y) for row in stack]
        assert record_bits(got) == record_bits(want)
        assert all(type(v) is float for rec in got for v in rec.values())
        raw, centered = (
            [[rec[f"anisotropy_{kind}_{k}"] for k in (1, 2, 3)] for rec in got] for kind in ("raw", "centered")
        )
        assert raw[1] == centered[1] == [0.0, 0.0, 0.0]  # all zero
        assert raw[2] == [1.0, 0.0, 0.0] and centered[2] == [0.0, 0.0, 0.0]  # collapsed
        for i in (0, 3):
            assert raw[i][0] > 0.0 and (centered[i][0] == 0.0) == collapse_input

    @pytest.mark.parametrize("regime", list(harness.REGIMES))
    @pytest.mark.parametrize(
        "kw,past_chunk",
        [(dict(epochs=3), -20), (dict(epochs=8), 0), (dict(epochs=11, batch_size=21), 1)],
        ids=["under_a_chunk", "one_chunk", "one_past_a_chunk"],
    )
    def test_chunked_evaluation_equals_per_step_evaluation_bitwise(self, regime, kw, past_chunk):
        cfg = smoke_config(regime=regime, **kw)
        run = run_seed(cfg, 0)
        assert not run.diverged and len(run.records) == harness.EVAL_CHUNK + past_chunk
        assert record_bits(run.records) == record_bits(per_step_records(cfg, 0))

    def test_objective_breakdown_identity_in_records(self):
        cfg = smoke_config(regime="all_bars", entropy_weight=0.5)
        run = run_seed(cfg, 2)
        for rec in run.records:
            assert rec["total"] == pytest.approx(rec["ce"] - 0.5 * rec["ent"], abs=1e-12)

    # divergence before a flush of part of a chunk, and one step past a full one
    DIVERGE_AT = (3, harness.EVAL_CHUNK + 1)

    @pytest.mark.parametrize("diverge_at", DIVERGE_AT)
    def test_divergence_aborts_with_diagnostic(self, monkeypatch, diverge_at):
        cfg = smoke_config(epochs=9)  # 36 steps
        undiverged = run_seed(cfg, 0).records
        calls = {"n": 0}
        real = harness.backward_combined

        def exploding(mlp, batch, labels, mode, lam):
            calls["n"] += 1
            breakdown, grads = real(mlp, batch, labels, mode, lam)
            if calls["n"] >= diverge_at:
                return ObjectiveBreakdown(ce=float("nan"), ent=0.0, total=float("nan")), grads
            return breakdown, grads

        monkeypatch.setattr(harness, "backward_combined", exploding)
        run = run_seed(cfg, 0)
        assert run.diverged
        # steps before the blow-up are retained, each fully evaluated
        assert record_bits(run.records) == record_bits(undiverged[: diverge_at - 1])

    @pytest.mark.parametrize("diverge_at", DIVERGE_AT)
    def test_non_finite_parameters_abort_with_evaluated_records(self, monkeypatch, diverge_at):
        cfg = smoke_config(epochs=9)
        undiverged = run_seed(cfg, 0).records
        calls = {"n": 0}
        real = harness.adam_step

        def poisoning(params, grad, state, sched, weight_decay):
            real(params, grad, state, sched, weight_decay)
            calls["n"] += 1
            if calls["n"] == diverge_at:
                params[0] = np.nan

        monkeypatch.setattr(harness, "adam_step", poisoning)
        run = run_seed(cfg, 0)
        assert run.diverged
        assert record_bits(run.records) == record_bits(undiverged[: diverge_at - 1])

    def test_batch_larger_than_train_set_rejected(self):
        with pytest.raises(ConfigError):
            run_seed(smoke_config(batch_size=128), 0)


class TestSummarize:
    def make_run(self, seed, values):
        records = [{"step": i + 1, "metric": v} for i, v in enumerate(values)]
        return RunMetrics(seed=seed, records=records)

    def test_constant_metric(self):
        runs = [self.make_run(0, [0.5] * 20)]
        out = summarize(runs)
        assert out["metric"]["mean"] == pytest.approx(0.5)
        assert out["metric"]["std"] == 0.0

    def test_two_runs_population_std(self):
        runs = [self.make_run(0, [0.4] * 20), self.make_run(1, [0.6] * 20)]
        out = summarize(runs)
        assert out["metric"]["mean"] == pytest.approx(0.5, abs=1e-15)
        assert out["metric"]["std"] == pytest.approx(0.1, abs=1e-15)

    def test_uses_only_last_30_percent(self):
        values = [100.0] * 14 + [1.0] * 6  # tail of 20 records = last 6
        runs = [self.make_run(0, values)]
        assert summarize(runs)["metric"]["mean"] == pytest.approx(1.0)

    def test_tail_mean_fraction(self):
        records = [{"step": i + 1, "m": float(i)} for i in range(10)]
        assert tail_mean(records, "m") == pytest.approx(np.mean([7.0, 8.0, 9.0]))

    def test_recovers_injected_mean_within_two_standard_errors(self):
        rng = np.random.default_rng(0)
        mu, sigma, n_runs = 2.0, 0.3, 5
        runs = []
        for s in range(n_runs):
            noise = rng.normal(mu, sigma, size=50)
            runs.append(self.make_run(s, list(noise)))
        out = summarize(runs)
        tail_n = 15  # last 30% of 50
        stderr = sigma / np.sqrt(tail_n * n_runs)
        assert abs(out["metric"]["mean"] - mu) <= 2 * stderr * 3  # generous MC slack

    def test_requires_ten_records(self):
        with pytest.raises(ValueError):
            summarize([self.make_run(0, [1.0] * 5)])
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([self.make_run(0, []), self.make_run(1, [1.0] * 20)])
