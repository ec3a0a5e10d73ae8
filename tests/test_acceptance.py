"""Acceptance suite: one test per contract criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
The training sweep (criteria 7 and 8) takes about 8 s on 2 CPUs; everything
else finishes in seconds.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from toporeg.cli import main
from toporeg.entropy import persistent_entropy, select_features
from toporeg.geometry import pairwise_distances
from toporeg.harness import BlobSpec, ExperimentConfig, run_seed, tail_mean
from toporeg.persistence import vr_barcode_0d
from toporeg.regularizer import SelectionMode, entropy_loss_grad

from alg1_reference import reference_feature_lengths
from gradcheck import entropy_grad_check
from oracles import single_linkage_heights

# The three-regime sweep configuration: default blobs (2 classes, 16-dim,
# 320 points -> 256 train), batch 64, 5 seeds, Adam + linear warmup with
# weight decay = lr/10.
SWEEP_CONFIG = dict(
    base_lr=2e-2,
    weight_decay=2e-3,
    epochs=100,
    batch_size=64,
    entropy_weight=1.0,
    seeds=[0, 1, 2, 3, 4],
    data=BlobSpec(n_per_class=160, n_classes=2, dim=16, spread=3.0),
    hidden_dims=[32, 16],
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    print(f"[criterion {number:2d}] PASS  {description}")


@pytest.fixture(scope="module")
def sweep():
    """Train all three regimes over the shared seeds; reused by criteria 7-8."""
    t0 = time.perf_counter()
    runs = {}
    for regime in ("none", "selected_bars", "all_bars"):
        cfg = ExperimentConfig(regime=regime, **SWEEP_CONFIG)
        runs[regime] = [run_seed(cfg, seed) for seed in cfg.seeds]
        assert all(not r.diverged for r in runs[regime])
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_1_entropy_bounds():
    with criterion(1, "persistent entropy lies in [0, log n]; uniform barcodes reach log n"):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            lengths = rng.uniform(0.0, 10.0, size=n)
            lengths[int(rng.integers(0, n))] += 0.1  # keep the total positive
            e = persistent_entropy(lengths)
            assert 0.0 <= e <= math.log(n) + 1e-12
        for n in (1, 2, 5, 17, 100):
            uniform = np.full(n, float(rng.uniform(0.1, 5.0)))
            assert abs(persistent_entropy(uniform) - math.log(n)) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_barcode_cardinality():
    with criterion(2, "every N-point cloud yields exactly N - 1 bars, N in 2..64"):
        for n in range(2, 65):
            rng = np.random.default_rng(n)
            cloud = rng.normal(size=(n, int(rng.integers(1, 6))))
            barcode = vr_barcode_0d(pairwise_distances(cloud))
            assert len(barcode.bars) == n - 1


def test_criterion_3_single_linkage_equivalence():
    with criterion(3, "bar-length multisets equal single-linkage merge heights (200 clouds)"):
        start = time.perf_counter()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            cloud = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n, int(rng.integers(1, 5))))
            d = pairwise_distances(cloud)
            got = np.sort(vr_barcode_0d(d).lengths())
            want = np.array(single_linkage_heights(d))
            np.testing.assert_allclose(got, want, atol=1e-9)
        assert time.perf_counter() - start < 10.0


def test_criterion_4_gradient_correctness():
    with criterion(4, "entropy gradients match finite differences on >= 95/100 clouds per mode"):
        start = time.perf_counter()
        for mode in (SelectionMode.ALL_BARS, SelectionMode.SELECTED_BARS):
            passed = bad_failures = 0
            for seed in range(100):
                cloud = np.random.default_rng(seed).normal(size=(10, 4))
                ok, unstable = entropy_grad_check(cloud, mode, rel_tol=1e-4)
                passed += ok
                if not ok and not unstable:
                    bad_failures += 1
            assert passed >= 95, f"{mode}: only {passed}/100 gradient checks passed"
            assert bad_failures == 0, f"{mode}: failures without detected MST instability"
        assert time.perf_counter() - start < 30.0


def test_criterion_5_stationarity_at_uniform_bars():
    with criterion(5, "equilateral configurations have entropy-gradient norm <= 1e-8"):
        h = math.sqrt(3.0) / 2.0
        triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h]])
        tetra = np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
        )
        for cloud in (triangle, tetra):
            for mode in (SelectionMode.ALL_BARS, SelectionMode.SELECTED_BARS):
                res = entropy_loss_grad(cloud, mode)
                assert np.linalg.norm(res.grad) <= 1e-8


def test_criterion_6_feature_selection_behavior():
    with criterion(6, "feature selection matches the worked example and extreme-bar rules"):
        lengths = np.array([10.0, 9.5, 0.5, 0.4, 0.35, 0.3])
        # verified first against the independent step-by-step reference
        assert sorted(reference_feature_lengths(lengths)) == [9.5, 10.0]
        res = select_features(lengths)
        assert res.selected == [0, 1] and res.noise == [2, 3, 4, 5]

        uniform = select_features(np.full(7, 1.3))
        assert uniform.selected == list(range(7))

        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            bars = rng.lognormal(0.0, 1.0, size=n)
            result = select_features(bars)
            assert int(np.argmax(bars)) in result.selected
            if result.alpha < 1.0:
                assert int(np.argmin(bars)) in result.noise


def test_criterion_7_direction_of_effect(sweep):
    with criterion(7, "selected-bars regime lowers centered anisotropy_1 vs baseline"):
        runs, elapsed = sweep
        key = "anisotropy_centered_1"
        none_tail = [tail_mean(r.records, key) for r in runs["none"]]
        sel_tail = [tail_mean(r.records, key) for r in runs["selected_bars"]]
        all_tail = [tail_mean(r.records, key) for r in runs["all_bars"]]
        sel_vs_none = sum(s < n for s, n in zip(sel_tail, none_tail))
        sel_vs_all = sum(s <= a for s, a in zip(sel_tail, all_tail))
        print(
            f"    centered anisotropy_1 per seed: none={np.round(none_tail, 3)} "
            f"selected={np.round(sel_tail, 3)} all={np.round(all_tail, 3)}"
        )
        assert sel_vs_none >= 4, f"selected < none in only {sel_vs_none}/5 seeds"
        assert sel_vs_all >= 3, f"selected <= all in only {sel_vs_all}/5 seeds"
        assert elapsed < 300.0, f"sweep took {elapsed:.0f}s (budget 300s)"


def test_criterion_8_accuracy_parity(sweep):
    with criterion(8, "regularized regimes stay within 2 accuracy points of baseline"):
        runs, _ = sweep
        acc = {
            regime: float(np.mean([tail_mean(r.records, "val_accuracy") for r in rs]))
            for regime, rs in runs.items()
        }
        print(f"    mean val accuracy: {acc}")
        assert abs(acc["selected_bars"] - acc["none"]) <= 0.02
        assert abs(acc["all_bars"] - acc["none"]) <= 0.02


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical config + seed give byte-identical metrics output"):
        cfg = {
            "regime": "selected_bars",
            "base_lr": 2e-2,
            "weight_decay": 2e-3,
            "epochs": 5,
            "batch_size": 32,
            "seeds": [7],
            "data": {"n_per_class": 40, "n_classes": 2, "dim": 8, "spread": 3.0},
            "hidden_dims": [16, 8],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        for name in ("metrics_seed7.jsonl", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_criterion_10_anisotropy_correctness(tmp_path, capsys):
    with criterion(10, "CLI anisotropy: diag(3,4) exact; isotropic Gaussian near 1/D"):
        diag = tmp_path / "diag.csv"
        diag.write_text("3,0\n0,4\n", encoding="utf-8")
        assert main(["anisotropy", str(diag), "--k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["1"] - 0.64) <= 1e-12
        assert abs(payload["2"] - 0.36) <= 1e-12

        d = 8
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = rng.normal(size=(512, d))
            path = tmp_path / f"gauss{seed}.csv"
            path.write_text(
                "\n".join(",".join(f"{float(v)!r}" for v in row) for row in pts) + "\n",
                encoding="utf-8",
            )
            assert main(["anisotropy", str(path), "--k", "1", "--centered"]) == 0
            score = json.loads(capsys.readouterr().out)["1"]
            assert (1 / d) * 0.4 <= score <= (1 / d) * 1.6
