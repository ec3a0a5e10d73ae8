"""The benchmark's workloads: their seeded inputs, calls, outputs and checks.

Each workload drives the `toporeg` CLI only.  A round is the list of calls
a workload repeats; every round is the same, so the share of failed calls is
fixed whatever the seed and run length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

# The acceptance sweep's hyperparameters (tests/test_acceptance.py).
SWEEP = {
    "base_lr": 2e-2,
    "weight_decay": 2e-3,
    "epochs": 100,
    "batch_size": 64,
    "entropy_weight": 1.0,
    "data": {"n_per_class": 160, "n_classes": 2, "dim": 16, "spread": 3.0},
    "hidden_dims": [32, 16],
}
# 80 % of the 320 blob points train; whole batches only.
TRAIN_STEPS = SWEEP["epochs"] * (int(0.8 * 2 * 160) // SWEEP["batch_size"])
WARMUP_EPOCHS = 5

# The large cloud: CLUSTERS unit-variance Gaussian clusters in DIM dimensions
# whose centers sit on a regular simplex with edge CENTER_SPACING, turned by a
# seeded rotation.  Fixing the cluster geometry keeps the amount of work
# steady from seed to seed: Kruskal scans the sorted edges up to the longest
# MST edge, and with randomly placed centers that edge (an inter-cluster gap)
# moved the scanned share between 13 % and 20 % of all pairs.
CLUSTERS, PER_CLUSTER, DIM = 8, 256, 16
CENTER_SPACING = 12.0
WARMUP_POINTS = 128
# All-duplicate cloud for the degenerate-input probe; fixed, not seeded.
PROBE_POINTS = 16
PROBE_ROW = (1.5, -2.0, 0.25, 3.0)


@dataclass(frozen=True)
class Call:
    key: str
    argv: list
    probe: bool = False


def _write_csv(path: Path, x: np.ndarray) -> None:
    # 17 significant digits round-trip every double, so the program parses
    # exactly the coordinates the checkers use.
    lines = [",".join(format(v, ".17g") for v in row) for row in x]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TrainWorkload:
    """`toporeg train` of one seed with the acceptance sweep's settings."""

    def __init__(self, regime: str, seed: int):
        self.seed = seed
        self.cfg = {"regime": regime, **SWEEP, "seeds": [seed]}

    def write_inputs(self, d: Path) -> None:
        d.mkdir(parents=True, exist_ok=True)
        (d / "config.json").write_text(json.dumps(self.cfg), encoding="utf-8")
        warmup = {**self.cfg, "epochs": WARMUP_EPOCHS}
        (d / "warmup.json").write_text(json.dumps(warmup), encoding="utf-8")

    def warmup_argv(self, d: Path) -> list:
        return ["train", "--config", str(d / "warmup.json"), "--out", str(d / "warmup_out")]

    def calls(self, d: Path) -> list:
        return [Call("train", ["train", "--config", str(d / "config.json"), "--out", str(d / "out")])]

    def output(self, d: Path, stdout: str) -> tuple:
        out = d / "out"
        return (
            (out / f"metrics_seed{self.seed}.jsonl").read_text(encoding="utf-8"),
            (out / "summary.json").read_text(encoding="utf-8"),
        )

    def check(self, output: tuple) -> str:
        accuracy = checks.check_train(output[0], output[1], self.cfg, self.seed, TRAIN_STEPS)
        return f"{TRAIN_STEPS} steps, tail-mean val accuracy {accuracy:.4f}"

    def steps(self) -> int:
        return TRAIN_STEPS


class CloudWorkload:
    """One geometry command on a seeded clustered cloud of 2048 x 16."""

    def __init__(self, command: list, seed: int, probe: bool = False):
        self.command = command
        self.probe = probe
        rng = np.random.default_rng(seed)
        rotation, _ = np.linalg.qr(rng.normal(size=(DIM, DIM)))
        centers = CENTER_SPACING / np.sqrt(2.0) * rotation[:CLUSTERS]
        self.x = np.concatenate([c + rng.normal(size=(PER_CLUSTER, DIM)) for c in centers])

    def write_inputs(self, d: Path) -> None:
        d.mkdir(parents=True, exist_ok=True)
        _write_csv(d / "cloud.csv", self.x)
        _write_csv(d / "warmup.csv", self.x[:WARMUP_POINTS])
        if self.probe:
            _write_csv(d / "duplicates.csv", np.tile(PROBE_ROW, (PROBE_POINTS, 1)))

    def warmup_argv(self, d: Path) -> list:
        return [self.command[0], str(d / "warmup.csv"), *self.command[1:]]

    def calls(self, d: Path) -> list:
        calls = [Call(self.command[0], [self.command[0], str(d / "cloud.csv"), *self.command[1:]])]
        if self.probe:
            calls.append(Call("probe", ["entropy", str(d / "duplicates.csv")], probe=True))
        return calls

    def output(self, d: Path, stdout: str) -> str:
        return stdout

    def check(self, output: str) -> str:
        name = self.command[0]
        if name == "barcode":
            checks.check_barcode(output, self.x)
        elif name == "entropy":
            checks.check_entropy_features(output, self.x)
        else:
            checks.check_anisotropy(output, self.x, k=3, centered=True)
        return f"{name} output matches the independent computation"

    def steps(self) -> int:
        return 0


# name -> factory(seed); BENCHMARK.json gives each workload's reason.
WORKLOADS = {
    "train_selected": lambda seed: TrainWorkload("selected_bars", seed),
    "train_none": lambda seed: TrainWorkload("none", seed),
    "cli_barcode": lambda seed: CloudWorkload(["barcode"], seed),
    "cli_entropy": lambda seed: CloudWorkload(["entropy", "--select", "features"], seed, probe=True),
    "cli_anisotropy": lambda seed: CloudWorkload(["anisotropy", "--k", "3", "--centered"], seed),
}
