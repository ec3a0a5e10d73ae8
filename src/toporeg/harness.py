"""Experiment harness: seeded runs over three regimes with per-step metrics.

A run trains the classifier on synthetic Gaussian blobs (or a labeled CSV)
under one of three regimes: no regularization, entropy loss on selected
bars, or entropy loss on all bars.  Every step logs the training-loss
breakdown, validation accuracy, and the first three anisotropy scores (raw
and centered) of the representation layer on a fixed held-out batch, so
trajectories are directly comparable across regimes.  Evaluation waits for
EVAL_CHUNK steps: their parameters are kept and scored in one stacked
forward pass and one stacked eigensolve, each record bitwise what an
evaluation right after its step gives, and a run that ends or diverges
first scores what it has.  Summaries average each metric over the last
30% of steps per seed, then report mean and population standard deviation
over seeds.

All randomness (data, init, batch order) derives from the seed: two runs
with an identical config and seed produce identical metric streams.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import _anisotropy_scores
from .model import MLP, AdamState, SelectionMode, WarmupSchedule, _param_count, adam_step, backward_combined, forward

# regime name -> the bars the entropy loss runs on; "none" trains without it
REGIMES = {"none": None, "selected_bars": SelectionMode.SELECTED_BARS, "all_bars": SelectionMode.ALL_BARS}

# cluster noise scale relative to the center radius; spread = 0 collapses
# every class onto its center
BLOB_NOISE_RATIO = 0.5

TRAIN_FRACTION = 0.8
EVAL_BATCH_SIZE = 64
# steps whose parameters are evaluated together, in one stacked pass
EVAL_CHUNK = 32
SUMMARY_TAIL_FRACTION = 0.3
# fewest records a run needs to enter a summary
SUMMARY_MIN_RECORDS = 10
# the most values a float64 array may hold: numpy's limit is np.intp's largest byte count
_MAX_ARRAY_VALUES = np.iinfo(np.intp).max // 8

ANISOTROPY_K = 3
# record keys of the scores, in order: the raw, then the centered one, for each k
_SCORE_KEYS = [f"anisotropy_{variant}_{k}" for k in range(1, ANISOTROPY_K + 1) for variant in ("raw", "centered")]

# substreams for per-seed generators, so data/init/batch-order draws stay
# independent of each other
_STREAM_DATA_SPLIT = 101
_STREAM_INIT = 202
_STREAM_BATCHES = 303


class ConfigError(ValueError):
    """Invalid experiment configuration; message starts with the field path."""


def _is_int(value) -> bool:
    # bool is an int subclass, but true/false in a config is never a count
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(path: str, value, least: int) -> None:
    if not _is_int(value) or value < least:
        raise ConfigError(f"{path}: must be an integer >= {least}, got {value!r}")


def _check_real(path: str, value, positive: bool = False) -> None:
    # an int compares exactly with a float: NaN, inf and ints past float64's range fail;
    # a numpy float compares as a float, since float32 would cast the bound to its inf
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    number = float(value) if isinstance(value, np.floating) else value
    if not (real and (number > 0 if positive else number >= 0) and number <= sys.float_info.max):
        raise ConfigError(f"{path}: must be a finite real {'>' if positive else '>='} 0, got {value!r}")


def _check_fields(raw: dict, cls, prefix: str = "") -> None:
    """Raise ConfigError naming the first key of ``raw`` that is not a field of ``cls``."""
    known = {f.name for f in fields(cls)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{prefix}{key}: unknown config field")


@dataclass
class BlobSpec:
    n_per_class: int = 160
    n_classes: int = 2
    dim: int = 16
    spread: float = 3.0

    def validate(self):
        """Raise ConfigError naming the field (as ``data.<field>``) that is invalid or passes numpy's limit."""
        values = 1
        for name, least in (("n_per_class", 8), ("n_classes", 2), ("dim", 2)):
            value = getattr(self, name)
            _check_count(f"data.{name}", value, least)
            values *= int(value)
            if values > _MAX_ARRAY_VALUES:
                raise ConfigError(f"data.{name}: blob needs over {_MAX_ARRAY_VALUES} values, got {value!r}")
        _check_real("data.spread", self.spread)


@dataclass
class ExperimentConfig:
    """A training experiment; ``data`` is a BlobSpec or ``{"csv": path}``."""

    regime: str = "selected_bars"
    base_lr: float = 5e-3
    weight_decay: float = 5e-4
    epochs: int = 60
    batch_size: int = 64
    entropy_weight: float = 1.0
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    data: BlobSpec | dict = field(default_factory=BlobSpec)
    hidden_dims: list[int] = field(default_factory=lambda: [32, 16])

    def __post_init__(self):
        self.validate()

    def validate(self):
        # a dict lookup of an unhashable value raises TypeError
        if not isinstance(self.regime, str) or self.regime not in REGIMES:
            raise ConfigError(f"regime: must be one of {tuple(REGIMES)}, got {self.regime!r}")
        _check_count("epochs", self.epochs, 1)
        _check_count("batch_size", self.batch_size, 4)
        _check_real("base_lr", self.base_lr, positive=True)
        _check_real("weight_decay", self.weight_decay)
        _check_real("entropy_weight", self.entropy_weight)
        if not isinstance(self.seeds, list) or not self.seeds:
            raise ConfigError(f"seeds: need a nonempty list of seeds, got {self.seeds!r}")
        if not all(_is_int(s) and s >= 0 for s in self.seeds):
            raise ConfigError(f"seeds: must all be integers >= 0, got {self.seeds!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds: must be distinct, got {self.seeds!r}")
        if (
            not isinstance(self.hidden_dims, list)
            or not self.hidden_dims
            or not all(_is_int(h) and h >= 1 for h in self.hidden_dims)
        ):
            raise ConfigError(f"hidden_dims: must be a nonempty list of positive integers, got {self.hidden_dims!r}")
        if isinstance(self.data, BlobSpec):
            self.data.validate()
            return
        if not (isinstance(self.data, dict) and "csv" in self.data):
            raise ConfigError(f'data: must be a blob spec or {{"csv": path}}, got {self.data!r}')
        for key in self.data:
            if key != "csv":
                raise ConfigError(f"data.{key}: not allowed next to data.csv")
        path = self.data["csv"]
        if not isinstance(path, str):
            raise ConfigError(f"data.csv: must be a file path string, got {path!r}")
        # open() refuses both, and summary.json cannot hold a lone surrogate as UTF-8
        if "\x00" in path:
            raise ConfigError(f"data.csv: path contains a null byte, got {path!r}")
        try:
            path.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"data.csv: path contains a lone surrogate, got {path!r}") from None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config: must be a JSON object")
        _check_fields(raw, cls)
        kwargs = dict(raw)
        data = kwargs.get("data")
        if isinstance(data, dict) and "csv" not in data:
            _check_fields(data, BlobSpec, "data.")
            kwargs["data"] = BlobSpec(**data)
        return cls(**kwargs)


@dataclass
class RunMetrics:
    """Per-step records for one seed, dicts of scalar metrics; a diverged
    run stopped at step ``len(records) + 1``."""

    seed: int
    records: list[dict]
    diverged: bool = False


def generate_blobs(seed: int, n_per_class: int, n_classes: int, dim: int, spread: float):
    """Seeded Gaussian blobs with unit-norm centers scaled by ``spread``.

    Cluster noise has standard deviation BLOB_NOISE_RATIO * spread, so the
    geometry is scale-free in ``spread`` and spread = 0 collapses each class
    onto its center.  Returns (points, labels, train_idx, val_idx): the
    (n_classes * n_per_class) x dim float64 array of finite coordinates,
    class by class, their labels, and a deterministic shuffled 80/20 split.
    Parameters that BlobSpec.validate rejects, and a spread so large that a
    coordinate overflows float64, raise ConfigError, a ValueError.
    """
    BlobSpec(n_per_class, n_classes, dim, spread).validate()

    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_classes, dim))
    centers = spread * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    points = np.concatenate(
        [
            centers[c] + BLOB_NOISE_RATIO * spread * rng.normal(size=(n_per_class, dim))
            for c in range(n_classes)
        ]
    )
    if not np.isfinite(points).all():
        raise ConfigError(f"data.spread: blob coordinates overflow float64 at spread {spread!r}")
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return points, labels, *_split(rng, n_classes * n_per_class)


def _split(rng: np.random.Generator, n_total: int):
    perm = rng.permutation(n_total)
    n_train = int(round(TRAIN_FRACTION * n_total))
    return perm[:n_train], perm[n_train:]


def _read_training_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(points, labels) of a labeled training CSV, labels as 0..C-1 with C >= 2."""
    from .cloudfile import load_cloud_csv  # blob data never needs the reader

    points, labels = load_cloud_csv(path)
    if labels is None:
        raise ConfigError(f"data: {path}: csv file must carry a trailing 'label' column for training")
    # the output layer has one unit per class, so labels become 0..C-1 in
    # ascending order whatever their values
    classes, labels = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise ConfigError(f"data: {path}: training needs at least 2 classes, found one label")
    return points, labels


def _load_dataset(cfg: ExperimentConfig, seed: int, cloud=None):
    if isinstance(cfg.data, BlobSpec):
        return generate_blobs(seed, **vars(cfg.data))
    points, labels = cloud if cloud is not None else _read_training_csv(cfg.data["csv"])
    rng = np.random.default_rng([seed, _STREAM_DATA_SPLIT])
    return points, labels, *_split(rng, points.shape[0])


def _evaluate(mlp: MLP, val_x, val_y) -> list[dict]:
    """One record per network of a stacked ``mlp``: accuracy on every
    validation row and the raw and centered anisotropy scores of the first
    EVAL_BATCH_SIZE representations, all from one forward pass and one
    stacked eigensolve.

    A score is 0.0 past the rank bound, and every score of a variant is 0.0
    where anisotropy_profile raises for it: representations all zero (raw
    and centered), all equal (centered), or not finite."""
    logits, reps = forward(mlp, val_x)[:2]  # frees the other layers' activations
    hits = np.count_nonzero(logits.argmax(axis=-1) == val_y, axis=-1).tolist()
    scores = _anisotropy_scores(reps[:, :EVAL_BATCH_SIZE])[..., :ANISOTROPY_K]  # (S, 2, k): raw, centered
    padded = np.zeros((len(hits), ANISOTROPY_K, 2))
    padded[:, : scores.shape[-1]] = scores.transpose(0, 2, 1)
    rows = padded.reshape(len(hits), -1).tolist()  # in _SCORE_KEYS order
    return [{"val_accuracy": n_hits / val_y.size, **dict(zip(_SCORE_KEYS, row))} for n_hits, row in zip(hits, rows)]


# overflow leaves inf or nan in the blobs, the loss or a parameter, which
# run_seed reports; numpy's warnings would only repeat that
@np.errstate(over="ignore", invalid="ignore")
def run_seed(cfg: ExperimentConfig, seed: int, cloud: tuple[np.ndarray, np.ndarray] | None = None) -> RunMetrics:
    """Train one seed to completion, or to the first step whose loss or
    updated parameters are not finite (divergence), and log every step.

    ``cloud`` is the ``(points, labels)`` pair ``_read_training_csv`` gives
    for ``cfg.data["csv"]``, so that seeds can share one parse; it is used
    only when ``cfg.data`` is a CSV config, and the file is read here only
    when ``cloud`` is not given."""
    x, y, train_idx, val_idx = _load_dataset(cfg, seed, cloud)
    if val_idx.size < 2 or train_idx.size < cfg.batch_size:
        raise ConfigError("data: dataset too small for the requested batch size and split")

    n_classes = int(y.max()) + 1
    dims = [x.shape[1], *cfg.hidden_dims, n_classes]
    if EVAL_CHUNK * _param_count(dims) > _MAX_ARRAY_VALUES:  # the size of the parameter chunk
        raise ConfigError(f"hidden_dims: {EVAL_CHUNK} network copies pass numpy's array limit, got {cfg.hidden_dims!r}")
    mlp = MLP.init(dims, np.random.default_rng([seed, _STREAM_INIT]))
    state = AdamState.for_params(mlp.params)

    steps_per_epoch = train_idx.size // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    if total_steps > sys.float_info.max:  # the schedule computes in float64
        raise ConfigError(f"epochs: {steps_per_epoch} steps per epoch make a step count past float64's range, got {cfg.epochs!r}")
    sched = WarmupSchedule.for_total(cfg.base_lr, total_steps)
    batch_rng = np.random.default_rng([seed, _STREAM_BATCHES])

    def batches():  # each epoch's order is drawn when its first batch is reached
        for _ in range(cfg.epochs):
            order = batch_rng.permutation(train_idx)
            for b in range(steps_per_epoch):
                yield order[b * cfg.batch_size : (b + 1) * cfg.batch_size]

    val_x, val_y = x[val_idx], y[val_idx]
    mode = REGIMES[cfg.regime]

    records: list[dict] = []
    # the last `pending` records' steps left their parameters in its first rows
    chunk = np.empty((EVAL_CHUNK, mlp.params.size))
    pending = 0

    def flush():
        for rec, scores in zip(records[-pending:], _evaluate(MLP(dims, chunk[:pending]), val_x, val_y)):
            rec.update(scores)

    for batch in batches():
        breakdown, grad = backward_combined(mlp, x[batch], y[batch], mode, cfg.entropy_weight)
        finite = math.isfinite(breakdown.total)
        if finite:
            adam_step(mlp.params, grad, state, sched, cfg.weight_decay)
        if not (finite and np.isfinite(mlp.params).all()):
            break
        rec = {
            "step": len(records) + 1,
            "ce": breakdown.ce,
            "ent": breakdown.ent,
            "total": breakdown.total,
        }
        records.append(rec)
        chunk[pending] = mlp.params
        pending += 1
        if pending == EVAL_CHUNK:
            flush()
            pending = 0
    if pending:
        flush()
    return RunMetrics(seed=seed, records=records, diverged=len(records) < total_steps)


def tail_mean(records: list[dict], metric: str) -> float:
    """Average of a metric over the last 30% of steps."""
    count = len(records)
    start = int(np.floor((1.0 - SUMMARY_TAIL_FRACTION) * count))
    values = [rec[metric] for rec in records[start:]]
    return float(np.mean(values))


def summarize(runs: list[RunMetrics]) -> dict:
    """Per-metric mean and population std over seeds of last-30% averages."""
    if not runs or any(len(r.records) < SUMMARY_MIN_RECORDS for r in runs):
        raise ValueError(f"summarize needs at least one run with >= {SUMMARY_MIN_RECORDS} records each")
    metrics = [key for key in runs[0].records[0] if key != "step"]
    out: dict = {}
    for metric in metrics:
        per_seed = [tail_mean(r.records, metric) for r in runs]
        out[metric] = {
            "mean": float(np.mean(per_seed)),
            "std": float(np.std(per_seed)),
            "per_seed": per_seed,
        }
    return out
