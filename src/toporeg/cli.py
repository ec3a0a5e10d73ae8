"""Command-line surface.

    toporeg barcode    cloud.csv                      # 0-dim bars as JSON
    toporeg entropy    cloud.csv --select features    # persistent entropy
    toporeg anisotropy cloud.csv --k 3 --centered     # anisotropy scores
    toporeg train      --config cfg.json --out runs/  # experiment sweep

Commands are pure functions of their inputs: the same file and flags always
produce byte-identical output.  Exit codes: 0 ok, 2 unparseable input or
config (including coordinates so large that their distances overflow to
inf), 3 too few points (or too few distinct points for an entropy), 4 k out
of range, 5 training diverged.

Set TOPOREG_VERBOSE=1 to get progress lines on stderr during training.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .cloudfile import CloudParseError, load_cloud_csv
from .entropy import persistent_entropy, select_features
from .geometry import anisotropy_profile, pairwise_distances
from .harness import ConfigError, ExperimentConfig, run_seed, summarize
from .persistence import Barcode, vr_barcode_0d
from .serialize import dump_json, write_jsonl

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TOO_FEW_POINTS = 3
EXIT_BAD_K = 4
EXIT_DIVERGED = 5

_REGIME_FLAGS = {"none": "none", "selected": "selected_bars", "all": "all_bars"}


def _verbose() -> bool:
    return os.environ.get("TOPOREG_VERBOSE", "") not in ("", "0")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _barcode(points: np.ndarray) -> Barcode:
    # distances of coordinates near the float64 limit overflow to inf, which
    # vr_barcode_0d rejects; numpy's overflow warning would only repeat that
    with np.errstate(over="ignore"):
        d = pairwise_distances(points)
    return vr_barcode_0d(d)


def cmd_barcode(args) -> int:
    try:
        loaded = load_cloud_csv(args.input)
    except (OSError, CloudParseError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    if loaded.points.shape[0] < 2:
        return _fail(EXIT_TOO_FEW_POINTS, "need at least 2 points for a barcode")
    try:
        barcode = _barcode(loaded.points)
    except ValueError as exc:
        return _fail(EXIT_PARSE, f"{args.input}: pairwise distances overflow float64 ({exc})")
    bars = sorted(barcode.bars, key=lambda bar: (-bar.length, bar.endpoint_a, bar.endpoint_b))
    payload = {
        "bars": [
            {"length": bar.length, "a": bar.endpoint_a, "b": bar.endpoint_b}
            for bar in bars
        ]
    }
    print(dump_json(payload))
    return EXIT_OK


def cmd_entropy(args) -> int:
    try:
        loaded = load_cloud_csv(args.input)
    except (OSError, CloudParseError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    if loaded.points.shape[0] < 2:
        return _fail(EXIT_TOO_FEW_POINTS, "need at least 2 points for a barcode")
    try:
        barcode = _barcode(loaded.points)
    except ValueError as exc:
        return _fail(EXIT_PARSE, f"{args.input}: pairwise distances overflow float64 ({exc})")
    lengths = barcode.lengths()
    if not lengths.any():
        return _fail(EXIT_TOO_FEW_POINTS, "need at least 2 distinct points for persistent entropy")
    payload: dict = {"n_bars": int(lengths.size)}
    if args.select == "features":
        result = select_features(barcode)
        payload["entropy"] = persistent_entropy(lengths[result.selected])
        payload["alpha"] = result.alpha
        payload["selected"] = result.selected
        payload["noise"] = result.noise
    else:
        payload["entropy"] = persistent_entropy(lengths)
    print(dump_json(payload))
    return EXIT_OK


def cmd_anisotropy(args) -> int:
    try:
        loaded = load_cloud_csv(args.input)
    except (OSError, CloudParseError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    points = loaded.points
    if args.k < 1 or args.k > min(points.shape):
        return _fail(EXIT_BAD_K, f"k must lie in [1, {min(points.shape)}], got {args.k}")
    try:
        profile = anisotropy_profile(points, k_max=args.k, centered=args.centered)
    except ValueError as exc:
        return _fail(EXIT_PARSE, str(exc))
    payload = {str(k): profile.score(k) for k in range(1, args.k + 1)}
    print(dump_json(payload))
    return EXIT_OK


def cmd_train(args) -> int:
    import json

    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        return _fail(EXIT_PARSE, str(exc))
    except json.JSONDecodeError as exc:
        return _fail(EXIT_PARSE, f"{args.config}: invalid JSON: {exc}")
    if args.regime and isinstance(raw, dict):
        raw["regime"] = _REGIME_FLAGS[args.regime]
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError as exc:
        return _fail(EXIT_PARSE, str(exc))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = []
    for seed in cfg.seeds:
        try:
            run = run_seed(cfg, seed)
        except (ConfigError, CloudParseError, OSError) as exc:
            return _fail(EXIT_PARSE, str(exc))
        runs.append(run)
        lines = list(run.records)
        if run.diverged:
            lines.append({"step": run.divergence_step, "diverged": True})
        write_jsonl(lines, out_dir / f"metrics_seed{seed}.jsonl")
        if _verbose():
            status = "diverged" if run.diverged else "ok"
            print(f"seed {seed}: {len(run.records)} steps ({status})", file=sys.stderr)

    healthy = [r for r in runs if not r.diverged and len(r.records) >= 10]
    if healthy:
        summary = {
            "config": cfg.to_dict(),
            "seeds": [r.seed for r in healthy],
            "metrics": summarize(healthy),
        }
        (out_dir / "summary.json").write_text(dump_json(summary, indent=2) + "\n", encoding="utf-8")

    if any(r.diverged for r in runs):
        return _fail(EXIT_DIVERGED, "at least one seed diverged; partial outputs retained")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toporeg",
        description="Persistent-entropy tools for point clouds: barcodes, entropy, anisotropy, training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("barcode", help="0-dimensional barcode of a point-cloud CSV")
    p.add_argument("input", help="point-cloud CSV file")
    p.add_argument("--metric", choices=["euclidean"], default="euclidean")
    p.set_defaults(func=cmd_barcode)

    p = sub.add_parser("entropy", help="persistent entropy, optionally feature-selected")
    p.add_argument("input", help="point-cloud CSV file")
    p.add_argument("--select", choices=["all", "features"], default="all")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("anisotropy", help="anisotropy scores for k = 1..K")
    p.add_argument("input", help="point-cloud CSV file")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--centered", action="store_true", help="subtract the column mean first")
    p.set_defaults(func=cmd_anisotropy)

    p = sub.add_parser("train", help="run the training experiment described by a config")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--regime", choices=sorted(_REGIME_FLAGS), help="override the config regime")
    p.add_argument("--out", default="runs", help="output directory (default: runs)")
    p.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
