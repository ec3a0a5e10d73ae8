"""Command-line surface.

    toporeg barcode    cloud.csv                      # 0-dim bars as JSON
    toporeg entropy    cloud.csv --select features    # persistent entropy
    toporeg anisotropy cloud.csv --k 3 --centered     # anisotropy scores
    toporeg train      --config cfg.json --out runs/  # experiment sweep

``barcode`` lists the bars longest first; ``entropy --select features``
gives ``selected`` and ``noise`` as indices into the bars in ascending
(length, a, b) order, so on the line 0, 1, 3, 7 the length-4 bar is 2.
Commands are pure functions of their inputs.  ``barcode`` and ``entropy``
use no BLAS, so the same file and flags give byte-identical output on any
machine with the same numpy build.  ``train`` and ``anisotropy`` go through
BLAS and LAPACK: their output is byte-identical on one machine with one
BLAS kernel, and may move in the last digits under another kernel.

Exit codes: 0 ok, 2 unparseable input or config (including coordinates so
large that their distances overflow to inf, training data with a single
class, a training output directory or file that cannot be created or
written, a config with arrays past numpy's size limit, and input too large
for the memory the process may allocate), 3 too few points (or too few
distinct points for an entropy, and for an anisotropy every point at the
origin, or with --centered every point equal), 4 k out of range, 5 training
diverged (a non-finite loss or parameter).  An allocation the OS grants but
later cannot back may still get the process killed without a message.

``train`` writes ``metrics_seed<N>.jsonl`` per seed and ``summary.json``
into ``--out``.  Once the config parses, and before its first seed, it
removes ``summary.json`` and the config's ``metrics_seed<N>.jsonl`` there,
so a run that stops with exit 2 or 5 leaves only what it wrote.

A command returns EXIT_OK or raises; ``main`` alone turns the exception
into its exit code and one ``error:`` line on stderr.  Unreadable files
(OSError) and failed allocations (MemoryError, named with the command and
the size) map to exit 2, and so do malformed CSVs and invalid configs: the
commands that read a CSV re-raise a CloudParseError as exit 2, and
``cmd_train`` a ConfigError, so ``main`` need not import the reader or the
training stack.  Every other failure carries its own code.

A command imports only the modules it runs.  Every command loads geometry
and serialize; ``anisotropy`` adds cloudfile, ``barcode`` adds cloudfile
and persistence, and ``entropy`` adds those and entropy.  ``train`` adds
harness and model; a regime other than ``none`` adds regularizer, which
loads persistence and entropy, and ``data.csv`` adds cloudfile.

Set TOPOREG_VERBOSE=1 to get progress lines on stderr during training.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .geometry import anisotropy_profile, pairwise_distances
from .serialize import dump_json, write_jsonl

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_TOO_FEW_POINTS = 3
EXIT_BAD_K = 4
EXIT_DIVERGED = 5

_REGIME_FLAGS = {"none": "none", "selected": "selected_bars", "all": "all_bars"}


def _verbose() -> bool:
    return os.environ.get("TOPOREG_VERBOSE", "") not in ("", "0")


class _CommandError(Exception):
    """A failed command: the exit code and the message ``main`` prints."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_csv(read, path):
    """``read(path)``, a malformed CSV raised as exit 2."""
    from .cloudfile import CloudParseError

    try:
        return read(path)
    except CloudParseError as exc:
        raise _CommandError(EXIT_PARSE, str(exc)) from None


def _barcode(path):
    """The persistence.Barcode of the cloud in a CSV file."""
    from .cloudfile import load_cloud_csv
    from .persistence import vr_barcode_0d

    points, _ = _read_csv(load_cloud_csv, path)
    if points.shape[0] < 2:
        raise _CommandError(EXIT_TOO_FEW_POINTS, "need at least 2 points for a barcode")
    try:  # distances beyond float64's range come out inf, which raises here
        return vr_barcode_0d(pairwise_distances(points))
    except ValueError as exc:
        raise _CommandError(EXIT_PARSE, f"{path}: pairwise distances overflow float64 ({exc})") from None


def cmd_barcode(args) -> int:
    barcode = _barcode(args.input)
    lengths, a, b = barcode.lengths(), barcode.a, barcode.b
    order = np.lexsort((b, a, -lengths))  # longest first, then by endpoints
    payload = {
        "bars": [
            {"length": length, "a": i, "b": j}
            for length, i, j in zip(lengths[order].tolist(), a[order].tolist(), b[order].tolist())
        ]
    }
    print(dump_json(payload))
    return EXIT_OK


def cmd_entropy(args) -> int:
    from .entropy import persistent_entropy, select_features

    lengths = _barcode(args.input).lengths()
    if not lengths.any():
        raise _CommandError(EXIT_TOO_FEW_POINTS, "need at least 2 distinct points for persistent entropy")
    payload: dict = {"n_bars": int(lengths.size)}
    if args.select == "features":
        result = select_features(lengths)
        payload["entropy"] = persistent_entropy(lengths[result.selected])
        payload["alpha"] = result.alpha
        payload["selected"] = result.selected
        payload["noise"] = result.noise
    else:
        payload["entropy"] = persistent_entropy(lengths)
    print(dump_json(payload))
    return EXIT_OK


def cmd_anisotropy(args) -> int:
    from .cloudfile import load_cloud_csv

    points, _ = _read_csv(load_cloud_csv, args.input)
    if args.k < 1 or args.k > min(points.shape):
        raise _CommandError(EXIT_BAD_K, f"k must lie in [1, {min(points.shape)}], got {args.k}")
    try:  # the cloud is finite, so only one without a spectrum raises
        profile = anisotropy_profile(points, k_max=args.k, centered=args.centered)
    except ValueError as exc:
        raise _CommandError(EXIT_TOO_FEW_POINTS, str(exc)) from None
    payload = {str(k): score for k, score in enumerate(profile.scores.tolist(), 1)}
    print(dump_json(payload))
    return EXIT_OK


def cmd_train(args) -> int:
    from .harness import ConfigError

    try:
        return _train(args)
    except ConfigError as exc:  # an invalid config, or training data the config names
        raise _CommandError(EXIT_PARSE, str(exc)) from None


def _train(args) -> int:
    from .harness import SUMMARY_MIN_RECORDS, ExperimentConfig, _read_training_csv, run_seed, summarize

    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # malformed JSON, text that is not UTF-8, or nesting too deep
        raise _CommandError(EXIT_PARSE, f"{args.config}: invalid JSON: {exc}") from None
    if args.regime and isinstance(raw, dict):
        raw["regime"] = _REGIME_FLAGS[args.regime]
    cfg = ExperimentConfig.from_dict(raw)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # an earlier run's outputs would not describe this one, however it ends
    summary_path = out_dir / "summary.json"
    metrics_paths = [out_dir / f"metrics_seed{seed}.jsonl" for seed in cfg.seeds]
    for path in (summary_path, *metrics_paths):
        path.unlink(missing_ok=True)
    # a relative data.csv names a file beside the config, wherever train runs;
    # every seed shares one parse
    cloud = None
    if isinstance(cfg.data, dict):
        cloud = _read_csv(_read_training_csv, str(Path(args.config).parent / cfg.data["csv"]))

    runs = []
    for seed, metrics_path in zip(cfg.seeds, metrics_paths):
        run = run_seed(cfg, seed, cloud)
        lines = list(run.records)
        if run.diverged:
            lines.append({"step": len(run.records) + 1, "diverged": True})
        write_jsonl(lines, metrics_path)
        runs.append(run)
        if _verbose():
            status = "diverged" if run.diverged else "ok"
            print(f"seed {seed}: {len(run.records)} steps ({status})", file=sys.stderr)

    healthy = [r for r in runs if not r.diverged and len(r.records) >= SUMMARY_MIN_RECORDS]
    if healthy:
        summary = {
            "config": asdict(cfg),
            "seeds": [r.seed for r in healthy],
            "metrics": summarize(healthy),
        }
        summary_path.write_text(dump_json(summary, indent=2) + "\n", encoding="utf-8")

    if any(r.diverged for r in runs):
        raise _CommandError(EXIT_DIVERGED, "at least one seed diverged; partial outputs retained")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toporeg",
        description="Persistent-entropy tools for point clouds: barcodes, entropy, anisotropy, training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("barcode", help="0-dimensional barcode of a point-cloud CSV")
    p.add_argument("input", help="point-cloud CSV file")
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
    try:
        return args.func(args)
    except _CommandError as exc:
        code, message = exc.code, str(exc)
    except OSError as exc:
        code, message = EXIT_PARSE, str(exc)
    except MemoryError as exc:  # numpy's message names the size that failed
        code, message = EXIT_PARSE, f"{args.command}: out of memory: {str(exc) or 'allocation failed'}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
