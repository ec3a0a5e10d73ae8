"""Spans around toporeg's public functions, installed from outside the program.

A traced function is replaced at every module attribute of the toporeg
package that holds it, so calls are caught whichever name the caller uses
(``toporeg.harness.backward_combined``, ``toporeg.regularizer.vr_barcode_0d``,
the package root, ...).  Each span records name, start, end and the index of
its parent span.  Recursive calls of a function inside its own span (the
JSON writer recurses) fold into the outermost span.  A name that no longer
exists is skipped, so it reports zero calls.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

FUNCTIONS = (
    "cli.main",
    "cloudfile.load_cloud_csv",
    "serialize.dump_json",
    "serialize.write_jsonl",
    "harness.run_seed",
    "model.backward_combined",
    "model.forward",
    "model.adam_step",
    "regularizer.per_class_entropy_loss",
    "regularizer.entropy_loss_grad",
    "persistence.vr_barcode_0d",
    "entropy.select_features",
    "entropy.persistent_entropy",
    "geometry.pairwise_distances",
    "geometry.anisotropy_profile",
    "geometry.singular_values",
)

# Counts read from returned values, summed over traced calls.
COUNTS = (
    "persistence.vr_barcode_0d.points",
    "entropy.select_features.kept_bars",
    "entropy.select_features.scan_steps",
    "entropy.select_features.restarts",
    "regularizer.entropy_loss_grad.degenerate",
    "serialize.bytes_out",
)

# Every SAMPLE_STRIDE-th call of a sampled function keeps its arguments and
# result for an independent check, up to SAMPLE_LIMIT per function.
SAMPLE_STRIDE = 97
SAMPLE_LIMIT = 24
SAMPLED = ("persistence.vr_barcode_0d", "geometry.pairwise_distances", "geometry.anisotropy_profile")


def _count(name: str, result, counts: dict) -> None:
    """Add what a returned value says about the work done; tolerate API drift."""
    if name == "persistence.vr_barcode_0d":
        counts["persistence.vr_barcode_0d.points"] += getattr(result, "n_points", 0)
    elif name == "entropy.select_features":
        counts["entropy.select_features.kept_bars"] += len(getattr(result, "selected", ()))
        trace = getattr(result, "q_trace", ())
        counts["entropy.select_features.scan_steps"] += len(trace)
        # every pass of the scan starts again at iteration 1
        counts["entropy.select_features.restarts"] += max(sum(1 for step in trace if step[0] == 1) - 1, 0)
    elif name == "regularizer.entropy_loss_grad":
        counts["regularizer.entropy_loss_grad.degenerate"] += int(bool(getattr(result, "degenerate", False)))
    elif name == "serialize.dump_json" and isinstance(result, str):
        counts["serialize.bytes_out"] += len(result.encode("utf-8"))


@dataclass
class Tracer:
    spans: list = field(default_factory=list)  # (name, start, end, parent index)
    counts: dict = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))
    samples: dict = field(default_factory=lambda: {name: [] for name in SAMPLED})
    _stack: list = field(default_factory=list)  # (name, span index) of open spans
    _seen: dict = field(default_factory=dict)  # sampled-function call counters

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = stack[-1][1] if stack else -1
            stack.append((name, index))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = (name, start, end, parent)
            _count(name, result, self.counts)
            if name in self.samples:
                seen = self._seen.get(name, 0)
                self._seen[name] = seen + 1
                if seen % SAMPLE_STRIDE == 0 and len(self.samples[name]) < SAMPLE_LIMIT:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.samples[name].append((_snapshot(bound.arguments), _snapshot_result(name, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list:
        """Replace every traced function in the loaded toporeg modules.

        Returns the (module, attribute, original) triples to restore.
        """
        modules = [m for key, m in list(sys.modules.items()) if m is not None and (key == "toporeg" or key.startswith("toporeg."))]
        replaced = []
        for qualified in FUNCTIONS:
            module_name, attr = qualified.split(".")
            home = sys.modules.get(f"toporeg.{module_name}")
            original = getattr(home, attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        replaced.append((module, key, original))
        return replaced

    @staticmethod
    def uninstall(replaced: list) -> None:
        for module, key, original in replaced:
            setattr(module, key, original)

    def per_layer(self, rounds: int) -> dict:
        """calls / self_s per round, and median inclusive time per call."""
        child_time = [0.0] * len(self.spans)
        durations: dict = {name: [] for name in FUNCTIONS}
        for name, start, end, parent in self.spans:
            durations[name].append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        self_time = dict.fromkeys(FUNCTIONS, 0.0)
        for (name, start, end, _), children in zip(self.spans, child_time):
            self_time[name] += (end - start) - children
        out = {}
        for name in FUNCTIONS:
            calls = durations[name]
            out[f"{name}.calls"] = (len(calls) / rounds, "count")
            out[f"{name}.self_s"] = (self_time[name] / rounds, "s")
            out[f"{name}.p50_us"] = (statistics.median(calls) * 1e6 if calls else 0.0, "us")
        for name in COUNTS:
            out[name] = (self.counts[name] / rounds, "count")
        return out


def _snapshot(arguments: dict) -> dict:
    """Copy array arguments so later in-place updates cannot change a sample."""
    out = {}
    for key, value in arguments.items():
        if not isinstance(value, np.ndarray) and isinstance(getattr(value, "data", None), np.ndarray):
            value = value.data  # a PointCloud keeps its coordinates in .data
        out[key] = np.array(value, dtype=np.float64, copy=True) if isinstance(value, np.ndarray) else value
    return out


def _snapshot_result(name: str, result):
    if name == "persistence.vr_barcode_0d":
        return [(b.length, b.endpoint_a, b.endpoint_b) for b in result.bars]
    if name == "geometry.anisotropy_profile":
        return np.array(result.scores, dtype=np.float64, copy=True)
    return np.array(result, dtype=np.float64, copy=True)
