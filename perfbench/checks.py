"""Independent checkers for toporeg outputs.

Nothing here imports toporeg: every reference value (MST lengths, distances,
singular values, entropies, tail means) is recomputed from the inputs with
numpy and the standard library, so a fault in the program cannot hide in its
own oracle.  Each checker raises CheckError on the first violation.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Distances and entropies are recomputed with a different summation order
# than the program's, so they agree to a few ulps, never exactly.
RTOL = 1e-12
# Anisotropy goes through a different eigen-solver (LAPACK SVD of the data
# versus the program's own eigenvalues of the Gram matrix).
ANISOTROPY_ATOL = 1e-9

# Tail-mean validation accuracy a trained seed must reach.  Two balanced
# classes put chance at 0.5; see README.md for how the floor was chosen.
ACCURACY_FLOOR = 0.65


class CheckError(Exception):
    """An output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(a, b, rtol: float = RTOL, atol: float = 0.0) -> bool:
    return bool(np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float), rtol=rtol, atol=atol))


# --- minimum spanning trees ------------------------------------------------


def _prim(n: int, row) -> list[tuple[float, int, int]]:
    """Dense Prim over n vertices; row(v) gives distances from v to all.

    Returns MST edges (length, a, b) with a < b, in the order Prim adds them.
    """
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = np.array(row(0), dtype=np.float64)
    parent = np.zeros(n, dtype=np.int64)
    edges = []
    for _ in range(n - 1):
        v = int(np.argmin(np.where(in_tree, np.inf, best)))
        u = int(parent[v])
        edges.append((float(best[v]), min(u, v), max(u, v)))
        in_tree[v] = True
        dv = row(v)
        closer = ~in_tree & (dv < best)
        best[closer] = dv[closer]
        parent[closer] = v
    return edges


def mst_of_points(x: np.ndarray) -> list[tuple[float, int, int]]:
    """Euclidean MST of a point cloud, one distance row at a time (O(N*D) memory)."""
    x = np.asarray(x, dtype=np.float64)
    return _prim(x.shape[0], lambda v: np.sqrt(((x - x[v]) ** 2).sum(axis=1)))


def mst_of_matrix(d: np.ndarray) -> list[tuple[float, int, int]]:
    d = np.asarray(d, dtype=np.float64)
    return _prim(d.shape[0], lambda v: d[v])


def distances(x: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, one row at a time to keep memory O(N*N)."""
    x = np.asarray(x, dtype=np.float64)
    return np.stack([np.sqrt(((x - x[v]) ** 2).sum(axis=1)) for v in range(x.shape[0])])


def _require_spanning_tree(edges, n: int) -> None:
    """n - 1 edges that never close a cycle span all n vertices."""
    require(len(edges) == n - 1, f"expected {n - 1} bars, got {len(edges)}")
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for a, b in edges:
        require(0 <= a < n and 0 <= b < n and a != b, f"bad endpoints ({a}, {b})")
        ra, rb = find(a), find(b)
        require(ra != rb, f"bar ({a}, {b}) closes a cycle: endpoints do not form a tree")
        root[ra] = rb


def entropy_of(lengths) -> float:
    l = np.asarray(lengths, dtype=np.float64)
    p = l[l > 0] / l.sum()
    return float(-(p * np.log(p)).sum())


def anisotropy_scores(m: np.ndarray, k: int, centered: bool) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if centered:
        m = m - m.mean(axis=0)
    s2 = np.linalg.svd(m, compute_uv=False) ** 2
    return s2[:k] / s2.sum()


# --- CLI outputs -----------------------------------------------------------


def check_barcode(text: str, x: np.ndarray) -> None:
    """`toporeg barcode`: MST bars longest first, each realized by its endpoints."""
    bars = json.loads(text)["bars"]
    n = x.shape[0]
    edges = [(int(b["a"]), int(b["b"])) for b in bars]
    _require_spanning_tree(edges, n)
    lengths = np.array([b["length"] for b in bars], dtype=np.float64)
    require(bool((np.diff(lengths) <= 0).all()), "bars are not listed longest first")
    a, b = np.array(edges).T
    direct = np.sqrt(((x[a] - x[b]) ** 2).sum(axis=1))
    require(_close(lengths, direct), "a bar length differs from the distance between its endpoints")
    reference = sorted(length for length, _, _ in mst_of_points(x))
    require(_close(np.sort(lengths), reference), "bar lengths differ from the MST edge lengths")


def check_entropy_features(text: str, x: np.ndarray) -> None:
    """`toporeg entropy --select features`.

    ``selected`` and ``noise`` index the barcode's bar list, which is in
    Kruskal order: ascending by length.  Index i therefore has the i-th
    shortest MST length, whichever of several tied edges realizes it.
    """
    payload = json.loads(text)
    n_bars = x.shape[0] - 1
    require(payload["n_bars"] == n_bars, f"n_bars is {payload['n_bars']}, expected {n_bars}")
    selected, noise = list(payload["selected"]), list(payload["noise"])
    require(len(selected) >= 1, "no bar selected")
    require(
        sorted(selected + noise) == list(range(n_bars)),
        "selected and noise do not partition the bars",
    )
    ascending = np.sort([length for length, _, _ in mst_of_points(x)])
    if noise:
        require(
            ascending[selected].min() >= ascending[noise].max(),
            "a noise bar is longer than a selected bar",
        )
    alpha = ascending[0] / ascending[-1]
    require(_close(payload["alpha"], alpha), f"alpha {payload['alpha']} != min/max bar {alpha}")
    expected = entropy_of(ascending[selected])
    require(
        _close(payload["entropy"], expected, atol=RTOL),
        f"entropy {payload['entropy']} != {expected} of the selected bars",
    )


def check_anisotropy(text: str, x: np.ndarray, k: int, centered: bool) -> None:
    payload = json.loads(text)
    require(list(payload) == [str(i) for i in range(1, k + 1)], f"expected scores for k = 1..{k}")
    got = [payload[str(i)] for i in range(1, k + 1)]
    expected = anisotropy_scores(x, k, centered)
    require(_close(got, expected, rtol=0.0, atol=ANISOTROPY_ATOL), f"scores {got} != SVD scores {expected.tolist()}")


def probe_passes(rc, stdout: str, stderr: str, raised: BaseException | None) -> bool:
    """A malformed-input probe passes with a finite result or a documented error.

    Documented: exit 0 with a finite entropy, or exit 2/3/4/5 with a single
    `error:` line on stderr.  A raised exception is a failure.
    """
    if raised is not None:
        return False
    if rc == 0:
        try:
            value = json.loads(stdout)["entropy"]
        except (ValueError, KeyError, TypeError):
            return False
        return isinstance(value, (int, float)) and math.isfinite(value)
    lines = stderr.strip().splitlines()
    return rc in (2, 3, 4, 5) and len(lines) == 1 and lines[0].startswith("error:")


# --- training outputs ------------------------------------------------------

ANISOTROPY_KS = (1, 2, 3)
TAIL_FRACTION = 0.3


def _tail_mean(values: list[float]) -> float:
    start = int(math.floor((1.0 - TAIL_FRACTION) * len(values)))
    tail = values[start:]
    return math.fsum(tail) / len(tail)


def check_train(metrics_text: str, summary_text: str, cfg: dict, seed: int, steps: int) -> float:
    """`toporeg train` for one seed; returns the tail-mean validation accuracy."""
    records = [json.loads(line) for line in metrics_text.splitlines()]
    require(len(records) == steps, f"{len(records)} records for {steps} steps")
    require([r.get("step") for r in records] == list(range(1, steps + 1)), "steps are not contiguous from 1")
    lam = cfg["entropy_weight"]
    bound = cfg["data"]["n_classes"] * math.log(cfg["batch_size"] - 1)
    keys = list(records[0])
    for r in records:
        require(list(r) == keys, f"step {r['step']}: record keys changed")
        require(all(isinstance(v, (int, float)) and math.isfinite(v) for v in r.values()), f"step {r['step']}: non-finite value")
        require(abs(r["total"] - (r["ce"] - lam * r["ent"])) <= 1e-12 * max(1.0, abs(r["ce"])), f"step {r['step']}: total != ce - lambda * ent")
        if cfg["regime"] == "none":
            require(r["ent"] == 0.0, f"step {r['step']}: ent {r['ent']} under regime none")
        else:
            require(0.0 <= r["ent"] <= bound, f"step {r['step']}: ent {r['ent']} outside [0, {bound}]")
        for kind in ("raw", "centered"):
            scores = [r[f"anisotropy_{kind}_{k}"] for k in ANISOTROPY_KS]
            require(all(0.0 <= s <= 1.0 for s in scores), f"step {r['step']}: {kind} anisotropy outside [0, 1]")
            require(all(a >= b for a, b in zip(scores, scores[1:])), f"step {r['step']}: {kind} anisotropy increases with k")
            require(sum(scores) <= 1.0 + 1e-12, f"step {r['step']}: {kind} anisotropy sums above 1")
    if cfg["regime"] != "none":
        require(any(r["ent"] > 0.0 for r in records), "entropy term is zero on every step")
    accuracy = _tail_mean([r["val_accuracy"] for r in records])
    require(accuracy >= ACCURACY_FLOOR, f"tail-mean validation accuracy {accuracy:.3f} below {ACCURACY_FLOOR}")

    summary = json.loads(summary_text)
    require(summary["seeds"] == [seed], f"summary seeds {summary['seeds']} != [{seed}]")
    require(sorted(summary["metrics"]) == sorted(k for k in keys if k != "step"), "summary metrics differ from record fields")
    for key, stats in summary["metrics"].items():
        expected = _tail_mean([r[key] for r in records])
        require(_close(stats["mean"], expected), f"summary mean of {key} {stats['mean']} != {expected}")
        require(_close(stats["per_seed"], [expected]), f"summary per_seed of {key} is wrong")
        require(stats["std"] == 0.0, f"summary std of {key} is {stats['std']} over one seed")
    return accuracy


# --- sampled calls inside the program --------------------------------------


def check_barcode_call(d: np.ndarray, bars: list[tuple[float, int, int]]) -> None:
    """A `vr_barcode_0d(d)` result, given as (length, a, b) triples."""
    d = np.asarray(d, dtype=np.float64)
    _require_spanning_tree([(a, b) for _, a, b in bars], d.shape[0])
    lengths = [length for length, _, _ in bars]
    require(_close(lengths, [d[a, b] for _, a, b in bars]), "a bar length differs from d[a, b]")
    reference = sorted(length for length, _, _ in mst_of_matrix(d))
    require(_close(sorted(lengths), reference), "bar lengths differ from Prim's MST on the same matrix")


def check_distances_call(x: np.ndarray, d: np.ndarray) -> None:
    require(_close(d, distances(x), atol=RTOL), "pairwise distances differ from the direct computation")


def check_anisotropy_call(m: np.ndarray, k_max: int, centered: bool, scores) -> None:
    expected = anisotropy_scores(m, k_max, centered)
    require(_close(scores, expected, rtol=0.0, atol=ANISOTROPY_ATOL), "anisotropy profile differs from np.linalg.svd")
