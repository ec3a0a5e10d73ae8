"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: scalar loops, exhaustive enumeration,
textbook algorithms.  Nothing is shared with the package under test, so a
bug has to appear twice (and identically) to go unnoticed.  The exception
is ``per_step_records``, which replays a training run with the package's
own step functions and differs from ``run_seed`` only in when it evaluates.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np


def scalar_distance_matrix(points) -> np.ndarray:
    """Elementwise sqrt-of-sum-of-squares distances, pure Python."""
    points = [list(map(float, row)) for row in points]
    n = len(points)
    d = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for a, b in zip(points[i], points[j]):
                acc += (a - b) ** 2
            d[i][j] = math.sqrt(acc)
    return np.array(d)


def rowwise_distance_matrix(points) -> np.ndarray:
    """Distances one row at a time over every column, both triangles.

    Each entry is the same ``einsum`` of squared coordinate differences as
    a full row-block fill, so a blocked, mirrored fill must match it bitwise.
    """
    x = np.asarray(points, dtype=float)
    d = np.empty((x.shape[0], x.shape[0]))
    for i in range(x.shape[0]):
        diff = x[i] - x
        d[i] = np.sqrt(np.einsum("jk,jk->j", diff, diff))
    return d


class CsvCellError(ValueError):
    """A per-cell CSV parse error with its 1-based row and column."""

    def __init__(self, message, row=None, column=None):
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)
        self.row = row
        self.column = column


def per_cell_cloud_csv(path):
    """Point-cloud CSV parsed cell by cell: (points, labels or None).

    Strips and converts one cell at a time and checks each coordinate's
    finiteness as it goes, so the first error raised (CsvCellError, which
    starts with ``<path>: ``) belongs to the earliest bad row, and within it
    to the width check, then the coordinates left to right, then the label.
    """

    def is_float(token):
        try:
            float(token)
        except ValueError:
            return False
        return True

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    except UnicodeDecodeError as exc:
        raise CsvCellError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    if not rows:
        raise CsvCellError(f"{path}: no data rows")
    header = None
    if any(not is_float(cell.strip()) for cell in rows[0]):
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise CsvCellError(f"{path}: header only, no data rows")
    has_labels = bool(header) and header[-1].lower() == "label"
    width = len(header) if header else len(rows[0])
    points, labels = [], []
    for r, row in enumerate(rows, start=2 if header else 1):
        if len(row) != width:
            raise CsvCellError(f"{path}: expected {width} columns, found {len(row)}", row=r)
        coords = []
        for c, cell in enumerate(row[:-1] if has_labels else row, start=1):
            token = cell.strip()
            try:
                value = float(token)
            except ValueError:
                raise CsvCellError(f"{path}: cannot parse {token!r} as a number", row=r, column=c) from None
            if not math.isfinite(value):
                raise CsvCellError(f"{path}: non-finite coordinate {token!r}", row=r, column=c)
            coords.append(value)
        if not coords:
            raise CsvCellError(f"{path}: row has no coordinate columns", row=r)
        points.append(coords)
        if has_labels:
            token = row[-1].strip()
            try:
                label = int(token)
            except ValueError:
                raise CsvCellError(f"{path}: cannot parse label {token!r} as an integer", row=r, column=width) from None
            if label < 0:
                raise CsvCellError(f"{path}: labels must be nonnegative, got {label}", row=r, column=width)
            labels.append(label)
    return np.array(points, dtype=np.float64), (np.array(labels, dtype=np.int64) if has_labels else None)


def single_linkage_heights(dist) -> list[float]:
    """Merge heights of naive O(N^3) single-linkage agglomeration, sorted."""
    dist = np.asarray(dist, dtype=float)
    clusters = [{i} for i in range(dist.shape[0])]
    heights = []
    while len(clusters) > 1:
        best = (math.inf, -1, -1)
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                h = min(dist[i, j] for i in clusters[a] for j in clusters[b])
                if h < best[0]:
                    best = (h, a, b)
        h, a, b = best
        heights.append(float(h))
        clusters[a] |= clusters[b]
        del clusters[b]
    return sorted(heights)


def prim_mst_weight(dist) -> float:
    """Total MST weight by Prim's algorithm with linear scans."""
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    in_tree = [False] * n
    cost = [math.inf] * n
    cost[0] = 0.0
    total = 0.0
    for _ in range(n):
        u = min((c, i) for i, c in enumerate(cost) if not in_tree[i])[1]
        in_tree[u] = True
        total += cost[u]
        for v in range(n):
            if not in_tree[v] and dist[u, v] < cost[v]:
                cost[v] = dist[u, v]
    return total


def kruskal_bars(dist) -> list[tuple[float, int, int]]:
    """MST edges (length, i, j), i < j, by Kruskal under the (length, i, j) order.

    Edges are accepted in that order, so the list comes out sorted by it.
    """
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    edges = sorted((float(dist[i, j]), i, j) for i in range(n) for j in range(i + 1, n))
    component = list(range(n))

    def root(v):
        while component[v] != v:
            v = component[v]
        return v

    bars = []
    for length, i, j in edges:
        ri, rj = root(i), root(j)
        if ri != rj:
            component[rj] = ri
            bars.append((length, i, j))
    return bars


def entropy_grad_loop(x, bars) -> np.ndarray:
    """Entropy gradient scattered bar by bar: grad[a] += g*dir, grad[b] -= g*dir.

    ``bars`` lists the active (length, a, b) triples; zero-length bars are
    dropped.  dE/dl is evaluated as the closed form in the regularizer's
    docstring with the same numpy expressions, so only the scatter differs
    and the sums compare bitwise.
    """
    x = np.asarray(x, dtype=float)
    bars = [bar for bar in bars if bar[0] > 0.0]
    lengths = np.array([length for length, _, _ in bars])
    s = float(lengths.sum())
    dE_dl = (-np.log(lengths) + (lengths * np.log(lengths)).sum() / s) / s
    grad = np.zeros_like(x)
    for g, (length, a, b) in zip(dE_dl, bars):
        direction = (x[a] - x[b]) / length
        grad[a] += g * direction
        grad[b] -= g * direction
    return grad


def prufer_to_edges(seq, n) -> list[tuple[int, int]]:
    """Decode a Pruefer sequence into the labeled tree's edge list."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (i for i in range(n) if degree[i] == 1)
    edges.append((u, w))
    return edges


def all_spanning_trees(n):
    """Yield the edge lists of all n**(n-2) labeled trees on n vertices."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_to_edges(seq, n)


def scalar_forward(weights, biases, batch):
    """Triple-loop MLP forward pass: tanh hidden, identity output; returns
    the logits and the last hidden layer's activations."""
    h = [list(map(float, row)) for row in batch]
    reps = None
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        out = []
        for row in h:
            orow = []
            for j in range(len(b)):
                acc = float(b[j])
                for i, xi in enumerate(row):
                    acc += xi * float(w[i][j])
                orow.append(acc)
            out.append(orow)
        if l != last:
            out = [[math.tanh(v) for v in row] for row in out]
        if l == last - 1:
            reps = out
        h = out
    return h, reps


def scalar_adam_trajectory(x0, grad_fn, lrs, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam on a list-of-floats parameter vector; returns each iterate."""
    x = list(map(float, x0))
    m = [0.0] * len(x)
    v = [0.0] * len(x)
    trajectory = []
    for t, lr in enumerate(lrs, start=1):
        g = grad_fn(x)
        for i in range(len(x)):
            m[i] = beta1 * m[i] + (1 - beta1) * g[i]
            v[i] = beta2 * v[i] + (1 - beta2) * g[i] * g[i]
            if weight_decay:
                x[i] *= 1.0 - lr * weight_decay
            mh = m[i] / (1 - beta1**t)
            vh = v[i] / (1 - beta2**t)
            x[i] -= lr * mh / (math.sqrt(vh) + eps)
        trajectory.append(list(x))
    return trajectory


def entropy_formula(lengths) -> float:
    """-sum(p log p) written out directly."""
    s = float(sum(lengths))
    acc = 0.0
    for l in lengths:
        if l > 0:
            acc -= (l / s) * math.log(l / s)
    return acc


def recursive_dump_json(obj, indent: int = 0, _level: int = 0) -> str:
    """JSON text built value by value: %.17g floats, ints through str,
    strings through json.dumps, items joined by ", " on one line or by
    ",\n" with ``indent`` spaces per level.  numpy scalars and arrays are
    converted first; a non-finite float raises ValueError, a non-string key
    or an unknown type TypeError."""
    pad = " " * (indent * (_level + 1)) if indent else ""
    close_pad = " " * (indent * _level) if indent else ""
    sep = ",\n" if indent else ", "
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, np.integer):
        obj = int(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"refusing to serialize non-finite float {obj!r}")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{pad}{recursive_dump_json(key)}: {recursive_dump_json(value, indent, _level + 1)}")
        body = sep.join(items)
        return "{\n" + body + "\n" + close_pad + "}" if indent else "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}{recursive_dump_json(v, indent, _level + 1)}" for v in obj]
        body = sep.join(items)
        return "[\n" + body + "\n" + close_pad + "]" if indent else "[" + body + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def scan_select_features(lengths):
    """Feature/noise split by the selection scan written out as plain
    loops: (selected, noise, alpha, q_trace), with q_trace the (i, Q, C)
    steps.

    Each pass rebuilds the suffix sums of the lengths and of
    l * log(l / T) in one reverse loop, taking every log afresh.  The cap Q
    is the rounded alpha*n*(alpha - 1 - log(alpha)) / (alpha - 1)**2, or 0
    at alpha = 0.  It reads the bars the way ``select_features`` does (the
    longest first, equal lengths by index; one longest and one shortest bar
    set aside; scaled by 2**-e when T = f * 2**e with f in [0.5, 1) and
    |e| > 256), so the trace must agree bit for bit.  A ratio to T that
    underflows to 0 makes a log fail.
    """
    lengths = [float(l) for l in lengths]
    n = len(lengths)
    t_idx = max(range(n), key=lengths.__getitem__)
    r_idx = min(range(n), key=lengths.__getitem__)
    exponent = math.frexp(lengths[t_idx])[1]
    if abs(exponent) > 256:
        lengths = [math.ldexp(l, -exponent) for l in lengths]
    t_len, r_len = lengths[t_idx], lengths[r_idx]
    if r_len == t_len:
        return list(range(n)), [], 1.0, []
    alpha = r_len / t_len
    rest = [i for i in sorted(range(n), key=lambda i: -lengths[i]) if i not in (t_idx, r_idx)]
    middle = [lengths[i] for i in rest]

    trace = []
    m = len(middle)
    kept = None
    while kept is None:
        q = 0
        if alpha > 0.0:
            q = int(math.floor(alpha * (m + 2) * (alpha - 1.0 - math.log(alpha)) / (alpha - 1.0) ** 2 + 0.5))
        tail_sum = [0.0] * (m + 1)
        tail_h = [0.0] * (m + 1)
        acc_sum = r_len + t_len
        acc_h = r_len * math.log(r_len / t_len) if r_len > 0.0 else 0.0
        tail_sum[m], tail_h[m] = acc_sum, acc_h
        for k in range(m - 1, -1, -1):
            l = middle[k]
            acc_sum += l
            if l > 0.0:
                acc_h += l * math.log(l / t_len)
            tail_sum[k], tail_h[k] = acc_sum, acc_h

        s_prev = tail_sum[0]
        kept = m
        for i in range(1, m + 1):
            p_i = tail_sum[i]
            ent_tail = math.log(p_i / t_len) - tail_h[i] / p_i
            s_cur = p_i + i * (p_i / math.exp(ent_tail))
            c = s_cur / s_prev
            trace.append((i, q, c))
            if c >= 1.0:
                kept = i - 1
                break
            if q <= i < m:
                m, kept = i, None
                break
            s_prev = s_cur

    features = {t_idx, *rest[:kept]}
    selected = sorted(features)
    noise = [i for i in range(n) if i not in features]
    return selected, noise, alpha, trace


def single_spectrum_scores(m, k_max: int, centered: bool):
    """Anisotropy scores of one variant, raw or centered, from its own
    eigensolve on a single Gram matrix: the rescale, Gram matrix, clamp and
    rank rule of ``anisotropy_profile`` for one spectrum, so its stacked
    solve must agree bit for bit.  None where no singular value is left
    above rounding noise."""
    m = np.asarray(m, dtype=np.float64)
    peak, exponent = math.frexp(float(np.abs(m).max()))
    m = np.ldexp(m, -exponent)
    work = m - m.sum(axis=0, keepdims=True) / m.shape[0] if centered else m
    gram = work @ work.T if work.shape[0] < work.shape[1] else work.T @ work
    sigma = np.sqrt(np.maximum(np.linalg.eigvalsh(gram), 0.0)[::-1])
    eps = float(np.finfo(np.float64).eps)
    noise = max(
        max(m.shape) * math.sqrt(m.size) * eps * peak,
        math.sqrt(max(m.shape) * eps) * float(sigma[0]),
    )
    sigma[sigma <= noise] = 0.0
    total = float((sigma * sigma).sum())
    return (sigma[:k_max] ** 2) / total if total else None


def _padded_scores(reps, k_max, centered) -> list[float]:
    """``anisotropy_profile``'s first k_max scores, padded with 0.0 to three,
    or three 0.0 where the call raises."""
    from toporeg.geometry import anisotropy_profile

    try:
        return anisotropy_profile(reps, k_max=k_max, centered=centered).scores.tolist() + [0.0] * (3 - k_max)
    except ValueError:
        return [0.0] * 3


def per_step_records(cfg, seed) -> list[dict]:
    """``run_seed``'s records, evaluated after every step: one ``forward``
    on the single parameter vector and one raw and one centered
    ``anisotropy_profile`` call per step, 0.0 past the rank bound or where
    the call raises.  Stops before the first step whose loss or updated
    parameters are not finite."""
    from toporeg import harness
    from toporeg.model import MLP, AdamState, WarmupSchedule, adam_step, backward_combined, forward

    x, y, train_idx, val_idx = harness._load_dataset(cfg, seed)
    dims = [x.shape[1], *cfg.hidden_dims, int(y.max()) + 1]
    mlp = MLP.init(dims, np.random.default_rng([seed, harness._STREAM_INIT]))
    state = AdamState.for_params(mlp.params)
    steps_per_epoch = train_idx.size // cfg.batch_size
    sched = WarmupSchedule.for_total(cfg.base_lr, cfg.epochs * steps_per_epoch)
    batch_rng = np.random.default_rng([seed, harness._STREAM_BATCHES])
    val_x, val_y = x[val_idx], y[val_idx]
    mode = harness.REGIMES[cfg.regime]
    records = []
    for _ in range(cfg.epochs):
        order = batch_rng.permutation(train_idx)
        for b in range(steps_per_epoch):
            batch = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            breakdown, grad = backward_combined(mlp, x[batch], y[batch], mode, cfg.entropy_weight)
            if not math.isfinite(breakdown.total):
                return records
            adam_step(mlp.params, grad, state, sched, cfg.weight_decay)
            if not np.isfinite(mlp.params).all():
                return records
            logits, reps, _ = forward(mlp, val_x)
            reps = reps[: harness.EVAL_BATCH_SIZE]
            k_max = min(3, min(reps.shape))
            raw, centered = _padded_scores(reps, k_max, False), _padded_scores(reps, k_max, True)
            rec = {
                "step": len(records) + 1,
                "ce": breakdown.ce,
                "ent": breakdown.ent,
                "total": breakdown.total,
                "val_accuracy": int(np.count_nonzero(logits.argmax(axis=1) == val_y)) / val_y.size,
            }
            for k in (1, 2, 3):
                rec[f"anisotropy_raw_{k}"] = raw[k - 1]
                rec[f"anisotropy_centered_{k}"] = centered[k - 1]
            records.append(rec)
    return records
