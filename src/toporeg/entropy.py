"""Persistent entropy and separation of topological features from noise.

Persistent entropy of a barcode with lengths l_1..l_n is the Shannon entropy
of the normalized lengths p_i = l_i / S, S = sum(l_i), using the 0*log(0) = 0
convention.  It is maximal (log n) exactly when all bars are equal and lives
in [0, log n].

Feature selection works on the premise that the longest bar T is always a
feature and the shortest bar r is always noise.  Candidate bars are examined
longest-first; candidate i is tested by replacing the first i candidates with
i copies of the length that would maximize the entropy of the resulting
barcode ("neutralizing" them).  While each neutralization *shrinks* the total
bar mass, the longest bar keeps gaining probability and the candidates so far
behave like features; the first candidate whose neutralization fails to do so
is noise, along with everything shorter.  A closed-form cap Q on the number
of admissible features (a function of alpha = r/T and the bar count) bounds
the scan: when the cap is hit, the not-yet-examined candidates are discarded
as noise and the scan restarts on the survivors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .geometry import _range_exponent


def _bar_lengths(lengths) -> tuple[np.ndarray, int, int]:
    """Bar lengths as float64, scaled by the range rule's 2**-e for the longest
    bar, and the longest and shortest bar's indices; raises ValueError unless
    the lengths are a nonempty 1-D sequence of finite nonnegative values."""
    l = np.asarray(lengths, dtype=np.float64)
    if l.ndim != 1 or l.size == 0:
        raise ValueError(f"lengths must be a nonempty 1-D sequence, got shape {l.shape}")
    t_idx, r_idx = int(l.argmax()), int(l.argmin())
    # argmax and argmin return the first NaN, so a finite longest bar and a
    # nonnegative shortest one pass every bar without a full scan
    if not (math.isfinite(l[t_idx]) and l[r_idx] >= 0.0):
        raise ValueError("lengths must be finite and nonnegative")
    exponent = _range_exponent(float(l[t_idx]))
    return (np.ldexp(l, -exponent) if exponent else l), t_idx, r_idx


def persistent_entropy(lengths) -> float:
    """Shannon entropy (natural log) of the normalized bar lengths.

    Zero-length bars contribute nothing; the total length must be positive.
    Scaling every bar by a power of two leaves the value's bits unchanged.
    """
    l, _, _ = _bar_lengths(lengths)
    total = float(l.sum())
    if total <= 0.0:
        raise ValueError("degenerate barcode: total bar length is zero")
    p = l / total
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum()) + 0.0


def max_feature_count(alpha: float, n: int) -> int:
    """Cap on the number of admissible features for bar-length ratio alpha.

    Evaluates alpha*n*(alpha - 1 - log(alpha)) / (alpha - 1)**2 and rounds to
    the nearest integer, halves away from zero.  Positive for alpha in (0, 1);
    tends to 0 as alpha -> 0+ and to n/2 as alpha -> 1-.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    value = alpha * n * (alpha - 1.0 - math.log(alpha)) / (alpha - 1.0) ** 2
    return int(math.floor(value + 0.5))


@dataclass
class SelectionResult:
    """Partition of a barcode into topological features and noise.

    ``selected`` and ``noise`` are indices into the bar-length array; the
    longest bar is always selected.  ``q_trace`` records
    (iteration, Q, C) for every scan step across restarts, where C is the
    ratio of the neutralized barcode's total length to the previous one
    (the scan stops as soon as C >= 1).
    """

    selected: list[int]
    noise: list[int]
    alpha: float
    q_trace: list[tuple[int, int, float]] = field(default_factory=list)


def _scan(
    middle: list[float],
    r_len: float,
    t_len: float,
    alpha: float,
    trace: list[tuple[int, int, float]],
) -> int:
    """Selection passes over candidate lengths sorted longest-first.

    Returns how many leading candidates are features.  Restarts on a
    truncated candidate list whenever the Q cap is hit with candidates still
    unexamined, which strictly shrinks the list and guarantees termination.

    Step i of a pass needs the total P and the entropy E of the tail
    middle[i:] + [r, t].  Each bar's term l * log(l / T) is computed once per
    call, T being the longest bar, which every tail holds; a bar whose ratio
    to T underflows adds nothing, as a zero bar does.  Each pass sums the
    lengths and the terms from the end, giving for every i the suffix sums
    P and H over that tail; then

        E = log(P / T) - H / P

    which is -sum((l / P) * log(l / P)) rewritten, so each pass costs O(m).
    Taking logs relative to T keeps a tail of zeros plus T at exactly E = 0,
    as the direct entropy has it: P = T and every term of H is 0 or
    T * log(1).  That decides ties of the stop test: for bars [T, T, 0]
    step 1 has C = 1 exactly, while log(P) - sum(l * log(l)) / P leaves
    E = 2**-52 for about one T in ten (T = 5.334129085967947, say), so
    C = 1 - 2**-53 and the second T would be kept as a feature.  The suffix
    sums are rebuilt on each restart rather than derived from prefix sums
    by subtraction, which would cancel.
    """
    m = len(middle)
    # each bar's term of H, r's last
    h = [l * math.log(p) if (p := l / t_len) > 0.0 else 0.0 for l in [*middle, r_len]]
    while True:
        q = max_feature_count(alpha, m + 2) if alpha > 0.0 else 0  # alpha -> 0+ limit
        tail_sum = list(accumulate(reversed(middle[:m]), initial=r_len + t_len))[::-1]
        tail_h = list(accumulate(reversed(h[:m]), initial=h[-1]))[::-1]
        s_prev = tail_sum[0]
        for i in range(1, m + 1):
            p_i = tail_sum[i]
            ent_tail = math.log(p_i / t_len) - tail_h[i] / p_i
            s_cur = p_i + i * (p_i / math.exp(ent_tail))
            c = s_cur / s_prev
            trace.append((i, q, c))
            if c >= 1.0:
                # neutralizing candidate i no longer boosts the longest bar's
                # share: i and everything shorter is noise
                return i - 1
            if q <= i < m:
                # cap hit with candidates unexamined: drop them and rescan
                m = i
                break
            s_prev = s_cur
        else:
            return m


def select_features(lengths) -> SelectionResult:
    """Split a barcode's bars, given as a 1-D array of their lengths, into
    topological features and noise.

    The longest bar is always a feature; the shortest is noise whenever the
    lengths are not all equal.  All-equal barcodes (alpha = 1) are
    maximum-entropy already and are returned fully selected.  Scaling every
    bar by a power of two leaves the result's bits unchanged.
    """
    lengths, t_idx, r_idx = _bar_lengths(lengths)
    n = lengths.size
    t_len = float(lengths[t_idx])
    r_len = float(lengths[r_idx])

    if r_len == t_len:
        # uniform barcode: nothing to neutralize, every bar is a feature
        return SelectionResult(selected=list(range(n)), noise=[], alpha=1.0)

    alpha = r_len / t_len
    order = np.argsort(-lengths, kind="stable")  # longest first, equal lengths by index
    rest = order[(order != t_idx) & (order != r_idx)]

    trace: list[tuple[int, int, float]] = []
    kept = _scan(lengths[rest].tolist(), r_len, t_len, alpha, trace)

    is_feature = np.zeros(n, dtype=bool)
    is_feature[t_idx] = True
    is_feature[rest[:kept]] = True
    return SelectionResult(
        selected=is_feature.nonzero()[0].tolist(),
        noise=(~is_feature).nonzero()[0].tolist(),
        alpha=alpha,
        q_trace=trace,
    )
