"""Step-by-step reference for separating topological features from noise.

This is the hand-trace written out as code: explicit working lists, full
recomputation of every sum and entropy at every iteration, no index
bookkeeping tricks.  It operates on bar lengths only and returns the
multiset of lengths judged to be features, longest bar first.

Semantics (shared with the library, derived once from the worked examples):
the working list keeps the longest bar T apart as a guaranteed feature and
the shortest bar r apart as guaranteed noise; remaining candidates are
scanned longest-first.  At step i the first i candidates are replaced by i
copies of the entropy-maximizing common length P_i / exp(E(R_i)); while that
substitution shrinks the total bar mass the longest bar's probability is
still rising and candidate i counts as a feature.  The first candidate whose
substitution fails to shrink the total is noise (as is everything after it).
Hitting the closed-form feature cap Q with candidates still unexamined
discards those candidates and restarts the scan on the survivors.
"""

from __future__ import annotations

import math


def _entropy(lengths):
    total = sum(lengths)
    acc = 0.0
    for l in lengths:
        p = l / total
        if p > 0.0:  # a share that underflows to 0 adds nothing, as a zero bar
            acc -= p * math.log(p)
    return acc


def _cap(alpha, count):
    if alpha <= 0.0:
        return 0
    value = alpha * count * (alpha - 1.0 - math.log(alpha)) / (alpha - 1.0) ** 2
    return math.floor(value + 0.5)


def reference_feature_lengths(lengths):
    lengths = [float(l) for l in lengths]
    if not lengths:
        raise ValueError("empty barcode")
    if len(lengths) == 1:
        return list(lengths)

    ordered = sorted(lengths, reverse=True)
    big = ordered[0]
    small = ordered[-1]
    if big == small:
        return list(ordered)
    alpha = small / big
    candidates = ordered[1:-1]

    def scan(middle):
        n_prime = len(middle) + 2
        cap = _cap(alpha, n_prime)
        previous = list(middle) + [small, big]
        for i in range(1, len(middle) + 1):
            remainder = list(middle[i:]) + [small, big]
            pooled = sum(remainder)
            neutral = pooled / math.exp(_entropy(remainder))
            current = [neutral] * i + remainder
            if sum(current) >= sum(previous):
                return [big] + list(middle[: i - 1])
            if cap <= i < len(middle):
                return scan(middle[:i])
            previous = current
        return [big] + list(middle)

    return scan(candidates)
