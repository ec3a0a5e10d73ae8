"""Differentiable persistent-entropy loss over point clouds.

The loss value is the persistent entropy of the cloud's 0-dim barcode,
restricted either to all bars or to the feature-selected subset.  Gradients
with respect to the point coordinates follow the chain rule through the bar
lengths while the discrete structure (which edges form the MST, which bars
count as features) is held fixed: persistence of this kind is piecewise
smooth with locally constant pairings, so away from ties the frozen-structure
gradient is the true gradient.

With S the total length of the active bars:

    dE/dl_j   = (1/S) * (-log(l_j) + sum_k l_k*log(l_k) / S)
    dl_j/dx_a = (x_a - x_b) / l_j       (negated for x_b)

where (a, b) are the MST endpoints of bar j.  Zero-length bars (duplicate
points) are skipped: they add nothing to the value, and their direction is
0/0.  Nothing is clamped, so scaling the cloud by c scales the gradient by 1/c
at every scale: a cloud far from unit scale runs scaled by the range rule's
2**-e (``geometry._range_exponent``), and its gradient is scaled back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import persistent_entropy, select_features
from .geometry import _points, pairwise_distances
from .model import SelectionMode, _labels
from .persistence import vr_barcode_0d


@dataclass
class EntropyLossGrad:
    """Entropy value plus its gradient w.r.t. every point coordinate.

    ``degenerate`` flags clouds with no active bar of positive length
    (every point duplicated); value and gradient are zero there.
    """

    value: float
    grad: np.ndarray
    degenerate: bool = False


def _check_mode(mode) -> None:
    if not isinstance(mode, SelectionMode):
        raise ValueError(f"mode must be a SelectionMode, got {mode!r}")


def entropy_loss_grad(x, mode: SelectionMode = SelectionMode.ALL_BARS) -> EntropyLossGrad:
    """Persistent entropy of an N x D cloud's barcode and its coordinate
    gradient; raises ValueError on fewer than 2 points, a cloud that is not
    2-D and finite, or a mode that is not a SelectionMode.  A gradient
    entry beyond float64's range (points subnormally close, such as
    [[0], [5e-324], [1.5e-323]]) comes out as +-inf, without a warning."""
    _check_mode(mode)
    x, exponent = _points(x)
    if exponent:
        x = np.ldexp(x, -exponent)
    barcode = vr_barcode_0d(pairwise_distances(x))
    lengths, a, b = barcode.lengths(), barcode.a, barcode.b
    if mode is SelectionMode.SELECTED_BARS:
        active = select_features(lengths).selected
        lengths, a, b = lengths[active], a[active], b[active]
    positive = lengths > 0.0
    lengths, a, b = lengths[positive], a[positive], b[positive]

    grad = np.zeros_like(x)
    if not lengths.size:
        return EntropyLossGrad(value=0.0, grad=grad, degenerate=True)

    value = persistent_entropy(lengths)

    s = float(lengths.sum())
    log_l = np.log(lengths)
    dE_dl = (-log_l + (lengths * log_l).sum() / s) / s
    step = dE_dl[:, None] * ((x[a] - x[b]) / lengths[:, None])
    # one unbuffered scatter over (a_0, b_0, a_1, b_1, ...) adds in the order
    # of a per-bar loop of grad[a] += step; grad[b] -= step, so the sums are
    # bitwise the same
    ends = np.empty(2 * a.size, dtype=np.intp)
    ends[0::2], ends[1::2] = a, b
    signed = np.empty((ends.size, x.shape[1]))
    signed[0::2] = step
    np.negative(step, out=signed[1::2])
    np.add.at(grad, ends, signed)
    if exponent:
        with np.errstate(over="ignore"):  # documented: inf past float64's range
            np.ldexp(grad, -exponent, out=grad)
    return EntropyLossGrad(value=float(value), grad=grad, degenerate=False)


def per_class_entropy_loss(
    x,
    labels,
    mode: SelectionMode = SelectionMode.ALL_BARS,
) -> EntropyLossGrad:
    """Sum of per-class entropy losses, gradients scattered to full layout.

    ``labels`` gives each point's class as an integer; classes run in
    ascending label order, and those with fewer than 2 points are skipped.
    Applying the loss per class keeps distinct clusters apart: only
    distances *within* a label group generate gradients.  The whole N x D
    cloud is checked once, so a non-finite coordinate raises ValueError
    even in a skipped class.
    """
    _check_mode(mode)
    x, _ = _points(x)
    labels = _labels(labels, x.shape[0])
    total = 0.0
    grad = np.zeros_like(x)
    any_active = False
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        if idx.size < 2:
            continue
        sub = entropy_loss_grad(x[idx], mode)
        total += sub.value
        grad[idx] += sub.grad
        if not sub.degenerate:
            any_active = True
    return EntropyLossGrad(value=total, grad=grad, degenerate=not any_active)
