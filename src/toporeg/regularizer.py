"""Differentiable persistent-entropy loss over point clouds.

The loss value is the persistent entropy of the cloud's 0-dim barcode,
restricted either to all bars or to the feature-selected subset.  Gradients
with respect to the point coordinates follow the chain rule through the bar
lengths while the discrete structure (which edges form the MST, which bars
count as features) is held fixed: persistence of this kind is piecewise
smooth with locally constant pairings, so away from ties the frozen-structure
gradient is the true gradient.

With S the total active (clamped) length and lh_j = max(l_j, EPS):

    dE/dl_j   = (1/S) * (-log(lh_j) + sum_k lh_k*log(lh_k) / S)
    dl_j/dx_a = (x_a - x_b) / lh_j      (negated for x_b)

where (a, b) are the MST endpoints of bar j.  The EPS clamp keeps gradients
bounded when duplicate points produce zero-length bars.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .entropy import persistent_entropy, select_features
from .geometry import PointCloud, as_cloud, pairwise_distances
from .persistence import vr_barcode_0d

EPS = 1e-12


class SelectionMode(enum.Enum):
    ALL_BARS = "all_bars"
    SELECTED_BARS = "selected_bars"


@dataclass
class EntropyLossGrad:
    """Entropy value plus its gradient w.r.t. every point coordinate.

    ``degenerate`` flags clouds whose active bars all have zero length
    (every point duplicated); value and gradient are zero there.
    """

    value: float
    grad: np.ndarray
    degenerate: bool = False


def entropy_loss_grad(cloud, mode: SelectionMode = SelectionMode.ALL_BARS) -> EntropyLossGrad:
    """Persistent entropy of a cloud's barcode and its coordinate gradient."""
    pc = as_cloud(cloud)
    x = pc.data
    if pc.n < 2:
        raise ValueError("entropy loss needs at least 2 points")

    barcode = vr_barcode_0d(pairwise_distances(pc))
    lengths, a, b = barcode.lengths(), barcode.a, barcode.b
    if mode is SelectionMode.SELECTED_BARS:
        active = select_features(lengths).selected
        lengths, a, b = lengths[active], a[active], b[active]

    grad = np.zeros_like(x)
    if float(lengths.sum()) <= 0.0:
        return EntropyLossGrad(value=0.0, grad=grad, degenerate=True)

    value = persistent_entropy(lengths)

    clamped = np.maximum(lengths, EPS)
    s = float(clamped.sum())
    log_clamped = np.log(clamped)
    dE_dl = (-log_clamped + (clamped * log_clamped).sum() / s) / s
    step = dE_dl[:, None] * ((x[a] - x[b]) / clamped[:, None])
    # one unbuffered scatter over (a_0, b_0, a_1, b_1, ...) adds in the order
    # of a per-bar loop of grad[a] += step; grad[b] -= step, so the sums are
    # bitwise the same
    ends = np.empty(2 * a.size, dtype=np.intp)
    ends[0::2], ends[1::2] = a, b
    signed = np.empty((ends.size, x.shape[1]))
    signed[0::2] = step
    np.negative(step, out=signed[1::2])
    np.add.at(grad, ends, signed)
    return EntropyLossGrad(value=float(value), grad=grad, degenerate=False)


def per_class_entropy_loss(
    cloud,
    labels,
    mode: SelectionMode = SelectionMode.ALL_BARS,
) -> EntropyLossGrad:
    """Sum of per-class entropy losses, gradients scattered to full layout.

    ``labels`` gives each point's class; classes run in ascending label
    order, and those with fewer than 2 points are skipped.  Applying the
    loss per class keeps distinct clusters apart: only distances *within* a
    label group generate gradients.
    """
    pc = as_cloud(cloud)
    x = pc.data
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D sequence of class indices")
    if labels.shape[0] != pc.n:
        raise ValueError(f"labels cover {labels.shape[0]} points, cloud has {pc.n}")
    total = 0.0
    grad = np.zeros_like(x)
    any_active = False
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        if idx.size < 2:
            continue
        sub = entropy_loss_grad(PointCloud(x[idx]), mode)
        total += sub.value
        grad[idx] += sub.grad
        if not sub.degenerate:
            any_active = True
    return EntropyLossGrad(value=total, grad=grad, degenerate=not any_active)
