"""Finite-difference oracles for the entropy loss and combined objective.

The analytic gradients hold the discrete structure (MST pairing, feature
selection) fixed, so finite differences only validate them where that
structure is stable under the probe perturbation.  Helpers here detect the
structure and report per-coordinate stability masks.
"""

from __future__ import annotations

import numpy as np

from toporeg.entropy import select_features
from toporeg.geometry import pairwise_distances
from toporeg.model import backward_combined
from toporeg.persistence import vr_barcode_0d
from toporeg.regularizer import SelectionMode, entropy_loss_grad

FD_H = 1e-6


def loss_value(points: np.ndarray, mode: SelectionMode) -> float:
    return entropy_loss_grad(points, mode).value


def discrete_structure(points: np.ndarray, mode: SelectionMode):
    """Frozen combinatorics: the MST edge set, plus the active bar set."""
    barcode = vr_barcode_0d(pairwise_distances(points))
    edges = tuple(sorted(zip(barcode.a.tolist(), barcode.b.tolist())))
    if mode is SelectionMode.SELECTED_BARS:
        active = tuple(select_features(barcode.lengths()).selected)
    else:
        active = tuple(range(barcode.lengths().size))
    return edges, active


def fd_gradient(points: np.ndarray, mode: SelectionMode, h: float = FD_H) -> np.ndarray:
    grad = np.zeros_like(points)
    for i in range(points.shape[0]):
        for d in range(points.shape[1]):
            plus = points.copy()
            plus[i, d] += h
            minus = points.copy()
            minus[i, d] -= h
            grad[i, d] = (loss_value(plus, mode) - loss_value(minus, mode)) / (2 * h)
    return grad


def stability_mask(points: np.ndarray, mode: SelectionMode, h: float = FD_H) -> np.ndarray:
    """True where the discrete structure survives +-h on that coordinate."""
    base = discrete_structure(points, mode)
    mask = np.ones(points.shape, dtype=bool)
    for i in range(points.shape[0]):
        for d in range(points.shape[1]):
            for sign in (h, -h):
                pert = points.copy()
                pert[i, d] += sign
                if discrete_structure(pert, mode) != base:
                    mask[i, d] = False
                    break
    return mask


def gradient_agrees(analytic, numeric, rel_tol: float, abs_floor: float = 1e-6) -> np.ndarray:
    """Elementwise agreement: absolute floor for near-zero entries, else relative."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    return (diff <= abs_floor) | (diff <= rel_tol * scale)


def entropy_grad_check(points: np.ndarray, mode: SelectionMode, rel_tol: float = 1e-4):
    """Returns (passed, any_instability) for one cloud and mode."""
    analytic = entropy_loss_grad(points, mode).grad
    numeric = fd_gradient(points, mode)
    stable = stability_mask(points, mode)
    ok = gradient_agrees(analytic, numeric, rel_tol)
    passed = bool(np.all(ok | ~stable))
    return passed, bool((~stable).any())


def combined_fd_param_gradient(mlp, batch, labels, mode, lam, h: float = FD_H):
    """Central finite differences of the total objective w.r.t. every
    parameter, laid out like mlp.params."""
    params = mlp.params
    grad = np.zeros_like(params)
    for k in range(params.size):
        orig = params[k]
        params[k] = orig + h
        up, _ = backward_combined(mlp, batch, labels, mode, lam)
        params[k] = orig - h
        down, _ = backward_combined(mlp, batch, labels, mode, lam)
        params[k] = orig
        grad[k] = (up.total - down.total) / (2 * h)
    return grad


def rep_structure(mlp, batch, labels, mode):
    """Per-class discrete structure of the representation cloud."""
    from toporeg.model import forward

    _, reps, _ = forward(mlp, batch)
    labels = np.asarray(labels)
    out = []
    for c in np.unique(labels):
        sub = reps[labels == c]
        if sub.shape[0] >= 2:
            out.append((int(c),) + discrete_structure(sub, mode))
    return tuple(out)


def combined_param_stability(mlp, batch, labels, mode, h: float = FD_H):
    """Per-parameter stability of the rep-cloud structure, laid out like
    mlp.params."""
    base = rep_structure(mlp, batch, labels, mode)
    params = mlp.params
    mask = np.ones(params.shape, dtype=bool)
    for k in range(params.size):
        orig = params[k]
        for sign in (h, -h):
            params[k] = orig + sign
            if rep_structure(mlp, batch, labels, mode) != base:
                mask[k] = False
                break
        params[k] = orig
    return mask
