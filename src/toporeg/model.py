"""Small feedforward classifier trained with a combined objective.

The network is a stack of linear layers with tanh on hidden layers, of
which there is at least one, and identity on the output.  The last hidden
layer is the representation layer: its activations form the point cloud fed
to the entropy regularizer.  All weights and biases live in one flat float64
buffer (``MLP.params``), and the gradient comes back as one flat array with
the same layout, so the optimizer is a handful of element-wise operations on
one vector.  The training objective is

    total = cross_entropy - lambda * sum_over_classes(entropy_loss)

so minimizing the total maximizes per-class persistent entropy.  Backprop is
done by hand; the regularizer's coordinate gradient is injected at the
representation layer (scaled by -lambda) on the way back.

tanh is used deliberately: it is smooth, so finite-difference gradient checks
stay clean where the MST structure is stable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

# Adam's moment decay rates and denominator guard, and the share of all steps
# spent in linear warmup
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
WARMUP_FRACTION = 0.1


def _param_count(dims: list[int]) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _layer_views(buf: np.ndarray, dims: list[int]):
    """Per-layer (weights, biases) views of a buffer laid out w0, b0, w1, b1,
    ... along its last axis; a stack of S such vectors gives S x fan_in x
    fan_out weights and S x fan_out biases."""
    weights, biases = [], []
    stack = buf.shape[:-1]
    start = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(buf[..., start : start + fan_in * fan_out].reshape(*stack, fan_in, fan_out))
        start += fan_in * fan_out
        biases.append(buf[..., start : start + fan_out])
        start += fan_out
    return weights, biases


@dataclass
class MLP:
    """Linear layers, tanh-hidden / identity-output, over one flat buffer.

    ``params`` holds every weight and bias, laid out w0, b0, w1, b1, ...;
    ``weights[l]`` (fan_in x fan_out) and ``biases[l]`` are views into it, so
    an in-place update of ``params`` updates the layers.  ``dims`` lists at
    least one hidden size, and the last hidden layer's activations act as
    the representation cloud.  ``params`` may also be an S x P stack of such
    vectors, S networks of one shape that ``forward`` runs together;
    training takes a single vector.
    """

    dims: list[int]
    params: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.dims) < 3:
            raise ValueError("dims must list input, at least one hidden and output sizes")
        size = _param_count(self.dims)
        if np.shape(self.params)[-1:] != (size,):
            raise ValueError(
                f"params of shape {np.shape(self.params)} do not fit dims {self.dims}, "
                f"which need ({size},) or a stack of them"
            )
        self.weights, self.biases = _layer_views(self.params, self.dims)

    @classmethod
    def init(cls, dims: list[int], rng: np.random.Generator) -> "MLP":
        """Gaussian init scaled by 1/sqrt(fan_in); dims = [in, hidden..., out]."""
        mlp = cls(dims=list(dims), params=np.zeros(_param_count(dims)))
        for w in mlp.weights:
            w[...] = rng.normal(0.0, 1.0 / np.sqrt(w.shape[0]), size=w.shape)
        return mlp


def forward(mlp: MLP, batch: np.ndarray):
    """Run the network; returns (logits, representations, cache).

    cache holds every layer's post-activation output (index 0 is the input),
    which is all tanh backprop needs.  For a stacked ``mlp`` every output
    past the input gains a leading axis, one slice per network, each
    bitwise what that network alone gives.
    """
    x = np.asarray(batch, dtype=np.float64)
    fan_in = mlp.weights[0].shape[-2]
    if x.ndim != 2 or x.shape[1] != fan_in:
        raise ValueError(f"batch shape {x.shape} does not match input dim {fan_in}")
    activations = [x]
    h = x
    last = len(mlp.weights) - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = h @ w
        z += b[..., None, :]
        h = z if l == last else np.tanh(z, out=z)
        activations.append(h)
    return activations[-1], activations[last], activations


class SelectionMode(enum.Enum):
    """The bars the entropy term runs on: all of them, or the selected features."""

    ALL_BARS = "all_bars"
    SELECTED_BARS = "selected_bars"


def _labels(labels, n: int) -> np.ndarray:
    """The class labels of n points as int64; raises ValueError unless they
    are a 1-D array of n integers, so float (and bool) labels never truncate."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.shape != (n,):
        raise ValueError(f"labels must be a 1-D array of {n} integers, got shape {labels.shape}")
    return labels.astype(np.int64, copy=False)


@dataclass
class ObjectiveBreakdown:
    ce: float
    ent: float
    total: float


def backward_combined(
    mlp: MLP,
    batch: np.ndarray,
    labels: np.ndarray,
    mode: SelectionMode | None,
    lam: float = 1.0,
):
    """Gradients of ce - lam * per-class entropy w.r.t. every parameter.

    ``labels`` holds each row's class as an integer index into the logits;
    ``mlp`` holds one parameter vector, and a stack raises ValueError.
    mode=None disables the entropy term entirely and does not import the
    regularizer, nor the persistence and entropy code it runs.
    Returns (ObjectiveBreakdown, grad) with grad one flat array laid out
    like mlp.params.
    """
    if mlp.params.ndim != 1:
        raise ValueError(f"backward_combined takes one parameter vector, got a stack of shape {mlp.params.shape}")
    logits, reps, activations = forward(mlp, batch)
    n = logits.shape[0]
    labels = _labels(labels, n)
    # argmin and argmax stand in for min() and max(), which cost more at this size
    if labels.size and (labels[labels.argmin()] < 0 or labels[labels.argmax()] >= logits.shape[1]):
        raise ValueError("labels out of range for the logit dimension")

    # mean softmax cross-entropy and the softmax itself from one
    # max-shifted exponential
    rows = np.arange(n)
    # the ufunc reductions that ndarray.max and .sum run, minus their wrappers
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(shifted)
    rowsum = np.add.reduce(e, axis=1, keepdims=True)
    ce = float(np.add.reduce(np.log(rowsum[:, 0]) - shifted[rows, labels]) / n)

    ent = 0.0
    ent_grad = None
    if mode is not None:
        from .regularizer import per_class_entropy_loss

        reg = per_class_entropy_loss(reps, labels, mode)
        ent, ent_grad = reg.value, reg.grad

    # d(total)/d(logits) = (softmax - one_hot) / n, subtracting just the ones
    delta = e / rowsum
    delta[rows, labels] -= 1.0
    delta /= n

    grad = np.empty_like(mlp.params)
    w_grads, b_grads = _layer_views(grad, mlp.dims)
    last = len(mlp.weights) - 1
    for l in range(last, -1, -1):
        np.matmul(activations[l].T, delta, out=w_grads[l])
        np.add.reduce(delta, axis=0, out=b_grads[l])
        if l == 0:
            break
        dh = delta @ mlp.weights[l].T
        if l == last and ent_grad is not None:  # into the representation layer
            dh = dh - lam * ent_grad
        delta = dh * (1.0 - activations[l] ** 2)  # through tanh

    breakdown = ObjectiveBreakdown(ce=ce, ent=ent, total=ce - lam * ent)
    return breakdown, grad


@dataclass
class WarmupSchedule:
    """Linear warmup to base_lr, then linear decay to zero.

    lr(t) = base_lr * t / warmup_steps          for t <= warmup_steps
          = base_lr * (total - t) / (total - w) for warmup_steps < t < total
          = 0                                   for t >= total_steps
    """

    base_lr: float
    warmup_steps: int
    total_steps: int

    @classmethod
    def for_total(cls, base_lr: float, total_steps: int) -> "WarmupSchedule":
        warmup = max(1, int(round(WARMUP_FRACTION * total_steps)))
        return cls(base_lr=base_lr, warmup_steps=warmup, total_steps=total_steps)

    def lr_at(self, t: int) -> float:
        if t <= 0:
            return 0.0
        if t <= self.warmup_steps:
            return self.base_lr * t / self.warmup_steps
        if t >= self.total_steps:
            return 0.0
        span = self.total_steps - self.warmup_steps
        return self.base_lr * (self.total_steps - t) / span


@dataclass
class AdamState:
    """First/second-moment accumulators, flat like the parameters, and step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    sched: WarmupSchedule,
    weight_decay: float = 0.0,
) -> float:
    """One Adam update of a flat parameter array in place; returns the
    learning rate used.

    Weight decay is decoupled: parameters shrink by lr * weight_decay before
    the bias-corrected Adam delta is applied.
    """
    if params.shape != grad.shape:
        raise ValueError(f"parameter shape {params.shape} mismatches gradient {grad.shape}")
    state.t += 1
    lr = sched.lr_at(state.t)
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    if weight_decay:
        params *= 1.0 - lr * weight_decay
    m_hat = m / bc1
    v_hat = v / bc2
    params -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return lr

