"""Small feedforward classifier trained with a combined objective.

The network is a stack of linear layers with tanh on hidden layers and
identity on the output.  One hidden layer is designated the representation
layer: its activations form the point cloud fed to the entropy regularizer.
The training objective is

    total = cross_entropy - lambda * sum_over_classes(entropy_loss)

so minimizing the total maximizes per-class persistent entropy.  Backprop is
done by hand; the regularizer's coordinate gradient is injected at the
representation layer (scaled by -lambda) on the way back.

tanh is used deliberately: it is smooth, so finite-difference gradient checks
stay clean where the MST structure is stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regularizer import ClassPartition, SelectionMode, per_class_entropy_loss

# Adam's moment decay rates and denominator guard, and the share of all steps
# spent in linear warmup
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
WARMUP_FRACTION = 0.1


@dataclass
class MLP:
    """Linear layers (weights, biases), tanh-hidden / identity-output.

    ``rep_layer_index`` picks which hidden layer's activations act as the
    representation cloud; ``init`` sets it to the last hidden layer.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    rep_layer_index: int

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        if len(self.weights) < 1:
            raise ValueError("need at least one layer")
        for l in range(len(self.weights) - 1):
            if self.weights[l].shape[1] != self.weights[l + 1].shape[0]:
                raise ValueError(
                    f"layer {l} output dim {self.weights[l].shape[1]} does not feed "
                    f"layer {l + 1} input dim {self.weights[l + 1].shape[0]}"
                )
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if b.shape != (w.shape[1],):
                raise ValueError(f"bias {l} shape {b.shape} mismatches weight {w.shape}")
        n_hidden = len(self.weights) - 1
        if not 0 <= self.rep_layer_index < max(n_hidden, 1):
            raise ValueError(
                f"rep_layer_index {self.rep_layer_index} is not a hidden layer (0..{n_hidden - 1})"
            )

    @classmethod
    def init(cls, dims: list[int], rng: np.random.Generator) -> "MLP":
        """Gaussian init scaled by 1/sqrt(fan_in); dims = [in, hidden..., out]."""
        if len(dims) < 2:
            raise ValueError("dims must list at least input and output sizes")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights=weights, biases=biases, rep_layer_index=max(len(weights) - 2, 0))

    def parameters(self) -> list[np.ndarray]:
        params = []
        for w, b in zip(self.weights, self.biases):
            params.append(w)
            params.append(b)
        return params


def forward(mlp: MLP, batch: np.ndarray):
    """Run the network; returns (logits, representations, cache).

    cache holds every layer's post-activation output (index 0 is the input),
    which is all tanh backprop needs.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != mlp.weights[0].shape[0]:
        raise ValueError(
            f"batch shape {x.shape} does not match input dim {mlp.weights[0].shape[0]}"
        )
    activations = [x]
    h = x
    last = len(mlp.weights) - 1
    for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = h @ w + b
        h = z if l == last else np.tanh(z)
        activations.append(h)
    logits = activations[-1]
    representations = activations[mlp.rep_layer_index + 1]
    return logits, representations, activations


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy, log-sum-exp stabilized."""
    labels = np.asarray(labels, dtype=np.int64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(labels.size), labels]
    return float((log_z - picked).mean())


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

    mode=None disables the entropy term entirely (no persistence code runs).
    Returns (ObjectiveBreakdown, grads) with grads ordered like
    mlp.parameters().
    """
    labels = np.asarray(labels, dtype=np.int64)
    logits, reps, activations = forward(mlp, batch)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch of {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ValueError("labels out of range for the logit dimension")

    ce = cross_entropy(logits, labels)

    ent = 0.0
    ent_grad = None
    if mode is not None:
        if len(mlp.weights) < 2:
            raise ValueError("entropy regularization requires a hidden representation layer")
        reg = per_class_entropy_loss(reps, ClassPartition.from_labels(labels), mode)
        ent, ent_grad = reg.value, reg.grad

    probs = softmax(logits)
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), labels] = 1.0
    delta = (probs - one_hot) / n  # d(total)/d(logits)

    w_grads = [np.zeros_like(w) for w in mlp.weights]
    b_grads = [np.zeros_like(b) for b in mlp.biases]
    last = len(mlp.weights) - 1
    for l in range(last, -1, -1):
        h_in = activations[l]
        w_grads[l] = h_in.T @ delta
        b_grads[l] = delta.sum(axis=0)
        if l == 0:
            break
        dh = delta @ mlp.weights[l].T
        if l - 1 == mlp.rep_layer_index and ent_grad is not None:
            dh = dh - lam * ent_grad
        delta = dh * (1.0 - activations[l] ** 2)  # through tanh

    grads = []
    for wg, bg in zip(w_grads, b_grads):
        grads.append(wg)
        grads.append(bg)
    breakdown = ObjectiveBreakdown(ce=ce, ent=ent, total=ce - lam * ent)
    return breakdown, grads


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
    """First/second-moment accumulators and step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    sched: WarmupSchedule,
    weight_decay: float = 0.0,
) -> float:
    """One Adam update in place; returns the learning rate used.

    Weight decay is decoupled: parameters shrink by lr * weight_decay before
    the bias-corrected Adam delta is applied.
    """
    if len(params) != len(grads):
        raise ValueError("params and grads must have equal length")
    state.t += 1
    lr = sched.lr_at(state.t)
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"parameter shape {p.shape} mismatches gradient {g.shape}")
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        if weight_decay:
            p *= 1.0 - lr * weight_decay
        m_hat = m / bc1
        v_hat = v / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return lr

