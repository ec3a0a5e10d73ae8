"""toporeg: persistent-entropy regularization for point-cloud representations.

Compute 0-dimensional Vietoris-Rips barcodes, persistent entropy, and
topological feature selection; differentiate the entropy through the point
coordinates; track latent anisotropy; and train a small classifier whose
objective trades cross-entropy against per-class persistent entropy.
"""

from .geometry import AnisotropyProfile, anisotropy_profile, pairwise_distances
from .persistence import Barcode, vr_barcode_0d
from .entropy import SelectionResult, persistent_entropy, select_features
from .regularizer import EntropyLossGrad, SelectionMode, entropy_loss_grad, per_class_entropy_loss
from .model import MLP, AdamState, WarmupSchedule, adam_step, backward_combined, forward
from .harness import BlobSpec, ExperimentConfig, generate_blobs, run_seed, summarize

__version__ = "0.1.0"

__all__ = [
    "AnisotropyProfile",
    "anisotropy_profile",
    "pairwise_distances",
    "Barcode",
    "vr_barcode_0d",
    "SelectionResult",
    "persistent_entropy",
    "select_features",
    "EntropyLossGrad",
    "SelectionMode",
    "entropy_loss_grad",
    "per_class_entropy_loss",
    "MLP",
    "AdamState",
    "WarmupSchedule",
    "adam_step",
    "backward_combined",
    "forward",
    "BlobSpec",
    "ExperimentConfig",
    "generate_blobs",
    "run_seed",
    "summarize",
]
