"""toporeg: persistent-entropy regularization for point-cloud representations.

Compute 0-dimensional Vietoris-Rips barcodes, persistent entropy, and
topological feature selection; differentiate the entropy through the point
coordinates; track latent anisotropy; and train a small classifier whose
objective trades cross-entropy against per-class persistent entropy.
"""

from .geometry import (
    AnisotropyProfile,
    PointCloud,
    anisotropy,
    anisotropy_profile,
    pairwise_distances,
    singular_values,
)
from .persistence import Bar, Barcode, cloud_barcode, vr_barcode_0d
from .entropy import SelectionResult, max_feature_count, persistent_entropy, select_features
from .regularizer import (
    ClassPartition,
    EntropyLossGrad,
    SelectionMode,
    entropy_loss_grad,
    per_class_entropy_loss,
)
from .model import (
    MLP,
    AdamState,
    ObjectiveBreakdown,
    WarmupSchedule,
    adam_step,
    backward_combined,
    cross_entropy,
    forward,
)
from .harness import (
    BlobSpec,
    ExperimentConfig,
    RunMetrics,
    generate_blobs,
    run_seed,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "AnisotropyProfile",
    "PointCloud",
    "anisotropy",
    "anisotropy_profile",
    "pairwise_distances",
    "singular_values",
    "Bar",
    "Barcode",
    "cloud_barcode",
    "vr_barcode_0d",
    "SelectionResult",
    "max_feature_count",
    "persistent_entropy",
    "select_features",
    "ClassPartition",
    "EntropyLossGrad",
    "SelectionMode",
    "entropy_loss_grad",
    "per_class_entropy_loss",
    "MLP",
    "AdamState",
    "ObjectiveBreakdown",
    "WarmupSchedule",
    "adam_step",
    "backward_combined",
    "cross_entropy",
    "forward",
    "BlobSpec",
    "ExperimentConfig",
    "RunMetrics",
    "generate_blobs",
    "run_seed",
    "summarize",
]
