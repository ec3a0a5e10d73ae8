"""toporeg: persistent-entropy regularization for point-cloud representations.

The package root holds the paper's concepts: pairwise distances, the 0-dim
Vietoris-Rips barcode, persistent entropy with feature selection, the entropy
loss with its gradient, and anisotropy.  The classifier and the experiment
harness are imported from ``toporeg.model`` and ``toporeg.harness``.

Importing the package loads none of its modules.  A public name loads its
home module on first access (a module ``__getattr__``, PEP 562) and is then
bound here, so later reads are plain attribute reads and
``from toporeg import *`` binds the same objects an eager import would.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each name: its public names, in the order of __all__
_EXPORTS = {
    "geometry": ("AnisotropyProfile", "anisotropy_profile", "pairwise_distances"),
    "persistence": ("Barcode", "vr_barcode_0d"),
    "entropy": ("SelectionResult", "persistent_entropy", "select_features"),
    "model": ("SelectionMode",),
    "regularizer": ("EntropyLossGrad", "entropy_loss_grad", "per_class_entropy_loss"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
