import ast
import sys
import tomllib
from pathlib import Path

import toporeg

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert toporeg.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    assert len(set(toporeg.__all__)) == len(toporeg.__all__)
    for name in toporeg.__all__:
        assert getattr(toporeg, name, None) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from toporeg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(toporeg.__all__)


def test_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy", "toporeg"}
    modules = sorted(Path(toporeg.__file__).parent.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            foreign += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert foreign == []


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert toporeg.__version__ == tomllib.load(fh)["project"]["version"]
