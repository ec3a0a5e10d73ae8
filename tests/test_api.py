import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import toporeg
from toporeg import harness

PUBLIC_NAMES = [
    "AnisotropyProfile",
    "anisotropy_profile",
    "pairwise_distances",
    "Barcode",
    "vr_barcode_0d",
    "SelectionResult",
    "persistent_entropy",
    "select_features",
    "SelectionMode",
    "EntropyLossGrad",
    "entropy_loss_grad",
    "per_class_entropy_loss",
]

# the training loop and the experiment harness: imported from their modules, not the root
MODULE_ONLY_NAMES = [
    *[("model", name) for name in ("MLP", "AdamState", "WarmupSchedule", "adam_step", "backward_combined", "forward")],
    *[("harness", name) for name in ("BlobSpec", "ExperimentConfig", "generate_blobs", "run_seed", "summarize")],
]


def test_public_names_are_pinned():
    assert toporeg.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    assert len(set(toporeg.__all__)) == len(toporeg.__all__)
    for name in toporeg.__all__:
        assert getattr(toporeg, name, None) is not None, name


def test_every_public_name_is_its_home_modules_object():
    # the home module is where the object was defined, whichever module the root loads it from
    for name in toporeg.__all__:
        value = getattr(toporeg, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("toporeg.") and getattr(home, name) is value, name


def test_dir_lists_every_public_name_before_it_loads(monkeypatch):
    for name in toporeg.__all__:
        if name in vars(toporeg):  # bound at the root by an earlier access
            monkeypatch.delattr(toporeg, name)
    assert set(toporeg.__all__) <= set(dir(toporeg))
    assert "__version__" in dir(toporeg)


def test_selection_mode_loads_only_the_module_that_defines_it():
    # a fresh process, since this one shares sys.modules with every other test
    src = str(Path(toporeg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import json, sys, toporeg; toporeg.SelectionMode; "
        "print(json.dumps(sorted(name for name in sys.modules if name.startswith('toporeg.'))))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == ["toporeg.model"]


@pytest.mark.parametrize("module, name", MODULE_ONLY_NAMES)
def test_training_and_harness_names_are_not_exported_at_the_root(module, name):
    with pytest.raises(AttributeError, match=f"'toporeg' has no attribute '{name}'"):
        getattr(toporeg, name)
    assert name not in dir(toporeg)
    home = importlib.import_module(f"toporeg.{module}")
    assert getattr(home, name).__module__ == home.__name__


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'toporeg' has no attribute 'no_such_name'"):
        getattr(toporeg, "no_such_name")


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


def test_readme_python_examples_run():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})


def test_readme_config_schema_shows_the_defaults():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"^Config schema.*?^```json\n(.*?)^```", readme.read_text(encoding="utf-8"), flags=re.M | re.S)
    schema = json.loads(re.sub(r"\s*//.*$", "", block.group(1), flags=re.M))
    assert schema == dataclasses.asdict(harness.ExperimentConfig())


def test_readme_lists_exactly_the_public_names():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    exports = re.search(r"The package root exports(.*?);", readme, flags=re.S)
    assert set(re.findall(r"`(\w+)`", exports.group(1))) == set(toporeg.__all__)
    count = re.search(r"each of these (\d+)\s+names", readme)
    assert int(count.group(1)) == len(toporeg.__all__)
