"""Every public name a module lists exists, and the package re-exports only listed names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import zenosense

MODULES = sorted(info.name for info in pkgutil.iter_modules(zenosense.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"zenosense.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_package_reexports_are_listed():
    tree = ast.parse(Path(zenosense.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        listed = importlib.import_module(node.module).__all__
        assert [alias.name for alias in node.names if alias.name not in listed] == [], node.module


def test_oracles_take_only_the_gaussian_sum_from_the_package():
    # the oracles check the fold, lattice and estimator paths, so they may
    # share only the Gaussian-sum record and the merge tolerance
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [alias.name for alias in node.names if alias.name.split(".")[0] == "zenosense"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "zenosense":
            taken.update(alias.name for alias in node.names)
    assert taken <= {"GaussianSum", "MERGE_TOLERANCE_FACTOR"}
