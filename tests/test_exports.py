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


# Each input rule has one check in one home module, which every other module imports it from.
INPUT_CHECKS = {
    "_check_non_negative": "zenosense.detector",
    "_check_pixels": "zenosense.detector",
    "_whole_numbers": "zenosense.detector",
    "_check_multiples": "zenosense.wavepacket",
    "_check_positive": "zenosense.wavepacket",
    "_check_theta": "zenosense.wavepacket",
}


def test_modules_share_only_the_input_checks_from_their_home():
    # any other private name taken across modules would be a second home for its job
    taken = set()
    for path in sorted(Path(zenosense.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "zenosense"):
                taken.update((alias.name, node.module) for alias in node.names if alias.name.startswith("_"))
    assert taken <= set(INPUT_CHECKS.items())
    assert all(getattr(importlib.import_module(home), name).__module__ == home for name, home in INPUT_CHECKS.items())
