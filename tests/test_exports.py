import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import oracles
import spinsectors

MODULES = sorted(info.name for info in pkgutil.iter_modules(spinsectors.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_exists(name):
    module = importlib.import_module(f"spinsectors.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_package_import_resolves():
    tree = ast.parse(Path(spinsectors.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"spinsectors.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert hasattr(spinsectors, alias.asname or alias.name), alias.name


def test_oracles_stay_out_of_the_package():
    # a slow reference lives in tests/oracles.py only: no package module may
    # hold its own object under a name the oracles define
    modules = [spinsectors] + [importlib.import_module(f"spinsectors.{name}") for name in MODULES]
    for module in modules:
        clashes = [name for name, obj in vars(oracles).items()
                   if not name.startswith("__") and getattr(module, name, obj) is not obj]
        assert clashes == [], module.__name__
