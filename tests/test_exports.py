import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

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
