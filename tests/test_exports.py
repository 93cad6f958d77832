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
    # the package lists no name itself: it star-imports each module, whose
    # __all__ is the one list of that module's public names
    tree = ast.parse(Path(spinsectors.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    exported = []
    for node in imports:
        assert isinstance(node, ast.ImportFrom) and node.level == 1, ast.unparse(node)
        assert [alias.name for alias in node.names] == ["*"], ast.unparse(node)
        module = importlib.import_module(f"spinsectors.{node.module}")
        # without __all__ a star import also leaks the module's own imports
        assert hasattr(module, "__all__"), node.module
        exported += [(name, module) for name in module.__all__]
    names = [name for name, _ in exported]
    assert len(set(names)) == len(names), sorted({name for name in names if names.count(name) > 1})
    for name, module in exported:
        assert getattr(spinsectors, name, None) is getattr(module, name), (module.__name__, name)


def test_oracles_stay_out_of_the_package():
    # a slow reference lives in tests/oracles.py only: no package module may
    # hold its own object under a name the oracles define
    modules = [spinsectors] + [importlib.import_module(f"spinsectors.{name}") for name in MODULES]
    for module in modules:
        clashes = [name for name, obj in vars(oracles).items()
                   if not name.startswith("__") and getattr(module, name, obj) is not obj]
        assert clashes == [], module.__name__
