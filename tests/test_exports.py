import ast
import importlib
import inspect
import pkgutil
import re
from operator import attrgetter
from pathlib import Path

import pytest

import oracles
import spinsectors
from spinsectors import cli, ensembles

MODULES = sorted(info.name for info in pkgutil.iter_modules(spinsectors.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"
# names README tells a user to set in the environment
ENVIRONMENT_NAMES = {"OPENBLAS_NUM_THREADS", ensembles.WORKERS_ENV}


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


def readme_identifiers():
    """Each backticked identifier of README.md outside code blocks, a call's name included."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    return sorted(set(re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", text)))


def test_every_readme_name_resolves():
    # a dotted name rooted at the package or one of its modules must resolve by
    # getattr; a bare snake_case name must be an attribute of the package, of a
    # module or of a class a module defines, or an option key or CSV column of
    # the CLI.  Names without an underscore (subcommands, methods, English
    # words) and dotted names of other roots (np.exp, pyproject.toml) are not read
    modules = {name: importlib.import_module(f"spinsectors.{name}") for name in MODULES}
    roots = {"spinsectors": spinsectors, **modules}
    known = set(dir(spinsectors)) | set(cli._OPTIONS) | ENVIRONMENT_NAMES
    for module in modules.values():
        known.update(vars(module))
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                known.update(dir(obj), getattr(obj, "__annotations__", {}))
    for node in ast.walk(ast.parse(inspect.getsource(cli))):  # every CSV header tuple
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and "header" in target.id.lower() for target in node.targets):
            known.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    unresolved = []
    for name in readme_identifiers():
        root, *path = name.split(".")
        if path and root in roots:
            try:
                attrgetter(".".join(path))(roots[root])
            except AttributeError:
                unresolved.append(name)
        elif not path and "_" in name and name not in known:
            unresolved.append(name)
    assert unresolved == []
