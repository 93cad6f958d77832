"""Every source file parses under the oldest Python that pyproject.toml admits."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py"))


def test_sources_found():
    assert any(path.name == "asymptotics.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
