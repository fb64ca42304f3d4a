"""The `test` extra declares what the test suite imports.

Three modules import hypothesis; a run that collects with
`--continue-on-collection-errors` would drop them silently where it is
missing, so `pip install -e .[test]` must bring it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LOCAL = {p.stem for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")}


def _test_imports() -> set:
    """Top-level names the tests import, less the standard library, the
    package and the modules of tests/ and perfbench/."""
    names = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - LOCAL - {"zmcsurf"}


def _names(requirements) -> set:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}


def test_test_extra_covers_every_test_import():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    test_extra = _names(project["optional-dependencies"]["test"])
    assert test_extra == {"pytest", "hypothesis"}
    assert _test_imports() == _names(project["dependencies"]) | test_extra
