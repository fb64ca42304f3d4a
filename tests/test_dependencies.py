"""The declared runtime dependencies are exactly what the package imports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zmcsurf"


def _third_party_imports() -> set:
    """Top-level names of every absolute import in the package, function-level
    (lazy) imports included, less the standard library and the package."""
    names = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"zmcsurf"}


def _declared_dependencies() -> set:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}


def test_declared_dependencies_are_the_imported_ones():
    assert _third_party_imports() == _declared_dependencies() == {"numpy"}


def test_generating_the_flat_example_imports_no_scipy(tmp_path):
    argv = ["generate", "--preset", "exA2", "--grid", "17", "--out", str(tmp_path / "o")]
    code = (
        "import sys\n"
        "from zmcsurf.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "[]"]
