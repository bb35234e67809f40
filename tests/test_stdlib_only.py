"""critenum promises to run on the standard library alone.

Every absolute import in the package must name a standard-library module,
and ``pyproject.toml`` must declare no dependencies.  The project line is
read as text because ``tomllib`` is not available on Python 3.10.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_stdlib():
    sources = sorted((ROOT / "src" / "critenum").glob("*.py"))
    assert sources
    outside = [(path.name, name) for path in sources for name in absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert outside == []


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in lines
