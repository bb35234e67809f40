"""The names the benchmark under ``perfbench/`` looks up in critenum must exist.

The benchmark patches names in the modules that look them up and imports
some helpers from the package; a refactor that drops one of them would
only fail when a traced benchmark run starts.  This test only reads
``perfbench/``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import critenum

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for modname, attr, _, _ in tracing.PATCHES:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)


def test_host_imports_exist():
    tree = ast.parse((PERFBENCH / "hosts.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "critenum"
             for alias in node.names]
    assert names
    for name in names:
        assert hasattr(critenum, name), name
