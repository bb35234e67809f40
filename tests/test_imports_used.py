"""Every name a critenum module imports is used in that module.

The exceptions are the names the benchmark's tracer replaces: it patches a
name in the module that looks it up (``perfbench/tracing.py``), so such a
module keeps the import even where it no longer calls it.  Each exception
must appear in the tracer's ``PATCHES``, so a dropped patch leaves an import
that this test flags.  ``__init__.py`` is skipped: its imports are the
package's exports.  The tracer is read as source, never imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module, name) imported only so that the tracer can patch it there
TRACED_ONLY = {("enumeration", "free_after_extension"), ("certify", "canonical_form")}


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def traced_names():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]:
            return {(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts}
    raise AssertionError("perfbench/tracing.py defines no PATCHES")


def test_every_imported_name_is_used():
    sources = [p for p in sorted((ROOT / "src" / "critenum").glob("*.py"))
               if p.name != "__init__.py"]
    assert sources
    unused = {(p.stem, name) for p in sources for name in unused_imports(p)}
    assert unused == TRACED_ONLY


def test_traced_only_imports_are_patched():
    patched = traced_names()
    assert {(f"critenum.{module}", name) for module, name in TRACED_ONLY} <= patched
