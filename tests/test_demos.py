"""Every narrative demo, and README's library example, runs against the current package."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import critenum

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    src = str(Path(critenum.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example():
    # README's "Library use" block prints what the comment beside each print says
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 3
    for got, comment in zip(printed, expected):
        # the comment is the value, then at most a space- or comma-led remark
        assert comment == got or comment.startswith((got + " ", got + ",")), (got, comment)
