"""Every narrative demo runs to completion against the current package."""

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
