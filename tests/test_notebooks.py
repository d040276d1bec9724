"""Every walkthrough in notebooks/ runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import WARNINGS_AS_ERRORS

ROOT = Path(__file__).resolve().parents[1]
NOTEBOOKS = sorted((ROOT / "notebooks").glob("*.py"))


def test_notebooks_found():
    assert len(NOTEBOOKS) >= 6


@pytest.mark.parametrize("path", NOTEBOOKS, ids=lambda p: p.stem)
def test_notebook_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, str(path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
