"""Planted defects that the tests must catch.

Each `*.diff` here is a unified diff against `src/`, headed by a line that
says what it breaks and by one `kills: <pytest id>` line per test that must
fail on it. For each diff, this script copies `src/` to a temporary
directory, applies the diff there with `git apply`, and runs only the named
tests against the copy, with `--hypothesis-profile=ci`. It first runs every
named test against the unchanged `src/`, where all must pass.

Usage, from the root of a checkout:

    python tests/mutants/run_mutants.py

Exits 0 when every mutant is killed, and 1 when a mutant survives, a diff
does not apply, or a named test fails on the unchanged source.
"""

from __future__ import annotations

import glob
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def read_mutant(path: str):
    """(description, test ids, diff) of one mutant file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if line.startswith("--- "))
    header = [line.strip() for line in lines[:start] if line.strip()]
    tests = [line.split(":", 1)[1].strip() for line in header if line.startswith("kills:")]
    description = next(line for line in header if not line.startswith("kills:"))
    return description, tests, "".join(lines[start:])


def pytest(src: str, tests) -> int:
    """pytest's exit code for tests, with efgen imported from src."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    imported = subprocess.run(
        [sys.executable, "-c", "import efgen; print(efgen.__file__)"],
        env=env, capture_output=True, text=True,
    ).stdout.strip()
    if not imported.startswith(src + os.sep):
        sys.exit(f"efgen is imported from {imported}, not from {src}")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    command += ["--hypothesis-profile=ci", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    paths = sorted(glob.glob(os.path.join(HERE, "*.diff")))
    mutants = {os.path.basename(path): read_mutant(path) for path in paths}
    named = sorted({test for _, tests, _ in mutants.values() for test in tests})
    if pytest(os.path.join(ROOT, "src"), named) != 0:
        print("the named tests do not all pass on the unchanged src/", file=sys.stderr)
        return 1
    survivors = []
    for name, (description, tests, diff) in mutants.items():
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"))
            applied = subprocess.run(["git", "apply", "-p1"], cwd=tmp, input=diff, text=True)
            if applied.returncode != 0:
                print(f"{name}: the diff does not apply", file=sys.stderr)
                return 1
            code = pytest(os.path.join(tmp, "src"), tests)
        # pytest exits 1 when a test fails; any other code is no kill.
        verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
        print(f"{name}: {description}: {verdict}")
        if code != 1:
            survivors.append(name)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
