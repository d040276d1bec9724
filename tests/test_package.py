"""The package's public names, and the pytest configuration the suite runs under."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["efgen", "efgen.families", "efgen.learning", "efgen.models", "efgen.objective"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_objective_exports_the_evaluators_and_the_traced_functions():
    from efgen import objective

    assert sorted(objective.__all__) == sorted(
        [
            "GaussianMoments",
            "ObjectiveReport",
            "FiniteObjective",
            "GaussianObjective",
            "evaluator",
            "noise_expectation",
            "exact_posterior",
            "elbo_terms",
            "pseudo_elbo_terms",
        ]
    )


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    """A hypothesis failure report imports libcst, whose mypy_extensions
    import warns; under the suite's warning filters that warning must not
    turn into an INTERNALERROR that hides the remaining results."""
    test_file = tmp_path / "test_probe.py"
    test_file.write_text(
        textwrap.dedent(
            """
            from hypothesis import given, settings, strategies as st

            @settings(database=None, derandomize=True)
            @given(st.integers())
            def test_fails(x):
                assert x < 0

            def test_passes():
                pass
            """
        )
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "-c",
            str(ROOT / "pyproject.toml"),
            "--rootdir",
            str(tmp_path),
            str(test_file),
        ],
        cwd=tmp_path,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
