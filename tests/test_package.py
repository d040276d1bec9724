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
            "QRecord",
            "FiniteObjective",
            "GaussianObjective",
            "evaluator",
            "noise_expectation",
            "exact_posterior",
            "elbo_terms",
            "pseudo_elbo_terms",
        ]
    )


def test_models_exports_constructors_and_no_per_kind_accessors():
    from efgen import models

    assert sorted(models.__all__) == sorted(
        [
            "SBN_ENUMERATION_CAP",
            "CRITERION_THRESHOLD",
            "CRITERION_GRID_POINTS",
            "FiniteStates",
            "RealVector",
            "PriorSpec",
            "NoiseSpec",
            "GenerativeModel",
            "CriterionReport",
            "enumerate_binary_states",
            "collapsed_component",
            "make_ef_mixture",
            "make_ppca",
            "make_simple_fa",
            "make_sbn",
            "make_rigid_sbn",
            "CONSTRUCTORS",
            "constructor_args",
            "replace_params",
            "jacobian_zeta",
            "jacobian_eta",
            "vjp_eta",
            "jvp_eta",
            "check_criterion",
            "sample_joint",
        ]
    )
    # A model kind is described by its constructor's arguments alone.
    gone = [
        "MixtureInfo",
        "LinearGaussianInfo",
        "SbnInfo",
        "RigidSbnInfo",
        "mixture_weights",
        "mixture_component_params",
        "ppca_components",
        "fa_components",
        "sbn_components",
        "rigid_sbn_components",
    ]
    assert not [name for name in gone if hasattr(models, name)]
    assert "info" not in models.GenerativeModel.__dataclass_fields__


def test_learning_exports_one_result_type_and_the_closed_form_ppca():
    from efgen import learning

    assert sorted(learning.__all__) == sorted(
        [
            "ELBO_REL_TOL",
            "TrainingConfig",
            "TraceRecord",
            "TrainingTrace",
            "Fit",
            "em_mixture",
            "mixture_m_step",
            "fit_ppca",
            "ppca_closed_form",
            "fit_sbn",
            "grad_norm_all_params",
            "gamma_shape_newton",
        ]
    )
    # Every trainer returns a Fit; PPCA's eigen solution is a plain model.
    assert not hasattr(learning, "PpcaFit")


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
