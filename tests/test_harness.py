"""Harness: strict configs, dataset round-trips, pipeline commands, CLI."""

import copy
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efgen import harness as hns
from efgen import models as mdl
from efgen import objective as obj
from efgen.cli import main as cli_main
from efgen.errors import ConfigError
from efgen.learning import TrainingConfig

from helpers import WARNINGS_AS_ERRORS


def gmm_config(tmp_path, n=200, seed=7, max_iters=500, run_id="gmm-run"):
    return {
        "schema_version": 1,
        "run_id": run_id,
        "model": {
            "kind": "ef_mixture",
            "component_family": "gaussian_scalar_var",
            "data_dim": 1,
            "weights": [0.5, 0.5],
            "component_params": [[-5.0, 1.0], [5.0, 1.0]],
        },
        "data": {"source": "synthetic", "seed": seed, "n": n},
        "training": {"max_iters": max_iters, "seed": seed},
        "output": {"dir": str(tmp_path)},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


class TestConfigParsing:
    def test_valid(self, tmp_path):
        cfg = hns.parse_config(gmm_config(tmp_path))
        assert cfg.run_id == "gmm-run"
        assert cfg.data.n == 200
        assert cfg.training.max_iters == 500

    def test_unknown_key_rejected_with_path(self, tmp_path):
        raw = gmm_config(tmp_path)
        raw["training"]["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="config.training"):
            hns.parse_config(raw)

    def test_both_data_sources_rejected(self, tmp_path):
        raw = gmm_config(tmp_path)
        raw["data"]["path"] = "x.csv"
        with pytest.raises(ConfigError, match="exactly one data source"):
            hns.parse_config(raw)

    def test_wrong_schema_version(self, tmp_path):
        raw = gmm_config(tmp_path)
        raw["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            hns.parse_config(raw)

    def test_bad_model_block(self, tmp_path):
        raw = gmm_config(tmp_path)
        raw["model"]["weights"] = [0.0, 1.0]
        with pytest.raises(ConfigError, match="config.model"):
            hns.parse_config(raw)

    def test_synthetic_values_are_bounded_before_allocation(self, tmp_path):
        # A two-dimensional Poisson mixture: the bound counts rows times data_dim.
        raw = gmm_config(tmp_path)
        raw["model"] = {
            "kind": "ef_mixture",
            "component_family": "poisson_product",
            "data_dim": 2,
            "weights": [0.5, 0.5],
            "component_params": [[1.0, 6.0], [7.0, 0.5]],
        }
        most = hns.MAX_SYNTHETIC_VALUES // 2
        raw["data"]["n"] = most
        assert hns.parse_config(raw).data.n == most
        raw["data"]["n"] = most + 1
        with pytest.raises(ConfigError, match=rf"^config\.data\.n: at most {most} rows"):
            hns.parse_config(raw)

    def test_seed_override(self, tmp_path):
        cfg = hns.parse_config(gmm_config(tmp_path, seed=7), seed_override=99)
        assert cfg.data.seed == 99
        assert cfg.training.seed == 99


class TestModelSerialization:
    @pytest.mark.parametrize(
        "spec",
        [
            {
                "kind": "ef_mixture",
                "component_family": "poisson_product",
                "data_dim": 2,
                "weights": [0.4, 0.6],
                "component_params": [[1.0, 6.0], [7.0, 0.5]],
            },
            {
                "kind": "ppca",
                "w": [[1.0, 0.0], [0.5, 0.5], [0.0, -1.0]],
                "mu": [0.1, 0.2, 0.3],
                "sigma2": 0.5,
                "tau": 1.0,
            },
            {"kind": "simple_fa", "w": [0.6, 0.8], "tau": 1.5, "sigma2s": [0.5, 2.0]},
            {
                "kind": "sbn",
                "pi": [0.4, 0.7],
                "w": [[1.0, -0.5], [0.0, 2.0]],
                "mu": [0.1, -0.1],
                "offsets_free": True,
            },
            {"kind": "rigid_sbn", "pi": 0.5, "v": 0.0},
        ],
        ids=lambda s: s["kind"],
    )
    def test_round_trip(self, spec):
        model = hns.model_from_dict(spec)
        back = hns.model_to_dict(model)
        model2 = hns.model_from_dict(back)
        np.testing.assert_allclose(model2.prior.params, model.prior.params, atol=1e-15)
        np.testing.assert_allclose(model2.noise.params, model.noise.params, atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown model kind"):
            hns.model_from_dict({"kind": "vae"})


class TestGenerate:
    def test_round_trip_bit_exact(self, tmp_path):
        config = hns.parse_config(gmm_config(tmp_path, n=50))
        paths = hns.cmd_generate(config)
        model = hns.model_from_dict(config.model_spec)
        rng = np.random.default_rng(config.data.seed)
        _, expected = mdl.sample_joint(model, rng, 50)
        loaded = hns.read_dataset(paths["dataset"])
        np.testing.assert_array_equal(loaded, expected)

    def test_reproducible_bytes(self, tmp_path):
        cfg_a = hns.parse_config(gmm_config(tmp_path / "a"))
        cfg_b = hns.parse_config(gmm_config(tmp_path / "b"))
        os.makedirs(tmp_path / "a"), os.makedirs(tmp_path / "b", exist_ok=True)
        pa = hns.cmd_generate(cfg_a)
        pb = hns.cmd_generate(cfg_b)
        with open(pa["dataset"], "rb") as fa, open(pb["dataset"], "rb") as fb:
            assert fa.read() == fb.read()

    def test_empty_dataset(self, tmp_path):
        config = hns.parse_config(gmm_config(tmp_path, n=0))
        paths = hns.cmd_generate(config)
        assert hns.read_dataset(paths["dataset"]).shape == (0, 1)
        with open(paths["manifest"]) as fh:
            manifest = json.load(fh)
        assert manifest["n"] == 0 and manifest["seed"] == 7

    def test_poisson_dataset_is_integer_valued(self, tmp_path):
        raw = gmm_config(tmp_path)
        raw["model"] = {
            "kind": "ef_mixture",
            "component_family": "poisson_product",
            "data_dim": 2,
            "weights": [0.5, 0.5],
            "component_params": [[1.0, 6.0], [7.0, 0.5]],
        }
        paths = hns.cmd_generate(hns.parse_config(raw))
        with open(paths["dataset"]) as fh:
            fh.readline()
            body = fh.read()
        assert "." not in body
        data = hns.read_dataset(paths["dataset"])
        assert np.all(data == np.floor(data))


class TestReadDataset:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("y1,y2\n1,2\n", "malformed dataset header 'y1,y2'"),
            ("x1,x2\n1,2\n3\n", "row 3 has 1 fields, expected 2"),
            ("x1,x2\n1,2,3\n4,5,6\n", "row 2 has 3 fields, expected 2"),
            ("x1,x2\n1,2\n3,abc\n", "row 3 has a non-numeric field: '3,abc'"),
            ("x1,x2\n1,\n", "row 2 has a non-numeric field: '1,'"),
            ("x1,x2\n1,2\n3,4\n5,nan\n", "row 4 has a non-finite value"),
            ("x1,x2\n1,2\n-inf,4\n", "row 3 has a non-finite value"),
            ("x1,x2\n1,1e400\n", "row 2 has a non-finite value"),
            ("x1\n\n0.5\nabc\n", "row 4 has a non-numeric field: 'abc'"),
            ("x1,x2\n\n1,2\n3,nan\n", "row 4 has a non-finite value"),
        ],
        ids=[
            "header",
            "short-row",
            "consistent-wide",
            "text",
            "empty-cell",
            "nan",
            "inf",
            "overflow",
            "text-after-blank-line",
            "nan-after-blank-line",
        ],
    )
    def test_malformed_file_names_its_row(self, tmp_path, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            hns.read_dataset(str(path))
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("x1,x2\n", np.zeros((0, 2))),
            ("x1,x2", np.zeros((0, 2))),
            ("x1\n0.5\n-1e-300\n", np.array([[0.5], [-1e-300]])),
            ("x1,x2\r\n1,2\r\n\r\n 3 , 4 \n   \n", np.array([[1.0, 2.0], [3.0, 4.0]])),
        ],
        ids=["header-only", "header-no-newline", "one-column", "crlf-blank-lines-spaces"],
    )
    def test_well_formed_file_parses(self, tmp_path, text, expected):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        loaded = hns.read_dataset(str(path))
        assert loaded.shape == expected.shape
        np.testing.assert_array_equal(loaded, expected)


class TestTrain:
    def test_gmm_pipeline_converges(self, tmp_path):
        config = hns.parse_config(gmm_config(tmp_path))
        paths = hns.cmd_train(config)
        with open(paths["report"]) as fh:
            report = json.load(fh)
        assert report["converged"] is True
        assert report["verdicts"]["converged"]["status"] == "pass"
        # Trace file has the documented header and at least one row.
        with open(paths["trace"]) as fh:
            header = fh.readline().strip()
            assert header == "iteration,elbo,entropy_sum,gap,grad_norm,wall_time"
            assert fh.readline().strip()

    def test_iteration_cap_is_not_an_error(self, tmp_path):
        config = hns.parse_config(gmm_config(tmp_path, max_iters=1))
        paths = hns.cmd_train(config)
        with open(paths["report"]) as fh:
            report = json.load(fh)
        assert report["converged"] is False
        assert report["verdicts"]["converged"]["status"] == "not-applicable"

    def test_missing_dataset_file(self, tmp_path):
        raw = gmm_config(tmp_path)
        raw["data"] = {"source": "file", "path": str(tmp_path / "nope.csv")}
        with pytest.raises(ConfigError, match="nope.csv"):
            hns.cmd_train(hns.parse_config(raw))


class TestVerify:
    def _trained_paths(self, tmp_path):
        config = hns.parse_config(gmm_config(tmp_path))
        return config, hns.cmd_train(config)

    def test_converged_gmm_passes(self, tmp_path):
        config, paths = self._trained_paths(tmp_path)
        result = hns.cmd_verify(config, paths["model"])
        verdicts = result["verdicts"]
        assert verdicts["criterion"]["status"] == "pass"
        assert verdicts["gap_standard"]["status"] == "pass"
        assert verdicts["gap_pseudo"]["status"] == "pass"
        # Self-consistency: the verdict is recomputable from its own numbers.
        v = verdicts["gap_standard"]
        assert (v["gap"] <= v["bound"]) == (v["status"] == "pass")

    def test_builds_one_evaluator(self, tmp_path, monkeypatch):
        # verify's posterior, both reports and the gradient norm share one
        # evaluator; train adds one for its reports to the one it trained with.
        config = hns.parse_config(gmm_config(tmp_path))
        built = []
        init = obj.FiniteObjective.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(obj.FiniteObjective, "__init__", counting_init)
        paths = hns.cmd_train(config)
        assert len(built) == 2
        built.clear()
        hns.cmd_verify(config, paths["model"])
        assert len(built) == 1

    def test_rigid_sbn_criterion_fails_and_gap_is_skipped(self, tmp_path):
        raw = gmm_config(tmp_path, run_id="rigid")
        raw["model"] = {"kind": "rigid_sbn", "pi": 0.5, "v": 0.0}
        raw["data"] = {"source": "synthetic", "seed": 3, "n": 100}
        config = hns.parse_config(raw)
        model_path = os.path.join(tmp_path, "rigid_model.json")
        with open(model_path, "w") as fh:
            json.dump(raw["model"], fh)
        result = hns.cmd_verify(config, model_path)
        assert result["verdicts"]["criterion"]["status"] == "fail"
        assert result["verdicts"]["gap_standard"]["status"] == "skipped"
        assert "criterion" in result["verdicts"]["gap_standard"]["reason"]

    def test_perturbed_model_fails_with_premise_annotation(self, tmp_path):
        config, paths = self._trained_paths(tmp_path)
        with open(paths["model"]) as fh:
            spec = json.load(fh)
        spec["component_params"] = [[m + 0.5, v] for m, v in spec["component_params"]]
        bad_path = os.path.join(tmp_path, "perturbed.json")
        with open(bad_path, "w") as fh:
            json.dump(spec, fh)
        result = hns.cmd_verify(config, bad_path)
        v = result["verdicts"]["gap_standard"]
        assert v["status"] == "fail"
        assert "premise not met" in v["annotation"]
        assert v["grad_norm_threshold"] == hns.GRAD_NORM_THRESHOLD

    def test_premise_threshold_is_training_default_and_recorded(self, tmp_path, monkeypatch):
        # One definition of "stationary": training's default tolerance. Each
        # gap verdict that reads the premise records the threshold it used.
        assert hns.GRAD_NORM_THRESHOLD == TrainingConfig().grad_norm_tol
        config, paths = self._trained_paths(tmp_path)
        v = hns.cmd_verify(config, paths["model"])["verdicts"]["gap_pseudo"]
        assert v["status"] == "pass"
        assert v["grad_norm"] < v["grad_norm_threshold"] == hns.GRAD_NORM_THRESHOLD
        monkeypatch.setattr(hns, "GRAD_NORM_THRESHOLD", 0.0)
        v = hns.cmd_verify(config, paths["model"])["verdicts"]["gap_pseudo"]
        assert v["status"] == "skipped" and "premise not met" in v["reason"]
        assert v["grad_norm_threshold"] == 0.0

    def test_nine_dimensional_factor_analyzer_verifies_with_defaults(self, tmp_path):
        # Its criterion subset holds 9 variances, so the criterion needs 18
        # latent draws, more than its usual 16.
        raw = gmm_config(tmp_path, run_id="fa9")
        raw["model"] = {
            "kind": "simple_fa",
            "w": [1.0, -0.5, 0.8, 0.3, -1.2, 0.6, 0.9, -0.4, 0.7],
            "tau": 1.0,
            "sigma2s": [0.5, 0.8, 1.0, 1.2, 0.6, 0.9, 1.5, 0.7, 1.1],
        }
        model_path = os.path.join(tmp_path, "model.json")
        with open(model_path, "w") as fh:
            json.dump(raw["model"], fh)
        args = ["verify", "--config", write_config(tmp_path, raw), "--model", model_path]
        assert cli_main(args + ["--quiet"]) == 0
        with open(os.path.join(tmp_path, "verify_report.json")) as fh:
            report = json.load(fh)
        assert report["verdicts"]["criterion"]["status"] == "pass"

    def test_missing_model_file(self, tmp_path):
        config = hns.parse_config(gmm_config(tmp_path))
        with pytest.raises(ConfigError, match="model"):
            hns.cmd_verify(config, str(tmp_path / "missing.json"))

    def test_poisson_standard_gap_skipped_pseudo_asserted(self, tmp_path):
        raw = gmm_config(tmp_path, run_id="poisson")
        raw["model"] = {
            "kind": "ef_mixture",
            "component_family": "poisson_product",
            "data_dim": 2,
            "weights": [0.4, 0.6],
            "component_params": [[1.5, 7.0], [8.0, 0.8]],
        }
        raw["data"] = {"source": "synthetic", "seed": 5, "n": 300}
        config = hns.parse_config(raw)
        paths = hns.cmd_train(config)
        result = hns.cmd_verify(config, paths["model"])
        assert result["verdicts"]["gap_pseudo"]["status"] == "pass"
        v = result["verdicts"]["gap_standard"]
        assert v["status"] == "skipped"
        assert "base measure" in v["reason"]


def _dataset_with_text_cell(raw, tmp_path):
    path = tmp_path / "cells.csv"
    path.write_text("x1\n0.5\nabc\n")
    raw["data"] = {"source": "file", "path": str(path)}


def _dataset_with_two_columns(raw, tmp_path):
    # The config's Gaussian mixture observes one coordinate.
    path = tmp_path / "wide.csv"
    path.write_text("x1,x2\n0.5,1.0\n-0.25,2.0\n")
    raw["data"] = {"source": "file", "path": str(path)}


def _ppca_with_as_many_latents_as_dimensions(raw, _):
    raw["model"] = {"kind": "ppca", "w": [[1.0, 0.0], [0.0, 1.0]], "mu": [0.0, 0.0], "sigma2": 0.5}


def _ppca_with_two_points_in_two_dimensions(raw, _):
    raw["model"] = {"kind": "ppca", "w": [[1.0], [0.5]], "mu": [0.0, 0.0], "sigma2": 0.5}
    raw["data"]["n"] = 2


def _write_rows(path, rows):
    """A dataset CSV holding rows, under the header for their column count."""
    header = ",".join(f"x{i + 1}" for i in range(len(rows[0])))
    with open(path, "w") as fh:
        fh.write("\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n")


def _file_dataset(model, rows):
    """An edit that runs model on a file dataset holding rows."""

    def edit(raw, tmp_path):
        _write_rows(tmp_path / "rows.csv", rows)
        raw.update(model=model, data={"source": "file", "path": str(tmp_path / "rows.csv")})

    return edit


def _collapsed_model_file(raw, tmp_path):
    """Verify a model file whose first component is a point mass; the
    config's own model is fine."""
    model = {**raw["model"], "component_params": [[1.0, 1e-200], [5.0, 1.0]]}
    (tmp_path / "model.json").write_text(json.dumps(model))


def _summary_holding_a_number(raw, tmp_path):
    (tmp_path / "summary.json").write_text("7\n")


def _model(base, **fields):
    """An edit that replaces the config's model with base updated by fields."""
    return lambda raw, _: raw.update(model={**base, **fields})


def _mixture(family, data_dim, component_params):
    return {
        "kind": "ef_mixture",
        "component_family": family,
        "data_dim": data_dim,
        "weights": [0.5, 0.5],
        "component_params": component_params,
    }


SBN = {"kind": "sbn", "pi": [0.5], "w": [[1.0], [0.5]]}
POISSON_MIXTURE = _mixture("poisson_product", 1, [[1.0], [6.0]])
GAMMA_MIXTURE = _mixture("gamma", 1, [[2.0, 1.0], [5.0, 2.0]])
PPCA = {"kind": "ppca", "w": [[1.0], [0.5]], "mu": [0.0, 0.0], "sigma2": 0.5}
RIGID_SBN = {"kind": "rigid_sbn", "pi": 0.5, "v": 0.0}
ONE_GAUSSIAN = {
    "kind": "ef_mixture",
    "component_family": "gaussian_scalar_var",
    "data_dim": 1,
    "weights": [1.0],
    "component_params": [[0.0, 1.0]],
}


def _case(command, edit, field, case_id):
    return pytest.param(command, edit, field, id=case_id)


USER_ERRORS = [
    # verify has no settings; an old config's block is an unknown key.
    _case(
        "verify",
        lambda raw, _: raw.update(verification={}),
        "config: unknown keys ['verification']",
        "verification-block",
    ),
    _case("generate", lambda raw, _: raw["data"].update(n=5.7), "config.data.n", "n-float"),
    _case("generate", lambda raw, _: raw["data"].update(n="5"), "config.data.n", "n-text"),
    _case(
        "generate", lambda raw, _: raw["data"].update(seed=1.5), "config.data.seed", "seed-float"
    ),
    _case(
        "generate", lambda raw, _: raw["data"].update(seed=True), "config.data.seed", "seed-bool"
    ),
    _case(
        "train",
        lambda raw, _: raw["training"].update(seed=True),
        "config.training.seed",
        "training-seed-bool",
    ),
    # elbo_rel_tol is the constant learning.ELBO_REL_TOL.
    _case(
        "train",
        lambda raw, _: raw["training"].update(elbo_rel_tol=1e-12),
        "config.training: unknown keys ['elbo_rel_tol']",
        "elbo-rel-tol",
    ),
    _case(
        "train",
        lambda raw, _: raw["training"].update(max_iters=2.5),
        "config.training.max_iters",
        "max-iters-float",
    ),
    _case("train", _dataset_with_text_cell, "cells.csv: row 3", "dataset-text-cell"),
    # 10^13 rows would need 72.8 TiB; each command refuses them while parsing.
    *[
        _case(
            command, lambda raw, _: raw["data"].update(n=10**13), "config.data.n", f"{command}-n-huge"
        )
        for command in ("generate", "train", "verify")
    ],
    _case("train", lambda raw, _: raw["data"].update(n=0), "config.data.n", "train-empty"),
    _case("verify", lambda raw, _: raw["data"].update(n=0), "config.data.n", "verify-empty"),
    _case("train", _dataset_with_two_columns, "config.data.path", "train-dataset-columns"),
    # Cells outside the observation family's support.
    *[
        _case(
            command,
            _file_dataset(POISSON_MIXTURE, [[2], [1.5]]),
            "config.data.path: poisson observations must be non-negative integers",
            f"{command}-poisson-fraction",
        )
        for command in ("train", "verify")
    ],
    _case(
        "train",
        _file_dataset(SBN, [[0, 1], [0.5, 1]]),
        "config.data.path: bernoulli observations must be 0/1",
        "train-sbn-half",
    ),
    _case(
        "verify",
        _file_dataset(GAMMA_MIXTURE, [[1.0], [-1]]),
        "config.data.path: gamma observations must be positive",
        "verify-gamma-negative",
    ),
    _case("verify", _dataset_with_two_columns, "config.data.path", "verify-dataset-columns"),
    # Cells whose statistics overflow: a Gaussian square, the squared
    # distances of k-means++ seeding, or a PPCA covariance.
    *[
        _case(
            "train",
            _file_dataset(model, [[1], [2], [big], [3]]),
            f"config.data.path: {message}",
            f"train-{name}-{big:g}",
        )
        for name, model, message in (
            ("gaussian", gmm_config(".")["model"], "gaussian observations must lie within"),
            ("poisson", POISSON_MIXTURE, "observations too large for k-means++ seeding"),
        )
        for big in (1e300, 1e200)
    ],
    _case(
        "train",
        _file_dataset(PPCA, [[1, 2], [1e300, 3], [3, 1], [0.5, 7]]),
        "config.data.path: observations too large",
        "train-ppca-1e+300",
    ),
    # A Gaussian component at the edge of its domain, from either route.
    _case(
        "train",
        lambda raw, _: raw["model"].update(component_params=[[1.0, 1e-200], [5.0, 1.0]]),
        "config.model: component 0 lies at the edge of its domain",
        "train-point-mass-component",
    ),
    _case(
        "verify",
        _collapsed_model_file,
        "model.json: component 0 lies at the edge of its domain",
        "verify-point-mass-model-file",
    ),
    # Blocks of the wrong JSON type. An edit that returns a value replaces
    # the whole config with it.
    _case("train", lambda raw, _: 5, "config: must be a JSON object", "config-number"),
    _case(
        "train",
        lambda raw, _: raw.update(training=5),
        "config.training: must be a JSON object",
        "training-number",
    ),
    _case(
        "train",
        lambda raw, _: raw.update(model=5),
        "config.model: must be a JSON object",
        "model-number",
    ),
    _case(
        "train", lambda raw, _: raw.update(data=5), "config.data: must be a JSON object", "data-number"
    ),
    _case(
        "train",
        lambda raw, _: raw.update(output={"dir": 5}),
        "config.output.dir: must be a string",
        "output-dir-number",
    ),
    _case("report", _summary_holding_a_number, "summary.json: must be a JSON object", "summary-number"),
    # Fields read as the JSON types they declare: no coercion through bool(),
    # str(), float() or np.asarray, and no NaN or infinity.
    _case(
        "train", _model(SBN, offsets_free="false"), "config.model.offsets_free", "offsets-free-text"
    ),
    _case(
        "train",
        lambda raw, _: raw["model"].update(data_dim=True),
        "config.model.data_dim: must be an integer",
        "data-dim-bool",
    ),
    _case(
        "train",
        lambda raw, _: raw["model"].update(data_dim=2.0),
        "config.model.data_dim: must be an integer",
        "data-dim-float",
    ),
    _case("train", _model(PPCA, sigma2="2"), "config.model.sigma2", "ppca-sigma2-text"),
    _case("train", _model(PPCA, tau=True), "config.model.tau", "ppca-tau-bool"),
    _case("train", _model(PPCA, sigma2=math.inf), "config.model.sigma2", "ppca-sigma2-infinity"),
    _case("verify", _model(RIGID_SBN, pi="0.3"), "config.model.pi", "rigid-pi-text"),
    _case("verify", _model(RIGID_SBN, v="1"), "config.model.v", "rigid-v-text"),
    _case("train", _model(SBN, pi="0.5"), "config.model.pi", "sbn-pi-text"),
    _case("train", _model(SBN, w=[[math.nan], [1.0]]), "config.model.w", "sbn-w-nan"),
    _case("train", _model(ONE_GAUSSIAN, weights=[True]), "config.model.weights", "weights-bool"),
    _case(
        "train",
        _model(ONE_GAUSSIAN, component_params=[["0.5", "1.0"]]),
        "config.model.component_params",
        "component-params-text",
    ),
    _case(
        "train",
        lambda raw, _: raw["training"].update(grad_norm_tol=10**400),
        "config.training.grad_norm_tol: must be a positive finite number",
        "grad-norm-tol-past-float-range",
    ),
    _case("train", lambda raw, _: raw.update(run_id=None), "config.run_id", "run-id-null"),
    _case(
        "train",
        lambda raw, _: raw.update(data={"source": "file", "path": 5}),
        "config.data.path: must be a string",
        "data-path-number",
    ),
    # Data a trainer cannot fit.
    _case("train", _ppca_with_as_many_latents_as_dimensions, "config.model.w", "ppca-h-equals-d"),
    _case("train", _ppca_with_two_points_in_two_dimensions, "config.data.n", "ppca-n-equals-d"),
    _case(
        "train",
        lambda raw, _: raw.update(model=PPCA, training={"init": "model"}),
        "config.training.init: ppca starts from its closed form",
        "ppca-init-model",
    ),
    _case(
        "train",
        lambda raw, _: raw["data"].update(n=1),
        "config.data.n: component",
        "gmm-one-point",
    ),
]


@pytest.mark.parametrize("command, edit, field", USER_ERRORS)
def test_user_errors_exit_2_with_field_path(tmp_path, capsys, command, edit, field):
    raw = gmm_config(tmp_path)
    replaced = edit(raw, tmp_path)
    raw = raw if replaced is None else replaced
    if command == "report":
        args = [command, os.path.join(tmp_path, "summary.json"), "--quiet"]
    else:
        args = [command, "--config", write_config(tmp_path, raw), "--quiet"]
    if command == "verify":
        model_path = os.path.join(tmp_path, "model.json")
        if not os.path.exists(model_path):  # the edit wrote no model file of its own
            with open(model_path, "w") as fh:
                json.dump(raw["model"], fh)
        args += ["--model", model_path]
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err, err


def test_verify_refuses_a_model_of_another_dimension(tmp_path, capsys):
    # The data observe one coordinate; the trained model file claims two.
    raw = gmm_config(tmp_path)
    model_path = os.path.join(tmp_path, "model.json")
    with open(model_path, "w") as fh:
        json.dump(
            {**raw["model"], "data_dim": 2, "component_params": [[-5.0, 0.0, 1.0], [5.0, 0.0, 1.0]]},
            fh,
        )
    args = ["verify", "--config", write_config(tmp_path, raw), "--model", model_path, "--quiet"]
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and model_path in err, err


def _fuzz_config(model, data=None):
    """A valid config that sets every training and output field."""
    return {
        "schema_version": 1,
        "run_id": "fuzz",
        "model": model,
        "data": data or {"source": "synthetic", "seed": 1, "n": 10},
        "training": {
            "max_iters": 5,
            "grad_norm_tol": 1e-7,
            "seed": 0,
            "record_every": 1,
            "init": "auto",
        },
        "output": {"dir": "out"},
    }


# Together these hold every field a config can set, optional ones included.
FUZZ_CONFIGS = {
    "gmm": _fuzz_config(gmm_config(".")["model"]),
    "gmm-file": _fuzz_config(ONE_GAUSSIAN, {"source": "file", "path": "data.csv"}),
    "ppca": _fuzz_config({**PPCA, "tau": 1.0}),
    "simple_fa": _fuzz_config(
        {"kind": "simple_fa", "w": [0.6, 0.8], "tau": 1.5, "sigma2s": [0.5, 2.0]}
    ),
    "sbn": _fuzz_config({**SBN, "mu": [0.1, -0.1], "offsets_free": False}),
    "rigid_sbn": _fuzz_config(RIGID_SBN),
}

# The only values of another JSON type that the parser accepts on purpose.
ACCEPTED_ON_PURPOSE = [("sbn", ("model", "mu"), None)]

_SCALARS = st.one_of(
    st.text(max_size=4), st.booleans(), st.none(), st.integers(-3, 3), st.floats(-3.0, 3.0)
)
_VALUES = {
    "string": st.text(max_size=6),
    "boolean": st.booleans(),
    "null": st.none(),
    "integer": st.integers(-(10**6), 10**6),
    "number": st.floats(allow_nan=False, allow_infinity=False),
    "list": st.lists(_SCALARS, max_size=3),
    "object": st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2),
    "nan": st.just(math.nan),
    "infinity": st.sampled_from([math.inf, -math.inf]),
}
# The value types each field type admits; a number field also takes integers.
_ADMITS = {"number": ("number", "integer")}


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    names = {int: "integer", float: "number", str: "string", list: "list", dict: "object"}
    return names[type(value)]


def _field_paths(block, prefix=()):
    for key, value in block.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_field_of_another_json_type_is_a_config_error(data):
    name = data.draw(st.sampled_from(sorted(FUZZ_CONFIGS)))
    raw = copy.deepcopy(FUZZ_CONFIGS[name])
    path = data.draw(st.sampled_from(list(_field_paths(raw))))
    block = raw
    for key in path[:-1]:
        block = block[key]
    kind = _json_type(block[path[-1]])
    others = [t for t in _VALUES if t not in _ADMITS.get(kind, (kind,))]
    value = data.draw(st.sampled_from(others).flatmap(_VALUES.get))
    block[path[-1]] = value
    if (name, path, value) in ACCEPTED_ON_PURPOSE:
        hns.parse_config(raw)
        return
    with pytest.raises(ConfigError) as info:
        hns.parse_config(raw)
    where = ".".join(("config",) + path)
    assert str(info.value).startswith(f"{where}:"), (where, value, str(info.value))


# Every trainable model; the SBN and the PPCA observe two coordinates.
TRAINABLE = {
    "gaussian": _mixture("gaussian_diag_cov", 2, [[-1.0, 0.0, 1.0, 1.0], [1.0, 0.5, 0.5, 2.0]]),
    "bernoulli": _mixture("bernoulli_product", 2, [[0.2, 0.7], [0.8, 0.4]]),
    "poisson": _mixture("poisson_product", 2, [[1.0, 4.0], [6.0, 0.5]]),
    "gamma": GAMMA_MIXTURE,
    "sbn": SBN,
    "ppca": PPCA,
}
# Finite cells of every kind: small integers (in and out of discrete
# supports), halves, and wide floats of either sign. A dataset draws all its
# cells from one of these, so that some datasets lie inside every support
# and training runs.
_CELLS = [
    st.integers(0, 1),
    st.integers(0, 3),
    st.floats(1e-3, 1e6),
    st.one_of(
        st.integers(-2, 3),
        st.sampled_from([0.5, 1.5, -0.5]),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ),
]


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(TRAINABLE)), data=st.data())
def test_a_file_dataset_never_fails_train_or_verify_internally(name, data):
    model = TRAINABLE[name]
    d = model.get("data_dim", 2)
    cells = data.draw(st.sampled_from(_CELLS))
    rows = data.draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=1, max_size=12))
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # The criterion's rank-deficiency diagnostic is a RuntimeWarning by
        # design, which a plain CLI run prints before exiting 0; numpy's
        # floating-point warnings still raise.
        warnings.filterwarnings(
            "ignore", "(prior|stacked noise) Jacobian rank-deficient", RuntimeWarning
        )
        path = os.path.join(tmp, "data.csv")
        _write_rows(path, rows)
        cfg = {
            "schema_version": 1,
            "run_id": "fuzz",
            "model": model,
            "data": {"source": "file", "path": path},
            "training": {"max_iters": 50},
            "output": {"dir": tmp},
        }
        config = write_config(tmp, cfg)
        code = cli_main(["train", "--config", config, "--quiet"])
        assert code in (0, 2), (name, rows)
        if code == 0:
            model_path = os.path.join(tmp, "model.json")
            code = cli_main(["verify", "--config", config, "--model", model_path, "--quiet"])
            assert code in (0, 2), (name, rows)


class TestTrainVerifyAgreement:
    @pytest.mark.parametrize("case", ["gmm-converged", "sbn-at-cap", "ppca-converged"])
    def test_verify_grad_norm_is_training_final_grad_norm(self, tmp_path, case):
        # verify recomputes the stationarity gradient of the saved model at its
        # exact posterior; it must read exactly what training last recorded.
        # Seed 6 converges where two posterior normalisations give visibly
        # different gradients (4.887e-10 against 6.032e-10), so a second
        # code path in verify would show. PPCA goes through GaussianObjective.
        raw = gmm_config(tmp_path, seed=6, run_id=case)
        if case == "ppca-converged":
            raw["model"] = {
                "kind": "ppca",
                "w": [[1.0], [0.6], [-0.3]],
                "mu": [0.2, -0.1, 0.4],
                "sigma2": 0.5,
            }
            raw["data"]["n"] = 500
        if case == "sbn-at-cap":
            raw["model"] = {
                "kind": "sbn",
                "pi": [0.3, 0.6],
                "w": [[1.5, -1.0], [-2.0, 0.5], [0.7, 1.8]],
                "mu": [0.2, -0.3, 0.1],
                "offsets_free": True,
            }
            raw["data"]["n"] = 150
            raw["training"] = {"max_iters": 4, "seed": 3}
        cfg_path = write_config(tmp_path, raw)
        assert cli_main(["train", "--config", cfg_path, "--quiet"]) == 0
        model_path = os.path.join(tmp_path, "model.json")
        assert cli_main(["verify", "--config", cfg_path, "--model", model_path, "--quiet"]) == 0
        with open(os.path.join(tmp_path, "summary.json")) as fh:
            summary = json.load(fh)
        with open(os.path.join(tmp_path, "verify_report.json")) as fh:
            verify = json.load(fh)
        assert summary["converged"] is (case != "sbn-at-cap")
        assert verify["grad_norm"] == summary["final_grad_norm"]


class TestReport:
    def _summary(self, tmp_path, run_id, **overrides):
        payload = {
            "run_id": run_id,
            "converged": True,
            "n_iterations": 12,
            "final_elbo": -1.5,
            "final_entropy_sum": -1.5,
            "final_gap": 1e-9,
            "final_grad_norm": 1e-8,
        }
        payload.update(overrides)
        path = os.path.join(tmp_path, f"{run_id}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path

    def test_three_rows(self, tmp_path):
        paths = [self._summary(tmp_path, f"run{i}") for i in range(3)]
        table = hns.cmd_report(paths)
        lines = table.strip().splitlines()
        assert lines[0].startswith("run_id,")
        assert len(lines) == 4

    def test_duplicate_run_ids_rejected(self, tmp_path):
        os.makedirs(tmp_path / "a")
        os.makedirs(tmp_path / "b")
        a = self._summary(tmp_path / "a", "same")
        b = self._summary(tmp_path / "b", "same")
        with pytest.raises(ConfigError, match="duplicate run id"):
            hns.cmd_report([a, b])

    def test_empty_trace_uses_na_markers(self, tmp_path):
        path = self._summary(
            tmp_path,
            "empty",
            converged=False,
            n_iterations=0,
            final_elbo=None,
            final_entropy_sum=None,
            final_gap=None,
            final_grad_norm=None,
        )
        table = hns.cmd_report([path])
        assert "NA" in table.splitlines()[1]


class TestCli:
    def test_full_pipeline_in_process(self, tmp_path):
        cfg_path = write_config(tmp_path, gmm_config(tmp_path, n=120))
        assert cli_main(["generate", "--config", cfg_path, "--quiet"]) == 0
        assert cli_main(["train", "--config", cfg_path, "--quiet"]) == 0
        model_path = os.path.join(tmp_path, "model.json")
        assert cli_main(["verify", "--config", cfg_path, "--model", model_path, "--quiet"]) == 0
        summary = os.path.join(tmp_path, "summary.json")
        assert cli_main(["report", summary, "--out", str(tmp_path), "--quiet"]) == 0
        assert os.path.exists(os.path.join(tmp_path, "aggregate.csv"))

    def test_missing_dataset_exits_2(self, tmp_path):
        raw = gmm_config(tmp_path)
        raw["data"] = {"source": "file", "path": str(tmp_path / "absent.csv")}
        cfg_path = write_config(tmp_path, raw)
        assert cli_main(["train", "--config", cfg_path, "--quiet"]) == 2

    def test_bad_config_exits_2(self, tmp_path):
        raw = gmm_config(tmp_path)
        raw["surprise"] = True
        cfg_path = write_config(tmp_path, raw)
        assert cli_main(["generate", "--config", cfg_path, "--quiet"]) == 2

    def test_seed_override_changes_dataset(self, tmp_path):
        cfg_path = write_config(tmp_path, gmm_config(tmp_path, n=30))
        cli_main(["generate", "--config", cfg_path, "--quiet"])
        first = hns.read_dataset(os.path.join(tmp_path, "dataset.csv"))
        cli_main(["generate", "--config", cfg_path, "--seed", "1234", "--quiet"])
        second = hns.read_dataset(os.path.join(tmp_path, "dataset.csv"))
        assert not np.array_equal(first, second)

    def test_subprocess_entry_point(self, tmp_path):
        cfg_path = write_config(tmp_path, gmm_config(tmp_path, n=40))
        proc = subprocess.run(
            [sys.executable, *WARNINGS_AS_ERRORS, "-m", "efgen", "generate", "--config", cfg_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "dataset.csv" in proc.stdout


# Runs in a fresh interpreter, because the test process has imported scipy
# itself. Mode "run" sends every config through generate, train and verify;
# mode "parse" only reads each one. Prints the scipy modules then loaded.
_SCIPY_PROBE = """
import json, os, sys
import efgen.cli, efgen.harness
mode, *configs = sys.argv[1:]
for path in configs:
    if mode == "parse":
        efgen.harness.load_config(path)
        continue
    model = os.path.join(os.path.dirname(path), "model.json")
    for argv in (["generate"], ["train"], ["verify", "--model", model]):
        if efgen.cli.main([*argv, "--config", path, "--quiet"]) != 0:
            sys.exit(f"{argv[0]} failed on {path}")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

GAMMA_MIXTURE = {
    "kind": "ef_mixture",
    "component_family": "gamma",
    "data_dim": 1,
    "weights": [0.5, 0.5],
    "component_params": [[2.0, 1.0], [5.0, 0.5]],
}
POISSON_MIXTURE = {
    "kind": "ef_mixture",
    "component_family": "poisson_product",
    "data_dim": 2,
    "weights": [0.4, 0.6],
    "component_params": [[1.0, 6.0], [7.0, 0.5]],
}
SMALL_SBN = {
    "kind": "sbn",
    "pi": [0.4, 0.7],
    "w": [[1.0, -0.5], [0.0, 2.0]],
    "mu": [0.1, -0.1],
    "offsets_free": True,
}


def _scipy_modules_loaded(tmp_path, mode, models):
    configs = []
    for i, model in enumerate(models):
        out = tmp_path / str(i)
        out.mkdir()
        configs.append(write_config(out, {**gmm_config(out, n=60, max_iters=20), "model": model}))
    # The probe imports the efgen this suite imports, whatever PYTHONPATH says.
    src = os.path.dirname(os.path.dirname(hns.__file__))
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, "-c", _SCIPY_PROBE, mode, *configs],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestScipyImport:
    """scipy.special is loaded only by the families that need it."""

    def test_gaussian_mixture_and_sbn_commands_never_load_scipy(self, tmp_path):
        models = [gmm_config(tmp_path)["model"], SMALL_SBN]
        assert _scipy_modules_loaded(tmp_path, "run", models) == []

    @pytest.mark.parametrize("model", [GAMMA_MIXTURE, POISSON_MIXTURE], ids=["gamma", "poisson"])
    def test_gamma_and_poisson_configs_load_scipy_while_parsed(self, tmp_path, model):
        assert "scipy.special" in _scipy_modules_loaded(tmp_path, "parse", [model])
