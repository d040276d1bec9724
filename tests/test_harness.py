"""Harness: strict configs, dataset round-trips, pipeline commands, CLI."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from efgen import harness as hns
from efgen import models as mdl
from efgen.cli import main as cli_main
from efgen.errors import ConfigError


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


def _ppca_with_one_z_sample(raw, _):
    # One latent draw cannot identify the shared criterion coefficient; ppca
    # needs two (twice its one-parameter criterion subset).
    raw["model"] = {"kind": "ppca", "w": [[1.0], [0.5]], "mu": [0.0, 0.0], "sigma2": 0.5}
    raw["verification"] = {"criterion_z_samples": 1}


def _case(command, edit, field, case_id):
    return pytest.param(command, edit, field, id=case_id)


USER_ERRORS = [
    _case(
        "verify",
        lambda raw, _: raw.update(verification={"gap_rtol": "abc"}),
        "config.verification.gap_rtol",
        "gap-rtol-text",
    ),
    _case(
        "verify",
        lambda raw, _: raw.update(verification={"criterion_grid_points": -3}),
        "config.verification.criterion_grid_points",
        "grid-points-negative",
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
    _case(
        "train",
        lambda raw, _: raw["training"].update(max_iters=2.5),
        "config.training.max_iters",
        "max-iters-float",
    ),
    _case("train", _dataset_with_text_cell, "cells.csv: row 3", "dataset-text-cell"),
    _case("train", lambda raw, _: raw["data"].update(n=0), "config.data.n", "train-empty"),
    _case("verify", lambda raw, _: raw["data"].update(n=0), "config.data.n", "verify-empty"),
    _case("train", _dataset_with_two_columns, "config.data.path", "train-dataset-columns"),
    _case("verify", _dataset_with_two_columns, "config.data.path", "verify-dataset-columns"),
    _case(
        "verify",
        _ppca_with_one_z_sample,
        "config.verification.criterion_z_samples",
        "ppca-one-z-sample",
    ),
]


@pytest.mark.parametrize("command, edit, field", USER_ERRORS)
def test_user_errors_exit_2_with_field_path(tmp_path, capsys, command, edit, field):
    raw = gmm_config(tmp_path)
    edit(raw, tmp_path)
    model_path = os.path.join(tmp_path, "model.json")
    with open(model_path, "w") as fh:
        json.dump(raw["model"], fh)
    args = [command, "--config", write_config(tmp_path, raw), "--quiet"]
    if command == "verify":
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
            [sys.executable, "-m", "efgen", "generate", "--config", cfg_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "dataset.csv" in proc.stdout
