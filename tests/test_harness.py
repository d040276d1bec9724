"""Harness: strict configs, dataset round-trips, pipeline commands, CLI."""

import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efgen import families as fam
from efgen import harness as hns
from efgen import models as mdl
from efgen import objective as obj
from efgen.cli import main as cli_main
from efgen.errors import ConfigError, DegenerateDataError
from efgen.learning import TraceRecord, TrainingConfig, TrainingTrace

from helpers import (
    WARNINGS_AS_ERRORS,
    read_dataset_as_floats,
    write_dataset_per_cell,
    write_trace_per_field,
)


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
            {
                "kind": "sbn",
                "pi": [0.4, 0.7],
                "w": [[1.0, -0.5], [0.0, 2.0]],
                "mu": [0.3, -0.2],
                "offsets_free": False,
            },
            {"kind": "rigid_sbn", "pi": 0.5, "v": 0.0},
        ],
        ids=lambda s: s["kind"] + ("" if s.get("offsets_free", True) else "-fixed-offsets"),
    )
    def test_round_trip(self, spec):
        model = hns.model_from_dict(spec)
        back = hns.model_to_dict(model)
        assert back == spec  # the model-file format, field for field
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


# Real cells whose 17-digit text must carry every bit: a signed zero, the
# least subnormal and least normal, the float extremes, and integral floats
# past 2^53.
EXTREME_REALS = [
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    2.0**53 + 2,
    -(2.0**60),
    2.0**80,
]
# Each component family, built at a data_dim; gamma observes one coordinate.
WRITTEN_FAMILIES = {
    "bernoulli_product": fam.bernoulli_product,
    "poisson_product": fam.poisson_product,
    "gaussian_scalar_var": fam.gaussian_scalar_var,
    "gaussian_diag_cov": fam.gaussian_diag_cov,
    "gamma": lambda d: fam.gamma_family(),
}
_INTEGER_CELLS = st.one_of(st.sampled_from([0, 2**53]), st.integers(0, 2**53))
_REAL_CELLS = st.one_of(
    st.sampled_from(EXTREME_REALS), st.floats(allow_nan=False, allow_infinity=False)
)


class TestWriteDataset:
    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(sorted(WRITTEN_FAMILIES)),
        rows=st.sampled_from([0, 1, 255, 256, 257, 513]),
        data=st.data(),
    )
    def test_bytes_match_the_per_cell_writer(self, name, rows, data):
        d = 1 if name == "gamma" else data.draw(st.integers(1, 5))
        family = WRITTEN_FAMILIES[name](d)
        cells = _INTEGER_CELLS if family.integer_valued else _REAL_CELLS
        # Held as floats, as generate holds every dataset.
        pool = np.array(data.draw(st.lists(cells, min_size=1, max_size=64)), dtype=float)
        values = np.resize(pool, (rows, d))
        with tempfile.TemporaryDirectory() as tmp:
            written, expected = os.path.join(tmp, "written.csv"), os.path.join(tmp, "expected.csv")
            hns.write_dataset(written, values, family)
            write_dataset_per_cell(expected, values, family)
            with open(written, "rb") as fa, open(expected, "rb") as fb:
                assert fa.read() == fb.read()

    @pytest.mark.parametrize(
        "family, values",
        [
            (fam.gaussian_diag_cov(4), np.resize(EXTREME_REALS, (300, 4))),
            (
                fam.gaussian_scalar_var(3),
                np.random.default_rng(0).normal(size=(600, 3))
                * 10.0 ** np.random.default_rng(1).integers(-300, 300, size=(600, 3)),
            ),
            (fam.gamma_family(), np.array([[5e-324], [2.0**53 + 2], [1.7976931348623157e308]])),
            (fam.poisson_product(2), np.array([[0.0, 2.0**53], [3.0, 0.0]])),
        ],
        ids=["extremes", "wide-magnitudes", "gamma", "poisson"],
    )
    def test_read_back_bit_for_bit(self, tmp_path, family, values):
        path = str(tmp_path / "dataset.csv")
        hns.write_dataset(path, values, family)
        assert hns.read_dataset(path).tobytes() == values.tobytes()

    def test_memory_stays_within_a_block(self, tmp_path):
        # No copy of the whole dataset: 200 000 x 3 counts as int64 are 4.8 MB.
        values = np.random.default_rng(0).poisson([2.0, 5.0, 9.0], size=(200_000, 3))
        values = values.astype(float)
        tracemalloc.start()
        try:
            hns.write_dataset(str(tmp_path / "dataset.csv"), values, fam.poisson_product(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


# Trace values whose text must match the per-field writer's: a signed zero,
# the least subnormal, the float extremes, and the non-finite values.
_TRACE_REALS = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(),
)


class TestWriteTrace:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.builds(
                TraceRecord, st.integers(1, 10**9), *[_TRACE_REALS] * 4, wall_time=_TRACE_REALS
            ),
            max_size=20,
        )
    )
    def test_bytes_match_the_per_field_writer(self, records):
        trace = TrainingTrace(records=records)
        with tempfile.TemporaryDirectory() as tmp:
            written, expected = os.path.join(tmp, "written.csv"), os.path.join(tmp, "expected.csv")
            hns.write_trace(written, trace)
            write_trace_per_field(expected, trace)
            with open(written, "rb") as fa, open(expected, "rb") as fb:
                assert fa.read() == fb.read()


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


# Dataset cells as text: int64 literals up to 2**63 - 1 and past it, 2**53 + 1
# (which rounds to 2**53), signs, padding, and negative integers with "-0".
_INTEGER_TEXT = st.one_of(
    st.integers(0, 2**63 - 1).map(str),
    st.integers(2**63 - 1, 2**66).map(str),
    st.sampled_from(["0", "2", str(2**53), str(2**53 + 1), str(2**63 - 1), str(2**63)]),
    st.integers(0, 99).map(lambda v: f"+{v}"),
    st.integers(0, 99).map(lambda v: f" {v} "),
)
_SIGNED_TEXT = st.one_of(st.integers(-(2**63), -1).map(str), st.sampled_from(["-0", " -0 ", "-1"]))
_REAL_TEXT = st.sampled_from(["0.5", "1e3", "2.0", "-0.0", "1e-300", "3.25"])


class TestReadDatasetIntegerPass:
    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 4),
        data=st.data(),
        cells=st.sampled_from(["integer", "signed", "real-in-last-row"]),
        line_end=st.sampled_from(["\n", "\r\n"]),
    )
    def test_bits_match_the_float_parse(self, d, data, cells, line_end):
        n = data.draw(st.integers(1, 12))
        pool = _INTEGER_TEXT if cells != "signed" else st.one_of(_INTEGER_TEXT, _SIGNED_TEXT)
        rows = [[data.draw(pool) for _ in range(d)] for _ in range(n)]
        if cells == "real-in-last-row":
            rows[-1][data.draw(st.integers(0, d - 1))] = data.draw(_REAL_TEXT)
        lines = [",".join(f"x{i + 1}" for i in range(d))]
        for row in rows:
            lines += [""] * data.draw(st.integers(0, 1)) + [",".join(row)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "dataset.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(line_end.join(lines) + line_end)
            loaded, expected = hns.read_dataset(path), read_dataset_as_floats(path)
        assert loaded.shape == expected.shape == (n, d)
        assert loaded.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text, dtypes",
        [
            ("x1,x2\n1,2\n3,4\n", ["int64"]),
            ("x1,x2\n1,2\n3,4.5\n", ["int64", "float64"]),
            ("x1,x2\n1,-2\n3,4\n", ["float64"]),
            ("x1,x2\n1,-0\n", ["float64"]),
            ("x1,x2\n1,9223372036854775808\n", ["int64", "float64"]),
        ],
        ids=["integers", "real-in-last-row", "negative", "minus-zero", "past-int64"],
    )
    def test_the_input_chooses_the_parses(self, tmp_path, monkeypatch, text, dtypes):
        # An integer file is parsed once, as int64; a file with a "-" byte
        # skips that pass; any other real value costs a second parse.
        parsed, loadtxt = [], np.loadtxt

        def recording(*args, dtype=float, **kwargs):
            parsed.append(np.dtype(dtype).name)
            return loadtxt(*args, dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recording)
        path = tmp_path / "data.csv"
        path.write_text(text)
        loaded = hns.read_dataset(str(path))
        assert parsed == dtypes
        assert loaded.tobytes() == read_dataset_as_floats(str(path)).tobytes()


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

    @pytest.mark.parametrize("init", ["auto", "model"])
    def test_report_echoes_how_training_started(self, tmp_path, init):
        raw = gmm_config(tmp_path, max_iters=2)
        raw["training"]["init"] = init
        paths = hns.cmd_train(hns.parse_config(raw))
        with open(paths["report"]) as fh:
            assert json.load(fh)["config"]["training"]["init"] == init


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
        # evaluator; train reports from the one it trained with.
        config = hns.parse_config(gmm_config(tmp_path))
        built = []
        init = obj.FiniteObjective.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(obj.FiniteObjective, "__init__", counting_init)
        paths = hns.cmd_train(config)
        assert len(built) == 1
        built.clear()
        hns.cmd_verify(config, paths["model"])
        assert len(built) == 1

    def test_reduces_its_posterior_once(self, tmp_path, monkeypatch):
        # Both reports and the gradient norm read one record of the
        # posterior: its state sums, and the row entropies behind f1, are
        # each computed once.
        config = hns.parse_config(gmm_config(tmp_path))
        paths = hns.cmd_train(config)
        sums, entropies = [], []
        record, entropy_rows = obj.QRecord.__init__, obj._entropy_rows

        def counted_record(self, table, weights, n):
            sums.append(table.shape)
            record(self, table, weights, n)

        def counted_entropy_rows(table):
            entropies.append(table.shape)
            return entropy_rows(table)

        monkeypatch.setattr(obj.QRecord, "__init__", counted_record)
        monkeypatch.setattr(obj, "_entropy_rows", counted_entropy_rows)
        hns.cmd_verify(config, paths["model"])
        assert sums == [(200, 2)]
        assert entropies == [(200, 2)]

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

    def test_gradient_past_the_float_range_has_a_finite_norm(self, tmp_path):
        # The 1e154 cells put the variance gradients near 1e306, whose squares
        # overflow. (Poisson counts that large are out of support.)
        model = _mixture("gaussian_diag_cov", 2, [[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 2.0, 2.0]])
        _write_rows(tmp_path / "rows.csv", [[0.0, 0.0], [1.0, 1.0], [1e154, 1e154], [-1.0, 0.5]])
        raw = gmm_config(tmp_path)
        raw.update(model=model, data={"source": "file", "path": str(tmp_path / "rows.csv")})
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        config = write_config(tmp_path, raw)
        assert cli_main(["verify", "--config", config, "--model", str(model_path), "--quiet"]) == 0

        def not_json(constant):
            raise AssertionError(f"verify_report.json holds {constant}")

        text = (tmp_path / "verify_report.json").read_text()
        report = json.loads(text, parse_constant=not_json)
        assert 1e306 < report["grad_norm"] < 1e307
        annotation = report["verdicts"]["gap_pseudo"]["annotation"]
        assert annotation.startswith("stationarity premise not met")

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


def _model_file(component_params):
    """An edit that verifies a model file holding component_params; the
    config's own model is fine."""

    def edit(raw, tmp_path):
        model = {**raw["model"], "component_params": component_params}
        (tmp_path / "model.json").write_text(json.dumps(model))

    return edit


def _from_model_file(base, **fields):
    """An edit that runs base, on synthetic data of seed 1 and n 200, and
    verifies the model file holding base updated by fields."""

    def edit(raw, tmp_path):
        raw.update(model=base, data={"source": "synthetic", "seed": 1, "n": 200})
        (tmp_path / "model.json").write_text(json.dumps({**base, **fields}))

    return edit


def _from_model(base, **fields):
    """An edit that trains, from its own parameters, base updated by fields,
    on synthetic data of seed 1 and n 200."""

    def edit(raw, _):
        raw.update(model={**base, **fields}, data={"source": "synthetic", "seed": 1, "n": 200})
        raw["training"]["init"] = "model"

    return edit


def _large_variance_training(raw, tmp_path):
    """Train one Gaussian from the config's parameters on a dataset whose
    1e100 cell gives it a variance of about 2e199 in the first M-step."""
    _file_dataset(ONE_GAUSSIAN, [[0.1], [0.5], [-0.3], [1e100], [0.2]])(raw, tmp_path)
    raw["training"]["init"] = "model"


def _summary_holding_a_number(raw, tmp_path):
    (tmp_path / "summary.json").write_text("7\n")


def _file_holding(name, content):
    """An edit that writes the bytes content to the file name: the model file
    verify reads, or the summary report reads; the config is fine."""

    def edit(raw, tmp_path):
        (tmp_path / name).write_bytes(content)

    return edit


def _dataset_with_a_byte_past_utf8(raw, tmp_path):
    path = tmp_path / "cells.csv"
    path.write_bytes(b"x1\n0.5\n\xff\n")
    raw["data"] = {"source": "file", "path": str(path)}


NOT_UTF8 = b"\xff\xfe"
NESTED_PAST_RECURSION = b"[" * 100_000


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
SBN_2 = {"kind": "sbn", "pi": [0.5, 0.5], "w": [[1.0, -0.5], [0.5, 0.2]]}
POISSON_MIXTURE = _mixture("poisson_product", 1, [[1.0], [6.0]])
GAMMA_MIXTURE = _mixture("gamma", 1, [[2.0, 1.0], [5.0, 2.0]])
POISSON_2D = _mixture("poisson_product", 2, [[1.0, 6.0], [7.0, 0.5]])
TINY_WEIGHT = "mixture weights must be at least float64's smallest normal number"
TINY_LATENT = "latent probabilities must be at least float64's smallest normal number"
NO_LAST_WEIGHT = "1 minus the sum of the other mixture weights must be positive"
POISSON_TOO_LARGE = "poisson observations must be non-negative integers up to 2**53"
PPCA = {"kind": "ppca", "w": [[1.0], [0.5]], "mu": [0.0, 0.0], "sigma2": 0.5}
RIGID_SBN = {"kind": "rigid_sbn", "pi": 0.5, "v": 0.0}
ONE_GAUSSIAN = {
    "kind": "ef_mixture",
    "component_family": "gaussian_scalar_var",
    "data_dim": 1,
    "weights": [1.0],
    "component_params": [[0.0, 1.0]],
}


_REAL_ROWS = [
    [0.5, -1.0, 0.2], [1.5, 2.0, -0.4], [-0.3, 0.7, 1.1], [2.0, 1.0, 0.0], [0.1, -0.2, 0.6]
]
_BINARY_ROWS = [[0, 1], [1, 0], [1, 1], [0, 1], [0, 0]]
_GAMMA_ROWS = [[0.5], [1.0], [2.5], [0.2], [1.7]]
_PAST_FLOAT64 = "the model's values overflow float64"
# Models at or past their domain's edge: (kind, as EDGE_MODELS names it,
# model, dataset, and the start of the message that refuses the model).
AT_THE_EDGE = {
    # shape - 1 rounds to -1, and the mean shape / rate overflows.
    "gamma-shape-1e-17": (
        "gamma",
        _mixture("gamma", 1, [[1e-17, 1.0], [2.0, 1.0]]),
        _GAMMA_ROWS,
        "component 0 lies at the edge of its domain",
    ),
    "gamma-rate-1e-320": (
        "gamma",
        _mixture("gamma", 1, [[2.0, 1e-320], [2.0, 1.0]]),
        _GAMMA_ROWS,
        "component 0 lies at the edge of its domain",
    ),
    "sbn-1.7e308": (
        "sbn",
        {"kind": "sbn", "pi": [0.5, 0.5], "w": [[1.7e308, 0.5], [0.2, -1.0]], "mu": [1.7e308, 0.0]},
        _BINARY_ROWS,
        _PAST_FLOAT64,
    ),
    "ppca-sigma2-1e-300": (
        "ppca",
        {"kind": "ppca", "w": [[1.0], [0.5], [0.2]], "mu": [0.0] * 3, "sigma2": 1e-300},
        _REAL_ROWS,
        _PAST_FLOAT64,
    ),
    "ppca-w-1e200": (
        "ppca",
        {"kind": "ppca", "w": [[1e200], [0.5], [0.2]], "mu": [0.0] * 3, "sigma2": 0.5},
        _REAL_ROWS,
        _PAST_FLOAT64,
    ),
    "simple-fa-tau-1e-300": (
        "simple_fa",
        {"kind": "simple_fa", "w": [0.6, 0.8, 0.1], "tau": 1e-300, "sigma2s": [0.5, 2.0, 1.0]},
        _REAL_ROWS,
        _PAST_FLOAT64,
    ),
}


def _verified_from_file(model, rows):
    """An edit that verifies the model file holding model on a file dataset
    holding rows; the config's own model is a fine Gaussian mixture of the
    same data_dim."""
    d = len(rows[0])
    fine = _mixture("gaussian_diag_cov", d, [[0.0] * d + [1.0] * d] * 2)

    def edit(raw, tmp_path):
        _file_dataset(fine, rows)(raw, tmp_path)
        (tmp_path / "model.json").write_text(json.dumps(model))

    return edit


def _trained_from(model, rows):
    """An edit that trains from model's own parameters on a file dataset holding rows."""

    def edit(raw, tmp_path):
        _file_dataset(model, rows)(raw, tmp_path)
        raw["training"]["init"] = "model"

    return edit


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
    # Cells whose statistics overflow: a Gaussian square, a Poisson count past
    # 2**53 (where every float is integer-valued), or a PPCA covariance.
    *[
        _case(
            "train",
            _file_dataset(model, [[1], [2], [big], [3]]),
            f"config.data.path: {message}",
            f"train-{name}-{big:g}",
        )
        for name, model, message in (
            ("gaussian", gmm_config(".")["model"], "gaussian observations must lie within"),
            ("poisson", POISSON_MIXTURE, POISSON_TOO_LARGE),
        )
        for big in (1e300, 1e200)
    ],
    # verify reads any dataset, so it checks the same support.
    *[
        _case(
            "verify",
            _file_dataset(POISSON_MIXTURE, [[0], [1], [2], [big], [5]]),
            f"config.data.path: {POISSON_TOO_LARGE}",
            f"verify-poisson-{big:g}",
        )
        for big in (1.7e308, 1e300)
    ],
    # A Poisson rate past 2**53, or just under it, draws counts out of
    # support, and numpy's sampler refuses rates past about 9.2e18.
    *[
        _case(
            command,
            _model(POISSON_MIXTURE, component_params=rates),
            "config.model: poisson rates near or above 2**53",
            f"{command}-poisson-rate-{rates[0][0]:g}",
        )
        for command in ("generate", "train", "verify")
        for rates in ([[1e19], [1e18]], [[1e16], [1e15]], [[2.0**53 - 1e6], [1e15]])
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
        _model_file([[1.0, 1e-200], [5.0, 1.0]]),
        "model.json: component 0 lies at the edge of its domain",
        "verify-point-mass-model-file",
    ),
    # A Gaussian variance so large that its square overflows, from either route.
    _case(
        "verify",
        _model_file([[0.0, 1e170], [5.0, 1.0]]),
        "model.json: component 0 lies at the edge of its domain",
        "verify-large-variance-model-file",
    ),
    _case(
        "train",
        _large_variance_training,
        "config.data.path: component 0 collapsed to the edge of its domain",
        "train-large-variance-component",
    ),
    # Model files and configs whose values float64 cannot evaluate: verify
    # names the model file, and train, from the model's own parameters, the
    # config's model.
    *[
        _case(
            "verify", _verified_from_file(model, rows), f"model.json: {message}", f"verify-{name}"
        )
        for name, (_, model, rows, message) in AT_THE_EDGE.items()
    ],
    *[
        _case("train", _trained_from(model, rows), f"config.model: {message}", f"train-{name}")
        for name, (_, model, rows, message) in AT_THE_EDGE.items()
        if not name.startswith(("ppca", "simple-fa"))  # neither trains from its parameters
    ],
    # Mixture weights and latent probabilities below float64's smallest
    # normal number, where the prior's Jacobian takes 1 / p, and weights that
    # leave no positive last weight 1 - sum(weights[:-1]).
    _case(
        "verify",
        _from_model_file(POISSON_2D, weights=[1e-320, 1.0]),
        f"model.json: {TINY_WEIGHT}",
        "verify-weight-1e-320",
    ),
    _case(
        "train",
        _from_model(POISSON_2D, weights=[1e-320, 1.0]),
        f"config.model: {TINY_WEIGHT}",
        "train-weight-1e-320",
    ),
    _case(
        "verify",
        _from_model_file(POISSON_2D, weights=[1.0, 1e-17]),
        f"model.json: {NO_LAST_WEIGHT}",
        "verify-last-weight-0",
    ),
    *[
        _case(
            command,
            _model(SBN_2, pi=[1e-320, 0.5]),
            f"config.model: {TINY_LATENT}",
            f"{command}-sbn-pi-1e-320",
        )
        for command in ("generate", "train")
    ],
    _case(
        "verify",
        _from_model_file(SBN_2, pi=[1e-320, 0.5]),
        f"model.json: {TINY_LATENT}",
        "verify-sbn-pi-1e-320",
    ),
    _case(
        "verify",
        _from_model_file(RIGID_SBN, pi=1e-320),
        "model.json: pi must be at least float64's smallest normal number",
        "verify-rigid-sbn-pi-1e-320",
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
    _case(
        "report",
        _file_holding("summary.json", json.dumps({"run_id": [1]}).encode()),
        "summary.json: run_id must be a string",
        "summary-run-id-list",
    ),
    # Files that hold no JSON value. An edit that returns bytes replaces the
    # config file's with them.
    _case("verify", _file_holding("model.json", b"{bad"), "model.json: invalid JSON", "model-bad-json"),
    _case(
        "verify",
        lambda raw, tmp_path: (tmp_path / "model.json").mkdir(),
        "model.json: cannot read the trained model file",
        "model-directory",
    ),
    _case("train", lambda raw, _: NOT_UTF8, "config.json: not UTF-8", "config-not-utf8"),
    _case("verify", _file_holding("model.json", NOT_UTF8), "model.json: not UTF-8", "model-not-utf8"),
    _case(
        "report", _file_holding("summary.json", NOT_UTF8), "summary.json: not UTF-8", "summary-not-utf8"
    ),
    _case("train", _dataset_with_a_byte_past_utf8, "cells.csv: not UTF-8", "dataset-not-utf8"),
    _case(
        "train",
        lambda raw, _: NESTED_PAST_RECURSION,
        "config.json: JSON nested too deeply",
        "config-nested",
    ),
    _case(
        "verify",
        _file_holding("model.json", NESTED_PAST_RECURSION),
        "model.json: JSON nested too deeply",
        "model-nested",
    ),
    _case(
        "report",
        _file_holding("summary.json", NESTED_PAST_RECURSION),
        "summary.json: JSON nested too deeply",
        "summary-nested",
    ),
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
    # The family's descriptor refuses the size; the message names the field.
    _case(
        "train",
        _model(_mixture("gamma", 2, [[2.0, 1.0], [5.0, 2.0]])),
        "config.model.data_dim: gamma takes data_dim 1, got 2",
        "gamma-data-dim-2",
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
    elif isinstance(raw, bytes):
        (tmp_path / "config.json").write_bytes(raw)
        args = [command, "--config", str(tmp_path / "config.json"), "--quiet"]
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
    # Rows repeat, in any order: integer-valued ones are grouped for training.
    repeats = data.draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))
    rows = data.draw(st.permutations([row for row, k in zip(rows, repeats) for _ in range(k)]))
    with tempfile.TemporaryDirectory() as tmp:
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


def _log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


# Parameter values at the edges of their domains: magnitudes log-uniform
# over the whole float range, subnormals included, probabilities within
# 1e-300 of 0 or of 1 (which is 1.0 itself), and gamma shapes below 1e-16,
# where shape - 1 rounds to -1.
_MAGNITUDE = _log_uniform(1e-320, 1e308)
_SIGNED = st.tuples(_MAGNITUDE, st.sampled_from([1.0, -1.0])).map(math.prod)
_TINY = _log_uniform(1e-320, 1e-300)
_PROBABILITY = st.one_of(_TINY, _TINY.map(lambda p: 1.0 - p))
_GAMMA_SHAPE = st.one_of(_log_uniform(1e-320, 1e-16), _MAGNITUDE)


def _edges(values, edge):
    """Each entry of values (a number or nested lists) kept, or drawn from edge."""
    if isinstance(values, list):
        return st.tuples(*[_edges(v, edge) for v in values]).map(list)
    return st.one_of(st.just(values), edge)


def _edge_mixture(family, data_dim, params, edges):
    """Two components of family whose first weight, and each parameter of
    column j, drawn by edges[j], may lie at an edge."""
    rows = st.tuples(
        *[st.tuples(*[_edges(v, e) for v, e in zip(row, edges)]).map(list) for row in params]
    ).map(list)
    return st.builds(
        lambda w, p: {**_mixture(family, data_dim, p), "weights": [w, 1.0 - w]},
        _edges(0.5, _PROBABILITY),
        rows,
    )


def _edge_model(kind, **fields):
    """A model of kind whose fields, each a (values, edge) pair, may lie at edges."""
    return st.fixed_dictionaries({k: _edges(v, e) for k, (v, e) in fields.items()}).map(
        lambda f: {"kind": kind, **f}
    )


# Every trainable or verifiable kind, each with a fixed small dataset.
EDGE_MODELS = {
    "gaussian_diag_cov": (
        _edge_mixture(
            "gaussian_diag_cov",
            2,
            [[-1.0, 0.0, 1.0, 1.0], [1.0, 0.5, 0.5, 2.0]],
            [_SIGNED] * 2 + [_MAGNITUDE] * 2,
        ),
        [row[:2] for row in _REAL_ROWS],
    ),
    "gaussian_scalar_var": (
        _edge_mixture("gaussian_scalar_var", 1, [[-1.0, 1.0], [1.0, 0.5]], [_SIGNED, _MAGNITUDE]),
        [row[:1] for row in _REAL_ROWS],
    ),
    "bernoulli": (
        _edge_mixture("bernoulli_product", 2, [[0.2, 0.7], [0.8, 0.4]], [_PROBABILITY] * 2),
        _BINARY_ROWS,
    ),
    "poisson": (
        _edge_mixture("poisson_product", 2, [[1.0, 4.0], [6.0, 0.5]], [_MAGNITUDE] * 2),
        [[0, 3], [2, 1], [5, 0], [1, 1], [0, 3]],
    ),
    "gamma": (
        _edge_mixture("gamma", 1, [[2.0, 1.0], [5.0, 2.0]], [_GAMMA_SHAPE, _MAGNITUDE]),
        _GAMMA_ROWS,
    ),
    "sbn": (
        _edge_model(
            "sbn",
            pi=([0.3, 0.6], _PROBABILITY),
            w=([[1.0, -0.5], [0.2, 0.8]], _SIGNED),
            mu=([0.1, -0.1], _SIGNED),
        ),
        _BINARY_ROWS,
    ),
    "rigid_sbn": (_edge_model("rigid_sbn", pi=(0.5, _PROBABILITY), v=(0.5, _SIGNED)), _BINARY_ROWS),
    "ppca": (
        _edge_model(
            "ppca",
            w=([[1.0], [0.5], [0.2]], _SIGNED),
            mu=([0.0, 0.1, -0.1], _SIGNED),
            sigma2=(0.5, _MAGNITUDE),
            tau=(1.0, _MAGNITUDE),
        ),
        _REAL_ROWS,
    ),
    "simple_fa": (
        _edge_model(
            "simple_fa",
            w=([0.6, 0.8, 0.1], _SIGNED),
            tau=(1.5, _MAGNITUDE),
            sigma2s=([0.5, 2.0, 1.0], _MAGNITUDE),
        ),
        _REAL_ROWS,
    ),
}
_EDGE_CASES = st.sampled_from(sorted(EDGE_MODELS)).flatmap(
    lambda name: st.tuples(st.just(name), EDGE_MODELS[name][0])
)


def _at_the_edge(test):
    """test, run first on every AT_THE_EDGE model from its own parameters."""
    for kind, model, _, _ in AT_THE_EDGE.values():
        test = example(case=(kind, model), init="model")(test)
    return test


@settings(max_examples=400, deadline=None)
@given(case=_EDGE_CASES, init=st.sampled_from(["auto", "model"]))
@_at_the_edge
def test_edge_parameters_run_or_are_config_errors(case, init):
    # verify, and train for two iterations, on a model file or config whose
    # parameters lie at their domains' edges: each returns or refuses the
    # model as a user error, with numpy's warnings as errors.
    name, model = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        _write_rows(path, EDGE_MODELS[name][1])
        model_path = os.path.join(tmp, "model.json")
        with open(model_path, "w") as fh:
            json.dump(model, fh)
        config = {
            "schema_version": 1,
            "run_id": "edges",
            "model": model,
            "data": {"source": "file", "path": path},
            "training": {"max_iters": 2, "init": init},
            "output": {"dir": tmp},
        }
        for command in (lambda c: hns.cmd_verify(c, model_path), hns.cmd_train):
            try:
                command(hns.parse_config(config))
            except ConfigError:
                pass


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

    def test_a_run_id_with_a_comma_is_quoted(self, tmp_path):
        path = self._summary(tmp_path, "demo, comma")
        rows = list(csv.reader(io.StringIO(hns.cmd_report([path]))))
        assert [len(row) for row in rows] == [7, 7]
        assert rows[1][0] == "demo, comma"

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

    @pytest.mark.parametrize(
        "case",
        ["data-path-is-a-directory", "output-dir-is-a-file", "dataset-csv-is-a-directory"],
    )
    def test_a_path_that_cannot_be_used_exits_2_naming_it(self, tmp_path, capsys, case):
        raw = gmm_config(tmp_path)
        command = "generate"
        if case == "data-path-is-a-directory":
            path = tmp_path / "data"
            path.mkdir()
            raw["data"] = {"source": "file", "path": str(path)}
            command, message = "train", f"{path}: cannot read the dataset file: Is a directory"
        elif case == "output-dir-is-a-file":
            path = tmp_path / "out"
            path.write_text("")
            raw["output"] = {"dir": str(path)}
            message = f"{path}: cannot make the output directory: File exists"
        else:
            path = tmp_path / "dataset.csv"
            path.mkdir()
            message = f"{path}: cannot write the file: Is a directory"
        cfg_path = write_config(tmp_path, raw)
        assert cli_main([command, "--config", cfg_path, "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_report_out_naming_a_file_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, gmm_config(tmp_path, n=40, max_iters=5))
        assert cli_main(["train", "--config", cfg_path, "--quiet"]) == 0
        out = tmp_path / "out"
        out.write_text("")
        summary = str(tmp_path / "summary.json")
        assert cli_main(["report", summary, "--out", str(out), "--quiet"]) == 2
        message = f"{out}: cannot make the output directory: File exists"
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_verify_seed_sees_the_data_train_seed_trained_on(self, tmp_path):
        # The config's data seed is 7; train and verify both draw at 1234.
        cfg_path = write_config(tmp_path, gmm_config(tmp_path, n=120))
        assert cli_main(["train", "--config", cfg_path, "--seed", "1234", "--quiet"]) == 0
        model_path = os.path.join(tmp_path, "model.json")
        args = ["verify", "--config", cfg_path, "--model", model_path, "--seed", "1234", "--quiet"]
        assert cli_main(args) == 0
        with open(os.path.join(tmp_path, "report.json")) as fh:
            train = json.load(fh)
        with open(os.path.join(tmp_path, "verify_report.json")) as fh:
            verify = json.load(fh)
        statuses = [verdict["status"] for verdict in verify["verdicts"].values()]
        assert statuses == ["pass", "pass", "pass"]
        assert verify["objective_standard"]["elbo"] == train["objective_standard"]["elbo"]

    @pytest.mark.parametrize("seed", [2, 1234])
    def test_kmeanspp_start_splits_the_clusters_by_sign(self, tmp_path, seed):
        # Unit clusters at -5 and +5. Seeded on the (x, x^2) statistics, x^2
        # outweighs x, the start splits the data by |x|, and EM runs to the
        # iteration cap at the merged saddle (ELBO near -3.05). Seeded on x,
        # it converges at once.
        cfg_path = write_config(tmp_path, gmm_config(tmp_path))
        assert cli_main(["train", "--config", cfg_path, "--seed", str(seed), "--quiet"]) == 0
        with open(os.path.join(tmp_path, "report.json")) as fh:
            report = json.load(fh)
        assert report["converged"] is True
        assert report["objective_standard"]["elbo"] > -2.5

    def test_subprocess_entry_point(self, tmp_path):
        cfg_path = write_config(tmp_path, gmm_config(tmp_path, n=40))
        proc = subprocess.run(
            [sys.executable, *WARNINGS_AS_ERRORS, "-m", "efgen", "generate", "--config", cfg_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "dataset.csv" in proc.stdout


class TestBernoulliFarBelowZero:
    """An SBN weight of -720 puts the observable's natural parameter where
    e^-eta overflows, while its success probability e^-720 is still a
    positive float: training runs under the warnings-as-errors filters. At
    -900 the probability rounds to 0, and the config is refused (exit 2)
    under either filter, with no warning and a message that names the natural
    parameters."""

    @staticmethod
    def train(tmp_path, weight, filters):
        cfg = {
            **gmm_config(tmp_path, n=100, max_iters=20),
            "model": {"kind": "sbn", "pi": [0.5], "w": [[weight], [1.0]], "mu": [0.0, 0.0]},
        }
        argv = ["-m", "efgen", "train", "--config", write_config(tmp_path, cfg)]
        return subprocess.run([sys.executable, *filters, *argv], capture_output=True, text=True)

    def test_minus_720_trains(self, tmp_path):
        proc = self.train(tmp_path, -720.0, WARNINGS_AS_ERRORS)
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(os.path.join(tmp_path, "model.json"))

    @pytest.mark.parametrize("filters", [WARNINGS_AS_ERRORS, ()], ids=["error", "default"])
    def test_minus_900_is_a_user_error(self, tmp_path, filters):
        proc = self.train(tmp_path, -900.0, filters)
        assert proc.returncode == 2, proc.stderr
        assert "bernoulli probabilities must lie in the open (0,1)" in proc.stderr
        assert "Warning" not in proc.stderr
        assert proc.stderr.startswith(
            "error: config.model: the observation natural parameters are too large in "
            "magnitude: they round to the edge of the bernoulli_product domain ("
        )


class TestExactTableBound:
    """A finite-state evaluator refuses data whose (U, S) tables would hold
    more than objective.MAX_TABLE_VALUES values before it allocates any, and
    train and verify exit 2 naming the config field that chose the data."""

    def test_the_evaluator_refuses_at_the_enumeration_cap(self):
        # H = 14 latents, the enumeration cap, and 8000 distinct rows: 1.3e8
        # values per table, a 1 GB float64 table.
        rng = np.random.default_rng(0)
        model = mdl.make_sbn(np.full(14, 0.5), rng.normal(size=(30, 14)), np.zeros(30))
        data = np.unique(rng.integers(0, 2, size=(8000, 30)), axis=0).astype(float)
        assert len(data) * 2**14 > obj.MAX_TABLE_VALUES
        message = rf"{len(data)} distinct rows times 16384 latent states"
        tracemalloc.start()
        try:
            with pytest.raises(DegenerateDataError, match=message):
                obj.FiniteObjective(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**25, peak
        obj.FiniteObjective(model, data[: obj.MAX_TABLE_VALUES // 2**14])

    @pytest.mark.parametrize("source", ["synthetic", "file"])
    @pytest.mark.parametrize("command", ["train", "verify"])
    def test_train_and_verify_exit_2_naming_the_data(
        self, tmp_path, capsys, monkeypatch, command, source
    ):
        # 2 latent states and 200 Gaussian rows, none repeated: 400 values.
        raw = gmm_config(tmp_path, n=200)
        cfg_path = write_config(tmp_path, raw)
        if source == "file":
            assert cli_main(["generate", "--config", cfg_path, "--quiet"]) == 0
            raw["data"] = {"source": "file", "path": str(tmp_path / "dataset.csv")}
            cfg_path = write_config(tmp_path, raw)
        model_path = os.path.join(tmp_path, "truth.json")
        with open(model_path, "w") as fh:
            json.dump(raw["model"], fh)

        def no_criterion(model):
            raise AssertionError("verify checked the criterion before building its evaluator")

        monkeypatch.setattr(mdl, "check_criterion", no_criterion)
        monkeypatch.setattr(obj, "MAX_TABLE_VALUES", 399)
        argv = [command, "--config", cfg_path, "--quiet"]
        assert cli_main(argv + (["--model", model_path] if command == "verify" else [])) == 2
        field = "config.data.n" if source == "synthetic" else "config.data.path"
        assert capsys.readouterr().err == (
            f"error: {field}: 200 distinct rows times 2 latent states make 400 values per "
            "table, more than 399; use fewer rows or latents\n"
        )
        monkeypatch.setattr(obj, "MAX_TABLE_VALUES", 400)
        assert cli_main(["train", "--config", cfg_path, "--quiet"]) == 0


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
    """scipy.special is loaded only by the gamma family, which needs its
    log-gamma and digamma: Gaussian mixture, Poisson mixture and SBN
    commands never load scipy, and a gamma config loads scipy.special while
    it is parsed, so training never pays the import."""

    def test_gaussian_poisson_and_sbn_commands_never_load_scipy(self, tmp_path):
        models = [gmm_config(tmp_path)["model"], POISSON_MIXTURE, SMALL_SBN]
        assert _scipy_modules_loaded(tmp_path, "run", models) == []

    def test_gamma_configs_load_scipy_while_parsed(self, tmp_path):
        assert "scipy.special" in _scipy_modules_loaded(tmp_path, "parse", [GAMMA_MIXTURE])
