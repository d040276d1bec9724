"""CLI commands run on one OpenBLAS thread and give the caller's count back.

The thread-count test trains an SBN the size of the benchmark's
sbn-enumerate workload (H = 8, D = 12, N = 1000): the suite's small SBNs
stay below the sizes at which OpenBLAS splits a product over threads, so
their outputs cannot show a dependence on the count.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from efgen import blas
from efgen import harness as hns
from efgen.cli import main as cli_main

from helpers import WARNINGS_AS_ERRORS

needs_openblas = pytest.mark.skipif(not blas.libraries(), reason="no OpenBLAS in this process")


def _counts():
    return [get() for _, get, _ in blas.libraries()]


def _write_config(out_dir, h, d, n, max_iters):
    """An SBN config with H latents and D observed bits, in out_dir."""
    rng = np.random.default_rng(0)
    config = {
        "schema_version": 1,
        "run_id": f"sbn-{h}x{d}",
        "model": {
            "kind": "sbn",
            "pi": np.round(np.linspace(0.3, 0.7, h), 2).tolist(),
            "w": np.round(rng.normal(scale=1.5, size=(d, h)), 1).tolist(),
            "mu": np.round(rng.normal(scale=0.4, size=d), 1).tolist(),
            "offsets_free": True,
        },
        "data": {"source": "synthetic", "seed": 3, "n": n},
        "training": {"max_iters": max_iters, "seed": 3},
        "output": {"dir": str(out_dir)},
    }
    path = os.path.join(out_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


@needs_openblas
def test_train_writes_the_same_model_at_one_and_two_threads(tmp_path):
    cfg_path = _write_config(tmp_path, h=8, d=12, n=1000, max_iters=30)
    # The subprocesses import the efgen this suite imports, whatever PYTHONPATH says.
    src = os.path.dirname(os.path.dirname(hns.__file__))
    paths = [src, os.environ.get("PYTHONPATH")]
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(p for p in paths if p),
            "OPENBLAS_NUM_THREADS": threads,
        }
        argv = ["train", "--config", cfg_path, "--out", str(out), "--quiet"]
        proc = subprocess.run(
            [sys.executable, *WARNINGS_AS_ERRORS, "-m", "efgen", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        runs[threads] = (out / "model.json").read_bytes(), _read_json(out / "report.json")
    assert runs["1"][0] == runs["2"][0]
    assert [report["blas"]["threads"] for _, report in runs.values()] == [1, 1]


@pytest.fixture
def two_threads():
    """Every OpenBLAS library at two threads, as a caller might set it."""
    before = _counts()
    for _, _, put in blas.libraries():
        put(2)
    yield
    for (_, _, put), count in zip(blas.libraries(), before):
        put(count)


@needs_openblas
class TestCallerThreadCount:
    def test_a_command_runs_on_one_thread_and_restores_two(self, tmp_path, two_threads):
        cfg_path = _write_config(tmp_path, h=2, d=3, n=60, max_iters=5)
        assert cli_main(["train", "--config", cfg_path, "--quiet"]) == 0
        assert _read_json(tmp_path / "report.json")["blas"]["threads"] == 1
        model_path = str(tmp_path / "model.json")
        assert cli_main(["verify", "--config", cfg_path, "--model", model_path, "--quiet"]) == 0
        assert _read_json(tmp_path / "verify_report.json")["blas"]["threads"] == 1
        assert _counts() == [2] * len(blas.libraries())

    def test_a_config_error_restores_two(self, tmp_path, two_threads):
        missing = str(tmp_path / "absent.json")
        assert cli_main(["train", "--config", missing, "--quiet"]) == 2
        assert _counts() == [2] * len(blas.libraries())

    def test_an_internal_error_restores_two(self, tmp_path, two_threads, monkeypatch):
        seen = []

        def failing_train(config, out_dir=None):
            seen.append(blas.info()["threads"])
            raise RuntimeError("planted")

        monkeypatch.setattr(hns, "cmd_train", failing_train)
        cfg_path = _write_config(tmp_path, h=2, d=3, n=60, max_iters=5)
        assert cli_main(["train", "--config", cfg_path, "--quiet"]) == 1
        assert seen == [1]
        assert _counts() == [2] * len(blas.libraries())

    def test_a_raising_block_restores_two(self, two_threads):
        with pytest.raises(RuntimeError), blas.one_thread():
            assert _counts() == [1] * len(blas.libraries())
            raise RuntimeError("planted")
        assert _counts() == [2] * len(blas.libraries())


def test_without_the_maps_file_train_runs_and_records_nulls(tmp_path, monkeypatch):
    def no_maps(*args, **kwargs):
        raise OSError("no /proc here")

    monkeypatch.setattr(blas, "open", no_maps, raising=False)
    blas.libraries.cache_clear()
    try:
        cfg_path = _write_config(tmp_path, h=2, d=3, n=60, max_iters=5)
        assert cli_main(["train", "--config", cfg_path, "--quiet"]) == 0
    finally:
        monkeypatch.undo()
        blas.libraries.cache_clear()
    assert _read_json(tmp_path / "report.json")["blas"] == {"library": None, "threads": None}
