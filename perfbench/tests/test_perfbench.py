"""Tests of the benchmark itself: metrics emitted, self-time arithmetic,
output checks, and refusal to run outside a full checkout.

Run with: python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    return tmp_path


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_run_emits_every_declared_metric_with_its_unit(work, name, trace):
    result = run.run_workload(name, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _declared("per_layer" if trace else "end_to_end")
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), key
        assert result["samples"][key] >= 1, key
    assert result["environment"]["EFGEN_NUM_THREADS"] == "unset"


def test_self_time_subtracts_traced_children():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0], memory_traced=())

    def tick(seconds):
        now[0] += seconds

    def leaf():
        tick(1.0)

    def inner():
        tick(2.0)
        tracer.call("leaf", True, leaf, (), {})
        tracer.call("leaf", True, leaf, (), {})
        tick(3.0)

    def outer():
        tick(5.0)
        tracer.call("inner", False, inner, (), {})
        tick(7.0)

    tracer.call("outer", False, outer, (), {})
    assert tracer.calls == {"outer": 1, "inner": 1, "leaf": 2}
    assert tracer.self_s == {"outer": 12.0, "inner": 5.0, "leaf": 2.0}
    assert tracer.spans == [[0, "outer", 0.0, 19.0, None], [1, "inner", 5.0, 12.0, 0]]
    assert tracer.leaves == {(1, "leaf"): [2, 2.0]}


def test_install_wraps_every_binding_and_restore_undoes_it():
    import importlib

    bindings = [
        (importlib.import_module(m), attr) for _, modules, attr, _ in TARGETS for m in modules
    ]
    originals = [getattr(mod, attr) for mod, attr in bindings]
    restore = Tracer().install()
    try:
        for mod, attr in bindings:
            assert getattr(mod, attr).__wrapped__ is not None, (mod.__name__, attr)
    finally:
        restore()
    assert [getattr(mod, attr) for mod, attr in bindings] == originals


def test_window_interleaves_kinds_by_their_share_of_time(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(run.time, "monotonic", lambda: now[0])
    order = []

    def job(kind, seconds):
        def call(k):
            order.append(f"{kind}{k}")
            now[0] += seconds

        return call

    run._window(
        {"pipeline": job("p", 4.0), "probe": job("q", 0.5)},
        {"pipeline": 0.8, "probe": 0.2},
        seconds=15.0,
        deadline=100.0,
    )
    # Probes keep a fifth of the time; after the last pipeline ends at 14 s,
    # only probes still fit within 15 s.
    assert order == ["p0", "q0", "q1", "p1", "q2", "q3", "p2", "q4", "q5"]


def test_run_metrics_are_scaled_by_the_median_calibration():
    ref = run.CAL_REF_S
    wall = {"setup_s": 1.0, "train_s": 2.0, "verify_s": None, "train_iters_per_s": 10.0, "peak_rss_mb": 50.0}
    # The median calibration took twice the reference time: the machine ran
    # at half the reference speed.
    assert run.at_reference_speed(wall, [4 * ref, ref, 2 * ref]) == {
        "setup_s": 0.5,
        "train_s": 1.0,
        "verify_s": None,
        "train_iters_per_s": 20.0,
        "peak_rss_mb": 50.0,
    }


def _flip_gap_verdict(out_dir):
    path = os.path.join(out_dir, "verify_report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["verdicts"]["gap_standard"]["status"] = "fail"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def _shift_train_elbo(out_dir):
    path = os.path.join(out_dir, "report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["objective_standard"]["elbo"] += 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


@pytest.mark.parametrize("tamper", [_flip_gap_verdict, _shift_train_elbo])
def test_tampered_report_is_rejected_and_counted(work, monkeypatch, tamper):
    real_check = run.check_outputs

    def tampered_check(w, n, max_iters, codes, out_dir, reference=None, labels=run.COMMANDS):
        if "verify" in labels:
            tamper(out_dir)
        return real_check(w, n, max_iters, codes, out_dir, reference, labels)

    monkeypatch.setattr(run, "check_outputs", tampered_check)
    result = run.run_workload("mixture-gradcheck", seed=3, seconds=0, trace=0, tiny=True)
    # One pipeline of three commands, then one generate-only probe.
    assert not result["correct"]
    assert (result["failed"], result["attempted"]) == (1, 4)
    assert result["failed_frac"] == pytest.approx(1 / 4)
    assert [p["operation"] for p in result["problems"]] == ["verify"]


def test_reference_mismatch_fails_the_train_check():
    w = wl.WORKLOADS["poisson-bulk"]
    report = {
        "objective_standard": {"elbo": -8.5},
        "converged": True,
        "stop_reason": "elbo plateau with vanishing gradient",
        "n_iterations": 100,
    }
    assert wl.check_train(w, report, 2000, {"n_iterations": 100, "elbo": -8.5}) == []
    assert wl.check_train(w, report, 2000, {"n_iterations": 101, "elbo": -8.5})
    assert wl.check_train(w, report, 2000, {"n_iterations": 100, "elbo": -8.5 + 1e-6})


def test_seeds_derive_from_the_workload_seed():
    w = wl.WORKLOADS["poisson-bulk"]
    a, _ = wl.pipeline_configs(w, 1, 0, "out")
    b, _ = wl.pipeline_configs(w, 1, 0, "out")
    c, _ = wl.pipeline_configs(w, 2, 0, "out")
    assert a == b
    assert a["data"]["seed"] != c["data"]["seed"]
    assert a["training"]["seed"] != c["training"]["seed"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixture-gradcheck", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
