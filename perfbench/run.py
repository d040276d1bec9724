"""Benchmark of the efgen CLI pipeline: generate -> train -> verify.

Usage:
  python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; efgen is imported from its `src/`. Each
pipeline runs in a fresh process, one at a time (see pipeline.py). Pipeline
k of a run uses data and training seeds derived from (--seed, k).

--trace 0 runs pipelines 0, 1, 2, ... and, between them, probes: processes
that set up and run only generate on pipeline 0's config, taking a fifth of
the time. It stops when the next process would end after --seconds.
setup_s is the median over all processes; every other end-to-end metric is
the mean over the processes that measured it. Every time is then scaled to
the machine speed at which the calibration loop in pipeline.py takes
CAL_REF_S (see README.md). --trace 1 runs pipeline 0 untraced and traced
in turn while --seconds allow, and reports per-layer call counts and self
times from the wrappers in tracer.py.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Full
results, with the run environment, are written under
perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads as wl
from tracer import TARGETS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(BENCH_DIR, ".work")

COMMANDS = ("generate", "train", "verify")
# Share of --seconds spent on probes: processes that set up and run only
# generate, which is too short (under 0.1 s on two workloads) to measure
# steadily from one sample per pipeline.
PROBE_SHARE = 0.2
RUN_DEADLINE_S = 170.0  # every run must end within 180 s
# Seconds that pipeline.calibrate() takes at the reference machine speed:
# about its median on a shared 2-vCPU VM (OpenBLAS SkylakeX build).
CAL_REF_S = 0.025
# Metrics scaled to the reference speed: times, and rates per second.
SCALED = ("setup_s", "generate_s", "train_s", "verify_s", "pipeline_s", "pipeline_cpu_s")
PER_SECOND = ("train_iters_per_s",)

END_TO_END_UNITS = {
    "setup_s": "s",
    "generate_s": "s",
    "train_s": "s",
    "verify_s": "s",
    "pipeline_s": "s",
    "pipeline_cpu_s": "s",
    "train_iters_per_s": "1/s",
    "peak_rss_mb": "MB",
}
DERIVED_LAYER_UNITS = {
    "learning.iterations": "count",
    "learning.grad_records": "count",
    "learning.grad_records_per_iter": "records/iter",
    "harness.dataset_bytes": "bytes",
    "models.check_criterion.peak_mb": "MB",
    "trace.overhead_frac": "ratio",
}


def layer_units() -> dict:
    units = {}
    for name, _, _, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_LAYER_UNITS)
    return units


# ---------------------------------------------------------------------------
# Child processes.


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def spawn(job: dict, job_dir: str, deadline: float):
    """Run pipeline.py on one job; returns (set-up seconds, result or None)."""
    os.makedirs(job_dir, exist_ok=True)
    job = {**job, "root": ROOT, "result": os.path.join(job_dir, "result.json")}
    job["spans"] = os.path.join(job_dir, "spans.jsonl")
    job_path = os.path.join(job_dir, "job.json")
    _write_json(job_path, job)
    env = dict(os.environ)
    env.pop("EFGEN_NUM_THREADS", None)  # the program's default path
    with open(os.path.join(job_dir, "log.txt"), "w", encoding="utf-8") as log:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "pipeline.py"), job_path],
            cwd=ROOT,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
        finally:
            proc.wait()
    result = _read_json(job["result"]) if proc.returncode == 0 else None
    if result is None:
        return None, None
    return result["ready"] - started, result


# ---------------------------------------------------------------------------
# One pipeline: configs, process, output checks.


def _count_rows(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip()) - 1
    except OSError:
        return None


def check_outputs(w, n, max_iters, codes, out_dir, reference=None, labels=COMMANDS):
    """Problems per operation; an operation is one CLI command plus its check."""
    report = _read_json(os.path.join(out_dir, "report.json"))
    checks = {
        "generate": lambda: wl.check_generate(
            w,
            n,
            _read_json(os.path.join(out_dir, "manifest.json")),
            _count_rows(os.path.join(out_dir, "dataset.csv")),
        ),
        "train": lambda: wl.check_train(w, report, max_iters, reference),
        "verify": lambda: wl.check_verify(
            w, report, _read_json(os.path.join(out_dir, "verify_report.json"))
        ),
    }
    problems = {}
    for label in labels:
        code = codes.get(label)
        if code is None:
            problems[label] = ["did not run"]
        elif code != 0:
            problems[label] = [f"exit code {code}"]
        else:
            problems[label] = checks[label]()
    return problems


def run_pipeline(w, seed, index, trace, tiny, deadline, tag, labels=COMMANDS, environment=False):
    """One process running the given CLI commands of pipeline `index`."""
    out_dir = os.path.join(WORK, w.name, tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    gen_cfg, run_cfg = wl.pipeline_configs(w, seed, index, out_dir, tiny)
    gen_path, run_path = (os.path.join(out_dir, f) for f in ("generate.json", "run.json"))
    _write_json(gen_path, gen_cfg)
    _write_json(run_path, run_cfg)
    argv = {
        "generate": ["generate", "--config", gen_path, "--quiet"],
        "train": ["train", "--config", run_path, "--quiet"],
        "verify": ["verify", "--config", run_path, "--model", os.path.join(out_dir, "model.json"), "--quiet"],
    }
    commands = [[label, argv[label]] for label in labels]
    job = {
        "configs": [gen_path, run_path],
        "commands": commands,
        "trace": trace,
        "environment": environment,
    }
    setup_s, result = spawn(job, os.path.join(out_dir, "job"), deadline)
    codes = {c["label"]: c["code"] for c in result["commands"]} if result else {}
    reference = wl.REFERENCES.get(w.name) if (seed, index, tiny) == (wl.DEFAULT_SEED, 0, False) else None
    max_iters = run_cfg["training"]["max_iters"]
    problems = check_outputs(w, gen_cfg["data"]["n"], max_iters, codes, out_dir, reference, labels)
    return {"setup_s": setup_s, "result": result, "problems": problems, "out_dir": out_dir, "trace": trace}


def pipeline_samples(p):
    """End-to-end samples of one process: a time per command that exited 0,
    and whole-pipeline figures once all three commands have."""
    result = p["result"]
    sample = {"setup_s": p["setup_s"]} if result else {}
    seconds = {c["label"]: c["seconds"] for c in result["commands"] if c["code"] == 0} if result else {}
    sample.update({f"{label}_s": t for label, t in seconds.items()})
    if len(seconds) == len(COMMANDS):
        report = _read_json(os.path.join(p["out_dir"], "report.json"))
        sample.update(
            {
                "pipeline_s": result["pipeline_s"],
                "pipeline_cpu_s": result["cpu_s"],
                "train_iters_per_s": report["n_iterations"] / seconds["train"],
                "peak_rss_mb": result["peak_rss_mb"],
            }
        )
    return sample


# ---------------------------------------------------------------------------
# A run of one workload.


def _window(jobs, share, seconds, deadline):
    """Run jobs of each kind while the next one should end within seconds.

    jobs maps a kind to run(k), its k-th call; the first kind runs first.
    The next job is of the kind furthest below its share of the time spent
    so far. Near the end, a kind whose next job would overrun gives way to
    one that fits, so short jobs fill the tail. Every kind runs at least once.
    """
    start = time.monotonic()
    spent = dict.fromkeys(jobs, 0.0)
    last = dict.fromkeys(jobs, 0.0)
    done = dict.fromkeys(jobs, 0)
    out = []
    while True:
        elapsed = time.monotonic() - start
        missing = [kind for kind in jobs if not done[kind]]
        fitting = [
            kind
            for kind in jobs
            if elapsed + last[kind] <= seconds and time.monotonic() + 1.5 * last[kind] <= deadline
        ]
        candidates = missing[:1] or fitting
        if not candidates:
            return out
        kind = min(candidates, key=lambda k: spent[k] - share[k] * elapsed)
        t0 = time.monotonic()
        out.append(jobs[kind](done[kind]))
        done[kind] += 1
        last[kind] = time.monotonic() - t0
        spent[kind] += last[kind]


def _median(values):
    return statistics.median(values) if values else None


def _mean(values):
    return statistics.fmean(values) if values else None


def run_workload(name, seed, seconds, trace, tiny=False):
    w = wl.WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    shutil.rmtree(os.path.join(WORK, w.name), ignore_errors=True)

    # Warm-up: fills bytecode caches and records the environment.
    warm = run_pipeline(w, seed, 0, False, tiny, deadline, "warm", labels=(), environment=True)
    environment = warm["result"]["environment"] if warm["result"] else None

    if trace:
        # Pipeline 0, untraced and traced in turn, so that the tracing
        # overhead compares samples taken at the same times.
        processes = _window(
            {
                "untraced": lambda k: run_pipeline(w, seed, 0, False, tiny, deadline, f"p0-untraced{k}"),
                "traced": lambda k: run_pipeline(w, seed, 0, True, tiny, deadline, f"p0-traced{k}"),
            },
            {"untraced": 0.5, "traced": 0.5},
            seconds,
            deadline,
        )
    else:
        # Probes run between the pipelines, so that their samples cover the
        # whole run, as the pipelines' do.
        processes = _window(
            {
                "pipeline": lambda k: run_pipeline(w, seed, k, False, tiny, deadline, f"p{k}"),
                "probe": lambda k: run_pipeline(
                    w, seed, 0, False, tiny, deadline, f"probe{k}", labels=("generate",)
                ),
            },
            {"pipeline": 1.0 - PROBE_SHARE, "probe": PROBE_SHARE},
            seconds,
            deadline,
        )

    samples = [pipeline_samples(p) for p in processes]
    cal_s = [c for p in processes if p["result"] for c in p["result"]["cal_s"]]
    attempted = sum(len(p["problems"]) for p in processes)
    failed = sum(1 for p in processes for probs in p["problems"].values() if probs)
    if trace:
        untraced = [p for p in processes if not p["trace"]]
        traced = [p for p in processes if p["trace"]]
        metrics, counts = layer_metrics(untraced, traced)
        units = layer_units()
        wall = None
    else:
        # Set-up time is the median over its samples. Every other metric is
        # the mean, which follows seed-to-seed changes in the work, such as
        # a mixture that needs more iterations to converge.
        wall, counts = {}, {}
        for key in END_TO_END_UNITS:
            values = [s[key] for s in samples if key in s]
            wall[key] = (_median if key == "setup_s" else _mean)(values)
            counts[key] = len(values)
        metrics = at_reference_speed(wall, cal_s)
        units = END_TO_END_UNITS
    return {
        "workload": name,
        "seed": seed,
        "trace": int(bool(trace)),
        "environment": environment,
        "correct": failed == 0 and environment is not None,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "samples": counts,
        "wall_metrics": wall,
        "cal_s": cal_s,
        "processes": samples,
        "problems": [
            {"pipeline": p["out_dir"], "operation": op, "problems": probs}
            for p in processes
            for op, probs in p["problems"].items()
            if probs
        ],
    }


def at_reference_speed(wall, cal_s):
    """Scale a run's metrics to the machine speed at which the calibration
    loop takes CAL_REF_S: times are multiplied, and rates divided, by
    CAL_REF_S over the run's median calibration time."""
    if not cal_s:  # no process ran, so every value is None
        return dict(wall)
    factor = CAL_REF_S / _median(cal_s)
    metrics = dict(wall)
    for key, value in wall.items():
        if value is not None and key in SCALED:
            metrics[key] = value * factor
        elif value is not None and key in PER_SECOND:
            metrics[key] = value / factor
    return metrics


def layer_metrics(untraced, traced):
    """Per-layer metrics: counts from the first traced pipeline, median self
    times, and the tracing overhead as a ratio of median pipeline times."""
    ok = [p for p in traced if p["result"] is not None]
    base = [p["result"]["pipeline_s"] for p in untraced if p["result"] is not None]
    first = ok[0]["result"] if ok else {"calls": {}, "self_s": {}, "peak_bytes": {}}
    metrics, counts = {}, {}
    for name, _, _, _ in TARGETS:
        metrics[f"{name}.calls"] = first["calls"].get(name, 0)
        metrics[f"{name}.self_s"] = _median([p["result"]["self_s"].get(name, 0.0) for p in ok])
        counts[f"{name}.calls"] = min(len(ok), 1)
        counts[f"{name}.self_s"] = len(ok)
    out_dir = ok[0]["out_dir"] if ok else untraced[0]["out_dir"]
    report = _read_json(os.path.join(out_dir, "report.json")) or {}
    iterations = report.get("n_iterations")
    records = _count_rows(os.path.join(out_dir, "trace.csv"))
    dataset = os.path.join(out_dir, "dataset.csv")
    peak = first["peak_bytes"].get("models.check_criterion")
    metrics.update(
        {
            "learning.iterations": iterations,
            "learning.grad_records": records,
            "learning.grad_records_per_iter": records / iterations if iterations and records is not None else None,
            "harness.dataset_bytes": os.path.getsize(dataset) if os.path.exists(dataset) else None,
            "models.check_criterion.peak_mb": peak / 2**20 if peak is not None else None,
            "trace.overhead_frac": (
                _median([p["result"]["pipeline_s"] for p in ok]) / _median(base) - 1.0 if ok and base else None
            ),
        }
    )
    counts.update({k: min(len(ok), 1) for k in DERIVED_LAYER_UNITS})
    counts["trace.overhead_frac"] = len(ok) + len(base)
    return metrics, counts


# ---------------------------------------------------------------------------
# Entry point.


def print_run(run):
    print(f"# workload {run['workload']}  seed {run['seed']}  trace {run['trace']}")
    print(f"# environment {json.dumps(run['environment'], sort_keys=True)}")
    for key, metric in run["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        wall = run["wall_metrics"] and run["wall_metrics"].get(key)
        unscaled = f"  wall {wall:.6g}" if key in SCALED + PER_SECOND and wall is not None else ""
        print(f"{key:<42} {shown:>14} {metric['unit']:<13} n={run['samples'][key]}{unscaled}")
    print(f"{'failed_frac':<42} {run['failed_frac']:>14.6g} {'ratio':<13} n={run['attempted']}")
    for problem in run["problems"]:
        print(f"# FAILED {problem['operation']} in {problem['pipeline']}: {problem['problems']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "efgen", "__init__.py")):
        print(f"error: no efgen sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    for run in runs:
        path = os.path.join(WORK, "results", f"{run['workload']}-seed{args.seed}-trace{args.trace}.json")
        _write_json(path, run)
        print_run(run)
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in runs for k, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
