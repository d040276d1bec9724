"""One benchmark process: set up, then run efgen CLI commands in sequence.

Usage: python3 perfbench/pipeline.py JOB.json

The job names the checkout root, the configs to parse during set-up, the
CLI argument lists to run, whether to trace, and where to write results.
Set-up ends once `import efgen` and config parsing are done; the result file
records that moment on the system-wide monotonic clock, so the parent can
measure set-up time from the moment it started this process. With no
commands the process only sets up, which is how set-up is sampled.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time

import numpy as np


def calibrate():
    """Seconds for a fixed piece of numpy work shaped like the program's,
    best of two: EM for a four-component Gaussian mixture on 2000 points
    in four dimensions, with a Python loop over the components.

    The work uses nothing from efgen, so a change to the program cannot move
    it. It runs in the process and on the CPU that runs the commands, next
    to them in time: on a shared host each vCPU's speed changes within
    seconds, independently of the other's. Its arrays are small (under
    0.5 MB), so that it does not set the process's peak resident memory.
    """
    x = np.random.default_rng(0).standard_normal((2000, 4)) + np.repeat(np.arange(4.0), 500)[:, None]
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        mean, var, weight = np.arange(4.0)[:, None] * np.ones(4), np.ones((4, 4)), np.full(4, 0.25)
        for _ in range(15):
            logp = np.log(weight) - 0.5 * ((x[:, None, :] - mean) ** 2 / var + np.log(2 * np.pi * var)).sum(-1)
            resp = np.exp(logp - logp.max(axis=1, keepdims=True))
            resp /= resp.sum(axis=1, keepdims=True)
            nk = resp.sum(axis=0)
            weight = nk / nk.sum()
            mean = (resp[:, :, None] * x[:, None, :]).sum(axis=0) / nk[:, None]
            var = np.stack([(resp[:, k, None] * (x - mean[k]) ** 2).sum(axis=0) / nk[k] for k in range(4)]) + 1e-6
        best = min(best, time.perf_counter() - t0)
    return best


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _blas_threads():
    """The loaded OpenBLAS library, its configuration and thread count."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_", ""):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if getter is None:
                    continue
                getter.restype = ctypes.c_int
                info = {"library": os.path.basename(path), "threads": getter()}
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                return info
    return {"library": "unknown", "threads": None}


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), **_blas_threads()},
        "EFGEN_NUM_THREADS": os.environ.get("EFGEN_NUM_THREADS", "unset"),
    }


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import efgen
    from efgen import cli, harness

    if not os.path.abspath(efgen.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"efgen imported from {efgen.__file__}, not from {src}", file=sys.stderr)
        return 3
    for config in job["configs"]:
        harness.load_config(config)
    result = {"ready": time.monotonic(), "commands": [], "cal_s": [calibrate()]}

    restore = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        restore = tracer.install()
    for label, argv in job["commands"]:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
        result["commands"].append({"label": label, "code": code, "seconds": seconds, "cpu_s": _cpu_s() - cpu0})
        result["cal_s"].append(calibrate())
        if code != 0:
            break
    result["pipeline_s"] = sum(c["seconds"] for c in result["commands"])
    result["cpu_s"] = sum(c["cpu_s"] for c in result["commands"])
    if restore is not None:
        restore()
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if job.get("environment"):
        result["environment"] = environment()
    if job["trace"]:
        tracer.write_spans(job["spans"])
        result["calls"] = tracer.calls
        result["self_s"] = tracer.self_s
        result["peak_bytes"] = tracer.peak_bytes
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
