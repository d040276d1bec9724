"""Workload definitions, config generation from a seed, and output checks.

Every workload runs `efgen generate -> train -> verify` on configs built
here. The workload seed picks the data and training seeds; the ground-truth
models, sizes and training blocks are fixed, so any seed exercises the same
code paths. See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

DEFAULT_SEED = 0

# Verify's ELBO must match train's: both evaluate the exact ELBO of the same
# trained model at its exact posterior, so only summation order differs.
ELBO_RTOL = 1e-9

# Temporary workaround for a program defect; remove it once the defect is
# fixed, so that the default training block is measured. Training's default
# grad_norm_tol and verify's default grad_norm_threshold are both 1e-7, and
# the two compute the finite-difference gradient by different code paths
# (the training loop's cached objective versus grad_norm_all_params). A model
# trained with the defaults can therefore fail verify's stationarity premise:
# on mixture-gradcheck seed 16, pipeline 0, training stopped at 9.9957e-08
# and verify read 1.00002e-07, so both gap verdicts came out "skipped"
# (about 1 mixture pipeline in 130). The converging workloads train ten
# times below the threshold instead.
TRAIN_GRAD_TOL = 1e-8

# Expected verdict kinds: "pass", "skipped", or "premise" for a gap verdict
# that is not "pass" and names the unmet stationarity premise as its reason.
PREMISE = "premise"


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict
    n: int
    training: dict
    from_file: bool  # train and verify read generate's dataset.csv
    converges: bool  # False: training must stop at its iteration cap
    verdicts: dict
    tiny_n: int
    tiny_training: dict = field(default_factory=dict)

    def training_block(self, tiny: bool) -> dict:
        return {**self.training, **self.tiny_training} if tiny else dict(self.training)


_SBN_W = [
    [1.7, -1.5, 0.5, -2.0, -3.1, 1.1, -1.0, 0.2],
    [1.7, -1.6, -1.4, 1.1, -0.4, -0.9, -0.5, -1.0],
    [1.4, 1.0, 1.2, 0.7, 1.8, -2.0, -0.4, 0.8],
    [1.7, 0.9, 0.1, -0.5, 0.7, -2.2, 2.5, -1.1],
    [-1.1, 0.2, 1.3, 2.0, 2.2, -1.5, 2.6, 1.2],
    [-1.5, -0.3, -0.8, 0.9, 2.2, 2.2, 1.9, -2.3],
    [1.4, 0.4, 0.9, -2.3, 0.5, -0.5, -0.7, 1.2],
    [1.7, -1.0, 0.4, -0.3, -0.3, 0.4, -1.2, 4.0],
    [-0.5, 1.0, 0.2, 2.6, -0.6, 0.5, -2.4, 0.3],
    [-0.5, -0.7, -2.2, -1.0, -0.4, -0.2, 1.3, 0.4],
    [0.2, -3.2, 2.2, 0.8, -0.8, 1.9, 2.9, -1.5],
    [0.0, -0.6, -1.3, -3.6, 1.8, 0.2, 0.8, -2.2],
]
_SBN_MU = [-0.6, -0.4, -0.6, 0.6, 0.1, -0.5, 0.0, -0.1, -0.4, 0.2, -0.3, 0.0]

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="mixture-gradcheck",
            model={
                "kind": "ef_mixture",
                "component_family": "gaussian_diag_cov",
                "data_dim": 4,
                "weights": [0.25, 0.25, 0.25, 0.25],
                # Means 4 standard deviations apart along two axes.
                "component_params": [
                    [-2.0, -2.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
                    [2.0, -2.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
                    [-2.0, 2.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
                    [2.0, 2.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0],
                ],
            },
            n=2000,
            # Training starts at the generating parameters; k-means++ starts
            # made the iteration count vary threefold from seed to seed.
            training={"max_iters": 2000, "init": "model", "grad_norm_tol": TRAIN_GRAD_TOL},
            from_file=False,
            converges=True,
            verdicts={"criterion": "pass", "gap_standard": "pass", "gap_pseudo": "pass"},
            tiny_n=300,
        ),
        Workload(
            name="sbn-enumerate",
            model={
                "kind": "sbn",
                "pi": [0.3, 0.5, 0.7, 0.4, 0.6, 0.35, 0.55, 0.45],
                "w": _SBN_W,
                "mu": _SBN_MU,
                "offsets_free": True,
            },
            n=1000,
            training={"max_iters": 30, "record_every": 1000},
            from_file=False,
            converges=False,
            verdicts={"criterion": "pass", "gap_standard": PREMISE, "gap_pseudo": PREMISE},
            tiny_n=200,
            tiny_training={"max_iters": 2},
        ),
        Workload(
            name="poisson-bulk",
            model={
                "kind": "ef_mixture",
                "component_family": "poisson_product",
                "data_dim": 3,
                "weights": [0.3, 0.3, 0.4],
                # Overlapping rates, all at most 30.
                "component_params": [[4.0, 9.0, 20.0], [7.0, 6.0, 26.0], [10.0, 12.0, 16.0]],
            },
            n=50_000,
            training={"max_iters": 2000, "record_every": 100_000, "grad_norm_tol": TRAIN_GRAD_TOL},
            from_file=True,
            converges=True,
            verdicts={"criterion": "pass", "gap_standard": "skipped", "gap_pseudo": "pass"},
            tiny_n=3000,
        ),
    ]
}

# Final ELBO and iteration count of pipeline 0 at DEFAULT_SEED, full size.
REFERENCES = {
    "mixture-gradcheck": {"n_iterations": 56, "elbo": -6.914542228491327},
    "sbn-enumerate": {"n_iterations": 30, "elbo": -6.197479893560439},
    "poisson-bulk": {"n_iterations": 154, "elbo": -8.460084507917445},
}


def derive_seed(workload: str, seed: int, index: int, role: str) -> int:
    """A 32-bit seed for one role ("data" or "training") of one pipeline."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}/{role}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def pipeline_configs(w: Workload, seed: int, index: int, out_dir: str, tiny: bool = False):
    """The generate config and the train/verify config of one pipeline."""
    base = {
        "schema_version": 1,
        "run_id": f"{w.name}-seed{seed}-{index}",
        "model": w.model,
        "training": {
            **w.training_block(tiny),
            "seed": derive_seed(w.name, seed, index, "training"),
        },
        "output": {"dir": out_dir},
    }
    data = {
        "source": "synthetic",
        "seed": derive_seed(w.name, seed, index, "data"),
        "n": w.tiny_n if tiny else w.n,
    }
    generate = {**base, "data": data}
    if w.from_file:
        return generate, {**base, "data": {"source": "file", "path": os.path.join(out_dir, "dataset.csv")}}
    return generate, generate


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of problems; empty means correct.


def check_generate(w: Workload, n: int, manifest, dataset_rows) -> list:
    if manifest is None:
        return ["manifest.json missing"]
    problems = []
    if manifest.get("n") != n or dataset_rows != n:
        problems.append(f"expected {n} rows, manifest says {manifest.get('n')}, file has {dataset_rows}")
    if manifest.get("data_dim") != w.model.get("data_dim", len(w.model.get("w", []))):
        problems.append(f"unexpected data_dim {manifest.get('data_dim')}")
    return problems


def check_train(w: Workload, report, max_iters: int, reference=None) -> list:
    if report is None:
        return ["report.json missing"]
    problems = []
    elbo = report["objective_standard"]["elbo"]
    if not math.isfinite(elbo):
        problems.append(f"non-finite ELBO {elbo}")
    if w.converges and report["converged"] is not True:
        problems.append(f"did not converge: {report['stop_reason']}")
    if not w.converges and (
        report["converged"] is not False
        or report["n_iterations"] != max_iters
        or not report["stop_reason"].startswith("iteration cap")
    ):
        problems.append(
            f"expected to stop at the cap {max_iters}, got {report['n_iterations']} "
            f"iterations ({report['stop_reason']})"
        )
    if reference is not None:
        if report["n_iterations"] != reference["n_iterations"]:
            problems.append(
                f"n_iterations {report['n_iterations']} != reference {reference['n_iterations']}"
            )
        if not math.isclose(elbo, reference["elbo"], rel_tol=ELBO_RTOL, abs_tol=ELBO_RTOL):
            problems.append(f"ELBO {elbo!r} != reference {reference['elbo']!r}")
    return problems


def check_verify(w: Workload, train_report, verify_report) -> list:
    if verify_report is None:
        return ["verify_report.json missing"]
    problems = []
    verdicts = verify_report["verdicts"]
    for name, expected in w.verdicts.items():
        got = verdicts.get(name, {})
        status = got.get("status")
        if expected == PREMISE:
            why = got.get("reason", got.get("annotation", ""))
            if status == "pass" or "stationarity premise not met" not in why:
                problems.append(f"{name}: expected an unmet-premise verdict, got {got}")
        elif status != expected:
            problems.append(f"{name}: expected {expected}, got {status}")
    if train_report is not None:
        a = train_report["objective_standard"]["elbo"]
        b = verify_report["objective_standard"]["elbo"]
        if not math.isclose(a, b, rel_tol=ELBO_RTOL, abs_tol=ELBO_RTOL):
            problems.append(f"verify ELBO {b!r} != train ELBO {a!r}")
    return problems
