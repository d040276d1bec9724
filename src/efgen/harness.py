"""Experiment harness: strict JSON configs, CSV datasets, reports.

Pipelines run as generate -> train -> verify, each emitting machine-readable
artifacts into a run directory:

  dataset.csv    one observation per row, header x1..xD; floats carry 17
                 significant digits so values round-trip bit-exactly,
                 integer-valued families are written unquoted as integers
  manifest.json  seed, RNG identifier, ground-truth model echo
  model.json     trained model, loadable by verify
  trace.csv      per-iteration elbo / entropy_sum / gap / grad_norm / time
  summary.json   run id plus final-record digest, consumed by `report`
  report.json    config echo, criterion residuals, objective reports, and
                 one verdict per check with the numbers it derives from

Configs are versioned and parsed strictly: unknown keys anywhere are
rejected with a field path in the message. They hold no verify settings:
verify's tolerances are the fixed GRAD_NORM_THRESHOLD and GAP_RTOL here and
the criterion's constants in models. Exit codes: 0 success (including
valid-but-unconverged runs), 1 internal failure, 2 user or config error.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import __version__
from . import families as fam
from . import models as mdl
from . import objective as obj
from .errors import (
    ConfigError,
    DegenerateDataError,
    EmptyClusterError,
    NewtonConvergenceError,
    SupportError,
)
from .learning import (
    TrainingConfig,
    TrainingTrace,
    em_mixture,
    fit_ppca,
    fit_sbn,
    # The benchmark's tracer (perfbench/tracer.py) still wraps this binding.
    grad_norm_all_params,  # noqa: F401
)

SCHEMA_VERSION = 1

# verify's fixed tolerances. "Stationary" means what it means to training:
# an exact gradient norm below training's default tolerance. A gap passes
# when |elbo - entropy sum| <= GAP_RTOL * max(1, |elbo|).
GRAD_NORM_THRESHOLD = TrainingConfig.grad_norm_tol
GAP_RTOL = 1e-6

_FAMILY_FACTORIES = {
    "bernoulli_product": fam.bernoulli_product,
    "gaussian_scalar_var": fam.gaussian_scalar_var,
    "gaussian_diag_cov": fam.gaussian_diag_cov,
    "gamma": lambda d: fam.gamma_family(),
    "poisson_product": fam.poisson_product,
}

_INTEGER_FAMILIES = ("poisson_product", "bernoulli_product")
# Most values (rows times data_dim) a synthetic dataset may hold: 10^8
# float64 values are 0.8 GB, checked before anything is allocated.
MAX_SYNTHETIC_VALUES = 10**8
_WRITE_BLOCK_ROWS = 256


# ---------------------------------------------------------------------------
# Strict config parsing.


def _require_keys(block: dict, required, optional, path: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    unknown = set(block) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(block)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


# Numeric config fields: integers with their least allowed value, and
# tolerances, which must be positive finite numbers.
_INTEGER_FIELDS = {
    "schema_version": 1,
    "n": 0,
    "seed": 0,
    "max_iters": 1,
    "record_every": 1,
    "data_dim": 1,
}
_POSITIVE_FIELDS = ("grad_norm_tol",)


def _finite(value) -> bool:
    """A finite JSON number: no boolean, NaN, infinity, or integer past the
    float range."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _check_numbers(block: dict, path: str):
    for key, value in block.items():
        where = f"{path}.{key}"
        if key in _INTEGER_FIELDS:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{where}: must be an integer, got {value!r}")
            if value < _INTEGER_FIELDS[key]:
                raise ConfigError(f"{where}: must be at least {_INTEGER_FIELDS[key]}, got {value}")
        elif key in _POSITIVE_FIELDS:
            if not (_finite(value) and value > 0):
                raise ConfigError(f"{where}: must be a positive finite number, got {value!r}")


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: must be a string, got {value!r}")
    return value


def _numbers(spec: dict, key: str, path: str, ndim: int = 0):
    """spec[key] as a float (ndim 0) or an ndim-dimensional float array.

    Every entry must be _finite, so no string, boolean or null gets through
    float() or np.asarray.
    """
    value = spec[key]
    cells = np.array(value, dtype=object)
    if cells.ndim != ndim or not all(_finite(v) for v in cells.flat):
        if ndim == 0:
            raise ConfigError(f"{path}.{key}: must be a finite number, got {value!r}")
        nested = "a list of " + "lists of " * (ndim - 1)
        raise ConfigError(f"{path}.{key}: must be {nested}finite numbers")
    return float(cells) if ndim == 0 else cells.astype(float)


@dataclass(frozen=True)
class DataSource:
    source: str  # synthetic | file
    seed: Optional[int] = None
    n: Optional[int] = None
    path: Optional[str] = None


@dataclass(frozen=True)
class ExperimentConfig:
    run_id: str
    model_spec: dict
    data: DataSource
    training: TrainingConfig
    training_init: str
    output_dir: str


def model_to_dict(model: mdl.GenerativeModel) -> dict:
    kind = model.model_kind
    if kind == "ef_mixture":
        info = model.info
        return {
            "kind": kind,
            "component_family": info.component_family.name,
            "data_dim": info.component_family.data_dim,
            "weights": mdl.mixture_weights(model).tolist(),
            "component_params": mdl.mixture_component_params(model).tolist(),
        }
    if kind == "ppca":
        w, mu, sigma2, tau = mdl.ppca_components(model)
        return {"kind": kind, "w": w.tolist(), "mu": mu.tolist(), "sigma2": sigma2, "tau": tau}
    if kind == "simple_fa":
        wv, s2s, tau = mdl.fa_components(model)
        return {"kind": kind, "w": wv.tolist(), "tau": tau, "sigma2s": s2s.tolist()}
    if kind == "sbn":
        pi, w, mu = mdl.sbn_components(model)
        return {
            "kind": kind,
            "pi": pi.tolist(),
            "w": w.tolist(),
            "mu": mu.tolist(),
            "offsets_free": model.info.offsets_free,
        }
    if kind == "rigid_sbn":
        pi, v = mdl.rigid_sbn_components(model)
        return {"kind": kind, "pi": pi, "v": v}
    raise ConfigError(f"model kind {kind!r} is not serializable")


def model_from_dict(spec: dict, path: str = "model") -> mdl.GenerativeModel:
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    if "kind" not in spec:
        raise ConfigError(f"{path}: missing keys ['kind']")
    kind = spec["kind"]
    try:
        if kind == "ef_mixture":
            _require_keys(
                spec,
                ["kind", "component_family", "data_dim", "weights", "component_params"],
                [],
                path,
            )
            family_name = _string(spec["component_family"], f"{path}.component_family")
            if family_name not in _FAMILY_FACTORIES:
                raise ConfigError(f"{path}.component_family: unknown family {family_name!r}")
            _check_numbers(spec, path)
            if family_name == "gamma" and spec["data_dim"] != 1:
                raise ConfigError(f"{path}.data_dim: gamma components are scalar")
            family = _FAMILY_FACTORIES[family_name](spec["data_dim"])
            return mdl.make_ef_mixture(
                family,
                _numbers(spec, "weights", path, 1),
                _numbers(spec, "component_params", path, 2),
            )
        if kind == "ppca":
            _require_keys(spec, ["kind", "w", "mu", "sigma2"], ["tau"], path)
            return mdl.make_ppca(
                _numbers(spec, "w", path, 2),
                _numbers(spec, "mu", path, 1),
                _numbers(spec, "sigma2", path),
                tau=_numbers(spec, "tau", path) if "tau" in spec else 1.0,
            )
        if kind == "simple_fa":
            _require_keys(spec, ["kind", "w", "tau", "sigma2s"], [], path)
            return mdl.make_simple_fa(
                _numbers(spec, "w", path, 1),
                _numbers(spec, "tau", path),
                _numbers(spec, "sigma2s", path, 1),
            )
        if kind == "sbn":
            _require_keys(spec, ["kind", "pi", "w"], ["mu", "offsets_free"], path)
            offsets_free = spec.get("offsets_free", True)
            if not isinstance(offsets_free, bool):
                raise ConfigError(
                    f"{path}.offsets_free: must be true or false, got {offsets_free!r}"
                )
            return mdl.make_sbn(
                _numbers(spec, "pi", path, 1),
                _numbers(spec, "w", path, 2),
                None if spec.get("mu") is None else _numbers(spec, "mu", path, 1),
                offsets_free=offsets_free,
            )
        if kind == "rigid_sbn":
            _require_keys(spec, ["kind", "pi", "v"], [], path)
            return mdl.make_rigid_sbn(_numbers(spec, "pi", path), _numbers(spec, "v", path))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: unknown model kind {kind!r}")


def load_config(path: str, seed_override: Optional[int] = None) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse_config(raw, seed_override=seed_override)


def parse_config(raw: dict, seed_override: Optional[int] = None) -> ExperimentConfig:
    _require_keys(
        raw,
        ["schema_version", "run_id", "model", "data"],
        ["training", "output"],
        "config",
    )
    _check_numbers(raw, "config")
    if raw["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {raw['schema_version']!r}"
        )
    model_spec = raw["model"]
    data_dim = model_from_dict(model_spec, "config.model").noise.family.data_dim

    data_block = raw["data"]
    _require_keys(data_block, ["source"], ["seed", "n", "path"], "config.data")
    _check_numbers(data_block, "config.data")
    source = data_block["source"]
    if source == "synthetic":
        if "seed" not in data_block or "n" not in data_block:
            raise ConfigError("config.data: synthetic source requires 'seed' and 'n'")
        if "path" in data_block:
            raise ConfigError("config.data: exactly one data source; drop 'path'")
        n = data_block["n"]
        if n * data_dim > MAX_SYNTHETIC_VALUES:
            raise ConfigError(
                f"config.data.n: at most {MAX_SYNTHETIC_VALUES // data_dim} rows of "
                f"{data_dim} values each, got {n}"
            )
        data = DataSource("synthetic", seed=data_block["seed"], n=n)
    elif source == "file":
        if "path" not in data_block:
            raise ConfigError("config.data: file source requires 'path'")
        if "seed" in data_block or "n" in data_block:
            raise ConfigError("config.data: exactly one data source; drop 'seed'/'n'")
        data = DataSource("file", path=_string(data_block["path"], "config.data.path"))
    else:
        raise ConfigError(f"config.data.source: unknown source {source!r}")

    training_block = raw.get("training", {})
    _require_keys(
        training_block,
        [],
        ["max_iters", "grad_norm_tol", "seed", "record_every", "init"],
        "config.training",
    )
    _check_numbers(training_block, "config.training")
    training_block = dict(training_block)
    init = training_block.pop("init", "auto")
    if init not in ("auto", "model"):
        raise ConfigError("config.training.init: must be 'auto' or 'model'")
    try:
        training = TrainingConfig(**training_block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.training: {exc}") from exc

    out_block = raw.get("output", {})
    _require_keys(out_block, [], ["dir"], "config.output")
    output_dir = _string(out_block.get("dir", "."), "config.output.dir")

    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError(f"--seed: must be at least 0, got {seed_override}")
        if data.source == "synthetic":
            data = replace(data, seed=seed_override)
        training = replace(training, seed=seed_override)

    return ExperimentConfig(
        run_id=_string(raw["run_id"], "config.run_id"),
        model_spec=model_spec,
        data=data,
        training=training,
        training_init=init,
        output_dir=output_dir,
    )


# ---------------------------------------------------------------------------
# Dataset I/O.


def write_dataset(path: str, data: np.ndarray, family: fam.FamilyDescriptor):
    integer = family.name in _INTEGER_FAMILIES
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(family.data_dim)) + "\n")
        if not len(data):
            return
        data = np.atleast_2d(data)
        # Small blocks of rows as Python numbers: no per-cell numpy scalars,
        # and no copy of the whole dataset as Python objects.
        for start in range(0, len(data), _WRITE_BLOCK_ROWS):
            block = data[start : start + _WRITE_BLOCK_ROWS]
            if integer:
                rows = block.astype(np.int64).tolist()
                fh.write("".join(",".join(map(str, row)) + "\n" for row in rows))
            else:
                rows = block.tolist()
                fh.write(
                    "".join(",".join([format(v, ".17g") for v in row]) + "\n" for row in rows)
                )


def _parse_rows(path: str, d: int) -> np.ndarray:
    """Line-by-line parse that names the first malformed row.

    Rows are numbered as file lines with the header as 1; blank lines are
    skipped but counted.
    """
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        rows = [(row, line.strip()) for row, line in enumerate(fh, start=2) if line.strip()]
    out = np.empty((len(rows), d))
    for i, (row, line) in enumerate(rows):
        parts = line.split(",")
        if len(parts) != d:
            raise ConfigError(f"{path}: row {row} has {len(parts)} fields, expected {d}")
        try:
            out[i] = [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"{path}: row {row} has a non-numeric field: {line!r}") from None
        if not np.all(np.isfinite(out[i])):
            raise ConfigError(f"{path}: row {row} has a non-finite value")
    return out


def read_dataset(path: str) -> np.ndarray:
    if not os.path.exists(path):
        raise ConfigError(f"dataset file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    if not header.startswith("x1"):
        raise ConfigError(f"{path}: malformed dataset header {header!r}")
    d = len(header.split(","))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file
            out = np.loadtxt(
                path, delimiter=",", skiprows=1, ndmin=2, comments=None, encoding="utf-8"
            )
    except ValueError:
        out = None
    if out is None or (out.size and out.shape[1] != d) or not np.all(np.isfinite(out)):
        # Whatever loadtxt refuses or reads as non-finite is re-read by rows,
        # for the error message.
        out = _parse_rows(path, d)
    if out.size == 0:
        out = np.empty((0, d))
    return out


def _trace_rows(trace: TrainingTrace):
    for r in trace.records:
        yield (
            str(r.iteration),
            format(r.elbo, ".17g"),
            format(r.entropy_sum, ".17g"),
            format(r.gap, ".17g"),
            format(r.grad_norm, ".17g"),
            format(r.wall_time, ".6f"),
        )


def write_trace(path: str, trace: TrainingTrace):
    lines = ["iteration,elbo,entropy_sum,gap,grad_norm,wall_time"]
    lines.extend(",".join(row) for row in _trace_rows(trace))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands. Each returns the artifacts it wrote.


def _resolve_out(config: ExperimentConfig, out_dir: Optional[str]) -> str:
    out = out_dir or config.output_dir
    os.makedirs(out, exist_ok=True)
    return out


def _load_data(config: ExperimentConfig, model: mdl.GenerativeModel) -> np.ndarray:
    if config.data.source == "file":
        return read_dataset(config.data.path)
    rng = np.random.default_rng(config.data.seed)
    _, xs = mdl.sample_joint(model, rng, config.data.n)
    return np.asarray(xs, dtype=float)


def _check_columns(data: np.ndarray, model: mdl.GenerativeModel, where: str):
    d = model.noise.family.data_dim
    if data.shape[1] != d:
        raise ConfigError(
            f"{where}: the dataset has {data.shape[1]} columns, the model observes {d}"
        )


def _data_field(config: ExperimentConfig) -> str:
    """The config field that chose the dataset, for error messages."""
    return "config.data.n" if config.data.source == "synthetic" else "config.data.path"


def _load_nonempty_data(config: ExperimentConfig, model: mdl.GenerativeModel) -> np.ndarray:
    """The dataset train and verify work on: at least one row, and one column
    per observed coordinate of the model."""
    data = _load_data(config, model)
    if len(data) == 0:
        raise ConfigError(
            f"{_data_field(config)}: the dataset is empty; train and verify need at least one row"
        )
    # Only a file dataset can disagree with the model that would generate it.
    _check_columns(data, model, "config.data.path")
    return data


def cmd_generate(config: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Sample a synthetic dataset and write it with its manifest sidecar."""
    if config.data.source != "synthetic":
        raise ConfigError("generate requires a synthetic data source")
    model = model_from_dict(config.model_spec)
    out = _resolve_out(config, out_dir)
    data = _load_data(config, model)
    dataset_path = os.path.join(out, "dataset.csv")
    manifest_path = os.path.join(out, "manifest.json")
    write_dataset(dataset_path, data, model.noise.family)
    _write_json(
        manifest_path,
        {
            "run_id": config.run_id,
            "seed": config.data.seed,
            "rng": "numpy-pcg64",
            "n": int(len(data)),
            "data_dim": model.noise.family.data_dim,
            "observation_family": model.noise.family.name,
            "ground_truth_model": model_to_dict(model),
            "tool_version": __version__,
            "schema_version": SCHEMA_VERSION,
        },
    )
    return {"dataset": dataset_path, "manifest": manifest_path}


def _train_dispatch(config: ExperimentConfig, model: mdl.GenerativeModel, data):
    """Train by model kind. A trainer's data errors, out-of-support cells
    included, are user errors: they name the dataset's config field, or
    config.model.w when a PPCA has as many latents as observed dimensions.
    PPCA refuses training.init "model": it starts from its closed form."""
    kind = model.model_kind
    try:
        if kind == "ef_mixture":
            fit = em_mixture(model, data, config.training, init=config.training_init)
            return fit.model, fit.q, fit.trace
        if kind == "ppca":
            if config.training_init == "model":
                raise ConfigError("config.training.init: ppca starts from its closed form")
            fit = fit_ppca(data, model.info.latent_dim, config.training)
            return fit.em_model, fit.em_q, fit.trace
        if kind == "sbn":
            fit = fit_sbn(model, data, config.training, init=config.training_init)
            return fit.model, fit.q, fit.trace
    except (DegenerateDataError, EmptyClusterError, NewtonConvergenceError, SupportError) as exc:
        info = model.info
        too_many_latents = kind == "ppca" and info.latent_dim >= info.data_dim
        where = "config.model.w" if too_many_latents else _data_field(config)
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"training is not supported for model kind {kind!r}")


def cmd_train(config: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Train to convergence or the iteration cap; emit report, trace, summary."""
    model = model_from_dict(config.model_spec)
    data = _load_nonempty_data(config, model)
    fitted, q, trace = _train_dispatch(config, model, data)

    out = _resolve_out(config, out_dir)
    ev = obj.evaluator(fitted, data)
    standard, pseudo = ev.report(fitted, q), ev.report(fitted, q, pseudo=True)
    last = trace.last() if trace.records else None
    report = {
        "run_id": config.run_id,
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "config": {
            "model": config.model_spec,
            "data": asdict(config.data),
            "training": asdict(config.training),
        },
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "n_iterations": last.iteration if last else 0,
        "objective_standard": asdict(standard),
        "objective_pseudo": asdict(pseudo),
        "trained_model": model_to_dict(fitted),
        "verdicts": {
            "converged": {
                "status": "pass" if trace.converged else "not-applicable",
                "reason": trace.stop_reason,
            }
        },
    }
    paths = {
        "report": os.path.join(out, "report.json"),
        "trace": os.path.join(out, "trace.csv"),
        "summary": os.path.join(out, "summary.json"),
        "model": os.path.join(out, "model.json"),
    }
    _write_json(paths["report"], report)
    write_trace(paths["trace"], trace)
    _write_json(
        paths["summary"],
        {
            "run_id": config.run_id,
            "converged": trace.converged,
            "stop_reason": trace.stop_reason,
            "n_iterations": last.iteration if last else 0,
            "final_elbo": last.elbo if last else None,
            "final_entropy_sum": last.entropy_sum if last else None,
            "final_gap": last.gap if last else None,
            "final_grad_norm": last.grad_norm if last else None,
            "tool_version": __version__,
            "schema_version": SCHEMA_VERSION,
        },
    )
    _write_json(paths["model"], model_to_dict(fitted))
    return paths


def cmd_verify(
    config: ExperimentConfig, model_path: str, out_dir: Optional[str] = None
) -> dict:
    """Check the criterion and the entropy-sum gaps of a trained model.

    The checks take no settings: the criterion uses its fixed threshold and
    grid (models.CRITERION_THRESHOLD, CRITERION_GRID_POINTS) at seed 0, and a
    gap passes within GAP_RTOL * max(1, |elbo|). The gap verdicts are
    asserted only when the criterion passes and the stationarity premise
    holds (grad_norm below GRAD_NORM_THRESHOLD, which each verdict records);
    otherwise they are skipped or failed with the reason recorded.
    """
    if not os.path.exists(model_path):
        raise ConfigError(f"trained model file not found: {model_path}")
    with open(model_path, encoding="utf-8") as fh:
        model = model_from_dict(json.load(fh), path=model_path)
    # Synthetic data must come from the config's generating model, not the
    # trained one, so verification sees the same dataset training did.
    data = _load_nonempty_data(config, model_from_dict(config.model_spec))
    _check_columns(data, model, model_path)

    criterion = mdl.check_criterion(model)
    try:
        ev = obj.evaluator(model, data)
    except SupportError as exc:
        raise ConfigError(f"{_data_field(config)}: {exc}") from exc
    table = ev.posterior(model)
    standard, pseudo = ev.report(model, table), ev.report(model, table, pseudo=True)
    grad = ev.grad_norm(model, table)
    premise = grad < GRAD_NORM_THRESHOLD

    verdicts = {
        "criterion": {
            "status": "pass" if criterion.passes else "fail",
            "prior_residual": criterion.prior_residual,
            "noise_residual": criterion.noise_residual,
            "threshold": criterion.threshold,
        }
    }
    for name, report in (("gap_standard", standard), ("gap_pseudo", pseudo)):
        bound = GAP_RTOL * max(1.0, abs(report.elbo))
        if not criterion.passes:
            verdicts[name] = {"status": "skipped", "reason": "criterion not satisfied"}
            continue
        if name == "gap_standard" and model.noise.family.base_measure_kind != "unit_constant":
            # Plain entropy sums match the ELBO only under a constant
            # observation base measure; the pseudo verdict covers this model.
            verdicts[name] = {
                "status": "skipped",
                "reason": "observation base measure not constant; see gap_pseudo",
            }
            continue
        within = report.gap <= bound
        numbers = {"gap": report.gap, "bound": bound, "grad_norm_threshold": GRAD_NORM_THRESHOLD}
        unmet = f"stationarity premise not met (grad_norm={grad:.3e})"
        if premise:
            verdict = {"status": "pass" if within else "fail", "grad_norm": grad}
        elif within:
            verdict = {"status": "skipped", "reason": unmet}
        else:
            verdict = {"status": "fail", "annotation": unmet}
        verdicts[name] = {**verdict, **numbers}

    out = _resolve_out(config, out_dir)
    path = os.path.join(out, "verify_report.json")
    _write_json(
        path,
        {
            "run_id": config.run_id,
            "tool_version": __version__,
            "schema_version": SCHEMA_VERSION,
            "config": {"data": asdict(config.data)},
            "model": model_to_dict(model),
            "criterion": asdict(criterion),
            "objective_standard": asdict(standard),
            "objective_pseudo": asdict(pseudo),
            "grad_norm": grad,
            "verdicts": verdicts,
        },
    )
    return {"report": path, "verdicts": verdicts}


def cmd_report(summary_paths, out_path: Optional[str] = None) -> str:
    """Aggregate run summaries into one CSV table (one row per run)."""
    if not summary_paths:
        raise ConfigError("report requires at least one summary file")
    rows = []
    seen = set()
    for path in summary_paths:
        if not os.path.exists(path):
            raise ConfigError(f"summary file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            try:
                summary = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc.msg}") from exc
        if not isinstance(summary, dict):
            raise ConfigError(f"{path}: must be a JSON object")
        if "run_id" not in summary:
            raise ConfigError(f"{path}: summary lacks a run_id")
        run_id = summary["run_id"]
        if run_id in seen:
            raise ConfigError(f"duplicate run id {run_id!r} in {path}")
        seen.add(run_id)

        def cell(key):
            v = summary.get(key)
            if v is None:
                return "NA"
            return format(v, ".17g") if isinstance(v, float) else str(v)

        rows.append(
            ",".join(
                [
                    str(run_id),
                    cell("converged"),
                    cell("n_iterations"),
                    cell("final_elbo"),
                    cell("final_entropy_sum"),
                    cell("final_gap"),
                    cell("final_grad_norm"),
                ]
            )
        )
    table = "\n".join(
        ["run_id,converged,n_iterations,elbo,entropy_sum,gap,grad_norm"] + rows
    )
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        return out_path
    return table
