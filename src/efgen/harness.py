"""Experiment harness: strict JSON configs, CSV datasets, reports.

Pipelines run as generate -> train -> verify, each emitting machine-readable
artifacts into a run directory. train calls the model kind's trainer as
trainer(model, data, config.training) and writes from the Fit it returns:

  dataset.csv    one observation per row, header x1..xD; floats carry 17
                 significant digits so values round-trip bit-exactly,
                 integer-valued families are written unquoted as integers
  manifest.json  seed, RNG identifier, ground-truth model echo
  model.json     trained model, loadable by verify
  trace.csv      per-iteration elbo / entropy_sum / gap / grad_norm / time
  summary.json   run id plus final-record digest, consumed by `report`
  report.json    config echo (every training setting, init included),
                 criterion residuals, objective reports, and one verdict
                 per check with the numbers it derives from

report.json and verify_report.json also record, as "blas", the OpenBLAS
library the command ran with and its thread count then (both null when no
OpenBLAS is found); the CLI runs every command on one thread.

Configs are versioned and parsed strictly. One block reader serves every
config block and every model file, each from a table that declares each key's
JSON type: unknown keys, missing keys and values of another type are rejected
with a field path in the message. A mixture's family is built from its name
and data_dim. Configs hold no verify settings: verify's tolerances are the
fixed GRAD_NORM_THRESHOLD and GAP_RTOL here and the criterion's constants in
models. One reader reads every JSON file a user names (config, model file,
summary): a file that is missing, not UTF-8, not JSON or nested too deeply
is a user error naming it, as is a dataset file that is missing, unreadable
or not UTF-8, an output directory that cannot be made and an output file
that cannot be written. Exit codes:
0 success (including valid-but-unconverged runs), 1 internal failure, 2 user
or config error.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import __version__, blas
from . import families as fam
from . import models as mdl
from . import objective as obj
from .errors import (
    ConfigError,
    DegenerateDataError,
    DomainError,
    EmptyClusterError,
    NewtonConvergenceError,
    SupportError,
    UnsupportedModelError,
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

# Most values (rows times data_dim) a synthetic dataset may hold: 10^8
# float64 values are 0.8 GB, checked before anything is allocated.
MAX_SYNTHETIC_VALUES = 10**8
# write_dataset formats this many rows at a time, with one str.format call on
# a template repeated once per row: no call per cell, and no copy of the
# whole dataset, as int64 or as Python numbers.
_WRITE_BLOCK_ROWS = 256
# Bytes per block when read_dataset scans a file for a "-".
_SCAN_BYTES = 2**16


# ---------------------------------------------------------------------------
# Strict config parsing.


def _finite(value) -> bool:
    """A finite JSON number: no boolean, NaN, infinity, or integer past the
    float range."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


# Field types: the JSON type each field is read as.
#   ("integer", least)        an integer of at least `least`
#   ("choice", noun, names)   one of the strings `names`, each a `noun`
#   "positive"                a positive finite number
#   "string", "boolean"       a string; true or false
#   0, 1 or 2                 finite numbers nested that deep, read as floats
#   "list or null"            numbers nested 1 deep, or null
#   "object"                  a JSON object, read later as a block of its own
#   "family"                  a mixture's component_family, read with the
#                             block's data_dim into a FamilyDescriptor
_COMPONENT_FAMILIES = tuple(name for name in fam.DIMENSIONS if name != "categorical")


def _read_field(block: dict, key: str, type_, path: str):
    """block[key] read as type_; a ConfigError names path.key."""
    value, where = block[key], f"{path}.{key}"
    if isinstance(type_, int):
        cells = np.array(value, dtype=object)
        if cells.ndim == type_ and all(_finite(v) for v in cells.flat):
            return float(cells) if type_ == 0 else cells.astype(float)
        if type_ == 0:
            raise ConfigError(f"{where}: must be a finite number, got {value!r}")
        raise ConfigError(f"{where}: must be a list of {'lists of ' * (type_ - 1)}finite numbers")
    if type_ == "list or null":
        return None if value is None else _read_field(block, key, 1, path)
    if type_ == "family":
        name = _read_field(block, key, ("choice", "family", _COMPONENT_FAMILIES), path)
        data_dim = _read_field(block, "data_dim", ("integer", 1), path)
        try:
            return fam.FamilyDescriptor(name, data_dim)
        except ValueError as exc:
            raise ConfigError(f"{path}.data_dim: {exc}") from None
    if isinstance(type_, tuple) and type_[0] == "integer":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: must be an integer, got {value!r}")
        if value < type_[1]:
            raise ConfigError(f"{where}: must be at least {type_[1]}, got {value}")
    elif isinstance(type_, tuple):
        if value not in type_[2]:
            raise ConfigError(f"{where}: unknown {type_[1]} {value!r}")
    elif type_ == "positive":
        if not (_finite(value) and value > 0):
            raise ConfigError(f"{where}: must be a positive finite number, got {value!r}")
    elif type_ == "object":
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: must be a JSON object")
    elif type_ == "string":
        if not isinstance(value, str):
            raise ConfigError(f"{where}: must be a string, got {value!r}")
    elif not isinstance(value, bool):
        raise ConfigError(f"{where}: must be true or false, got {value!r}")
    return value


def _read_block(block, path: str, fields: dict, required=()) -> dict:
    """block, a JSON object with only the keys of fields and every required
    one, read as {key: value} in the order of fields."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    unknown = set(block) - set(fields)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(block)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")
    return {key: _read_field(block, key, t, path) for key, t in fields.items() if key in block}


_CONFIG_FIELDS = {
    "schema_version": ("integer", 1),
    "run_id": "string",
    "model": "object",
    "data": "object",
    "training": "object",
    "output": "object",
}
_DATA_FIELDS = {
    "source": ("choice", "source", ("synthetic", "file")),
    "seed": ("integer", 0),
    "n": ("integer", 0),
    "path": "string",
}
_TRAINING_FIELDS = {
    "max_iters": ("integer", 1),
    "grad_norm_tol": "positive",
    "seed": ("integer", 0),
    "record_every": ("integer", 1),
    "init": ("choice", "init", ("auto", "model")),
}
_OUTPUT_FIELDS = {"dir": "string"}


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
    output_dir: str


# Each model kind's JSON fields in reading order, with their field types.
# Every field but data_dim, which the "family" type reads, is a keyword
# argument of the kind's models.CONSTRUCTORS entry, and may be left out where
# that has a default.
_MODEL_FIELDS = {
    "ef_mixture": {
        "component_family": "family",
        "data_dim": ("integer", 1),
        "weights": 1,
        "component_params": 2,
    },
    "ppca": {"w": 2, "mu": 1, "sigma2": 0, "tau": 0},
    "simple_fa": {"w": 1, "tau": 0, "sigma2s": 1},
    "sbn": {"offsets_free": "boolean", "pi": 1, "w": 2, "mu": "list or null"},
    "rigid_sbn": {"pi": 0, "v": 0},
}
_MODEL_KIND = ("choice", "model kind", tuple(_MODEL_FIELDS))


def model_to_dict(model: mdl.GenerativeModel) -> dict:
    """The model file's JSON: models.constructor_args, with the family split
    into component_family and data_dim."""
    try:
        args = mdl.constructor_args(model)
    except UnsupportedModelError:
        raise ConfigError(f"model kind {model.model_kind!r} is not serializable") from None
    spec = {"kind": model.model_kind}
    for key, value in args.items():
        if isinstance(value, fam.FamilyDescriptor):
            spec.update(component_family=value.name, data_dim=value.data_dim)
        else:
            spec[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return spec


def model_from_dict(spec: dict, path: str = "model") -> mdl.GenerativeModel:
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    if "kind" not in spec:
        raise ConfigError(f"{path}: missing keys ['kind']")
    kind = _read_field(spec, "kind", _MODEL_KIND, path)
    fields, constructor = _MODEL_FIELDS[kind], mdl.CONSTRUCTORS[kind]
    params = inspect.signature(constructor).parameters
    required = [k for k in fields if k not in params or params[k].default is params[k].empty]
    args = _read_block(spec, path, {"kind": _MODEL_KIND, **fields}, required)
    try:
        return constructor(**{key: args[key] for key in params if key in args})
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@contextmanager
def _reading(path: str, what: str):
    """Reads of the file at path, a `what` file: a file that is missing,
    unreadable or not UTF-8 is a ConfigError naming path."""
    try:
        yield
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read the {what} file: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None


@contextmanager
def _at_model_values(where: str):
    """Arithmetic at a model's parameters, with numpy's overflow, divide and
    invalid flags raised: a value past float64's range, a covariance
    singular in float64 or a natural parameter off its domain there is a
    ConfigError naming where, the field or file that held the model."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (ArithmeticError, DomainError, np.linalg.LinAlgError) as exc:
        raise ConfigError(
            f"{where}: the model's values overflow float64 or leave its domain: {exc}"
        ) from exc


def _read_json(path: str, what: str):
    """The JSON value in the file at path, a `what` file. A file that is
    missing, unreadable, not UTF-8, not JSON or nested past the recursion
    limit is a ConfigError naming path."""
    try:
        with _reading(path, what), open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None


def load_config(path: str, seed_override: Optional[int] = None) -> ExperimentConfig:
    return parse_config(_read_json(path, "config"), seed_override=seed_override)


def parse_config(raw: dict, seed_override: Optional[int] = None) -> ExperimentConfig:
    required = ["schema_version", "run_id", "model", "data"]
    top = _read_block(raw, "config", _CONFIG_FIELDS, required)
    if top["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {top['schema_version']!r}"
        )
    model_spec = top["model"]
    data_dim = model_from_dict(model_spec, "config.model").noise.family.data_dim

    data = DataSource(**_read_block(top["data"], "config.data", _DATA_FIELDS, ["source"]))
    if data.source == "synthetic":
        if data.seed is None or data.n is None:
            raise ConfigError("config.data: synthetic source requires 'seed' and 'n'")
        if data.path is not None:
            raise ConfigError("config.data: exactly one data source; drop 'path'")
        if data.n * data_dim > MAX_SYNTHETIC_VALUES:
            raise ConfigError(
                f"config.data.n: at most {MAX_SYNTHETIC_VALUES // data_dim} rows of "
                f"{data_dim} values each, got {data.n}"
            )
    else:
        if data.path is None:
            raise ConfigError("config.data: file source requires 'path'")
        if data.seed is not None or data.n is not None:
            raise ConfigError("config.data: exactly one data source; drop 'seed'/'n'")

    training = _read_block(top.get("training", {}), "config.training", _TRAINING_FIELDS)
    training = TrainingConfig(**training)
    output = _read_block(top.get("output", {}), "config.output", _OUTPUT_FIELDS)

    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError(f"--seed: must be at least 0, got {seed_override}")
        if data.source == "synthetic":
            data = replace(data, seed=seed_override)
        training = replace(training, seed=seed_override)

    return ExperimentConfig(
        run_id=top["run_id"],
        model_spec=model_spec,
        data=data,
        training=training,
        output_dir=output.get("dir", "."),
    )


# ---------------------------------------------------------------------------
# Dataset I/O.


def _create(path: str):
    """The file at path opened for writing as UTF-8 text. A path that cannot
    be written, such as a directory, is a ConfigError naming it."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write the file: {exc.strerror}") from None


def make_output_dir(path: str) -> str:
    """path, made a directory if it is none yet. A path that cannot be one,
    such as an existing file, is a ConfigError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot make the output directory: {exc.strerror}") from None
    return path


def write_dataset(path: str, data: np.ndarray, family: fam.FamilyDescriptor):
    integer = family.integer_valued
    d = family.data_dim
    row = ",".join(["{}" if integer else "{:.17g}"] * d) + "\n"
    with _create(path) as fh:
        fh.write(",".join(f"x{i + 1}" for i in range(d)) + "\n")
        data = np.asarray(data).reshape(len(data), d)
        for start in range(0, len(data), _WRITE_BLOCK_ROWS):
            block = data[start : start + _WRITE_BLOCK_ROWS]
            if integer:
                block = block.astype(np.int64)
            fh.write((row * len(block)).format(*block.ravel().tolist()))


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


def _loadtxt(path: str, dtype):
    """np.loadtxt's (N, D) dtype array of the rows after the header, or None
    where it refuses them."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file
            # Older numpy releases parse "1.5" as the int64 1 with this warning.
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(
                path, dtype=dtype, delimiter=",", skiprows=1, ndmin=2, comments=None,
                encoding="utf-8",
            )
    except (ValueError, DeprecationWarning):
        return None


def read_dataset(path: str) -> np.ndarray:
    """The (N, D) float array of the dataset CSV at path: a header x1,...,xD,
    then one row of D numbers a line, blank lines skipped.

    Integer files, what generate writes for the integer-valued families, are
    parsed as int64 and converted to float, which is faster than parsing
    floats and gives the same bits: int64 -> float and decimal -> float round
    alike, also past 2**53. Any field that is no int64 (a real value, or an
    integer past 2**63 - 1) sends the file to the float parse, so a file
    whose only real value sits in its last row is parsed twice. A file that
    holds a "-" byte goes to the float parse at once, because the int64
    pass reads "-0" as +0.0 where the float parse gives -0.0; no integer
    family's support holds a negative value. Whatever the float parse
    refuses or reads as non-finite is re-read by rows, by _parse_rows, for
    the error message.
    """
    with _reading(path, "dataset"):
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
        if not header.startswith("x1"):
            raise ConfigError(f"{path}: malformed dataset header {header!r}")
        d = len(header.split(","))
        with open(path, "rb") as fh:  # in blocks, so the file is never held whole
            signed = any(b"-" in block for block in iter(lambda: fh.read(_SCAN_BYTES), b""))
        out = None if signed else _loadtxt(path, np.int64)
        out = _loadtxt(path, float) if out is None else out.astype(float)
        if out is None or (out.size and out.shape[1] != d) or not np.all(np.isfinite(out)):
            # Whatever loadtxt refuses or reads as non-finite is re-read by
            # rows, for the error message.
            out = _parse_rows(path, d)
    if out.size == 0:
        out = np.empty((0, d))
    return out


def write_trace(path: str, trace: TrainingTrace):
    row = "{0.iteration},{0.elbo:.17g},{0.entropy_sum:.17g},{0.gap:.17g},{0.grad_norm:.17g},"
    row += "{0.wall_time:.6f}\n"
    with _create(path) as fh:
        fh.write("iteration,elbo,entropy_sum,gap,grad_norm,wall_time\n")
        fh.write("".join(row.format(r) for r in trace.records))


def _write_json(path: str, payload: dict):
    with _create(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run_json(path: str, config: ExperimentConfig, payload: dict):
    """payload as JSON, stamped with the run id and the tool and schema versions."""
    stamp = {"run_id": config.run_id, "tool_version": __version__, "schema_version": SCHEMA_VERSION}
    _write_json(path, {**stamp, **payload})


# ---------------------------------------------------------------------------
# Commands. Each returns the artifacts it wrote.


def _load_data(config: ExperimentConfig, model: mdl.GenerativeModel) -> np.ndarray:
    if config.data.source == "file":
        return read_dataset(config.data.path)
    rng = np.random.default_rng(config.data.seed)
    try:
        _, xs = mdl.sample_joint(model, rng, config.data.n)
    except DomainError as exc:  # a model the sampler cannot draw from
        raise ConfigError(f"config.model: {exc}") from exc
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
    out = make_output_dir(out_dir or config.output_dir)
    data = _load_data(config, model)
    dataset_path = os.path.join(out, "dataset.csv")
    manifest_path = os.path.join(out, "manifest.json")
    write_dataset(dataset_path, data, model.noise.family)
    _write_run_json(
        manifest_path,
        config,
        {
            "seed": config.data.seed,
            "rng": "numpy-pcg64",
            "n": int(len(data)),
            "data_dim": model.noise.family.data_dim,
            "observation_family": model.noise.family.name,
            "ground_truth_model": model_to_dict(model),
        },
    )
    return {"dataset": dataset_path, "manifest": manifest_path}


def _train_dispatch(config: ExperimentConfig, model: mdl.GenerativeModel, data):
    """The Fit of the model kind's trainer. Its data errors, out-of-support
    cells included, are user errors naming the dataset's config field, or
    config.model.w when a PPCA has as many latents as observed dimensions.
    PPCA refuses training.init "model": it starts from its closed form."""
    # Looked up on each call: the benchmark's tracer (perfbench/tracer.py)
    # replaces this module's em_mixture and fit_sbn with wrapped ones.
    trainers = {"ef_mixture": em_mixture, "ppca": fit_ppca, "sbn": fit_sbn}
    kind = model.model_kind
    if kind not in trainers:
        raise ConfigError(f"training is not supported for model kind {kind!r}")
    if kind == "ppca" and config.training.init == "model":
        raise ConfigError("config.training.init: ppca starts from its closed form")
    try:
        with _at_model_values("config.model"):
            return trainers[kind](model, data, config.training)
    except (DegenerateDataError, EmptyClusterError, NewtonConvergenceError, SupportError) as exc:
        too_many_latents = kind == "ppca" and model.latent_support.dim >= data.shape[1]
        where = "config.model.w" if too_many_latents else _data_field(config)
        raise ConfigError(f"{where}: {exc}") from exc


def cmd_train(config: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Train to convergence or the iteration cap; emit report, trace, summary."""
    model = model_from_dict(config.model_spec)
    data = _load_nonempty_data(config, model)
    # The reports come from the evaluator that trained, as q is in its form.
    fit = _train_dispatch(config, model, data)
    fitted, trace, ev = fit.model, fit.trace, fit.evaluator

    out = make_output_dir(out_dir or config.output_dir)
    standard, pseudo = ev.report(fitted, fit.q), ev.report(fitted, fit.q, pseudo=True)
    last = trace.last()
    report = {
        "blas": blas.info(),
        "config": {
            "model": config.model_spec,
            "data": asdict(config.data),
            "training": asdict(config.training),
        },
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "n_iterations": last.iteration,
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
    _write_run_json(paths["report"], config, report)
    write_trace(paths["trace"], trace)
    _write_run_json(
        paths["summary"],
        config,
        {
            "converged": trace.converged,
            "stop_reason": trace.stop_reason,
            "n_iterations": last.iteration,
            "final_elbo": last.elbo,
            "final_entropy_sum": last.entropy_sum,
            "final_gap": last.gap,
            "final_grad_norm": last.grad_norm,
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
    model = model_from_dict(_read_json(model_path, "trained model"), path=model_path)
    # Synthetic data must come from the config's generating model, not the
    # trained one, so verification sees the same dataset training did.
    data = _load_nonempty_data(config, model_from_dict(config.model_spec))
    _check_columns(data, model, model_path)

    try:
        ev = obj.evaluator(model, data)
    except (DegenerateDataError, SupportError) as exc:
        raise ConfigError(f"{_data_field(config)}: {exc}") from exc
    with _at_model_values(model_path):
        criterion = mdl.check_criterion(model)
        q = ev.posterior(model)  # both reports and the gradient read one record
        standard, pseudo = ev.report(model, q), ev.report(model, q, pseudo=True)
        grad = ev.grad_norm(model, q)
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

    out = make_output_dir(out_dir or config.output_dir)
    path = os.path.join(out, "verify_report.json")
    _write_run_json(
        path,
        config,
        {
            "blas": blas.info(),
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


# The summary fields in the report's columns after run_id, each headed by its
# name without "final_".
_SUMMARY_COLUMNS = (
    "converged",
    "n_iterations",
    "final_elbo",
    "final_entropy_sum",
    "final_gap",
    "final_grad_norm",
)


def cmd_report(summary_paths, out_path: Optional[str] = None) -> str:
    """Aggregate run summaries into one CSV table (one row per run), quoted
    by the csv module where a cell needs it."""
    import csv
    import io

    if not summary_paths:
        raise ConfigError("report requires at least one summary file")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["run_id", *(key.removeprefix("final_") for key in _SUMMARY_COLUMNS)])
    seen = set()
    for path in summary_paths:
        summary = _read_json(path, "summary")
        if not isinstance(summary, dict):
            raise ConfigError(f"{path}: must be a JSON object")
        if "run_id" not in summary:
            raise ConfigError(f"{path}: summary lacks a run_id")
        run_id = summary["run_id"]
        if not isinstance(run_id, str):
            raise ConfigError(f"{path}: run_id must be a string, got {run_id!r}")
        if run_id in seen:
            raise ConfigError(f"duplicate run id {run_id!r} in {path}")
        seen.add(run_id)

        def cell(key):
            v = summary.get(key)
            if v is None:
                return "NA"
            return format(v, ".17g") if isinstance(v, float) else str(v)

        writer.writerow([run_id, *map(cell, _SUMMARY_COLUMNS)])
    table = buffer.getvalue()[:-1]  # the last row's line end
    if out_path:
        with _create(out_path) as fh:
            fh.write(table + "\n")
        return out_path
    return table
