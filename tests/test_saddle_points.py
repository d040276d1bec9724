"""The paper's "at any stationary point (including saddle points)": exact
stationary points that are not maxima, built in closed form from data.

- PPCA at a non-leading set K of sample-covariance eigenvectors (Tipping and
  Bishop 1999, section 3.2): W = U_K (Lambda_K - sigma2 I)^(1/2), with sigma2
  the mean of the other eigenvalues, each lambda_k in K above sigma2.
- A mixture whose components all sit at the data's global moments, with any
  weights: the collapsed fixed point of EM.
- A sigmoid belief net with W = 0 and offsets logit(mean x), with any latent
  probabilities: q is the prior, and every gradient block vanishes.

Each point's exact gradient is at roundoff, its entropy-sum gap within the
verify bound, and the criterion passes. Training never reaches these points,
so no other test evaluates the identity at one.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from efgen import families as fam
from efgen import harness as hns
from efgen import models as mdl
from efgen import objective as obj

GRAD_ROUNDOFF = 1e-12


def assert_stationary_with_closed_gap(model, data):
    """The exact-posterior point of model on data: gradient at roundoff, gap
    within harness.GAP_RTOL, criterion passing. Returns its ELBO."""
    ev = obj.evaluator(model, data)
    q = ev.posterior(model)
    assert ev.grad_norm(model, q) <= GRAD_ROUNDOFF
    report = ev.report(model, q)
    assert report.gap <= hns.GAP_RTOL * max(1.0, abs(report.elbo)), report
    assert mdl.check_criterion(model).passes
    return report.elbo


def three_direction_data(seed, n=500, d=10):
    """(n, d) points with three strong directions (variances about 9, 6.3
    and 4) over isotropic noise of variance 0.09."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(d, 3)))[0]
    return (rng.normal(size=(n, 3)) * [3.0, 2.5, 2.0]) @ basis.T + 0.3 * rng.normal(size=(n, d))


def ppca_at_eigenvectors(data, keep):
    """The PPCA stationary point at the covariance eigenvectors keep, counted
    from the largest eigenvalue."""
    mean = data.mean(axis=0)
    centered = data - mean
    evals, evecs = np.linalg.eigh(centered.T @ centered / len(data))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    sigma2 = float(np.delete(evals, keep).mean())
    assert np.all(evals[keep] > sigma2)
    return mdl.make_ppca(evecs[:, keep] * np.sqrt(evals[keep] - sigma2), mean, sigma2)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ppca_at_non_leading_eigenvectors(seed):
    data = three_direction_data(seed)
    maximum = assert_stationary_with_closed_gap(ppca_at_eigenvectors(data, [0, 1]), data)
    for keep in ([0, 2], [1, 2]):
        saddle = assert_stationary_with_closed_gap(ppca_at_eigenvectors(data, keep), data)
        assert saddle < maximum


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), weight=st.floats(0.05, 0.95))
def test_collapsed_gaussian_mixture(seed, weight):
    rng = np.random.default_rng(seed)
    data = np.concatenate([rng.normal(-2.0, 1.0, 150), rng.normal(3.0, 0.5, 100)])[:, None]
    row = [data.mean(), data.var()]
    model = mdl.make_ef_mixture(fam.gaussian_scalar_var(1), [weight, 1.0 - weight], [row, row])
    assert_stationary_with_closed_gap(model, data)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sbn_with_zero_weights(seed):
    rng = np.random.default_rng(seed)
    data = (rng.uniform(size=(200, 6)) < rng.uniform(0.2, 0.8, size=6)).astype(float)
    mean = data.mean(axis=0)
    pi = rng.uniform(0.1, 0.9, size=3)
    model = mdl.make_sbn(pi, np.zeros((6, 3)), np.log(mean) - np.log1p(-mean))
    assert_stationary_with_closed_gap(model, data)


def test_verify_passes_a_ppca_saddle_model_file(tmp_path):
    data = three_direction_data(0)
    saddle = ppca_at_eigenvectors(data, [0, 2])
    data_path, model_path = tmp_path / "data.csv", tmp_path / "saddle.json"
    header = ",".join(f"x{i + 1}" for i in range(data.shape[1]))
    data_path.write_text("\n".join([header, *(",".join(map(repr, row)) for row in data.tolist())]))
    model_path.write_text(json.dumps(hns.model_to_dict(saddle)))
    config = hns.parse_config(
        {
            "schema_version": 1,
            "run_id": "ppca-saddle",
            "model": hns.model_to_dict(saddle),
            "data": {"source": "file", "path": str(data_path)},
            "output": {"dir": str(tmp_path)},
        }
    )
    verdicts = hns.cmd_verify(config, str(model_path))["verdicts"]
    assert {name: verdicts[name]["status"] for name in verdicts} == {
        "criterion": "pass",
        "gap_standard": "pass",
        "gap_pseudo": "pass",
    }
