"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Numeric tolerances are asserted exactly as stated; the expected-runtime notes
are printed as measured wall time but not asserted.
"""

import math
import time

import numpy as np
from scipy import stats

from efgen import families as fam
from efgen import learning as lrn
from efgen import models as mdl
from efgen import objective as obj

from helpers import (
    FAMILY_GRID,
    entropy_consistency_error,
    gradient_identity_error,
    normalization_error,
    pseudo_entropy_relation_error,
)


def _verdict(index, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index} {name}: {status} {detail}".rstrip())
    assert ok, f"acceptance criterion {index} ({name}) failed: {detail}"


def _gmm_truth(c, d, rng):
    """Well-separated ground truth with C components in D dimensions."""
    weights = np.full(c, 1.0 / c)
    if d == 1:
        means = np.linspace(-5.0 * (c - 1), 5.0 * (c - 1), c)[:, None]
        family = fam.gaussian_scalar_var(1)
        comp = np.hstack([means, np.ones((c, 1))])
    else:
        angles = np.linspace(0.0, 2.0 * math.pi, c, endpoint=False)
        means = 6.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        family = fam.gaussian_diag_cov(2)
        comp = np.hstack([means, np.full((c, 2), 1.0)])
    return mdl.make_ef_mixture(family, weights, comp)


def test_acceptance_1_mixture_gap_at_stationarity():
    t0 = time.perf_counter()
    shapes = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 1), (3, 1), (2, 2), (3, 2), (2, 1), (3, 2)]
    worst = 0.0
    for seed, (c, d) in enumerate(shapes):
        rng = np.random.default_rng(seed)
        truth = _gmm_truth(c, d, rng)
        _, data = mdl.sample_joint(truth, rng, 500)
        cfg = lrn.TrainingConfig(max_iters=3000, seed=seed, record_every=10_000)
        fit = lrn.em_mixture(truth, data, cfg)
        assert fit.trace.converged, f"seed {seed}: {fit.trace.stop_reason}"
        assert fit.trace.last().grad_norm < 1e-7
        report = obj.evaluator(fit.model, data).report(fit.model, fit.q)
        rel = report.gap / max(1.0, abs(report.elbo))
        worst = max(worst, rel)
        assert rel <= 1e-6, f"seed {seed}: relative gap {rel:.3e}"
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "mixture entropy-sum gap at EM fixed points",
        worst <= 1e-6,
        f"(worst relative gap {worst:.2e}, 10 runs in {elapsed:.1f}s)",
    )


def test_acceptance_2_sbn_gap_at_stationarity():
    t0 = time.perf_counter()
    truth = mdl.make_sbn([0.35], np.array([[2.5], [-1.8]]), np.array([0.4, -0.3]))
    _, data = mdl.sample_joint(truth, np.random.default_rng(21), 2000)
    cfg = lrn.TrainingConfig(max_iters=5000, seed=21, record_every=10_000)
    fit = lrn.fit_sbn(truth, data, cfg)
    assert fit.trace.converged, fit.trace.stop_reason
    assert fit.trace.last().grad_norm < 1e-7
    report = obj.evaluator(fit.model, data).report(fit.model, fit.q)
    rel = report.gap / max(1.0, abs(report.elbo))
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "sigmoid-belief-net entropy-sum gap",
        rel <= 1e-5,
        f"(relative gap {rel:.2e}, grad_norm {fit.trace.last().grad_norm:.2e}, {elapsed:.1f}s)",
    )


def test_acceptance_3_poisson_pseudo_gap_and_offset_identity():
    worst_gap = 0.0
    worst_offset = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        truth = mdl.make_ef_mixture(
            fam.poisson_product(2), [0.4, 0.6], np.array([[1.5, 7.0], [8.0, 0.8]])
        )
        _, data = mdl.sample_joint(truth, rng, 400)
        ev = obj.evaluator(truth, data)
        offset = ev.mean_log_h

        # Offset identity along the EM path, checked at every iterate.
        model = truth
        q = ev.posterior(model)
        for _ in range(25):
            model = lrn.mixture_m_step(model, data, q)
            q = ev.posterior(model)
            std, pse = ev.report(model, q), ev.report(model, q, pseudo=True)
            err = abs(pse.elbo - (std.elbo - offset))
            worst_offset = max(worst_offset, err)
            assert err <= 1e-10

        fit = lrn.em_mixture(
            truth, data, lrn.TrainingConfig(max_iters=3000, seed=seed, record_every=10_000)
        )
        assert fit.trace.converged, f"seed {seed}: {fit.trace.stop_reason}"
        pse = ev.report(fit.model, fit.q, pseudo=True)
        rel = pse.gap / max(1.0, abs(pse.elbo))
        worst_gap = max(worst_gap, rel)
        assert rel <= 1e-6, f"seed {seed}: pseudo gap {rel:.3e}"
    _verdict(
        3,
        "poisson-mixture pseudo gap and base-measure offset",
        worst_gap <= 1e-6 and worst_offset <= 1e-10,
        f"(worst pseudo gap {worst_gap:.2e}, worst offset error {worst_offset:.2e})",
    )


def test_acceptance_4_ppca_closed_form_likelihood():
    rng = np.random.default_rng(40)
    w_true = rng.normal(size=(5, 2))
    truth = mdl.make_ppca(w_true, np.zeros(5), 0.7)
    _, data = mdl.sample_joint(truth, rng, 5000)
    data = data - data.mean(axis=0)
    fit = lrn.fit_ppca(data, 2, lrn.TrainingConfig(seed=40))
    w, mu, s2, tau = mdl.ppca_components(fit.model)
    direct = float(
        np.mean(
            stats.multivariate_normal.logpdf(data, mean=mu, cov=tau * w @ w.T + s2 * np.eye(5))
        )
    )
    formula = -0.5 * np.linalg.slogdet(w.T @ w / s2 + np.eye(2))[1] - 2.5 * math.log(
        2.0 * math.pi * math.e * s2
    )
    err = abs(direct - formula)
    _verdict(
        4,
        "ppca closed-form likelihood at the eigen solution",
        err <= 1e-6,
        f"(|direct - formula| = {err:.2e})",
    )


def test_acceptance_5_criterion_discrimination():
    fixtures = {
        "single-latent two-observable sbn": mdl.make_sbn(
            [0.5], np.array([[0.8], [-1.1]]), offsets_free=False
        ),
        "unit-loading diag-noise fa": mdl.make_simple_fa([0.6, -0.8], 1.0, [0.9, 1.8]),
        "general sbn": mdl.make_sbn(
            [0.4, 0.7], np.array([[0.5, -1.0], [1.2, 0.3], [0.0, 2.0]]), [0.1, -0.4, 0.6]
        ),
        "isotropic-noise linear gaussian": mdl.make_ppca(
            np.array([[0.9], [-0.3], [0.2]]), np.zeros(3), 0.7
        ),
        "diag-noise fa instance": mdl.make_simple_fa([2.0, -1.0, 0.5], 0.8, [0.6, 1.7, 1.1]),
        "gamma mixture": mdl.make_ef_mixture(
            fam.gamma_family(), [0.3, 0.3, 0.4], np.array([[2.0, 3.0], [5.0, 1.0], [0.8, 0.5]])
        ),
    }
    worst_pass = 0.0
    for name, model in fixtures.items():
        report = mdl.check_criterion(model, seed=0)
        residual = max(report.prior_residual, report.noise_residual)
        worst_pass = max(worst_pass, residual)
        assert report.passes and residual < 1e-8, f"{name}: residual {residual:.3e}"
    rigid = mdl.check_criterion(mdl.make_rigid_sbn(0.5, 0.0), seed=0)
    # Deterministic given the seed: a second run reproduces the residuals.
    rigid_again = mdl.check_criterion(mdl.make_rigid_sbn(0.5, 0.0), seed=0)
    assert rigid.noise_residual == rigid_again.noise_residual
    _verdict(
        5,
        "criterion checker discrimination",
        (worst_pass < 1e-8) and (not rigid.passes) and rigid.noise_residual >= 1e-1,
        f"(worst passing residual {worst_pass:.2e}, tied-weight residual {rigid.noise_residual:.2f})",
    )


def test_acceptance_6_exponential_family_calculus():
    worst = {"gradient": 0.0, "normalization": 0.0, "entropy": 0.0, "pseudo": 0.0}
    for family, s in FAMILY_GRID:
        worst["gradient"] = max(worst["gradient"], gradient_identity_error(family, s))
        worst["normalization"] = max(worst["normalization"], normalization_error(family, s))
        worst["entropy"] = max(worst["entropy"], entropy_consistency_error(family, s))
        worst["pseudo"] = max(worst["pseudo"], pseudo_entropy_relation_error(family, s))
    ok = (
        worst["gradient"] <= 1e-6
        and worst["normalization"] <= 1e-8
        and worst["entropy"] <= 1e-7
        and worst["pseudo"] <= 1e-7
    )
    _verdict(
        6,
        "exponential-family calculus suite",
        ok,
        "(worst errors: grad {gradient:.1e}, norm {normalization:.1e}, "
        "entropy {entropy:.1e}, pseudo {pseudo:.1e})".format(**worst),
    )


def test_acceptance_7_exact_posterior_tightness():
    errors = {}
    gmm = _gmm_truth(3, 2, np.random.default_rng(70))
    _, data = mdl.sample_joint(gmm, np.random.default_rng(70), 300)
    ev = obj.evaluator(gmm, data)
    errors["mixture"] = abs(ev.elbo(gmm, ev.posterior(gmm)) - ev.marginal_loglik(gmm))

    ppca = mdl.make_ppca(np.random.default_rng(71).normal(size=(4, 2)), np.zeros(4), 0.5)
    _, data = mdl.sample_joint(ppca, np.random.default_rng(71), 500)
    ev = obj.evaluator(ppca, data)
    errors["ppca"] = abs(ev.elbo(ppca, ev.posterior(ppca)) - ev.marginal_loglik(ppca))

    rng = np.random.default_rng(72)
    sbn = mdl.make_sbn(
        rng.uniform(0.3, 0.7, size=10), rng.normal(size=(6, 10)) * 0.8, rng.normal(size=6) * 0.3
    )
    _, data = mdl.sample_joint(sbn, rng, 50)
    ev = obj.evaluator(sbn, data)
    errors["sbn_1024_states"] = abs(ev.elbo(sbn, ev.posterior(sbn)) - ev.marginal_loglik(sbn))
    worst = max(errors.values())
    _verdict(
        7,
        "exact-posterior tightness oracle",
        worst <= 1e-9,
        "(" + ", ".join(f"{k} {v:.1e}" for k, v in errors.items()) + ")",
    )


def test_acceptance_8_gap_detects_nonstationarity():
    rng = np.random.default_rng(80)
    truth = _gmm_truth(2, 1, rng)
    _, data = mdl.sample_joint(truth, rng, 500)
    fit = lrn.em_mixture(truth, data, lrn.TrainingConfig(max_iters=3000, seed=80))
    assert fit.trace.converged
    ev = obj.evaluator(fit.model, data)
    converged_report = ev.report(fit.model, fit.q)
    assert converged_report.gap <= 1e-6 * max(1.0, abs(converged_report.elbo))
    bumped = mdl.replace_params(
        fit.model,
        psi=fit.model.prior.params + 0.1,
        theta=fit.model.noise.params + 0.1,
    )
    report = ev.report(bumped, fit.q)
    _verdict(
        8,
        "perturbation yields a visible gap",
        report.gap > 1e-3,
        f"(gap after +0.1 on every coordinate: {report.gap:.3e})",
    )
