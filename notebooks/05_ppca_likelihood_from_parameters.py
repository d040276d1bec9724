"""
Probabilistic PCA: the likelihood from parameters alone
=======================================================

At stationary points of probabilistic PCA the marginal log-likelihood can be
computed without touching the data:

    L  =  -1/2 log det( W'W / sigma^2 + I )  -  D/2 log(2 pi e sigma^2).

ppca_closed_form returns the eigendecomposition solution, and fit_ppca an
EM-refined fit started from a perturbation of it; the two agree in
likelihood (the parameters themselves are only identified up to rotation).
"""

import numpy as np

from efgen import learning as lrn
from efgen import models as mdl
from efgen import objective as obj

rng = np.random.default_rng(5)
truth = mdl.make_ppca(rng.normal(size=(5, 2)), np.zeros(5), sigma2=0.7)
_, data = mdl.sample_joint(truth, rng, 5000)
data = data - data.mean(axis=0)

model = lrn.ppca_closed_form(data, 2)
args = mdl.constructor_args(model)
w, sigma2 = args["w"], args["sigma2"]
print("recovered noise variance:", sigma2, " (truth 0.7)")

ev = obj.evaluator(model, data)
direct = ev.marginal_loglik(model)
formula = -0.5 * np.linalg.slogdet(w.T @ w / sigma2 + np.eye(2))[1] - 2.5 * np.log(
    2 * np.pi * np.e * sigma2
)
print("\nlog-likelihood from the data   :", direct)
print("log-likelihood from parameters :", formula)
print("difference                     :", abs(direct - formula))

# Exact posteriors make the ELBO tight, so the entropy-sum value matches too.
report = ev.report(model, ev.posterior(model))
print("\nelbo with exact posteriors     :", report.elbo)
print("entropy sum                    :", report.entropy_sum)
print("gap                            :", report.gap)

print("\nEM-refined vs eigen solution (likelihoods):")
print("  eigen:", direct)
fit = lrn.fit_ppca(truth, data, lrn.TrainingConfig(seed=5, max_iters=2000))
print("  EM   :", ev.marginal_loglik(fit.model))
