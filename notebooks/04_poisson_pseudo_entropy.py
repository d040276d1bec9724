"""
Poisson mixtures: when the pseudo quantities earn their keep
============================================================

The Poisson entropy is an infinite series, so the entropy-sum expression for
a Poisson mixture is not closed-form. Reweighting the observation measure by
the base measure h(x) = prod 1/x_d! fixes this: the pseudo ELBO differs from
the ELBO by the constant (1/N) sum_n log h(x_n), and the pseudo entropy of a
Poisson is simply sum_d lambda_d (1 - log lambda_d).

At EM fixed points the pseudo ELBO equals the pseudo entropy sum, giving a
closed-form value for an objective that would otherwise need truncation.
"""

import numpy as np

from efgen import families as fam
from efgen import learning as lrn
from efgen import models as mdl
from efgen import objective as obj

truth = mdl.make_ef_mixture(
    fam.poisson_product(2), [0.4, 0.6], np.array([[1.5, 7.0], [8.0, 0.8]])
)
rng = np.random.default_rng(11)
_, data = mdl.sample_joint(truth, rng, 400)

# The two objectives differ by the data's mean log base measure -- at every
# parameter setting, not only at convergence.
ev = obj.evaluator(truth, data)
q0 = ev.posterior(truth)
std, pse = ev.report(truth, q0), ev.report(truth, q0, pseudo=True)
offset = ev.mean_log_h
print("elbo                      :", std.elbo)
print("pseudo elbo               :", pse.elbo)
print("difference                :", pse.elbo - std.elbo)
print("-(1/N) sum log h(x)       :", -offset)

fit = lrn.em_mixture(truth, data, lrn.TrainingConfig(max_iters=2000, seed=11))
print("\nconverged:", fit.trace.converged)

final_std = ev.report(fit.model, fit.q)
final_pse = ev.report(fit.model, fit.q, pseudo=True)
print("standard gap at fixed point:", final_std.gap, " (entropy sum needs truncation)")
print("pseudo   gap at fixed point:", final_pse.gap, " (all terms closed-form)")

# Reconstruct the closed-form right-hand side by hand. fit.q's table has one
# row per distinct count vector; inverse repeats them to one row per data point.
args = mdl.constructor_args(fit.model)
weights, rates = args["weights"], args["component_params"]
q = fit.q.table[fit.evaluator.inverse]
qbar = q.mean(axis=0)
avg_h_q = float(np.mean(-np.sum(q * np.log(q + 1e-300), axis=1)))
prior_h = -float(np.sum(weights * np.log(weights)))
noise_term = float(sum(qb * np.sum(lam * (1 - np.log(lam))) for qb, lam in zip(qbar, rates)))
print("\nclosed-form pseudo entropy sum:", avg_h_q - prior_h - noise_term)
print("pseudo elbo                   :", final_pse.elbo)
