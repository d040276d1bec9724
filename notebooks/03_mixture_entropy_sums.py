"""
Watching the ELBO become a sum of entropies
===========================================

For a Gaussian mixture trained by EM, the ELBO and the entropy-sum
expression

    (1/N) sum_n H[q_n]  -  H[prior]  -  sum_c qbar(c) H[p(x|c)]

start far apart and collide as the parameters approach a fixed point. At
convergence the two agree to within the stationarity tolerance, and nudging
the fitted parameters re-opens the gap immediately: the gap is a practical
stationarity detector.
"""

import numpy as np

from efgen import families as fam
from efgen import learning as lrn
from efgen import models as mdl
from efgen import objective as obj

truth = mdl.make_ef_mixture(
    fam.gaussian_scalar_var(1), [0.5, 0.5], np.array([[-4.0, 1.0], [4.0, 1.0]])
)
rng = np.random.default_rng(3)
_, data = mdl.sample_joint(truth, rng, 500)

fit = lrn.em_mixture(truth, data, lrn.TrainingConfig(max_iters=2000, seed=3))
print("converged:", fit.trace.converged, "|", fit.trace.stop_reason)
print(f"{'iter':>5s} {'elbo':>14s} {'entropy sum':>14s} {'rel gap':>10s} {'grad norm':>10s}")
records = fit.trace.records
for r in records[:8] + records[max(8, len(records) - 3) :]:  # first 8, last 3, no repeats
    print(f"{r.iteration:5d} {r.elbo:14.8f} {r.entropy_sum:14.8f} {r.gap:10.2e} {r.grad_norm:10.2e}")

# The model's evaluator gives every objective quantity at a q of our choice,
# here the exact posterior that training ended with.
ev = obj.evaluator(fit.model, data)
report = ev.report(fit.model, fit.q)
print("\nfinal elbo            :", report.elbo)
print("final entropy sum     :", report.entropy_sum)
print("absolute gap          :", report.gap)

# With exact posteriors, the ELBO equals the exact marginal log-likelihood.
print("marginal log-likelihood:", ev.marginal_loglik(fit.model))

# Perturb every parameter by 0.1: stationarity is lost, the gap reappears.
bumped = mdl.replace_params(
    fit.model, psi=fit.model.prior.params + 0.1, theta=fit.model.noise.params + 0.1
)
print("\ngap after +0.1 on every coordinate:", ev.report(bumped, fit.q).gap)
