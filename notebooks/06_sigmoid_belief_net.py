"""
Sigmoid belief nets with enumerated posteriors
==============================================

Binary latents allow exact inference by enumerating all 2^H states, so both
the ELBO and its entropy-sum counterpart are computed without Monte Carlo
noise. Training alternates exact E-steps, a closed-form update of the latent
probabilities, and damped Newton ascent with an Armijo line search on
weights and offsets; the entropy-sum gap closes as the exact gradient
vanishes.
"""

import numpy as np

from efgen import learning as lrn
from efgen import models as mdl
from efgen import objective as obj

truth = mdl.make_sbn([0.35], np.array([[2.5], [-1.8]]), np.array([0.4, -0.3]))
rng = np.random.default_rng(21)
_, data = mdl.sample_joint(truth, rng, 2000)
print("observable frequencies in the sample:", data.mean(axis=0))

fit = lrn.fit_sbn(truth, data, lrn.TrainingConfig(max_iters=3000, seed=21, record_every=20))
print("converged:", fit.trace.converged, "|", fit.trace.stop_reason)
print(f"{'iter':>5s} {'elbo':>13s} {'rel gap':>10s} {'grad norm':>10s}")
for r in fit.trace.records[:6] + fit.trace.records[-2:]:
    print(f"{r.iteration:5d} {r.elbo:13.8f} {r.gap:10.2e} {r.grad_norm:10.2e}")

pi, w, mu = mdl.sbn_components(fit.model)
print("\nfitted latent probability:", pi, " weights:", w.ravel(), " offsets:", mu)

ev = obj.evaluator(fit.model, data)
report = ev.report(fit.model, fit.q)
print("\nelbo            :", report.elbo)
print("entropy sum     :", report.entropy_sum)
print("absolute gap    :", report.gap)
print("marginal loglik :", ev.marginal_loglik(fit.model))

# Enumeration scales to ~a thousand states; the ELBO stays exactly tight.
rng = np.random.default_rng(7)
wide = mdl.make_sbn(
    rng.uniform(0.3, 0.7, size=10), 0.8 * rng.normal(size=(6, 10)), 0.3 * rng.normal(size=6)
)
_, xs = mdl.sample_joint(wide, rng, 50)
ev = obj.evaluator(wide, xs)
print(
    "\nH=10 (1024 states): |elbo - loglik| =",
    abs(ev.elbo(wide, ev.posterior(wide)) - ev.marginal_loglik(wide)),
)
