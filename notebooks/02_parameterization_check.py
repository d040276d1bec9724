"""
The parameterization check that gates the entropy-sum identity
==============================================================

The ELBO-equals-entropy-sums identity needs the model's natural-parameter
maps to cooperate: zeta(psi) must lie in the column space of its own
Jacobian, and eta(z; theta) must be reproducible as J_eta(z; theta) @ beta
with ONE beta shared across every latent value z. check_criterion resolves
both conditions as least-squares residuals on parameter grids.

Most textbook models pass. A deliberately broken sigmoid belief net whose
two observable weights are tied as (v, v+1) cannot: no single coefficient
reproduces both v and v+1 from the one-column Jacobian (z, z).
"""

import numpy as np

from efgen import families as fam
from efgen import models as mdl

zoo = {
    "single-latent SBN (offsets pinned)": mdl.make_sbn(
        [0.5], np.array([[0.8], [-1.1]]), offsets_free=False
    ),
    "general SBN": mdl.make_sbn(
        [0.4, 0.7], np.array([[0.5, -1.0], [1.2, 0.3]]), [0.1, -0.4]
    ),
    "factor analysis, diagonal noise": mdl.make_simple_fa([0.6, -0.8], 1.0, [0.9, 1.8]),
    "linear Gaussian, isotropic noise": mdl.make_ppca(
        np.array([[0.9], [-0.3], [0.2]]), np.zeros(3), 0.7
    ),
    "gamma mixture": mdl.make_ef_mixture(
        fam.gamma_family(), [0.3, 0.3, 0.4], np.array([[2.0, 3.0], [5.0, 1.0], [0.8, 0.5]])
    ),
    "poisson mixture": mdl.make_ef_mixture(
        fam.poisson_product(2), [0.4, 0.6], np.array([[1.0, 6.0], [7.0, 0.5]])
    ),
}

print(f"{'model':40s} {'prior res':>10s} {'noise res':>10s}  verdict")
for name, model in zoo.items():
    report = mdl.check_criterion(model, seed=0)
    verdict = "pass" if report.passes else "FAIL"
    print(
        f"{name:40s} {report.prior_residual:10.2e} {report.noise_residual:10.2e}  {verdict}"
    )

rigid = mdl.make_rigid_sbn(pi=0.5, v=0.0)
report = mdl.check_criterion(rigid, seed=0)
print(
    f"{'tied-weight SBN (counterexample)':40s} "
    f"{report.prior_residual:10.2e} {report.noise_residual:10.2e}  "
    f"{'pass' if report.passes else 'FAIL'}"
)

# The failure is structural, not numerical: stack the Jacobian over both
# latent states and look at the best shared coefficient.
states = rigid.latent_support.states  # z = 0 and z = 1
jac = mdl.jacobian_eta(rigid, states)  # (states, naturals, parameters)
eta = rigid.noise.eta(states, rigid.noise.params)  # (states, naturals)
stacked, target = jac.reshape(-1, jac.shape[-1]), eta.ravel()
beta, *_ = np.linalg.lstsq(stacked, target, rcond=None)
print("\nat z=1: eta =", eta[1], " Jacobian columns =", jac[1].ravel())
print("best shared beta =", beta, " residual =", np.linalg.norm(stacked @ beta - target))
