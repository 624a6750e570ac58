"""How sample batches track the trust radius.

The Chebyshev batch rule spends more samples as the radius shrinks, so the
estimation error stays proportional to the radius with fixed probability.
This demo prints the rule across radii and then measures the empirical
failure frequency of the gradient accuracy event. ``p_g`` bounds that
frequency (90% at the default 0.9) for a sampler whose per-sample variance
is at most ``c_g``. Here the variance is 0.04 against c_g = 5, so Chebyshev
bounds the frequency by 0.9 * 0.04 / 5 = 0.72%, and the observed rate sits
far below the nominal 90%.
"""

import numpy as np

import trsqp
from trsqp import estimator
from trsqp.rng import RngStream

config = trsqp.SolverConfig(alpha=1)
print(f"{'radius':>8} {'value batch':>12} {'gradient batch':>15} {'hessian batch':>14}")
for delta in (5.0, 2.0, 1.0, 0.5, 0.2, 0.1, 0.05):
    n_f = estimator.batch_size(estimator.VALUE, delta, 1.0, config)
    n_g = estimator.batch_size(estimator.GRADIENT, delta, 1.0, config)
    n_h = estimator.batch_size(estimator.HESSIAN, delta, 1.0, config)
    print(f"{delta:>8.2f} {n_f:>12} {n_g:>15} {n_h:>14}")
print("(batches clamp at 10000)\n")

problem = trsqp.gaussian_noisy(trsqp.make_quadratic(), trsqp.GaussianNoiseSpec(1e-2))
x = np.array([0.8, -0.3])
g_true = problem.exact("gradient", x)
delta = 1.0
trials, failures = 500, 0
for t in range(trials):
    g_bar, n = estimator.estimate_gradient(
        problem, x, delta, config, RngStream(t).child("demo")
    )
    failures += np.linalg.norm(g_bar - g_true) > config.kappa_g * delta**2
print(
    f"gradient accuracy event at radius {delta}: "
    f"{failures}/{trials} failures observed, nominal bound {config.p_g:.0%}"
)
