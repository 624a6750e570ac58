"""Escaping a saddle point with eigen steps and second-order corrections.

The problem

    min 2 x1 + 0.5 x2^2   subject to   x1^2 + x2^2 = 1

has a local minimum at (-1, 0) and a saddle at (1, 0) whose reduced
Lagrangian Hessian has curvature -1. Started right next to the saddle with
noisy oracles, the first-order mode sees a (near-)zero KKT residual while
the second-order mode detects the negative curvature, takes an eigen step,
repairs the constraint-curvature damage with a second-order correction,
and walks around the circle to the minimum.
"""

import numpy as np

import trsqp

NOISE = 1e-2
x0 = np.array([1.0, 0.001])

base = trsqp.make_saddle()
problem = trsqp.gaussian_noisy(base, trsqp.GaussianNoiseSpec(NOISE))

print(f"start {x0}, noise variance {NOISE:g}")
kkt0, tau0 = trsqp.true_kkt(base, x0)
print(f"at the start: KKT residual {kkt0:.2e}, negative curvature {tau0:.3f}\n")

config = trsqp.SolverConfig(alpha=1, kkt_tol=1e-4, max_iters=2000, seed=0)
result = trsqp.run(problem, x0, config)

eigen_steps = sum(r.step_kind == "eigen" for r in result.records)
soc_steps = sum(r.soc for r in result.records)
print(f"second-order mode: {result.stop_reason} after {result.state.k} iterations")
print(f"  eigen steps taken: {eigen_steps}, second-order corrections: {soc_steps}")
print(f"  final iterate {result.state.x} (minimum is at [-1, 0])")
print(f"  final max(KKT, curvature) = {max(result.final_kkt, result.final_tau):.2e}\n")

# The first-order mode has no curvature signal. Started a hair off the
# saddle it can only crawl along the circle at a pace bounded by the
# distance already covered, and it can never certify second-order
# stationarity. Started exactly on the saddle, where the KKT residual is 0,
# its exact first-order stop test certifies the saddle before the first
# iteration, although the curvature -1 remains.
config0 = trsqp.SolverConfig(
    alpha=0, hessian="identity", kkt_tol=1e-4, max_iters=result.state.k, seed=0
)
result0 = trsqp.run(problem, x0, config0)
kkt_end, tau_end = trsqp.true_kkt(base, result0.state.x)
print(f"first-order mode after the same {result0.state.k} iterations: x = {result0.state.x}")
print(f"  true KKT {kkt_end:.2e}, remaining negative curvature {tau_end:.3f}")
exact = trsqp.run(problem, np.array([1.0, 0.0]), config0)
print(f"started exactly on the saddle: {exact.stop_reason} after {exact.state.k} iterations, "
      f"true KKT {exact.final_kkt:.2e}; the first-order stop test certifies the saddle, "
      f"curvature {-exact.final_tau:.3f} remains")
