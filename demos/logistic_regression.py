"""Constrained logistic regression with subsampled oracles.

A synthetic two-class dataset (features N(0,1) for label +1, N(5,1) for
label -1), the mean logistic loss, and five random affine constraints
A x = b. All objective quantities are estimated from record batches whose
sizes adapt to the trust radius. A batch of 6000 records or more is the
whole dataset: here most batches reach the cap of 10^4, so they are the
exact means, which the problem evaluates once per point and shares with
the true residuals.
"""

import numpy as np

import trsqp

spec = trsqp.SyntheticLogisticSpec(dim=15, n_records=6000, num_constraints=5)
problem = trsqp.make_logistic(spec, np.random.default_rng(913_000))
x0 = np.zeros(spec.dim)

print(f"dataset: {spec.n_records} records, {spec.dim} features, "
      f"{spec.num_constraints} affine constraints")
print(f"loss at x0 = 0: {float(problem.exact('value', x0)):.6f} (log 2 = {np.log(2):.6f})\n")

config = trsqp.SolverConfig(alpha=1, kkt_tol=1e-2, max_iters=10_000, seed=0)
result = trsqp.run(problem, x0, config)

print(f"{'k':>3} {'KKT (true)':>12} {'delta':>10} {'batch_g':>8} {'batch_f':>8}")
for rec in result.records[:: max(1, len(result.records) // 12)]:
    print(
        f"{rec.k:>3} {rec.kkt_true:>12.4e} {rec.delta:>10.3e} "
        f"{rec.batch_g:>8} {rec.batch_f:>8}"
    )
print()
print(f"stopped: {result.stop_reason} after {result.state.k} iterations")
print(f"final true KKT {result.final_kkt:.3e}, "
      f"constraint violation {np.linalg.norm(problem.constraint_value(result.state.x)):.2e}")
