"""The parameter-free split of the trust radius.

A trial step is w + Z u with the normal part w pulling toward the
linearized constraints and the tangential part Z u reducing the objective
model in the constraint null space. Their radii split the trust radius in
proportion to the rescaled feasibility and optimality residuals, so
breve^2 + tilde^2 = delta^2, and - because the residuals are rescaled by
the Jacobian and Hessian norms - the split ratios do not move when the
objective is multiplied by a constant.
"""

import numpy as np

import trsqp
from trsqp import linalg, steps

problem = trsqp.make_saddle()
x = np.array([0.8, 0.7])  # infeasible: |x| != 1
delta = 0.5

c = problem.constraint_value(x)
J = linalg.nullspace_basis(problem.jacobian_value(x))
G, Z = J.G, J.Z

print(f"at x = {x}: feasibility residual |c| = {np.linalg.norm(c):.4f}")
for scale in (1e-3, 1.0, 1e3):
    grad = scale * problem.exact("gradient", x)
    lam = J.multiplier(grad)
    grad_l = grad + G.T @ lam
    H = scale * problem.exact("hessian", x) + problem.lagrangian_term(x, lam)
    c_rs, grad_l_rs = steps.rescaled_residuals(c, J, grad_l, linalg.spectral_norm(H))
    split = steps.split_radius(
        delta, float(np.linalg.norm(c_rs)), float(np.linalg.norm(grad_l_rs))
    )
    gamma, w = steps.normal_step(c, J, split.normal)
    u = steps.tangential_gradient(J.reduce(H), Z.T @ (grad + H @ w), split.tangential)
    dx = w + Z @ u
    print(
        f"objective x {scale:>6g}: normal/delta = {split.normal/delta:.6f}, "
        f"tangential/delta = {split.tangential/delta:.6f}, gamma = {gamma:.6f}, "
        f"|dx| = {np.linalg.norm(dx):.4f} <= {delta}"
    )
    assert abs(split.normal**2 + split.tangential**2 - delta**2) < 1e-12

print("\nthe split ratios and the linearized-feasibility shrink factor are")
print("untouched by the objective scale; only the model values change.")
