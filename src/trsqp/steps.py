"""Trial-step machinery.

The trial step splits into an orthogonal normal/tangential pair whose
lengths are controlled by a parameter-free decomposition of the trust
radius: the normal and tangential radii are proportional to the rescaled
feasibility residual and, depending on the step type, the rescaled
optimality residual or the rescaled negative curvature. The rescaling (by
the Jacobian and Hessian operator norms) makes the decomposition invariant
to a positive rescaling of the objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = [
    "GRADIENT_STEP",
    "EIGEN_STEP",
    "RadiusSplit",
    "TrialStep",
    "rescaled_residuals",
    "split_radius",
    "normal_step",
    "cauchy_decrease",
    "tangential_gradient",
    "tangential_eigen",
    "soc_step",
    "select_step_type",
    "predicted_reduction",
    "build_trial_step",
]

GRADIENT_STEP = "gradient"
EIGEN_STEP = "eigen"


@dataclass(frozen=True)
class RadiusSplit:
    """Normal/tangential radii with breve^2 + tilde^2 = delta^2."""

    normal: float
    tangential: float


@dataclass
class TrialStep:
    """A constructed trial step and its ingredients."""

    kind: str
    gamma: float
    w: np.ndarray
    u: np.ndarray
    t: np.ndarray
    dx: np.ndarray
    split: RadiusSplit


def rescaled_residuals(
    c: np.ndarray, J: linalg.JacobianFactor, grad_l: np.ndarray, h_norm: float
) -> tuple[np.ndarray, np.ndarray]:
    """Feasibility and optimality residuals ``(c_rs, grad_l_rs)`` rescaled by
    ||G|| = ``J.norm`` and ``h_norm`` = ||H||; a zero model has no scale, so
    at ||H|| = 0 grad_l is returned unscaled (docs/decisions.md)."""
    return c / J.norm, grad_l / (h_norm or 1.0)


def split_radius(delta: float, c_rs_norm: float, opt_rs: float) -> RadiusSplit:
    """Proportional radius decomposition.

    ``opt_rs`` is the rescaled optimality-residual norm for a gradient step
    and the rescaled negative curvature for an eigen step. The residuals are
    not both zero: ``solver.iterate`` builds no step there.
    """
    denom = float(np.hypot(c_rs_norm, opt_rs))
    return RadiusSplit(
        normal=delta * c_rs_norm / denom,
        tangential=delta * opt_rs / denom,
    )


def normal_step(
    c: np.ndarray, J: linalg.JacobianFactor, normal_radius: float
) -> tuple[float, np.ndarray]:
    """Shrunk least-norm step toward the linearized constraints.

    Returns ``(gamma, w)`` with w = gamma v for the least-norm pull-back v,
    ||w|| <= normal_radius, and gamma = 1 when the pull-back vanishes.
    """
    v = J.pull(c)
    v_norm = linalg.vector_norm(v)
    if v_norm == 0.0:
        return 1.0, np.zeros_like(v)
    gamma = min(normal_radius / v_norm, 1.0)
    return gamma, gamma * v


def cauchy_decrease(g_norm: float, h_norm: float, radius: float) -> float:
    """The Cauchy-decrease term ||g|| min{radius, ||g||/||H||} of a model
    with these gradient and Hessian norms; ||g||/0 reads as infinity."""
    curv = g_norm / h_norm if h_norm > 0.0 else np.inf
    return g_norm * min(radius, curv)


def tangential_gradient(
    reduced: linalg.SymmetricEig, g_r: np.ndarray, tangential_radius: float
) -> np.ndarray:
    """Reduced trust-region solve for the gradient-step tangential component.

    Solves min 0.5 u^T S u + g_r^T u over the tangential ball, where
    ``reduced`` holds S = Z^T H Z and g_r = Z^T (g + H w). The exact solve meets
    the fraction-of-Cauchy-decrease condition; ``solver.check_step`` records it.
    """
    if tangential_radius <= 0.0:
        return np.zeros_like(g_r)
    return reduced.trs(g_r, tangential_radius)


def tangential_eigen(
    reduced: linalg.SymmetricEig, g_r: np.ndarray, tangential_radius: float
) -> np.ndarray:
    """Negative-curvature tangential component.

    Scales the bottom eigenvector of ``reduced`` (S = Z^T H Z) to the
    tangential radius, with the sign chosen to make the step a descent
    direction for the reduced gradient g_r (ties resolved to the positive
    sign).
    """
    _, eigvec = reduced.smallest()
    u = eigvec * (tangential_radius / linalg.vector_norm(eigvec))
    if float(g_r @ u) > 0.0:
        u = -u
    return u


def soc_step(
    c: np.ndarray, c_trial: np.ndarray, dx: np.ndarray, J: linalg.JacobianFactor
) -> np.ndarray:
    """Second-order correction cancelling the quadratic constraint remainder.

    Pulls back the remainder c(x + dx) - c(x) - G dx, from the constraint
    values ``c_trial`` = c(x + dx) and ``c`` = c(x), through the least-norm
    solve; for affine constraints it is roundoff (norm 1.1e-17 on logistic-6k).
    """
    return J.pull(c_trial - c - J.G @ dx)


def select_step_type(
    kkt_norm: float, h_norm: float, tau_plus: float, c_norm: float, delta: float
) -> tuple[str, float]:
    """Pick the step achieving the larger model reduction.

    Returns the step kind and its model-decrease term: gradient when
    kkt_norm * min{delta, kkt_norm/||H||} dominates
    tau_plus * delta * (delta + ||c||), eigen otherwise. The solver's
    predicted-reduction threshold is -1/2 times that term (the Cauchy
    fraction of the exact subproblem solve is 1).
    ``solver.iterate`` passes the stacked KKT norm kkt_norm = ||(gradL, c)||,
    which mixes objective and constraint units, so the choice is invariant
    to a rescaling of the objective only at c = 0 (see docs/decisions.md).
    """
    lhs = cauchy_decrease(kkt_norm, h_norm, delta)
    rhs = tau_plus * delta * (delta + c_norm)
    return (GRADIENT_STEP, lhs) if lhs >= rhs else (EIGEN_STEP, rhs)


def predicted_reduction(
    grad: np.ndarray, H: np.ndarray, mu: float, drop: float, dx: np.ndarray
) -> float:
    """Model reduction of the penalized merit function for a step ``dx``.

    ``drop`` is the step's linearized constraint change ||c + G dx|| - ||c||.
    """
    return linalg.model_value(H, grad, dx) + mu * drop


def build_trial_step(
    kind: str,
    c: np.ndarray,
    J: linalg.JacobianFactor,
    grad: np.ndarray,
    H: np.ndarray,
    h_norm: float,
    grad_l: np.ndarray,
    delta: float,
    reduced: linalg.SymmetricEig,
) -> TrialStep:
    """Assemble a full trial step of the requested kind.

    ``J`` is the iteration's factorization of the constraint Jacobian,
    ``h_norm`` = ||H|| and ``reduced`` the decomposed reduced Hessian
    ``J.reduce(H)``.
    """
    c_rs, grad_l_rs = rescaled_residuals(c, J, grad_l, h_norm)
    c_rs_norm = linalg.vector_norm(c_rs)
    if kind == GRADIENT_STEP:
        opt_rs = linalg.vector_norm(grad_l_rs)
    elif kind == EIGEN_STEP:
        opt_rs = reduced.tau_plus / h_norm
    else:
        raise ValueError(f"unknown step kind {kind!r}")
    split = split_radius(delta, c_rs_norm, opt_rs)
    gamma, w = normal_step(c, J, split.normal)
    g_r = J.Z.T @ (grad + H @ w)
    tangential = tangential_gradient if kind == GRADIENT_STEP else tangential_eigen
    u = tangential(reduced, g_r, split.tangential)
    t = J.Z @ u
    return TrialStep(kind=kind, gamma=gamma, w=w, u=u, t=t, dx=w + t, split=split)
