"""Built-in test problems and the exact KKT/curvature evaluator.

The problems reproduce the experiment setups at desk scale: a 2-D
saddle-point problem on the unit circle, equality-constrained logistic
regression on synthetic datasets, and a quadratic sanity problem with an
affine constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DatasetGenerationFailed
from .estimator import estimate_multiplier
from .problem import NoiselessOracle, Problem, exact_problem, finite_sum_problem

__all__ = [
    "make_quadratic",
    "make_saddle",
    "SyntheticLogisticSpec",
    "make_logistic",
    "make_logistic_from_data",
    "true_kkt",
]


def _analytic_problem(dim, m, f, g, h, c, G, c_hess, name):
    oracle = NoiselessOracle(value=f, gradient=g, hessian=h)
    return exact_problem(dim, m, oracle, c, G, c_hess, name=name)


def make_quadratic() -> Problem:
    """min 0.5 ||x||^2 subject to x1 + x2 = 1; solution (0.5, 0.5), lambda = -0.5."""
    return _analytic_problem(
        dim=2,
        m=1,
        f=lambda x: float(0.5 * x @ x),
        g=lambda x: x.astype(float).copy(),
        h=lambda x: np.eye(2),
        c=lambda x: np.array([x[0] + x[1] - 1.0]),
        G=lambda x: np.array([[1.0, 1.0]]),
        c_hess=lambda x: np.zeros((1, 2, 2)),
        name="quadratic",
    )


def make_saddle() -> Problem:
    """min 2 x1 + 0.5 x2^2 on the unit circle.

    Two stationary points: a local minimum at (-1, 0) and a saddle at (1, 0),
    where the reduced Lagrangian Hessian has curvature -1.
    """
    return _analytic_problem(
        dim=2,
        m=1,
        f=lambda x: float(2.0 * x[0] + 0.5 * x[1] ** 2),
        g=lambda x: np.array([2.0, x[1]]),
        h=lambda x: np.diag([0.0, 1.0]),
        c=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
        G=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        c_hess=lambda x: 2.0 * np.eye(2)[None, :, :],
        name="saddle",
    )


@dataclass(frozen=True)
class SyntheticLogisticSpec:
    """Generator settings for the synthetic logistic datasets.

    ``feature_law`` picks the class-conditional feature distributions:
    "normal" draws N(0,1) for label +1 and N(5,1) for label -1;
    "exponential" draws Exp(1) and 5 + Exp(1).
    """

    dim: int = 15
    n_records: int = 6000
    num_constraints: int = 5
    feature_law: str = "normal"
    max_rank_retries: int = 100

    def __post_init__(self):
        if self.feature_law not in ("normal", "exponential"):
            raise ValueError("feature_law must be 'normal' or 'exponential'")
        if self.n_records < 2:
            raise ValueError("need at least two records")


def _logistic_records(features: np.ndarray, labels: np.ndarray):
    """Per-record oracles for the loss log(1 + exp(-y z^T x))."""
    Zf = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)

    def value(x, idx):
        margins = y[idx] * (Zf[idx] @ x)
        return np.logaddexp(0.0, -margins)

    def gradient(x, idx):
        margins = y[idx] * (Zf[idx] @ x)
        # d/dm log(1+e^{-m}) = sigma(m) - 1
        coef = (1.0 / (1.0 + np.exp(-margins)) - 1.0) * y[idx]
        return coef[:, None] * Zf[idx]

    def hessian(x, idx):
        Zi = Zf[idx]
        margins = y[idx] * (Zi @ x)
        s = 1.0 / (1.0 + np.exp(-margins))
        w = s * (1.0 - s)
        # Bitwise equal to einsum("n,ni,nj->nij", w, Zi, Zi), C-contiguous
        # and faster; callers average it with np.mean(axis=0), which sums
        # in memory order, so the layout must stay contiguous.
        return (w[:, None] * Zi)[:, :, None] * Zi[:, None, :]

    return value, gradient, hessian


def make_logistic_from_data(
    features: np.ndarray,
    labels: np.ndarray,
    num_constraints: int = 5,
    rng: np.random.Generator | None = None,
    max_rank_retries: int = 100,
    name: str = "logistic",
) -> Problem:
    """Equality-constrained logistic regression over a given dataset.

    The affine constraints A x = b have i.i.d. standard normal entries,
    redrawn until A passes the full-row-rank tolerance.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    n, d = features.shape
    for _ in range(max_rank_retries):
        A = rng.standard_normal((num_constraints, d))
        s = np.linalg.svd(A, compute_uv=False)
        if s[-1] > 1e-10 * s[0]:
            break
    else:
        raise DatasetGenerationFailed("could not draw a full-row-rank constraint matrix")
    b = rng.standard_normal(num_constraints)
    value, gradient, hessian = _logistic_records(features, labels)
    return finite_sum_problem(
        dim=d,
        value_fn=value,
        gradient_fn=gradient,
        hessian_fn=hessian,
        n_records=n,
        constraint=lambda x: A @ x - b,
        jacobian=lambda x: A.copy(),
        constraint_hessians=lambda x: np.zeros((num_constraints, d, d)),
        num_constraints=num_constraints,
        name=name,
    )


def make_logistic(spec: SyntheticLogisticSpec, rng: np.random.Generator) -> Problem:
    """Synthetic constrained logistic regression, initialization x0 = 0.

    Labels are an equal split; features follow the class-conditional law in
    ``spec``.
    """
    n, d = spec.n_records, spec.dim
    half = n // 2
    labels = np.concatenate([np.ones(half), -np.ones(n - half)])
    if spec.feature_law == "normal":
        pos = rng.normal(0.0, 1.0, size=(half, d))
        neg = rng.normal(5.0, 1.0, size=(n - half, d))
    else:
        pos = rng.exponential(1.0, size=(half, d))
        neg = 5.0 + rng.exponential(1.0, size=(n - half, d))
    features = np.vstack([pos, neg])
    return make_logistic_from_data(
        features,
        labels,
        num_constraints=spec.num_constraints,
        rng=rng,
        max_rank_retries=spec.max_rank_retries,
        name=f"logistic-{spec.feature_law}",
    )


def true_kkt(problem: Problem, x: np.ndarray) -> tuple[float, float]:
    """Exact KKT residual norm and negative curvature at a point.

    Returns ``(||(grad f + G^T lam, c)||, tau_plus)`` with the multiplier
    from an exact least-squares solve and ``tau_plus`` from the smallest
    eigenvalue of the reduced Lagrangian Hessian.
    """
    oracle = problem.require_noiseless()
    x = np.asarray(x, dtype=float)
    g = oracle.gradient(x)
    c = problem.constraint(x)
    G = problem.jacobian(x)
    lam = estimate_multiplier(G, g)
    grad_l = g + G.T @ lam
    kkt = float(np.sqrt(grad_l @ grad_l + c @ c))
    H = oracle.hessian(x) + np.tensordot(lam, problem.constraint_hessians(x), axes=1)
    Z = linalg.nullspace_basis(G).Z
    tau, _ = linalg.smallest_eigpair(Z.T @ H @ Z)
    return kkt, abs(min(tau, 0.0))
