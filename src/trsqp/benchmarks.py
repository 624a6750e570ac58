"""Built-in test problems and the exact KKT/curvature evaluator.

The problems reproduce the experiment setups at desk scale: a 2-D
saddle-point problem on the unit circle, equality-constrained logistic
regression on synthetic datasets, and a quadratic sanity problem with an
affine constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import estimator, linalg
from .estimator import estimate_multiplier  # noqa: F401 -- bench/tracing.py patches this name
from .problem import (
    NoiselessOracle,
    Problem,
    check_labeled_data,
    exact_problem,
    finite_sum_problem,
)

if TYPE_CHECKING:
    from .solver import SolverState

__all__ = [
    "make_quadratic",
    "make_saddle",
    "SyntheticLogisticSpec",
    "make_logistic",
    "make_logistic_from_data",
    "true_kkt",
]

# Records per block of the logistic Hessian's Gram product. OpenBLAS keeps a
# product on its faster small-matrix path while m n k <= 10^6, which a
# d x GRAM_BLOCK x d block meets up to d = 22 (docs/decisions.md).
GRAM_BLOCK = 2048


def make_quadratic() -> Problem:
    """min 0.5 ||x||^2 subject to x1 + x2 = 1; solution (0.5, 0.5), lambda = -0.5."""
    return exact_problem(
        dim=2,
        num_constraints=1,
        oracle=NoiselessOracle(
            value=lambda x: float(0.5 * x @ x),
            gradient=lambda x: x.astype(float).copy(),
            hessian=lambda x: np.eye(2),
        ),
        constraint=lambda x: np.array([x[0] + x[1] - 1.0]),
        jacobian=lambda x: np.array([[1.0, 1.0]]),
        constraint_hessians=lambda x: np.zeros((1, 2, 2)),
        name="quadratic",
    )


def make_saddle() -> Problem:
    """min 2 x1 + 0.5 x2^2 on the unit circle.

    Two stationary points: a local minimum at (-1, 0) and a saddle at (1, 0),
    where the reduced Lagrangian Hessian has curvature -1.
    """
    return exact_problem(
        dim=2,
        num_constraints=1,
        oracle=NoiselessOracle(
            value=lambda x: float(2.0 * x[0] + 0.5 * x[1] ** 2),
            gradient=lambda x: np.array([2.0, x[1]]),
            hessian=lambda x: np.diag([0.0, 1.0]),
        ),
        constraint=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
        jacobian=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
        constraint_hessians=lambda x: 2.0 * np.eye(2)[None, :, :],
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

    def __post_init__(self):
        if self.feature_law not in ("normal", "exponential"):
            raise ValueError("feature_law must be 'normal' or 'exponential'")
        if self.n_records < 2:
            raise ValueError("need at least two records")


class _RecordVectors:
    """Per-record vectors of rows Z with labels y at one point x, each formed
    at its first use: the margins m = y (Z x), the sigmoid s of m, the loss
    log(1 + exp(-m)) and the gradient coefficient (s - 1) y."""

    def __init__(self, Z, y, x):
        self.margins = y * (Z @ x)
        self._y = y

    @cached_property
    def sigmoid(self):
        return 1.0 / (1.0 + np.exp(-self.margins))

    @cached_property
    def loss(self):
        # The stable softplus that np.logaddexp(0, -m) runs through scalar
        # libm calls, in vectorized ufuncs. e^{-|m|} may underflow harmlessly.
        m = self.margins
        with np.errstate(under="ignore"):
            return np.log1p(np.exp(-np.abs(m))) + np.maximum(-m, 0.0)

    @cached_property
    def coef(self):
        # d/dm log(1+e^{-m}) = sigma(m) - 1
        return (self.sigmoid - 1.0) * self._y


def _gram(ZT: np.ndarray, Z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """ZT diag(v) Z, summed block by block over ``GRAM_BLOCK`` rows of Z in
    order. At most one block is bitwise the single product (ZT * v) @ Z."""
    A = ZT * v
    H = A[:, :GRAM_BLOCK] @ Z[:GRAM_BLOCK]
    for start in range(GRAM_BLOCK, len(v), GRAM_BLOCK):
        block = slice(start, start + GRAM_BLOCK)
        H += A[:, block] @ Z[block]
    return H


def _logistic_records(features: np.ndarray, labels: np.ndarray):
    """Weighted sums of the loss log(1 + exp(-y z^T x)) and its derivatives
    over records ``rows`` (every record if None) with weights ``w``.

    Whole-dataset sums copy no rows, and keep the vectors of the last point
    x, keyed by the bits of x, so the gradient, Hessian and value at one
    iterate and the exact oracle there share one ``Z @ x`` and one sigmoid.
    Other batches gather their rows. The three callables share this state,
    so they must not be shared between threads.
    """
    Zf = np.asarray(features, dtype=float)
    ZfT = np.ascontiguousarray(Zf.T)
    y = np.asarray(labels, dtype=float)
    point = [None, None]  # bits of x, _RecordVectors at x

    def batch(x, rows):
        """Rows a batch sums over, their transpose and their vectors at x."""
        x = np.asarray(x, dtype=float)
        if rows is None:
            key = x.tobytes()
            if point[0] != key:
                point[:] = key, _RecordVectors(Zf, y, x)
            return Zf, ZfT, point[1]
        Z = Zf.take(rows, axis=0)
        return Z, Z.T, _RecordVectors(Z, y.take(rows), x)

    def value(x, rows, w):
        return w @ batch(x, rows)[2].loss

    def gradient(x, rows, w):
        Z, _, at = batch(x, rows)
        return (w * at.coef) @ Z

    def hessian(x, rows, w):
        Z, ZT, at = batch(x, rows)
        s = at.sigmoid
        return _gram(ZT, Z, w * s * (1.0 - s))

    return value, gradient, hessian


def make_logistic_from_data(
    features: np.ndarray,
    labels: np.ndarray,
    num_constraints: int = 5,
    rng: np.random.Generator | None = None,
    name: str = "logistic",
) -> Problem:
    """Equality-constrained logistic regression over a given dataset.

    The affine constraints A x = b have i.i.d. standard normal entries,
    drawn from ``rng`` once; such an A has full row rank with probability 1.
    Raises ``ValueError`` unless ``features`` is 2-D with one label in
    {-1, +1} per row and more than ``num_constraints`` columns.
    """
    features, labels = check_labeled_data(features, labels)
    rng = rng if rng is not None else np.random.default_rng(0)
    n, d = features.shape
    if d <= num_constraints:
        raise ValueError(
            f"a logistic problem with {num_constraints} constraints needs at least "
            f"{num_constraints + 1} feature columns, got {d}"
        )
    A = rng.standard_normal((num_constraints, d))
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
        name=f"logistic-{spec.feature_law}",
    )


def true_kkt(
    problem: Problem, x: np.ndarray, state: SolverState | None = None
) -> tuple[float, float]:
    """Exact KKT residual norm and negative curvature at a point.

    Returns ``(||(grad f + G^T lam, c)||, tau_plus)`` with the multiplier
    from an exact least-squares solve and ``tau_plus`` from the smallest
    eigenvalue of the reduced Lagrangian Hessian. One SVD of G and one
    eigendecomposition of the reduced Hessian serve both.

    x and c(x) pass ``run``'s checks, ``Problem.point`` and ``constraint_value``.
    A solver ``state`` on ``problem`` at the bits of x, its memo's key, lends
    its c and factor of G; any other state is not read. The first of the
    exact gradient, KKT residual and Lagrangian Hessian that is not finite
    raises ``NonFiniteInput`` naming it, with numpy's warnings silenced.
    """
    oracle = problem.require_noiseless()
    x = problem.point(x)
    if state is not None and state.x.tobytes() == x.tobytes():
        c, factor = state.constraint(problem), state.jacobian_factor(problem)
    else:
        c, factor = problem.constraint_value(x), linalg.nullspace_basis(problem.jacobian(x))
    with np.errstate(over="ignore", invalid="ignore"):
        grad = oracle.gradient(x)
        linalg._require_finite(grad, what="exact gradient")
        lam, _, kkt = estimator.kkt_residual(factor, grad, c)
        linalg._require_finite(kkt, what="exact KKT residual")
        H = oracle.hessian(x) + estimator._lagrangian_term(problem, x, lam)
        linalg._require_finite(H, what="exact Lagrangian Hessian")
    return kkt, factor.reduce(H).tau_plus
