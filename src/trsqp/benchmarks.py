"""Built-in test problems and the exact KKT/curvature evaluator.

The problems reproduce the experiment setups at desk scale: a 2-D
saddle-point problem on the unit circle, equality-constrained logistic
regression on synthetic datasets, and a quadratic sanity problem with an
affine constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .rng import _require_integer

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
        for name in ("dim", "n_records", "num_constraints"):
            _require_integer(getattr(self, name), name)
        if not 0 < self.num_constraints < self.dim:
            raise ValueError(
                f"need 0 < num_constraints < dim, got {self.num_constraints} and {self.dim}"
            )
        if self.feature_law not in ("normal", "exponential"):
            raise ValueError("feature_law must be 'normal' or 'exponential'")
        if self.n_records < 2:
            raise ValueError("need at least two records")


def _logistic_loss(margins: np.ndarray) -> np.ndarray:
    """log(1 + exp(-m)) per margin m: the stable softplus that np.logaddexp(0, -m)
    runs through scalar libm calls, in vectorized ufuncs. e^{-|m|} may underflow harmlessly."""
    with np.errstate(under="ignore"):
        return np.log1p(np.exp(-np.abs(margins))) + np.maximum(-margins, 0.0)


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
    """Means of the loss log(1 + exp(-y z^T x)) and its derivatives over the
    records ``rows`` (every record if None). Whole-dataset means copy no
    rows; other batches gather theirs."""
    Zf = np.asarray(features, dtype=float)
    ZfT = np.ascontiguousarray(Zf.T)
    yf = np.asarray(labels, dtype=float)

    def batch(x, rows):
        """A batch's rows, their labels and margins y (Z x)."""
        Z, y = (Zf, yf) if rows is None else (Zf.take(rows, axis=0), yf.take(rows))
        return Z, y, y * (Z @ x)

    def sigmoid(m):
        return 1.0 / (1.0 + np.exp(-m))

    def value(x, rows):
        return np.mean(_logistic_loss(batch(x, rows)[2]))

    def gradient(x, rows):
        Z, y, m = batch(x, rows)
        # d/dm log(1+e^{-m}) = sigma(m) - 1
        return ((sigmoid(m) - 1.0) * y) @ Z / len(y)

    def hessian(x, rows):
        Z, y, m = batch(x, rows)
        s = sigmoid(m)
        return _gram(ZfT if rows is None else Z.T, Z, s * (1.0 - s)) / len(y)

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

    Every oracle output passes the ``Problem`` check that ``run`` uses. A
    solver ``state`` on ``problem`` at the bits of x, its memo's key, lends
    its c and factor of G; any other state is not read. Finite parts can
    still overflow: a KKT residual or Lagrangian Hessian that is not finite
    raises ``NonFiniteInput`` naming it, with numpy's warnings silenced.
    """
    problem.require_noiseless()
    x = problem.point(x)
    if state is not None and state.x.tobytes() == x.tobytes():
        c, factor = state.constraint(problem), state.jacobian_factor(problem)
    else:
        c, factor = problem.constraint_value(x), linalg.nullspace_basis(problem.jacobian_value(x))
    with np.errstate(over="ignore", invalid="ignore"):
        lam, _, kkt = estimator.kkt_residual(factor, problem.exact("gradient", x), c)
        linalg._require_finite(kkt, what="exact KKT residual")
        H = problem.exact("hessian", x) + problem.lagrangian_term(x, lam)
        linalg._require_finite(H, what="exact Lagrangian Hessian")
    return kkt, factor.reduce(H).tau_plus
