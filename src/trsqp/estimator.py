"""Random-model construction.

Batch sizes follow the Chebyshev rule: the sample count for each estimate
grows as the trust-region radius (and, for values, the reliability
parameter) shrinks, so the estimation error stays proportional to the
radius with fixed probability. On top of the batched estimates this module
provides the estimated multiplier and the Hessian-approximation strategies.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import linalg
from .problem import Problem
from .rng import RngStream

__all__ = [
    "AccuracyParams",
    "Estimates",
    "batch_size",
    "estimate_gradient",
    "estimate_values",
    "estimate_value",
    "estimate_multiplier",
    "build_hessian",
    "estimate_models",
    "make_hessian_strategy",
    "IdentityHessian",
    "SR1Hessian",
    "SampledLagrangianHessian",
    "AveragedLagrangianHessian",
    "BatchedLagrangianHessian",
]

VALUE, GRADIENT, HESSIAN = "value", "gradient", "hessian"


@dataclass(frozen=True)
class AccuracyParams:
    """Accuracy coefficients, failure probabilities, and variance constants
    of the random models.

    ``alpha`` is 0 when targeting first-order stationarity and 1 when
    targeting second-order stationarity; it sharpens the radius exponents in
    the gradient and value accuracy conditions. The default ``kappa_f`` is
    the largest value admitted by the default step-acceptance parameters
    (kappa_fcd * eta^3 / (16 max(1, delta_max)) with kappa_fcd=1, eta=0.4,
    delta_max=5).
    """

    alpha: int = 0
    kappa_f: float = 8e-4
    kappa_g: float = 0.05
    kappa_h: float = 0.05
    p_f: float = 0.9
    p_g: float = 0.9
    p_h: float = 0.9
    c_f: float = 5.0
    c_g: float = 5.0
    c_h: float = 5.0
    batch_cap: int = 10_000

    def __post_init__(self):
        if self.alpha not in (0, 1):
            raise ValueError("alpha must be 0 or 1")
        for name in ("kappa_f", "kappa_g", "kappa_h", "c_f", "c_g", "c_h"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("p_f", "p_g", "p_h"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.batch_cap < 1:
            raise ValueError("batch_cap must be at least 1")


@dataclass
class Estimates:
    """Estimation bundle opening one iteration: gradient, multiplier,
    Lagrangian gradient and its stacked KKT norm, Hessian approximation with
    reduced-curvature data, and the batch sizes spent."""

    grad: np.ndarray
    multiplier: np.ndarray
    grad_lagrangian: np.ndarray
    kkt_norm: float
    hessian: np.ndarray
    hessian_norm: float
    tau: float | None
    tau_plus: float
    eigvec: np.ndarray | None
    batch_grad: int
    batch_hess: int


def batch_size(kind: str, delta: float, eps: float, params: AccuracyParams) -> int:
    """Chebyshev lower bound on the sample count, clamped to [1, batch_cap].

    Value batches scale with min{(kappa_f delta^(alpha+2))^2, eps^2};
    gradient batches with (kappa_g delta^(alpha+1))^2; Hessian batches with
    (kappa_h delta)^2.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    a = params.alpha
    if kind == HESSIAN:
        denom = params.p_h * (params.kappa_h * delta) ** 2
        raw = params.c_h / denom if denom > 0 else math.inf
    elif kind == GRADIENT:
        denom = params.p_g * (params.kappa_g * delta ** (a + 1)) ** 2
        raw = params.c_g / denom if denom > 0 else math.inf
    elif kind == VALUE:
        if eps <= 0.0:
            raise ValueError("eps must be positive for value batches")
        denom = params.p_f * min((params.kappa_f * delta ** (a + 2)) ** 2, eps**2)
        raw = params.c_f / denom if denom > 0 else math.inf
    else:
        raise ValueError(f"unknown batch kind {kind!r}")
    if not math.isfinite(raw):
        return params.batch_cap
    return int(min(max(math.ceil(raw), 1), params.batch_cap))


def estimate_gradient(
    problem: Problem, x: np.ndarray, delta: float, params: AccuracyParams, stream: RngStream
) -> tuple[np.ndarray, int]:
    """Batch-mean gradient estimate at ``x``."""
    n = batch_size(GRADIENT, delta, math.inf, params)
    samples = problem.sampler.gradients(x, n, stream)
    return np.mean(samples, axis=0), n


def estimate_values(
    problem: Problem,
    x_k: np.ndarray,
    x_s: np.ndarray,
    delta: float,
    eps: float,
    params: AccuracyParams,
    stream: RngStream,
) -> tuple[float, float, int]:
    """Batch-mean value estimates at the current and trial points, both
    from one sample set (the Step-3 estimate)."""
    n = batch_size(VALUE, delta, eps, params)
    f_k = float(np.mean(problem.sampler.values(x_k, n, stream)))
    f_s = float(np.mean(problem.sampler.values(x_s, n, stream)))
    return f_k, f_s, n


def estimate_value(
    problem: Problem, x: np.ndarray, delta: float, eps: float, params: AccuracyParams, stream: RngStream
) -> tuple[float, int]:
    """Single-point value estimate on a fresh sample set (SOC re-estimation)."""
    n = batch_size(VALUE, delta, eps, params)
    return float(np.mean(problem.sampler.values(x, n, stream))), n


def estimate_multiplier(G: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Least-squares multiplier ``-(G G^T)^{-1} G g``.

    Minimizes ||g + G^T lam||; the residual is the projection of ``g`` onto
    ker(G).
    """
    U, s, Vt = linalg._checked_svd(np.atleast_2d(G), linalg.RANK_TOL)
    m = U.shape[0]
    return -U @ ((Vt[:m] @ grad) / s[:m])


def _lagrangian_term(problem: Problem, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """sum_i lam_i * hess(c_i)(x)."""
    return np.tensordot(lam, problem.constraint_hessians(x), axes=1)


class IdentityHessian:
    """H = I; the cheapest bounded approximation."""

    last_batch = 0

    def __init__(self, dim: int):
        self._eye = np.eye(dim)

    def build(self, problem, x, lam, grad_l, delta, params, stream):
        return self._eye.copy()


class SR1Hessian:
    """Symmetric rank-one quasi-Newton update of the Lagrangian Hessian.

    The update uses consecutive iterates and estimated Lagrangian gradients;
    it is skipped when the denominator fails the standard safeguard
    |z^T s| >= tol ||z|| ||s|| (or when the iterate did not move).
    """

    last_batch = 0

    def __init__(self, dim: int, skip_tol: float = 1e-8):
        self._H = np.eye(dim)
        self._skip_tol = skip_tol
        self._prev_x = None
        self._prev_grad_l = None

    def build(self, problem, x, lam, grad_l, delta, params, stream):
        if self._prev_x is not None:
            s = x - self._prev_x
            y = grad_l - self._prev_grad_l
            z = y - self._H @ s
            norms = np.linalg.norm(z) * np.linalg.norm(s)
            denom = float(z @ s)
            if norms > 0.0 and abs(denom) >= self._skip_tol * norms:
                self._H = self._H + np.outer(z, z) / denom
        self._prev_x = x.copy()
        self._prev_grad_l = grad_l.copy()
        return self._H.copy()


class SampledLagrangianHessian:
    """Single-draw estimate of the Lagrangian Hessian (EstH)."""

    last_batch = 1

    def build(self, problem, x, lam, grad_l, delta, params, stream):
        sample = problem.sampler.hessians(x, 1, stream)[0]
        return sample + _lagrangian_term(problem, x, lam)


class AveragedLagrangianHessian:
    """Mean of the last ``window`` single-draw Lagrangian Hessians (AveH)."""

    last_batch = 1

    def __init__(self, window: int = 50):
        self._buffer: deque = deque(maxlen=window)

    def build(self, problem, x, lam, grad_l, delta, params, stream):
        sample = problem.sampler.hessians(x, 1, stream)[0]
        self._buffer.append(sample + _lagrangian_term(problem, x, lam))
        return np.mean(self._buffer, axis=0)


class BatchedLagrangianHessian:
    """Radius-accurate Lagrangian Hessian estimate for second-order runs."""

    def __init__(self):
        self.last_batch = 0

    def build(self, problem, x, lam, grad_l, delta, params, stream):
        n = batch_size(HESSIAN, delta, math.inf, params)
        self.last_batch = n
        mean = np.mean(problem.sampler.hessians(x, n, stream), axis=0)
        return mean + _lagrangian_term(problem, x, lam)


_STRATEGIES = {
    "identity": lambda dim, window: IdentityHessian(dim),
    "sr1": lambda dim, window: SR1Hessian(dim),
    "esth": lambda dim, window: SampledLagrangianHessian(),
    "aveh": lambda dim, window: AveragedLagrangianHessian(window),
    "lagrangian": lambda dim, window: BatchedLagrangianHessian(),
}


def make_hessian_strategy(name: str, alpha: int, dim: int, window: int = 50):
    """Instantiate a Hessian strategy; second-order runs always use the
    batched Lagrangian estimate."""
    if alpha == 1:
        return BatchedLagrangianHessian()
    try:
        return _STRATEGIES[name](dim, window)
    except KeyError:
        raise ValueError(f"unknown Hessian strategy {name!r}") from None


def build_hessian(
    strategy,
    problem: Problem,
    x: np.ndarray,
    lam: np.ndarray,
    grad_l: np.ndarray,
    Z: np.ndarray,
    delta: float,
    params: AccuracyParams,
    stream: RngStream,
) -> tuple[np.ndarray, float | None, float, np.ndarray | None, int]:
    """Hessian approximation plus reduced-curvature data.

    Returns ``(H, tau, tau_plus, eigvec, batch)``. For first-order runs
    ``tau_plus`` is pinned to zero and no eigenpair is computed.
    """
    H = strategy.build(problem, x, lam, grad_l, delta, params, stream)
    H = 0.5 * (H + H.T)
    if params.alpha == 1:
        tau, zeta = linalg.smallest_eigpair(Z.T @ H @ Z)
        return H, tau, abs(min(tau, 0.0)), zeta, strategy.last_batch
    return H, None, 0.0, None, strategy.last_batch


def estimate_models(
    problem: Problem,
    x: np.ndarray,
    c: np.ndarray,
    G: np.ndarray,
    Z: np.ndarray,
    strategy,
    delta: float,
    params: AccuracyParams,
    stream: RngStream,
    max_resample: int = 5,
) -> Estimates:
    """Gradient, multiplier, and Hessian estimation opening an iteration.

    A zero estimated KKT residual is resampled up to ``max_resample`` times
    (fresh sample sets) before being passed through; the caller's progress
    criterion then fails the iteration.
    """
    grad, batch_grad = estimate_gradient(problem, x, delta, params, stream.child("grad"))
    for attempt in range(1, max_resample + 1):
        lam = estimate_multiplier(G, grad)
        grad_l = grad + G.T @ lam
        kkt = float(np.sqrt(grad_l @ grad_l + c @ c))
        if kkt > 0.0:
            break
        grad, batch_grad = estimate_gradient(
            problem, x, delta, params, stream.child("grad", attempt)
        )
    else:
        lam = estimate_multiplier(G, grad)
        grad_l = grad + G.T @ lam
        kkt = float(np.sqrt(grad_l @ grad_l + c @ c))
    H, tau, tau_plus, eigvec, batch_hess = build_hessian(
        strategy, problem, x, lam, grad_l, Z, delta, params, stream.child("hess")
    )
    return Estimates(
        grad=grad,
        multiplier=lam,
        grad_lagrangian=grad_l,
        kkt_norm=kkt,
        hessian=H,
        hessian_norm=linalg.spectral_norm(H),
        tau=tau,
        tau_plus=tau_plus,
        eigvec=eigvec,
        batch_grad=batch_grad,
        batch_hess=batch_hess,
    )
