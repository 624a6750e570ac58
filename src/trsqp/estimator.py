"""Random-model construction.

Batch sizes follow the Chebyshev rule: the sample count for each estimate
grows as the trust-region radius (and, for values, the reliability
parameter) shrinks, so the estimation error stays proportional to the
radius with fixed probability. The accuracy constants of the rule are
fields of :class:`solver.SolverConfig`, which every estimate here reads. On
top of the batched estimates this module provides the estimated multiplier
and the Hessian-approximation strategies.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .problem import Problem
from .rng import RngStream

if TYPE_CHECKING:
    from .solver import SolverConfig

__all__ = [
    "Estimates",
    "batch_size",
    "estimate_gradient",
    "estimate_values",
    "estimate_value",
    "estimate_multiplier",
    "kkt_residual",
    "build_hessian",
    "estimate_models",
    "HESSIAN_STRATEGIES",
    "IdentityHessian",
    "SR1Hessian",
    "AveragedLagrangianHessian",
    "BatchedLagrangianHessian",
]

VALUE, GRADIENT, HESSIAN = "value", "gradient", "hessian"

# Relative tolerance of the SR1 skip rule.
SR1_SKIP_TOL = 1e-8


@dataclass
class Estimates:
    """Estimation bundle opening one iteration: gradient, Lagrangian
    gradient and its stacked KKT norm, Hessian approximation with its
    operator norm (the iteration's only ||H||), the iteration's factor of
    the constraint Jacobian, and the batch sizes spent."""

    grad: np.ndarray
    grad_lagrangian: np.ndarray
    kkt_norm: float
    hessian: np.ndarray
    hessian_norm: float
    factor: linalg.JacobianFactor
    batch_grad: int
    batch_hess: int

    @cached_property
    def reduced(self) -> linalg.SymmetricEig:
        """The one eigendecomposition of Z^T H Z, made at first read; an
        iteration that fails the progress test on first-order data makes none."""
        return self.factor.reduce(self.hessian)


def batch_size(kind: str, delta: float, eps: float, config: SolverConfig) -> int:
    """Chebyshev lower bound c / (p accuracy) on the sample count, clamped
    to [1, batch_cap].

    The accuracy is (kappa delta^e)^2 with (c, p, kappa, e) =
    (c_f, p_f, kappa_f, alpha+2) for values, (c_g, p_g, kappa_g, alpha+1)
    for gradients and (c_h, p_h, kappa_h, 1) for Hessians; a value batch
    takes the smaller of it and eps^2. An accuracy that underflows to 0
    gives ``batch_cap``.
    """
    if not delta > 0.0:  # NaN fails too
        raise ValueError("delta must be positive")
    a = config.alpha
    rules = {
        VALUE: (config.c_f, config.p_f, config.kappa_f, a + 2),
        GRADIENT: (config.c_g, config.p_g, config.kappa_g, a + 1),
        HESSIAN: (config.c_h, config.p_h, config.kappa_h, 1),
    }
    if kind not in rules:
        raise ValueError(f"unknown batch kind {kind!r}")
    c, p, kappa, e = rules[kind]
    accuracy = (kappa * delta**e) ** 2
    if kind == VALUE:
        if not eps > 0.0:
            raise ValueError("eps must be positive for value batches")
        accuracy = min(accuracy, eps**2)
    denom = p * accuracy
    raw = c / denom if denom > 0 else math.inf
    if not math.isfinite(raw):
        return config.batch_cap
    return int(min(max(math.ceil(raw), 1), config.batch_cap))


def _sampled(problem: Problem, kind: str, x: np.ndarray, n: int, stream: RngStream):
    """The sampler's batch mean of ``kind`` ("values", "gradients" or
    "hessians"); raises NonFiniteInput when it holds a NaN or infinity."""
    mean = getattr(problem.sampler, kind)(x, n, stream)
    linalg._require_finite(mean, what=f"sampled {kind}")
    return mean


def estimate_gradient(
    problem: Problem, x: np.ndarray, delta: float, config: SolverConfig, stream: RngStream
) -> tuple[np.ndarray, int]:
    """Batch-mean gradient estimate at ``x``."""
    n = batch_size(GRADIENT, delta, math.inf, config)
    return _sampled(problem, "gradients", x, n, stream), n


def estimate_values(
    problem: Problem,
    x_k: np.ndarray,
    x_s: np.ndarray,
    delta: float,
    eps: float,
    config: SolverConfig,
    stream: RngStream,
) -> tuple[float, float, int]:
    """Batch-mean value estimates at the current and trial points from one
    stream object (the Step-3 estimate): one record set for a finite-sum
    sampler, independent noise for the Gaussian one."""
    f_k, n = estimate_value(problem, x_k, delta, eps, config, stream)
    f_s, _ = estimate_value(problem, x_s, delta, eps, config, stream)
    return f_k, f_s, n


def estimate_value(
    problem: Problem, x: np.ndarray, delta: float, eps: float, config: SolverConfig, stream: RngStream
) -> tuple[float, int]:
    """Batch-mean value estimate at ``x`` (the SOC re-estimate on its own stream)."""
    n = batch_size(VALUE, delta, eps, config)
    return float(_sampled(problem, "values", x, n, stream)), n


def estimate_multiplier(G: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Least-squares multiplier; see :meth:`linalg.JacobianFactor.multiplier`."""
    return linalg.JacobianFactor.of(G).multiplier(grad)


def kkt_residual(
    J: linalg.JacobianFactor, grad: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Least-squares multiplier lam, Lagrangian gradient grad + G^T lam and
    the stacked KKT norm ||(grad_L, c)||, all from the factor ``J`` of G."""
    lam = J.multiplier(grad)
    grad_l = grad + J.G.T @ lam
    return lam, grad_l, math.sqrt(grad_l @ grad_l + c @ c)


def _lagrangian_term(problem: Problem, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """sum_i lam_i * hess(c_i)(x): the one ``np.dot`` that
    ``np.tensordot(lam, Hc, axes=1)`` runs, without its argument handling."""
    Hc = problem.constraint_hessians(x)
    m = Hc.shape[0]
    return np.dot(lam.reshape(1, m), Hc.reshape(m, -1)).reshape(Hc.shape[1:])


class IdentityHessian:
    """H = I; the cheapest bounded approximation.

    Every strategy's ``build`` returns ``(H, batch)``, with ``batch`` the
    number of Hessian samples it drew."""

    def build(self, problem, x, lam, grad_l, delta, config, stream):
        return np.eye(x.size), 0


class SR1Hessian:
    """Symmetric rank-one quasi-Newton update of the Lagrangian Hessian.

    The update uses consecutive iterates and estimated Lagrangian gradients;
    it is skipped when the denominator fails the standard safeguard
    |z^T s| >= SR1_SKIP_TOL ||z|| ||s|| (or when the iterate did not move).
    The first build returns the identity of x's size."""

    def __init__(self):
        self._prev_x = None
        self._prev_grad_l = None

    def build(self, problem, x, lam, grad_l, delta, config, stream):
        if self._prev_x is None:
            self._H = np.eye(x.size)
        else:
            s = x - self._prev_x
            y = grad_l - self._prev_grad_l
            z = y - self._H @ s
            norms = linalg.vector_norm(z) * linalg.vector_norm(s)
            denom = float(z @ s)
            if norms > 0.0 and abs(denom) >= SR1_SKIP_TOL * norms:
                self._H = self._H + np.outer(z, z) / denom
        self._prev_x = x.copy()
        self._prev_grad_l = grad_l.copy()
        return self._H.copy(), 0


class AveragedLagrangianHessian:
    """Mean of the last ``window`` single-draw Lagrangian Hessians (AveH);
    ``window=1`` is the single-draw estimate (EstH)."""

    def __init__(self, window: int = 50):
        self._buffer: deque = deque(maxlen=window)

    def build(self, problem, x, lam, grad_l, delta, config, stream):
        sample = _sampled(problem, "hessians", x, 1, stream)
        self._buffer.append(sample + _lagrangian_term(problem, x, lam))
        return np.mean(self._buffer, axis=0), 1


class BatchedLagrangianHessian:
    """Radius-accurate Lagrangian Hessian estimate for second-order runs."""

    def build(self, problem, x, lam, grad_l, delta, config, stream):
        n = batch_size(HESSIAN, delta, math.inf, config)
        return _sampled(problem, "hessians", x, n, stream) + _lagrangian_term(problem, x, lam), n


# First-order Hessian strategies by config name, as zero-argument constructors.
HESSIAN_STRATEGIES = {
    "identity": IdentityHessian,
    "sr1": SR1Hessian,
    "esth": partial(AveragedLagrangianHessian, window=1),
    "aveh": AveragedLagrangianHessian,
}


def build_hessian(
    strategy,
    problem: Problem,
    x: np.ndarray,
    lam: np.ndarray,
    grad_l: np.ndarray,
    delta: float,
    config: SolverConfig,
    stream: RngStream,
) -> tuple[np.ndarray, int]:
    """The strategy's Hessian approximation, symmetrized, and its batch:
    ``(H, batch)``."""
    H, batch = strategy.build(problem, x, lam, grad_l, delta, config, stream)
    return 0.5 * (H + H.T), batch


def estimate_models(
    problem: Problem,
    x: np.ndarray,
    c: np.ndarray,
    J: linalg.JacobianFactor,
    strategy,
    delta: float,
    config: SolverConfig,
    stream: RngStream,
) -> Estimates:
    """Gradient, multiplier, and Hessian estimation opening an iteration.

    The multiplier is read off the one factorization ``J`` of the constraint
    Jacobian.
    """
    grad, batch_grad = estimate_gradient(problem, x, delta, config, stream.child("grad"))
    lam, grad_l, kkt = kkt_residual(J, grad, c)
    H, batch_hess = build_hessian(
        strategy, problem, x, lam, grad_l, delta, config, stream.child("hess")
    )
    return Estimates(
        grad=grad,
        grad_lagrangian=grad_l,
        kkt_norm=kkt,
        hessian=H,
        hessian_norm=linalg.spectral_norm(H),
        factor=J,
        batch_grad=batch_grad,
        batch_hess=batch_hess,
    )
