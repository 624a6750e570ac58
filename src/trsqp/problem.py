"""Problem abstraction: deterministic equality constraints plus stochastic
objective oracles.

A :class:`Problem` pairs exact constraint oracles (value, Jacobian, and the
per-constraint Hessians) with an objective sampler that draws realizations
of the objective value, gradient, and Hessian from a keyed random stream.
Two wrappers are provided: Gaussian noise injection around exact oracles,
and finite-sum subsampling over a dataset of per-record oracles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Protocol

import numpy as np

from . import linalg
from .errors import EmptyDataset, MissingNoiselessOracle
from .rng import RngStream

__all__ = [
    "NoiselessOracle",
    "ObjectiveSampler",
    "Problem",
    "GaussianNoiseSpec",
    "exact_problem",
    "gaussian_noisy",
    "finite_sum_problem",
    "load_labeled_csv",
]


@dataclass(frozen=True)
class NoiselessOracle:
    """Exact objective oracles, available on benchmark problems."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


class ObjectiveSampler(Protocol):
    """Draws batch means of the stochastic objective: each method returns
    the mean of ``n`` draws at ``x`` (a float, a gradient, a Hessian), and a
    mean of ``n = 1`` is one draw. One ``stream`` key at two points reuses
    the same records in the finite-sum sampler; the Gaussian sampler keys
    its draws by the point too, so its noise at two points is independent.
    The solver reads a sampler only through :meth:`Problem.mean`, which
    rejects a mean whose shape is not ``()``, ``(dim,)`` or ``(dim, dim)``.
    """

    def values(self, x: np.ndarray, n: int, stream: RngStream) -> float: ...

    def gradients(self, x: np.ndarray, n: int, stream: RngStream) -> np.ndarray: ...

    def hessians(self, x: np.ndarray, n: int, stream: RngStream) -> np.ndarray: ...


@dataclass(frozen=True)
class Problem:
    """Equality-constrained stochastic problem.

    Constraint oracles are deterministic; the objective is accessed only
    through ``sampler`` unless a noiseless oracle is attached for
    benchmarking. The methods below are the one reader of each oracle field.
    """

    dim: int
    num_constraints: int
    constraint: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    constraint_hessians: Callable[[np.ndarray], np.ndarray]
    sampler: ObjectiveSampler
    noiseless: NoiselessOracle | None = None
    name: str = "problem"

    def __post_init__(self):
        if not (0 < self.num_constraints < self.dim):
            raise ValueError("need 0 < num_constraints < dim")

    def require_noiseless(self) -> NoiselessOracle:
        if self.noiseless is None:
            raise MissingNoiselessOracle(f"problem {self.name!r} has no exact oracle")
        return self.noiseless

    @staticmethod
    def _checked(value, shape: tuple, what: str) -> np.ndarray:
        """``value`` as a float array of ``shape``, else an error naming ``what``."""
        value = np.asarray(value, dtype=float)
        if value.shape != shape:
            raise ValueError(f"{what} must have shape {shape}")
        linalg._require_finite(value, what=what)
        return value

    def point(self, x, name: str = "x") -> np.ndarray:
        """A caller's point as a new float array of shape (dim,) with only finite entries."""
        return self._checked(np.array(x, dtype=float), (self.dim,), name)

    def constraint_value(self, x: np.ndarray) -> np.ndarray:
        """c(x), of shape (num_constraints,); a NaN or infinity is an error, not a rejected step."""
        return self._checked(self.constraint(x), (self.num_constraints,), "constraint value")

    def jacobian_value(self, x: np.ndarray) -> np.ndarray:
        """G(x), of shape (num_constraints, dim)."""
        shape = (self.num_constraints, self.dim)
        return self._checked(self.jacobian(x), shape, "constraint Jacobian")

    def lagrangian_term(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """sum_i lam_i * hess(c_i)(x): the one ``np.dot`` of ``np.tensordot(lam, Hc, axes=1)``."""
        m, d = self.num_constraints, self.dim
        Hc = self._checked(self.constraint_hessians(x), (m, d, d), "constraint Hessians")
        return np.dot(lam.reshape(1, m), Hc.reshape(m, -1)).reshape(d, d)

    def mean(self, kind: str, x: np.ndarray, n: int, stream: RngStream) -> np.ndarray:
        """Batch mean of "values", "gradients" or "hessians"; shape (), (dim,) or (dim, dim)."""
        shape = {"values": (), "gradients": (self.dim,), "hessians": (self.dim, self.dim)}[kind]
        return self._checked(getattr(self.sampler, kind)(x, n, stream), shape, f"sampled {kind}")

    def exact(self, kind: str, x: np.ndarray) -> np.ndarray:
        """The noiseless oracle's "gradient" or "hessian" at x, of shape (dim,) or (dim, dim)."""
        what = {"gradient": "exact gradient", "hessian": "exact Hessian"}[kind]
        shape = (self.dim,) if kind == "gradient" else (self.dim, self.dim)
        return self._checked(getattr(self.require_noiseless(), kind)(x), shape, what)


@dataclass(frozen=True)
class GaussianNoiseSpec:
    """Variance of the Gaussian noise injected around exact oracles."""

    variance: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.variance < math.inf:
            raise ValueError(f"variance must be finite and nonnegative, got {self.variance!r}")


class _GaussianSampler:
    """Noise model around exact oracles, returning batch means.

    Per draw: value ~ N(f, sigma^2); gradient realized as
    grad + sigma * (z + z0 * ones) with z ~ N(0, I) and scalar z0 ~ N(0, 1),
    whose covariance is sigma^2 (I + ones ones^T); Hessian noise fills the
    upper triangle (diagonal included) with i.i.d. N(0, sigma^2) and mirrors
    it. Draws are keyed by (stream, evaluation point), so identical points
    see identical noise and distinct points are independent. A gradient or
    Hessian mean sums its draws in draw order, and a value mean is
    ``np.mean`` of its draws; a Hessian's is summed over the upper triangle
    around (H + H^T) / 2 (H itself for a symmetric oracle) and mirrored, so
    it is exactly symmetric. At zero noise it is the exact oracle's value.

    The draws live in one workspace array that the sampler reuses and grows
    only for a larger batch, so a call allocates nothing that grows with n.
    A sampler must therefore not be shared between threads.
    """

    def __init__(self, oracle: NoiselessOracle, dim: int, variance: float):
        self._oracle = oracle
        self._dim = dim
        self._sigma = float(np.sqrt(variance))
        self._triu = np.triu_indices(dim)
        self._work = np.empty(0)

    def _workspace(self, size):
        """The first ``size`` doubles of the reused workspace. The largest
        request, 2kn with k = d(d+1)/2 from ``hessians``, is less than the
        per-draw tensors it replaces held at once."""
        if self._work.size < size:
            self._work = np.empty(size)
        return self._work[:size]

    @staticmethod
    def _draw_order_mean(rows, n):
        """Row means of a (k, n) block of draws. ``cumsum`` adds the draws
        one at a time in draw order; a row sum would be pairwise."""
        return np.cumsum(rows, axis=1, out=rows)[:, -1] / n

    def values(self, x, n, stream):
        f = self._oracle.value(x)
        if self._sigma == 0.0:
            return f
        draws = stream.point_generator(x).standard_normal(out=self._workspace(n))
        draws *= self._sigma
        draws += f
        return np.mean(draws)

    def gradients(self, x, n, stream):
        g = self._oracle.gradient(x)
        if self._sigma == 0.0:
            return g
        d = self._dim
        work = self._workspace(2 * d * n)
        drawn, rows = work[: d * n], work[d * n :].reshape(d, n)
        rng = stream.point_generator(x)
        rng.standard_normal(out=drawn)
        rows[...] = drawn.reshape(n, d).T
        rows += rng.standard_normal(out=drawn[:n])  # z0, drawn after z as before
        rows *= self._sigma
        rows += g[:, None]
        return self._draw_order_mean(rows, n)

    def hessians(self, x, n, stream):
        H = self._oracle.hessian(x)
        if self._sigma == 0.0:
            return H
        iu = self._triu
        k = len(iu[0])
        work = self._workspace(2 * k * n)
        drawn, rows = work[: k * n], work[k * n :].reshape(k, n)
        stream.point_generator(x).standard_normal(out=drawn)
        np.multiply(drawn.reshape(n, k).T, self._sigma, out=rows)
        rows += ((H + H.T) / 2)[iu][:, None]
        mean = np.empty(H.shape)
        mean[iu] = mean[iu[1], iu[0]] = self._draw_order_mean(rows, n)
        return mean


def exact_problem(
    dim: int,
    num_constraints: int,
    oracle: NoiselessOracle,
    constraint: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    constraint_hessians: Callable[[np.ndarray], np.ndarray],
    name: str = "problem",
) -> Problem:
    """Problem whose sampler reproduces the exact oracle (zero noise)."""
    return Problem(
        dim=dim,
        num_constraints=num_constraints,
        constraint=constraint,
        jacobian=jacobian,
        constraint_hessians=constraint_hessians,
        sampler=_GaussianSampler(oracle, dim, 0.0),
        noiseless=oracle,
        name=name,
    )


def gaussian_noisy(base: Problem, spec: GaussianNoiseSpec) -> Problem:
    """Wrap a problem's exact oracles in the Gaussian noise model.

    Constraints are never perturbed. The wrapped problem keeps the exact
    oracle attached, so true residuals remain available for benchmarking.
    """
    sampler = _GaussianSampler(base.require_noiseless(), base.dim, spec.variance)
    return replace(base, sampler=sampler, name=f"{base.name}+noise{spec.variance:g}")


class _FiniteSumSampler:
    """Batch means over records drawn uniformly with replacement.

    Record indices are a deterministic function of the stream key alone, so
    one sample set evaluated at two points reuses the same records. Batches
    larger than the dataset are drawn with replacement too, not swapped for
    the full mean. The sampler alone turns n drawn indices into the records
    and weights a callable sums over:

    - n >= N: every record in dataset order (``rows=None``), each weighted
      by its draw count over n, so no rows need be gathered;
    - n < N: the drawn indices, each weighted 1/n.

    A repeated index counts once per draw either way, and the counted sum
    does not depend on the order of the draws. The last pair is cached,
    read-only, with the stream object and size it was drawn for, so the
    second point of a shared-sample pair that passes the same stream does
    not draw or count it again; any other call redraws.
    """

    def __init__(self, value_fn, gradient_fn, hessian_fn, n_records):
        self._value = value_fn
        self._gradient = gradient_fn
        self._hessian = hessian_fn
        self._n = n_records
        self._last = (None, None)

    def _batch(self, n, stream):
        if self._last[0] != (stream, n):
            idx = stream.generator().integers(0, self._n, size=n)
            if n >= self._n:
                rows, w = None, np.bincount(idx, minlength=self._n) / n
            else:
                rows, w = idx, np.full(n, 1.0 / n)
                rows.flags.writeable = False
            w.flags.writeable = False
            self._last = ((stream, n), (rows, w))
        return self._last[1]

    def values(self, x, n, stream):
        return self._value(x, *self._batch(n, stream))

    def gradients(self, x, n, stream):
        return self._gradient(x, *self._batch(n, stream))

    def hessians(self, x, n, stream):
        return self._hessian(x, *self._batch(n, stream))


def finite_sum_problem(
    dim: int,
    value_fn: Callable[[np.ndarray, np.ndarray | None, np.ndarray], float],
    gradient_fn: Callable[[np.ndarray, np.ndarray | None, np.ndarray], np.ndarray],
    hessian_fn: Callable[[np.ndarray, np.ndarray | None, np.ndarray], np.ndarray],
    n_records: int,
    constraint: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    constraint_hessians: Callable[[np.ndarray], np.ndarray],
    num_constraints: int,
    name: str = "finite-sum",
) -> Problem:
    """Problem whose objective is the mean of per-record losses.

    ``value_fn(x, rows, w)``, ``gradient_fn`` and ``hessian_fn`` return
    ``sum_j w[j] f_{rows[j]}(x)`` for the loss, gradient and Hessian of the
    records at ``x``; ``rows=None`` means every record in dataset order.
    The sampler decides the pair (see ``_FiniteSumSampler``); the noiseless
    oracle passes every record with weight 1/n_records. Both arrays are
    read-only.
    """
    if n_records < 1:
        raise EmptyDataset("finite-sum problem needs at least one record")
    every = np.full(n_records, 1.0 / n_records)
    every.flags.writeable = False
    oracle = NoiselessOracle(
        value=lambda x: float(value_fn(x, None, every)),
        gradient=lambda x: gradient_fn(x, None, every),
        hessian=lambda x: hessian_fn(x, None, every),
    )
    sampler = _FiniteSumSampler(value_fn, gradient_fn, hessian_fn, n_records)
    return Problem(
        dim=dim,
        num_constraints=num_constraints,
        constraint=constraint,
        jacobian=jacobian,
        constraint_hessians=constraint_hessians,
        sampler=sampler,
        noiseless=oracle,
        name=name,
    )


def check_labeled_data(features, labels) -> tuple[np.ndarray, np.ndarray]:
    """Validate a classification dataset and return it as float arrays.

    Raises ``ValueError`` unless ``features`` is 2-D with at least one
    column and only finite entries, ``labels`` is 1-D with one entry per
    feature row, and every label is -1 or +1.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if features.ndim != 2 or features.shape[1] == 0:
        raise ValueError(
            f"features must be 2-D with at least one column, got shape {features.shape}"
        )
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain NaN or infinity")
    if labels.shape != (features.shape[0],):
        raise ValueError(
            f"need one label per feature row: {features.shape[0]} rows, "
            f"labels of shape {labels.shape}"
        )
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    return features, labels


def load_labeled_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a dataset CSV: first column is the label in {-1, +1}, the rest
    are features. Returns ``(features, labels)``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's "input contained no data"
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[0] == 0:
        raise EmptyDataset(f"{path} has no records")
    return check_labeled_data(data[:, 1:], data[:, 0])
