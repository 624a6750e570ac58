"""The outer iteration driver.

Each iteration estimates the objective gradient (and, for second-order
runs, the Hessian), checks the progress criterion against the radius,
builds a gradient or eigen trial step, raises the merit parameter until the
predicted reduction clears its threshold, estimates the actual reduction,
and accepts or rejects the step. Rejected second-order steps near the
feasible manifold get one second-order correction retry before the radius
shrinks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from . import benchmarks, estimator, linalg, steps
from .errors import MeritLoopDiverged
from .problem import Problem, _kept
from .rng import RngStream, _require_integer

__all__ = [
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "InvariantReport",
    "RunResult",
    "check_step",
    "iterate",
    "run",
]

UNSUCCESSFUL_LINE6 = "unsuccessful-line6"
SUCCESSFUL_RELIABLE = "successful-reliable"
SUCCESSFUL_UNRELIABLE = "successful-unreliable"
UNSUCCESSFUL_REJECTED = "unsuccessful-rejected"

# Slack on the predicted-reduction threshold: the bound can hold with exact
# equality (feasible eigen steps), and near stationarity both sides are tiny
# differences of O(1) quantities, so the comparison needs a relative term
# plus an absolute term scaled to the roundoff of the Pred computation.
PRED_SLACK = 1e-12
PRED_ABS_SLACK = 1e-13

# Floor on the reliability parameter, which would otherwise underflow to 0.
EPS_FLOOR = 1e-300
# Consecutive estimate-based KKT hits needed to stop without an exact oracle.
STOP_PATIENCE = 5
# Radius below which a run stops at "radius-floor".
DELTA_MIN = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """All algorithm parameters.

    Defaults follow the reference experiment setup: unit initial radius,
    merit and reliability parameters, radius growth 1.5, merit growth 1.2,
    acceptance ratio 0.4, radius cap 5, correction trigger 0.01.
    ``hessian`` picks the first-order Hessian strategy ('identity', 'sr1',
    'esth', 'aveh'); second-order runs (alpha=1) always estimate the
    Lagrangian Hessian with radius-adaptive batches.

    The random models' accuracy coefficients (``kappa_g``, ``kappa_h``),
    failure probabilities (``p_*``) and variance constants (``c_*``) set
    the Chebyshev batch sizes, clamped to [1, ``batch_cap``]; ``alpha``
    sharpens the radius exponents of the gradient and value conditions.
    The value coefficient :attr:`kappa_f` is derived, not set.
    """

    alpha: int = 0
    eta: float = 0.4
    gamma: float = 1.5
    rho: float = 1.2
    delta0: float = 1.0
    delta_max: float = 5.0
    mu0: float = 1.0
    eps0: float = 1.0
    r: float = 0.01
    kappa_g: float = 0.05
    kappa_h: float = 0.05
    p_f: float = 0.9
    p_g: float = 0.9
    p_h: float = 0.9
    c_f: float = 5.0
    c_g: float = 5.0
    c_h: float = 5.0
    batch_cap: int = 10_000
    hessian: str = "identity"
    kkt_tol: float = 1e-4
    max_iters: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "batch_cap", "max_iters", "seed"):
            _require_integer(getattr(self, name), name)
        if self.alpha not in (0, 1):
            raise ValueError("alpha must be 0 or 1")
        if self.hessian not in estimator.HESSIAN_STRATEGIES:
            raise ValueError(f"hessian must be one of {', '.join(estimator.HESSIAN_STRATEGIES)}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        # Written so that NaN fails every test. Only r and kkt_tol may be +inf.
        for name in ("gamma", "rho"):
            if not 1.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a finite number above 1")
        if not 0.0 < self.delta0 < self.delta_max < math.inf:
            raise ValueError("need 0 < delta0 < delta_max, with delta_max finite")
        for name in ("mu0", "eps0", "kappa_g", "kappa_h", "c_f", "c_g", "c_h"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a finite positive number")
        if not self.r > 0.0:
            raise ValueError("r must be positive")
        for name in ("p_f", "p_g", "p_h"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if not self.batch_cap >= 1:
            raise ValueError("batch_cap must be at least 1")
        if not self.kkt_tol >= 0.0:
            raise ValueError("kkt_tol must be a nonnegative number")
        if not self.max_iters >= 0:
            raise ValueError("max_iters must be nonnegative")

    @property
    def kappa_f(self) -> float:
        """Value-accuracy coefficient: the largest the step-acceptance
        parameters admit, eta^3 / (16 max(1, delta_max)). The bound also
        scales with the fraction-of-Cauchy-decrease constant, which is 1
        because the reduced subproblem is solved exactly."""
        return self.eta**3 / (16.0 * max(1.0, self.delta_max))


@dataclass
class InvariantReport:
    """Aggregated per-iteration invariant checks across a run."""

    checked: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)
    worst: dict = field(default_factory=dict)

    def add(self, name: str, excess: float, allowed: float) -> None:
        """Count one check of ``excess <= allowed`` (``allowed > 0``). Its margin,
        excess / allowed, is above 1 exactly when it fails; a NaN reads as inf."""
        self.checked[name] = self.checked.get(name, 0) + 1
        margin = float(excess) / float(allowed)
        if not excess <= allowed:
            self.violations[name] = self.violations.get(name, 0) + 1
            margin = margin if margin > 1.0 else math.inf  # a NaN side
        self.worst[name] = max(self.worst.get(name, -math.inf), margin)

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())


@dataclass
class SolverState:
    """Mutable per-run state: iterate, radius, reliability and merit
    parameters, iteration counter, Hessian-strategy memory, and the run's
    invariant checks, which every iteration adds to."""

    x: np.ndarray
    delta: float
    eps: float
    mu: float
    k: int
    strategy: object
    invariants: InvariantReport = field(default_factory=InvariantReport)
    # Each kept value with the bits of the arrays its method names (problem._kept).
    slots: dict = field(default_factory=dict, repr=False)

    @classmethod
    def initial(cls, problem: Problem, x0: np.ndarray, config: SolverConfig) -> "SolverState":
        return cls(
            x=problem.point(x0, name="x0"),
            delta=config.delta0,
            eps=config.eps0,
            mu=config.mu0,
            k=0,
            strategy=estimator.BatchedLagrangianHessian()
            if config.alpha == 1
            else estimator.HESSIAN_STRATEGIES[config.hessian](),
        )

    def constraint(self, problem: Problem) -> np.ndarray:
        """c(x) at the iterate, evaluated once per distinct iterate."""
        return _kept(self.slots, "c", lambda: problem.constraint_value(self.x), self.x)

    def jacobian_factor(self, problem: Problem) -> linalg.JacobianFactor:
        """The factor of G(x) at the iterate. G is evaluated once per distinct
        iterate and factored once per distinct G, so a constant Jacobian is
        factored once per run."""
        G = _kept(self.slots, "G", lambda: problem.jacobian_value(self.x), self.x)
        return _kept(self.slots, "factor", lambda: linalg.nullspace_basis(G), G)

    def exact_kkt(self, problem: Problem) -> tuple[float, float]:
        """:func:`benchmarks.true_kkt` on the iterate's c and factor of G, once
        per distinct iterate; NaNs when the problem has no noiseless oracle."""
        if problem.noiseless is None:
            return math.nan, math.nan
        return _kept(self.slots, "kkt", lambda: benchmarks.true_kkt(problem, self.x, self), self.x)

    def hessian_norm(self, H: np.ndarray) -> float:
        """||H||, one SVD per distinct H."""
        return _kept(self.slots, "h_norm", lambda: linalg.spectral_norm(H), H)

    def reduced(self, H: np.ndarray, J: linalg.JacobianFactor) -> linalg.SymmetricEig:
        """The eigendecomposition of Z^T H Z, once per distinct pair of H and
        G, so an unsuccessful iteration whose next model H has the same bits
        decomposes nothing."""
        return _kept(self.slots, "reduced", lambda: J.reduce(H), H, J.G)


@dataclass
class IterationRecord:
    """One row of the trajectory log. ``delta``, ``eps`` and ``mu`` are those
    the iteration used (``mu`` after its raises), not the updated ones.
    ``kkt_true`` and ``tau_true`` are the exact KKT residual and negative
    curvature at the iteration's start point. :func:`run` stamps them after
    :func:`iterate` returns, evaluating the exact oracle once per distinct
    iterate; they are NaN without a noiseless oracle and in records that
    come from calling :func:`iterate` directly.
    """

    k: int
    outcome: str
    step_kind: str
    soc: bool
    delta: float
    eps: float
    mu: float
    pred: float
    ared: float
    kkt_est: float
    tau_est: float
    kkt_true: float
    tau_true: float
    batch_f: int
    batch_g: int
    batch_h: int

    CSV_FIELDS: ClassVar[str]  # the header: field names, in declaration order

    def csv_row(self) -> str:
        return ",".join(_csv_cell(getattr(self, name)) for name in _CSV_COLUMNS)


def _csv_cell(value) -> str:
    """One CSV cell: a bool as 0/1, a float round-trippable (17 digits)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_CSV_COLUMNS = tuple(f.name for f in fields(IterationRecord))
IterationRecord.CSV_FIELDS = ",".join(_CSV_COLUMNS)


@dataclass
class RunResult:
    """Output of :func:`run`."""

    state: SolverState
    records: list
    stop_reason: str
    final_kkt: float
    final_tau: float
    invariants: InvariantReport
    wall_time: float

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _shrink_eps(eps: float, config: SolverConfig) -> float:
    """The reliability parameter after an unreliable or failed iteration."""
    return max(eps / config.gamma, EPS_FLOOR)


def _fail(state: SolverState, config: SolverConfig) -> None:
    """A failed iteration (line 6 or a rejected step) shrinks the radius and
    the reliability parameter and leaves the iterate where it is."""
    state.delta = state.delta / config.gamma
    state.eps = _shrink_eps(state.eps, config)


def _stop_measure(kkt: float, tau_plus: float, config: SolverConfig) -> float:
    """The stopping measure: the KKT residual, or for second-order runs the
    larger of it and the negative curvature."""
    return kkt if config.alpha == 0 else max(kkt, tau_plus)


def check_step(report, step, c, J, grad, H, delta, tau_plus):
    """Re-verify a constructed trial step against its defining inequalities,
    adding one row per inequality to ``report``. ``tau_plus`` is the
    iteration's, read off the one decomposition of the same Z^T H Z."""
    breve, tilde = step.split.normal, step.split.tangential
    report.add("radius_split_pythagorean", abs(breve**2 + tilde**2 - delta**2), 1e-10 * delta**2)

    dx_norm = linalg.vector_norm(step.dx)
    report.add("step_within_radius", (dx_norm - delta) / delta, 1e-10)

    scale = linalg.vector_norm(step.w) * linalg.vector_norm(step.t)
    ortho = abs(float(step.w @ step.t))
    report.add("normal_tangential_orthogonal", ortho, 1e-10 * max(scale, 1e-300))

    c_norm = linalg.vector_norm(c)
    gap = abs(linalg.vector_norm(c + J.G @ step.dx) - (1.0 - step.gamma) * c_norm)
    denom = max(c_norm, float(np.linalg.norm(J.G.ravel())) * dx_norm, 1e-300)
    report.add("linearized_feasibility", gap, 1e-8 * denom)

    g_r = J.Z.T @ (grad + H @ step.w)
    H_r = J.Z.T @ H @ J.Z
    if step.kind == steps.GRADIENT_STEP:
        # Its own SVD norm, so the check does not lean on the step's factor.
        rhs = -0.5 * steps.cauchy_decrease(linalg.vector_norm(g_r), linalg.spectral_norm(H_r), tilde)
        m_u = linalg.model_value(H_r, g_r, step.u)
        report.add("cauchy_fraction", m_u - rhs, 1e-10 * max(1.0, abs(rhs)))
    else:
        u_norm = linalg.vector_norm(step.u)
        desc_scale = linalg.vector_norm(g_r) * u_norm
        report.add("eigen_descent", float(g_r @ step.u), 1e-12 * max(desc_scale, 1e-300))
        report.add("eigen_within_radius", u_norm - tilde, 1e-12 * max(tilde, 1e-300))
        curv_rhs = -tau_plus * tilde**2
        curv_excess = float(step.u @ (H_r @ step.u)) - curv_rhs
        report.add("eigen_curvature", curv_excess, 1e-10 * max(abs(curv_rhs), 1e-300))


def iterate(
    state: SolverState, problem: Problem, config: SolverConfig
) -> tuple[SolverState, IterationRecord]:
    """Run exactly one outer iteration, mutating and returning the state. A
    trial step's checks go to ``state.invariants``."""
    k = state.k
    it_stream = RngStream(config.seed).child(k)
    x, delta, eps = state.x, state.delta, state.eps

    c = state.constraint(problem)
    c_norm = linalg.vector_norm(c)
    # The iterate's one factorization of the Jacobian.
    J = state.jacobian_factor(problem)

    # Step 1: gradient, multiplier, KKT residual, Hessian approximation.
    est = estimator.estimate_models(problem, x, c, J, state.strategy, delta, config, it_stream)
    grad, H = est.grad, est.hessian
    kkt_est, h_norm = est.kkt_norm, state.hessian_norm(H)
    # Negative curvature enters only second-order runs; a first-order
    # iteration that fails the progress test decomposes Z^T H Z not at all.
    tau_plus = state.reduced(H, J).tau_plus if config.alpha == 1 else 0.0

    def make_record(outcome, step_kind, soc, pred, ared, batch_f):
        return IterationRecord(
            k=k,
            outcome=outcome,
            step_kind=step_kind,
            soc=soc,
            delta=delta,
            eps=eps,
            mu=state.mu,
            pred=pred,
            ared=ared,
            kkt_est=kkt_est,
            tau_est=tau_plus,
            kkt_true=math.nan,
            tau_true=math.nan,
            batch_f=batch_f,
            batch_g=est.batch_grad,
            batch_h=est.batch_hess,
        )

    # Step 2: progress criterion. Failure shrinks the radius and the
    # reliability parameter without touching the iterate.
    if max(kkt_est / max(1.0, h_norm), tau_plus) < config.eta * delta:
        _fail(state, config)
        state.k = k + 1
        record = make_record(UNSUCCESSFUL_LINE6, "none", False, math.nan, math.nan, 0)
        return state, record

    kind, decrease = steps.select_step_type(kkt_est, h_norm, tau_plus, c_norm, delta)
    step = steps.build_trial_step(
        kind, c, J, grad, H, h_norm, est.grad_lagrangian, delta, state.reduced(H, J)
    )

    # Step 3: merit loop, then value estimates at both points.
    threshold = -0.5 * decrease
    # The linearized constraint change: -gamma ||c||.
    drop = linalg.vector_norm(c + J.G @ step.dx) - c_norm
    pred = steps.predicted_reduction(grad, H, state.mu, drop, step.dx)
    dx_norm = linalg.vector_norm(step.dx)
    # Pred's roundoff scales with each of its terms. The constraint term
    # mu (||c + G dx|| - ||c||) carries eps mu (||c|| + ||G|| ||dx||), which at
    # c = 0 is the roundoff of G dx alone (docs/decisions.md).
    pred_scale = (
        linalg.vector_norm(grad) * dx_norm
        + 0.5 * h_norm * dx_norm**2
        + state.mu * (c_norm + J.norm * dx_norm)
    )
    slack = PRED_SLACK * abs(threshold) + PRED_ABS_SLACK * pred_scale
    # When the drop vanishes the merit parameter cannot move Pred, and the
    # threshold then holds analytically (full-Cauchy gradient steps,
    # curvature-matched eigen steps), so the loop only runs while escalation
    # makes progress. Pred is then affine in mu with negative slope, so mu
    # overflows only when no finite mu clears the threshold.
    while pred > threshold + slack and drop < 0.0:
        state.mu *= config.rho
        if state.mu == math.inf:
            raise MeritLoopDiverged(
                f"merit parameter overflowed at k={k} (pred={pred:.3e}, threshold={threshold:.3e})"
            )
        pred = steps.predicted_reduction(grad, H, state.mu, drop, step.dx)

    check_step(state.invariants, step, c, J, grad, H, delta, tau_plus)
    state.invariants.add("pred_threshold", pred - threshold, slack)

    x_trial = x + step.dx
    f_k, f_s, batch_f = estimator.estimate_values(
        problem, x, x_trial, delta, eps, config, it_stream.child("value")
    )

    def ratio_test(x_s, f_s):
        """c at the trial point ``x_s``, Ared (the estimated merit change from
        x to x_s) and whether Ared / Pred reaches eta; Pred >= 0 or NaN never does."""
        c_s = problem.constraint_value(x_s)
        ared = f_s - f_k + state.mu * (linalg.vector_norm(c_s) - c_norm)
        return c_s, ared, pred < 0.0 and ared / pred >= config.eta

    # Step 4: ratio test, with one second-order-correction retry for
    # second-order runs near the feasible manifold.
    c_trial, ared, accepted = ratio_test(x_trial, f_s)
    soc_performed = not accepted and config.alpha == 1 and c_norm <= config.r
    if soc_performed:
        x_trial = x + step.dx + steps.soc_step(c, c_trial, step.dx, J)
        f_s, _ = estimator.estimate_value(
            problem, x_trial, delta, eps, config, it_stream.child("soc-value")
        )
        c_trial, ared, accepted = ratio_test(x_trial, f_s)

    if accepted:
        state.x = x_trial
        _kept(state.slots, "c", lambda: c_trial, x_trial)
        state.delta = min(config.gamma * delta, config.delta_max)
        if -pred >= state.eps:
            outcome = SUCCESSFUL_RELIABLE
            state.eps = config.gamma * state.eps
        else:
            outcome = SUCCESSFUL_UNRELIABLE
            state.eps = _shrink_eps(state.eps, config)
    else:
        outcome = UNSUCCESSFUL_REJECTED
        _fail(state, config)

    state.k = k + 1
    record = make_record(outcome, kind, soc_performed, pred, ared, batch_f)
    return state, record


def run(problem: Problem, x0: np.ndarray, config: SolverConfig) -> RunResult:
    """Iterate to a stationary point or a stopping condition.

    Stopping tests the KKT residual (first order) or the maximum of the KKT
    residual and the negative curvature (second order) against
    ``config.kkt_tol``. The problem decides where it is measured: on the
    exact oracle when the problem has a noiseless one, otherwise on the
    running estimates with a consecutive-hit debounce. The radius floor
    :data:`DELTA_MIN` and the iteration cap are liveness stops.
    """
    t0 = time.perf_counter()
    state = SolverState.initial(problem, x0, config)
    exact_stop = problem.noiseless is not None

    records: list[IterationRecord] = []
    hits = 0

    while True:
        kkt_true, tau_true = state.exact_kkt(problem)
        if exact_stop and _stop_measure(kkt_true, tau_true, config) <= config.kkt_tol:
            stop_reason = "converged"
            break
        if state.k >= config.max_iters:
            stop_reason = "max-iters"
            break
        if state.delta < DELTA_MIN:
            stop_reason = "radius-floor"
            break
        state, record = iterate(state, problem, config)
        record.kkt_true, record.tau_true = kkt_true, tau_true
        records.append(record)
        if not exact_stop:
            crit = _stop_measure(record.kkt_est, record.tau_est, config)
            hits = hits + 1 if crit <= config.kkt_tol else 0
            if hits >= STOP_PATIENCE:
                stop_reason = "converged"
                break

    kkt_true, tau_true = state.exact_kkt(problem)
    return RunResult(
        state=state,
        records=records,
        stop_reason=stop_reason,
        final_kkt=kkt_true,
        final_tau=tau_true,
        invariants=state.invariants,
        wall_time=time.perf_counter() - t0,
    )
