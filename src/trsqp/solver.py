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
from dataclasses import dataclass, field

import numpy as np

from . import benchmarks, estimator, linalg, steps
from .errors import MeritLoopDiverged, MissingNoiselessOracle
from .estimator import AccuracyParams
from .problem import Problem
from .rng import RngStream

__all__ = [
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "InvariantReport",
    "RunResult",
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


@dataclass(frozen=True)
class SolverConfig:
    """All algorithm parameters.

    Defaults follow the reference experiment setup: unit initial radius,
    merit and reliability parameters, radius growth 1.5, merit growth 1.2,
    acceptance ratio 0.4, radius cap 5, correction trigger 0.01.
    ``hessian`` picks the first-order Hessian strategy ('identity', 'sr1',
    'esth', 'aveh'); second-order runs (alpha=1) always estimate the
    Lagrangian Hessian with radius-adaptive batches.
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
    kappa_fcd: float = 1.0
    accuracy: AccuracyParams | None = None
    hessian: str = "identity"
    kkt_tol: float = 1e-4
    max_iters: int = 10_000
    delta_min: float = 1e-12
    use_true_kkt: bool | None = None
    stop_patience: int = 5
    merit_loop_cap: int = 100
    max_resample: int = 5
    seed: int = 0
    trs_method: str = "auto"
    aveh_window: int = 50
    eps_floor: float = 1e-300
    check_invariants: bool = True

    def __post_init__(self):
        if self.alpha not in (0, 1):
            raise ValueError("alpha must be 0 or 1")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if self.gamma <= 1.0 or self.rho <= 1.0:
            raise ValueError("gamma and rho must exceed 1")
        if not 0.0 < self.delta0 < self.delta_max:
            raise ValueError("need 0 < delta0 < delta_max")
        if self.mu0 <= 0.0 or self.eps0 <= 0.0 or self.r <= 0.0:
            raise ValueError("mu0, eps0, and r must be positive")
        if not 0.0 < self.kappa_fcd <= 1.0:
            raise ValueError("kappa_fcd must lie in (0, 1]")
        bound = self.kappa_fcd * self.eta**3 / (16.0 * max(1.0, self.delta_max))
        if self.accuracy is None:
            object.__setattr__(
                self, "accuracy", AccuracyParams(alpha=self.alpha, kappa_f=bound)
            )
        if self.accuracy.alpha != self.alpha:
            raise ValueError("accuracy.alpha disagrees with config.alpha")
        if self.accuracy.kappa_f > bound * (1.0 + 1e-12):
            raise ValueError(
                f"kappa_f={self.accuracy.kappa_f:g} exceeds the admissible "
                f"bound {bound:g} for eta={self.eta:g}, delta_max={self.delta_max:g}"
            )


@dataclass
class SolverState:
    """Mutable per-run state: iterate, radius, reliability and merit
    parameters, iteration counter, Hessian-strategy memory, random stream."""

    x: np.ndarray
    delta: float
    eps: float
    mu: float
    k: int
    strategy: object
    stream: RngStream

    @classmethod
    def initial(cls, problem: Problem, x0: np.ndarray, config: SolverConfig) -> "SolverState":
        x0 = np.asarray(x0, dtype=float).copy()
        if x0.shape != (problem.dim,):
            raise ValueError(f"x0 must have shape ({problem.dim},)")
        strategy = estimator.make_hessian_strategy(
            config.hessian, config.alpha, problem.dim, config.aveh_window
        )
        return cls(
            x=x0,
            delta=config.delta0,
            eps=config.eps0,
            mu=config.mu0,
            k=0,
            strategy=strategy,
            stream=RngStream(config.seed),
        )


@dataclass
class IterationRecord:
    """One row of the trajectory log.

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

    CSV_FIELDS = (
        "k,outcome,step_kind,soc,delta,eps,mu,pred,ared,"
        "kkt_est,tau_est,kkt_true,tau_true,batch_f,batch_g,batch_h"
    )

    def csv_row(self) -> str:
        vals = [
            str(self.k),
            self.outcome,
            self.step_kind,
            str(int(self.soc)),
            *(format(v, ".17g") for v in (self.delta, self.eps, self.mu, self.pred, self.ared)),
            *(format(v, ".17g") for v in (self.kkt_est, self.tau_est, self.kkt_true, self.tau_true)),
            str(self.batch_f),
            str(self.batch_g),
            str(self.batch_h),
        ]
        return ",".join(vals)


@dataclass
class InvariantReport:
    """Aggregated per-iteration invariant checks across a run."""

    checked: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)
    worst: dict = field(default_factory=dict)

    def add(self, name: str, ok: bool, margin: float) -> None:
        self.checked[name] = self.checked.get(name, 0) + 1
        if not ok:
            self.violations[name] = self.violations.get(name, 0) + 1
        self.worst[name] = max(self.worst.get(name, -math.inf), margin)

    @property
    def total_checked(self) -> int:
        return sum(self.checked.values())

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())


@dataclass
class RunResult:
    """Output of :func:`run`."""

    state: SolverState
    records: list
    converged: bool
    stop_reason: str
    final_kkt: float
    final_tau: float
    invariants: InvariantReport
    wall_time: float


def _pred_threshold(kkt_norm, h_norm, tau_plus, c_norm, delta, kappa_fcd):
    curv = kkt_norm / h_norm if h_norm > 0.0 else math.inf
    grad_term = kkt_norm * min(delta, curv)
    eigen_term = tau_plus * delta * (delta + c_norm)
    return -0.5 * kappa_fcd * max(grad_term, eigen_term)


def _check_step(report, step, c, G, Z, grad, H, delta, kappa_fcd, pred, threshold, pred_slack):
    """Re-verify the constructed step against its defining inequalities."""
    split = step.split
    pyth = abs(split.normal**2 + split.tangential**2 - delta**2)
    report.add("radius_split_pythagorean", pyth <= 1e-10 * delta**2, pyth / delta**2)

    dx_norm = float(np.linalg.norm(step.dx))
    excess = (dx_norm - delta) / delta
    report.add("step_within_radius", excess <= 1e-10, excess)

    w_norm = float(np.linalg.norm(step.w))
    t_norm = float(np.linalg.norm(step.t))
    ortho = abs(float(step.w @ step.t))
    scale = w_norm * t_norm
    report.add("normal_tangential_orthogonal", ortho <= 1e-10 * max(scale, 1e-300), ortho)

    c_norm = float(np.linalg.norm(c))
    lin = float(np.linalg.norm(c + G @ step.dx))
    target = (1.0 - step.gamma) * c_norm
    denom = max(c_norm, float(np.linalg.norm(G.ravel())) * dx_norm, 1e-300)
    gap = abs(lin - target)
    report.add("linearized_feasibility", gap <= 1e-8 * denom, gap / denom)

    g_r = Z.T @ (grad + H @ step.w)
    H_r = Z.T @ H @ Z
    m_u = linalg.model_value(H_r, g_r, step.u)
    if step.kind == steps.GRADIENT_STEP:
        g_r_norm = float(np.linalg.norm(g_r))
        h_r_norm = linalg.spectral_norm(H_r)
        curv = g_r_norm / h_r_norm if h_r_norm > 0.0 else math.inf
        rhs = -0.5 * kappa_fcd * g_r_norm * min(split.tangential, curv)
        margin = m_u - rhs
        report.add("cauchy_fraction", margin <= 1e-10 * max(1.0, abs(rhs)), margin)
    else:
        tau_plus = abs(min(linalg.smallest_eigpair(H_r)[0], 0.0))
        desc = float(g_r @ step.u)
        desc_scale = float(np.linalg.norm(g_r)) * float(np.linalg.norm(step.u))
        report.add("eigen_descent", desc <= 1e-12 * max(desc_scale, 1e-300), desc)
        u_excess = float(np.linalg.norm(step.u)) - split.tangential
        report.add(
            "eigen_within_radius", u_excess <= 1e-12 * max(split.tangential, 1e-300), u_excess
        )
        curv_val = float(step.u @ (H_r @ step.u))
        curv_rhs = -kappa_fcd * tau_plus * split.tangential**2
        curv_margin = curv_val - curv_rhs
        report.add("eigen_curvature", curv_margin <= 1e-10 * abs(curv_rhs), curv_margin)
    pred_margin = pred - threshold
    report.add("pred_threshold", pred_margin <= pred_slack, pred_margin)


def iterate(
    state: SolverState,
    problem: Problem,
    config: SolverConfig,
    report: InvariantReport | None = None,
) -> tuple[SolverState, IterationRecord]:
    """Run exactly one outer iteration, mutating and returning the state."""
    params = config.accuracy
    k = state.k
    it_stream = state.stream.child(k)
    x = state.x
    delta = state.delta

    c = problem.constraint(x)
    G = problem.jacobian(x)
    c_norm = float(np.linalg.norm(c))
    Z = linalg.nullspace_basis(G).Z

    # Step 1: gradient, multiplier, KKT residual, Hessian approximation.
    est = estimator.estimate_models(
        problem, x, c, G, Z, state.strategy, delta, params, it_stream, config.max_resample
    )
    grad, H = est.grad, est.hessian
    kkt_est, tau_plus = est.kkt_norm, est.tau_plus
    h_norm = est.hessian_norm

    def make_record(outcome, step_kind, soc, pred, ared, batch_f):
        return IterationRecord(
            k=k,
            outcome=outcome,
            step_kind=step_kind,
            soc=soc,
            delta=state.delta,
            eps=state.eps,
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
        state.delta = delta / config.gamma
        state.eps = max(state.eps / config.gamma, config.eps_floor)
        state.k = k + 1
        record = make_record(UNSUCCESSFUL_LINE6, "none", False, math.nan, math.nan, 0)
        return state, record

    kind = steps.select_step_type(kkt_est, h_norm, tau_plus, c_norm, delta)
    step = steps.build_trial_step(
        kind,
        c,
        G,
        Z,
        grad,
        H,
        est.grad_lagrangian,
        delta,
        tau=est.tau,
        tau_plus=tau_plus,
        eigvec=est.eigvec,
        kappa_fcd=config.kappa_fcd,
        method=config.trs_method,
    )

    # Step 3: merit loop, then shared-sample value estimates at both points.
    threshold = _pred_threshold(kkt_est, h_norm, tau_plus, c_norm, delta, config.kappa_fcd)
    pred = steps.predicted_reduction(grad, H, state.mu, c, G, step.dx)
    dx_norm = float(np.linalg.norm(step.dx))
    pred_scale = (
        float(np.linalg.norm(grad)) * dx_norm + 0.5 * h_norm * dx_norm**2 + state.mu * c_norm
    )
    slack = PRED_SLACK * abs(threshold) + PRED_ABS_SLACK * pred_scale
    # The linearized constraint reduction is -gamma ||c||; when it vanishes
    # the merit parameter cannot move Pred, and the threshold then holds
    # analytically (full-Cauchy gradient steps, curvature-matched eigen
    # steps), so the loop only runs while escalation makes progress.
    constraint_drop = float(np.linalg.norm(c + G @ step.dx)) - c_norm
    loops = 0
    while pred > threshold + slack and constraint_drop < 0.0:
        if loops >= config.merit_loop_cap:
            raise MeritLoopDiverged(
                f"merit parameter exceeded {config.merit_loop_cap} updates at k={k} "
                f"(pred={pred:.3e}, threshold={threshold:.3e})"
            )
        state.mu *= config.rho
        pred = steps.predicted_reduction(grad, H, state.mu, c, G, step.dx)
        loops += 1
    step.pred = pred

    if report is not None:
        _check_step(report, step, c, G, Z, grad, H, delta, config.kappa_fcd, pred, threshold, slack)

    x_trial = x + step.dx
    f_k, f_s, batch_f = estimator.estimate_values(
        problem, x, x_trial, delta, state.eps, params, it_stream.child("value")
    )
    ared = f_s - f_k + state.mu * (float(np.linalg.norm(problem.constraint(x_trial))) - c_norm)

    # Step 4: ratio test, with one second-order-correction retry for
    # second-order runs near the feasible manifold.
    soc_performed = False
    accepted = ared / pred >= config.eta
    if not accepted and config.alpha == 1 and c_norm <= config.r:
        d = steps.soc_step(problem, x, step.dx, G)
        step.soc = d
        soc_performed = True
        x_trial = x + step.dx + d
        f_s, _ = estimator.estimate_value(
            problem, x_trial, delta, state.eps, params, it_stream.child("soc-value")
        )
        ared = f_s - f_k + state.mu * (
            float(np.linalg.norm(problem.constraint(x_trial))) - c_norm
        )
        accepted = ared / pred >= config.eta

    if accepted:
        state.x = x_trial
        state.delta = min(config.gamma * delta, config.delta_max)
        if -pred >= state.eps:
            outcome = SUCCESSFUL_RELIABLE
            state.eps = config.gamma * state.eps
        else:
            outcome = SUCCESSFUL_UNRELIABLE
            state.eps = max(state.eps / config.gamma, config.eps_floor)
    else:
        outcome = UNSUCCESSFUL_REJECTED
        state.delta = delta / config.gamma
        state.eps = max(state.eps / config.gamma, config.eps_floor)

    state.k = k + 1
    record = make_record(outcome, kind, soc_performed, pred, ared, batch_f)
    return state, record


def run(problem: Problem, x0: np.ndarray, config: SolverConfig) -> RunResult:
    """Iterate to a stationary point or a stopping condition.

    Stopping tests the KKT residual (first order) or the maximum of the KKT
    residual and the negative curvature (second order) against
    ``config.kkt_tol``, measured on exact oracles when available and
    requested, otherwise on the running estimates with a consecutive-hit
    debounce. The radius floor and the iteration cap are liveness stops.
    """
    t0 = time.perf_counter()
    state = SolverState.initial(problem, x0, config)
    use_true = config.use_true_kkt
    if use_true is None:
        use_true = problem.noiseless is not None
    if use_true and problem.noiseless is None:
        raise MissingNoiselessOracle("use_true_kkt requires a noiseless oracle")

    records: list[IterationRecord] = []
    report = InvariantReport()
    converged = False
    stop_reason = "max-iters"
    hits = 0
    exact_key, exact = None, (math.nan, math.nan)

    def exact_kkt(x):
        # The iterate stays put on line-6 and rejected iterations, so the
        # exact oracle is evaluated once per distinct iterate.
        nonlocal exact_key, exact
        if problem.noiseless is not None and x.tobytes() != exact_key:
            exact_key, exact = x.tobytes(), benchmarks.true_kkt(problem, x)
        return exact

    while True:
        kkt_true, tau_true = exact_kkt(state.x)
        if use_true:
            crit = kkt_true if config.alpha == 0 else max(kkt_true, tau_true)
            if crit <= config.kkt_tol:
                converged = True
                stop_reason = "converged"
                break
        if state.k >= config.max_iters:
            stop_reason = "max-iters"
            break
        if state.delta < config.delta_min:
            stop_reason = "radius-floor"
            break
        state, record = iterate(
            state, problem, config, report if config.check_invariants else None
        )
        record.kkt_true, record.tau_true = kkt_true, tau_true
        records.append(record)
        if not use_true:
            crit = record.kkt_est if config.alpha == 0 else max(record.kkt_est, record.tau_est)
            hits = hits + 1 if crit <= config.kkt_tol else 0
            if hits >= config.stop_patience:
                converged = True
                stop_reason = "converged"
                break

    kkt_true, tau_true = exact_kkt(state.x)
    return RunResult(
        state=state,
        records=records,
        converged=converged,
        stop_reason=stop_reason,
        final_kkt=kkt_true,
        final_tau=tau_true,
        invariants=report,
        wall_time=time.perf_counter() - t0,
    )
