"""Self-contained diagnostic suite behind the ``check`` command.

Most checks re-derive an expected quantity through an independent route
(finite differences, Monte Carlo frequencies, closed forms, the Cauchy
point) and compare the library against it. The step checks apply the
solver's own ``check_step`` to random trial steps and read the invariant
reports of real solves. Checks are grouped by module name so the command
line can filter them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import benchmarks, estimator, linalg, steps
from .errors import MeritLoopDiverged
from .problem import GaussianNoiseSpec, gaussian_noisy
from .rng import RngStream
from .solver import InvariantReport, SolverConfig, check_step, run

__all__ = ["CheckResult", "run_checks", "finite_difference_gradient", "finite_difference_hessian"]


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    passed: bool
    detail: str


def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient, the independent oracle for exact ones."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def finite_difference_hessian(grad, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of a gradient oracle."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    H = np.zeros((d, d))
    for i in range(d):
        e = np.zeros_like(x)
        e[i] = h
        H[:, i] = (grad(x + e) - grad(x - e)) / (2.0 * h)
    return 0.5 * (H + H.T)


def _trs_instance(rng, near_hard: bool):
    """A random TRS instance (H, g, radius) of dimension at most 6. A near-hard
    one has a repeated negative bottom eigenvalue, and g's components on its
    eigenspace are scaled by 10^-U(4, 14): the pole of the secular equation
    is then too sharp for root finding alone to reach the boundary."""
    n = int(rng.integers(1, 7))
    if near_hard:
        k = int(rng.integers(1, n + 1))
        lam = -float(rng.uniform(0.1, 3.0))
        w = np.concatenate([np.full(k, lam), lam + rng.uniform(0.1, 3.0, n - k)])
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        gq = rng.standard_normal(n)
        gq[:k] *= 10.0 ** -rng.uniform(4.0, 14.0)
        H, g = (Q * w) @ Q.T, Q @ gq
    else:
        H, g = rng.standard_normal((n, n)), rng.standard_normal(n)
    return 0.5 * (H + H.T), g, float(rng.uniform(0.1, 2.0))


def _check_linalg(rng) -> list[CheckResult]:
    out = []
    worst_res = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 8))
        m = int(rng.integers(1, d))
        G = rng.standard_normal((m, d))
        Z = linalg.nullspace_basis(G).Z
        worst_res = max(
            worst_res,
            float(np.max(np.abs(G @ Z))),
            float(np.max(np.abs(Z.T @ Z - np.eye(d - m)))),
        )
    out.append(
        CheckResult("linalg", "nullspace residuals", worst_res <= 1e-10, f"worst {worst_res:.2e}")
    )
    worst_gap = -np.inf
    # The near-hard draws come from a generator of their own, so the shared
    # one feeds the later groups the same draws.
    for near_hard, gen in ((False, rng), (True, np.random.default_rng(20241))):
        for _ in range(200):
            H, g, radius = _trs_instance(gen, near_hard)
            u = linalg.trs_solve(H, g, radius)
            uc = linalg.cauchy_point(H, g, radius)
            gap = linalg.model_value(H, g, u) - linalg.model_value(H, g, uc)
            worst_gap = max(worst_gap, gap)
    out.append(
        CheckResult(
            "linalg",
            "exact TRS beats Cauchy point",
            worst_gap <= 1e-10,
            f"worst reduction gap {worst_gap:.2e}",
        )
    )
    return out


def _check_problem(rng) -> list[CheckResult]:
    out = []
    for make in (benchmarks.make_quadratic, benchmarks.make_saddle):
        prob = make()
        oracle = prob.noiseless
        worst = 0.0
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=prob.dim)
            fd_g = finite_difference_gradient(oracle.value, x)
            fd_h = finite_difference_hessian(oracle.gradient, x)
            scale = max(1.0, float(np.max(np.abs(oracle.gradient(x)))))
            worst = max(
                worst,
                float(np.max(np.abs(fd_g - oracle.gradient(x)))) / scale,
                float(np.max(np.abs(fd_h - oracle.hessian(x)))) / scale,
            )
        out.append(
            CheckResult(
                "problem",
                f"finite-difference consistency ({prob.name})",
                worst <= 1e-5,
                f"worst rel err {worst:.2e}",
            )
        )
    prob = gaussian_noisy(benchmarks.make_quadratic(), GaussianNoiseSpec(1e-2))
    x = np.array([0.7, -0.2])
    stream = RngStream(0, ("diag", "noise"))
    # A 10^4-draw mean against f; n = 1 means on distinct streams for the variance.
    mean_err = abs(prob.sampler.values(x, 10_000, stream) - prob.noiseless.value(x))
    var = np.var([prob.sampler.values(x, 1, stream.child(i)) for i in range(10_000)])
    out.append(
        CheckResult(
            "problem",
            "gaussian value moments",
            mean_err <= 4 * 0.1 / 100.0 and abs(var - 1e-2) <= 0.1 * 1e-2,
            f"mean err {mean_err:.2e}, var {var:.3e}",
        )
    )
    return out


def _check_estimator(rng) -> list[CheckResult]:
    out = []
    config = SolverConfig(alpha=0)
    n = estimator.batch_size(estimator.GRADIENT, 1.0, 1.0, config)
    out.append(
        CheckResult(
            "estimator", "gradient batch rule at unit radius", n == 2223, f"got {n}, want 2223"
        )
    )
    prob = gaussian_noisy(benchmarks.make_quadratic(), GaussianNoiseSpec(1e-2))
    x = np.array([0.4, 0.1])
    g_true = prob.noiseless.gradient(x)
    failures = 0
    trials = 200
    for t in range(trials):
        g_bar, _ = estimator.estimate_gradient(prob, x, 1.0, config, RngStream(t, ("diag",)))
        if np.linalg.norm(g_bar - g_true) > config.kappa_g * 1.0:
            failures += 1
    freq = failures / trials
    out.append(
        CheckResult(
            "estimator",
            "gradient accuracy event frequency",
            freq <= config.p_g,
            f"failure rate {freq:.3f} vs p_g={config.p_g}",
        )
    )
    G = rng.standard_normal((2, 5))
    g = rng.standard_normal(5)
    lam = estimator.estimate_multiplier(G, g)
    resid = g + G.T @ lam
    out.append(
        CheckResult(
            "estimator",
            "multiplier residual in kernel",
            float(np.linalg.norm(G @ resid)) <= 1e-10,
            f"|G resid| = {np.linalg.norm(G @ resid):.2e}",
        )
    )
    return out


def _reference_solves():
    """The quadratic and noisy-saddle solves that the steps and solver checks run."""
    quadratic = SolverConfig(alpha=0, hessian="identity", kkt_tol=1e-8, max_iters=100, seed=0)
    saddle = SolverConfig(alpha=1, kkt_tol=1e-4, max_iters=500, seed=7)
    noisy = gaussian_noisy(benchmarks.make_saddle(), GaussianNoiseSpec(1e-4))
    return [
        (benchmarks.make_quadratic(), np.array([2.0, -3.0]), quadratic),
        (noisy, np.array([1.0, 0.005]), saddle),
    ]


def _check_steps(rng) -> list[CheckResult]:
    report = InvariantReport()
    for _ in range(100):
        d = int(rng.integers(3, 7))
        m = int(rng.integers(1, d - 1))
        G = rng.standard_normal((m, d))
        c = rng.standard_normal(m)
        grad = rng.standard_normal(d)
        H = rng.standard_normal((d, d))
        H = 0.5 * (H + H.T)
        delta = float(rng.uniform(0.2, 2.0))
        J = linalg.nullspace_basis(G)
        grad_l = grad + G.T @ J.multiplier(grad)
        h_norm = linalg.spectral_norm(H)
        step = steps.build_trial_step(
            steps.GRADIENT_STEP, c, J, grad, H, h_norm, grad_l, delta, J.reduce(H)
        )
        check_step(report, step, c, J, grad, H, delta)
    viol = report.total_violations
    detail = f"{viol} violations in {report.total_checked} checks"
    return [
        CheckResult("steps", "split/orthogonality/feasibility invariants", viol == 0, detail),
        _check_merit_loop(),
    ]


def _check_merit_loop() -> CheckResult:
    """The solver's own merit loop must push Pred to its threshold in real
    solves."""
    try:
        violations = sum(
            run(problem, x0, cfg).invariants.violations.get("pred_threshold", 0)
            for problem, x0, cfg in _reference_solves()
        )
        passed, detail = violations == 0, f"{violations} pred_threshold violations"
    except MeritLoopDiverged as exc:
        passed, detail = False, f"MeritLoopDiverged: {exc}"
    return CheckResult("steps", "merit loop reaches reduction threshold", passed, detail)


def _check_solver(rng) -> list[CheckResult]:
    out = []
    (prob, x0, cfg), (noisy, noisy_x0, noisy_cfg) = _reference_solves()
    res = run(prob, x0, cfg)
    ok = res.converged and float(np.max(np.abs(res.state.x - 0.5))) <= 1e-6
    out.append(
        CheckResult(
            "solver",
            "quadratic benchmark converges",
            ok,
            f"x={res.state.x}, kkt={res.final_kkt:.2e}",
        )
    )
    runs = [run(noisy, noisy_x0, noisy_cfg) for _ in range(2)]
    rows = [[rec.csv_row() for rec in r.records] for r in runs]
    out.append(
        CheckResult(
            "solver",
            "seeded runs reproduce bitwise",
            rows[0] == rows[1],
            f"{len(rows[0])} iterations compared",
        )
    )
    viol = runs[0].invariants.total_violations
    out.append(
        CheckResult("solver", "per-iteration invariants", viol == 0, f"{viol} violations")
    )
    return out


def run_checks(module_filter: str | None = None) -> list[CheckResult]:
    """Run the diagnostic suite, optionally restricted to one module."""
    rng = np.random.default_rng(20240)
    groups = {
        "linalg": lambda: _check_linalg(rng),
        "problem": lambda: _check_problem(rng),
        "estimator": lambda: _check_estimator(rng),
        "steps": lambda: _check_steps(rng),
        "solver": lambda: _check_solver(rng),
    }
    if module_filter is not None:
        if module_filter not in groups:
            raise ValueError(f"unknown check module {module_filter!r}; pick from {sorted(groups)}")
        return groups[module_filter]()
    results = []
    for fn in groups.values():
        results.extend(fn())
    return results
