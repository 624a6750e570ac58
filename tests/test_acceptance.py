"""Acceptance suite: end-to-end criteria at pinned tolerances.

Each test prints one pass/fail line. A shared portfolio of benchmark runs
is executed once and reused by the criteria that inspect trajectories.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

import trsqp
from trsqp import estimator, linalg, steps
from trsqp.cli import main as cli_main
from trsqp.problem import GaussianNoiseSpec, gaussian_noisy
from trsqp.rng import RngStream
from trsqp.solver import SolverConfig, run

SADDLE_MIN = np.array([-1.0, 0.0])
NOISE_LEVELS = (1e-8, 1e-4, 1e-2, 1e-1)
SEEDS = (0, 1, 2, 3, 4)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")


def saddle_x0(seed: int) -> np.ndarray:
    """Uniform draw in the 0.01-ball around the saddle point."""
    rng = np.random.default_rng(1000 + seed)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    radius = 0.01 * np.sqrt(rng.uniform())
    return np.array([1.0, 0.0]) + radius * np.array([np.cos(angle), np.sin(angle)])


def saddle_axis_x0(seed: int) -> np.ndarray:
    """``saddle_x0(seed)`` rotated onto the saddle's symmetry axis x2 = 0.

    There the reduced gradient vanishes exactly, so first-order information
    has no tangential component to follow off the saddle.
    """
    return np.array([float(np.linalg.norm(saddle_x0(seed))), 0.0])


@dataclass
class Portfolio:
    quadratic: object
    quadratic_time: float
    saddle_escape: dict  # (noise, seed) -> RunResult
    saddle_escape_time: float
    saddle_trap: list  # alpha=0 runs from the symmetry axis
    saddle_contrast: list  # alpha=1 runs from the same starts
    logistic: list
    long_noisy: object  # 5000-iteration noisy saddle run
    fillers: list  # extra benchmark runs for invariant coverage

    def all_runs(self):
        yield self.quadratic
        yield from self.saddle_escape.values()
        yield from self.saddle_trap
        yield from self.saddle_contrast
        yield from self.logistic
        yield self.long_noisy
        yield from self.fillers


@pytest.fixture(scope="module")
def portfolio():
    saddle = trsqp.make_saddle()

    t0 = time.perf_counter()
    quad = run(
        trsqp.make_quadratic(),
        np.array([3.0, -1.0]),
        SolverConfig(alpha=0, hessian="identity", kkt_tol=1e-6, max_iters=200, seed=0),
    )
    quad_time = time.perf_counter() - t0

    escape = {}
    t0 = time.perf_counter()
    for noise in NOISE_LEVELS:
        prob = gaussian_noisy(saddle, GaussianNoiseSpec(noise))
        for seed in SEEDS:
            cfg = SolverConfig(alpha=1, kkt_tol=1e-4, max_iters=10_000, seed=seed)
            escape[(noise, seed)] = run(prob, saddle_x0(seed), cfg)
    escape_time = time.perf_counter() - t0

    # Noise-free, so the contrast is deterministic: with noise the first-order
    # exit from a strict saddle is a seed lottery (docs/decisions.md).
    trap = [
        run(
            saddle,
            saddle_axis_x0(seed),
            SolverConfig(alpha=0, hessian="identity", kkt_tol=0.0, max_iters=100, seed=seed),
        )
        for seed in SEEDS
    ]
    contrast = [
        run(
            saddle,
            saddle_axis_x0(seed),
            SolverConfig(alpha=1, kkt_tol=1e-4, max_iters=10_000, seed=seed),
        )
        for seed in SEEDS
    ]

    logistic_prob = trsqp.make_logistic(
        trsqp.SyntheticLogisticSpec(dim=15, n_records=6000, num_constraints=5),
        np.random.default_rng(913_000),
    )
    logistic = [
        run(
            logistic_prob,
            np.zeros(15),
            SolverConfig(alpha=1, kkt_tol=1e-2, max_iters=10_000, seed=seed),
        )
        for seed in SEEDS
    ]

    long_noisy = run(
        gaussian_noisy(saddle, GaussianNoiseSpec(1e-2)),
        saddle_x0(0),
        SolverConfig(alpha=1, kkt_tol=0.0, max_iters=5000, seed=0),
    )

    fillers = [
        run(
            gaussian_noisy(saddle, GaussianNoiseSpec(1e-2)),
            saddle_x0(1),
            SolverConfig(alpha=0, hessian="identity", kkt_tol=0.0, max_iters=2500, seed=1),
        ),
        run(
            gaussian_noisy(trsqp.make_quadratic(), GaussianNoiseSpec(1e-4)),
            np.array([3.0, -1.0]),
            SolverConfig(alpha=0, hessian="identity", kkt_tol=0.0, max_iters=2200, seed=2),
        ),
        run(
            gaussian_noisy(trsqp.make_quadratic(), GaussianNoiseSpec(1e-2)),
            np.array([3.0, -1.0]),
            SolverConfig(alpha=0, hessian="identity", kkt_tol=0.0, max_iters=2500, seed=3),
        ),
        run(
            gaussian_noisy(saddle, GaussianNoiseSpec(1e-4)),
            saddle_x0(4),
            SolverConfig(alpha=1, kkt_tol=0.0, max_iters=2000, seed=4),
        ),
    ]
    return Portfolio(
        quadratic=quad,
        quadratic_time=quad_time,
        saddle_escape=escape,
        saddle_escape_time=escape_time,
        saddle_trap=trap,
        saddle_contrast=contrast,
        logistic=logistic,
        long_noisy=long_noisy,
        fillers=fillers,
    )


def test_criterion_1_deterministic_sanity(portfolio):
    res = portfolio.quadratic
    ok = (
        res.converged
        and res.final_kkt <= 1e-6
        and res.state.k <= 200
        and float(np.max(np.abs(res.state.x - 0.5))) <= 1e-5
        and portfolio.quadratic_time < 1.0
    )
    report(
        1,
        ok,
        f"quadratic solved in {res.state.k} iterations, kkt={res.final_kkt:.2e}, "
        f"x={res.state.x}, {portfolio.quadratic_time:.2f}s",
    )
    assert res.converged and res.state.k <= 200
    assert res.final_kkt <= 1e-6
    assert float(np.max(np.abs(res.state.x - 0.5))) <= 1e-5
    assert portfolio.quadratic_time < 1.0


def test_criterion_2_saddle_escape(portfolio):
    results = portfolio.saddle_escape
    escaped = 0
    for (noise, seed), res in results.items():
        stopped_at_stationarity = res.converged and res.state.k <= 10_000
        near_minimum = float(np.linalg.norm(res.state.x - SADDLE_MIN)) <= 0.05
        certified = max(res.final_kkt, res.final_tau) <= 1e-4
        escaped += stopped_at_stationarity and near_minimum and certified
    lownoise_iters = [results[(1e-8, s)].state.k for s in SEEDS]
    median_low = float(np.median(lownoise_iters))
    ok = escaped == 20 and median_low <= 300 and portfolio.saddle_escape_time < 120.0
    report(
        2,
        ok,
        f"{escaped}/20 runs escaped to the minimum; median iterations at the lowest "
        f"noise {median_low:.0f}; {portfolio.saddle_escape_time:.1f}s total",
    )
    assert escaped == 20
    assert median_low <= 300
    assert portfolio.saddle_escape_time < 120.0


def test_criterion_3_saddle_trapping_contrast(portfolio):
    saddle = trsqp.make_saddle()
    trapped = 0
    taus = []
    for res in portfolio.saddle_trap:
        _, tau_plus = trsqp.true_kkt(saddle, res.state.x)
        taus.append(-tau_plus)
        trapped += tau_plus >= 0.5  # true tau <= -0.5
    escaped = 0
    eigen_steps = []
    for res in portfolio.saddle_contrast:
        certified = max(res.final_kkt, res.final_tau) <= 1e-4
        near_minimum = float(np.linalg.norm(res.state.x - SADDLE_MIN)) <= 0.05
        escaped += certified and near_minimum
        eigen_steps.append(sum(r.step_kind == steps.EIGEN_STEP for r in res.records))
    ok = trapped == 5 and escaped == 5 and all(eigen_steps)
    report(
        3,
        ok,
        f"{trapped}/5 first-order runs ended at strong negative curvature "
        f"(tau values {['%.2f' % t for t in taus]}); {escaped}/5 "
        f"second-order runs from the same starts certified at the minimum "
        f"(eigen steps {eigen_steps})",
    )
    assert trapped == 5, (
        "a first-order run left the saddle from its symmetry axis, where the reduced "
        "gradient vanishes exactly; see docs/decisions.md"
    )
    assert escaped == 5
    assert all(eigen_steps)


def test_criterion_4_logistic_regression(portfolio):
    good = 0
    drops = []
    for res in portfolio.logistic:
        kkts = [r.kkt_true for r in res.records]
        converged = res.converged and res.state.k <= 10_000 and res.final_kkt <= 1e-2
        good += converged
        drops.append(kkts[0] / min(min(kkts), res.final_kkt))
    ok = good >= 4 and all(d >= 100.0 for d in drops)
    report(
        4,
        ok,
        f"{good}/5 logistic runs reached KKT 1e-2; running-min KKT drop factors "
        f"{['%.0f' % d for d in drops]}",
    )
    assert good >= 4
    assert all(d >= 100.0 for d in drops)


def test_criterion_5_per_iteration_invariants(portfolio):
    total_iters = 0
    total_checks = 0
    violations = {}
    for res in portfolio.all_runs():
        total_iters += len(res.records)
        total_checks += sum(res.invariants.checked.values())
        for name, count in res.invariants.violations.items():
            violations[name] = violations.get(name, 0) + count
    ok = total_iters >= 10_000 and not violations
    report(
        5,
        ok,
        f"{total_iters} logged iterations, {total_checks} invariant checks, "
        f"violations: {violations or 'none'}",
    )
    assert total_iters >= 10_000
    assert not violations


def test_criterion_6_estimator_statistics():
    # Uncapped regime for all three batch rules: alpha=1 at the radius cap.
    prob = gaussian_noisy(trsqp.make_quadratic(), GaussianNoiseSpec(1e-2))
    config = SolverConfig(alpha=1)
    delta, eps = 5.0, 0.05
    n_f = estimator.batch_size(estimator.VALUE, delta, eps, config)
    n_g = estimator.batch_size(estimator.GRADIENT, delta, eps, config)
    n_h = estimator.batch_size(estimator.HESSIAN, delta, eps, config)
    assert max(n_f, n_g, n_h) < config.batch_cap, "batch rules must be uncapped here"

    x = np.array([0.8, -0.3])
    f_true = prob.noiseless.value(x)
    g_true = prob.noiseless.gradient(x)
    h_true = prob.noiseless.hessian(x)
    fail_h = fail_g = fail_f = 0
    sq_errs = []
    for trial in range(1000):
        stream = RngStream(trial).child("mc6")
        h_bar = prob.sampler.hessians(x, n_h, stream.child("h"))
        if linalg.spectral_norm(h_bar - h_true) > config.kappa_h * delta:
            fail_h += 1
        g_bar, _ = estimator.estimate_gradient(prob, x, delta, config, stream.child("g"))
        if np.linalg.norm(g_bar - g_true) > config.kappa_g * delta**2:
            fail_g += 1
        f_bar, _ = estimator.estimate_value(prob, x, delta, eps, config, stream.child("f"))
        err = abs(f_bar - f_true)
        if err > config.kappa_f * delta**3:
            fail_f += 1
        sq_errs.append(err**2)
    freqs = (fail_h / 1000, fail_g / 1000, fail_f / 1000)
    second_moment = float(np.mean(sq_errs))
    ok = all(f <= 0.05 for f in freqs) and second_moment <= eps**2
    report(
        6,
        ok,
        f"failure frequencies (hessian, gradient, value) = {freqs} vs nominal 0.9; "
        f"value second moment {second_moment:.2e} <= {eps**2:.2e}",
    )
    assert freqs[0] <= config.p_h and freqs[1] <= config.p_g and freqs[2] <= config.p_f
    assert all(f <= 0.05 for f in freqs)
    assert second_moment <= eps**2


def test_criterion_7_merit_stabilization_and_radius_decay(portfolio):
    unstable = []
    for res in portfolio.all_runs():
        mus = [r.mu for r in res.records]
        if len(mus) >= 2 and any(m != mus[-1] for m in mus[len(mus) // 2 :]):
            unstable.append(res.state.k)
    deltas = [r.delta for r in portfolio.long_noisy.records]
    tail_median = float(np.median(deltas[int(0.9 * len(deltas)) :]))
    ok = not unstable and tail_median < 1.0 / 10.0
    report(
        7,
        ok,
        f"merit parameter constant over the final half on all "
        f"{sum(1 for _ in portfolio.all_runs())} runs; median radius over the last "
        f"10% of the 5000-iteration noisy run {tail_median:.2e} < 0.1",
    )
    assert not unstable
    assert tail_median < 0.1


OBJECTIVE_SCALES = (1e-3, 1.0, 1e3)


@dataclass
class ScaledModel:
    """Exact models of the saddle problem with its objective scaled."""

    c: np.ndarray
    J: linalg.JacobianFactor
    grad_l: np.ndarray
    h_norm: float
    tau_plus: float
    kkt: float  # ||(grad_L, c)||, the norm the solver hands to the selection


def _scaled_saddle(scale: float, x: np.ndarray) -> ScaledModel:
    base = trsqp.make_saddle()
    oracle = base.noiseless
    c = base.constraint(x)
    G = base.jacobian(x)
    J = linalg.nullspace_basis(G)
    Z = J.Z
    grad = scale * oracle.gradient(x)
    lam = estimator.estimate_multiplier(G, grad)
    grad_l = grad + G.T @ lam
    H = scale * oracle.hessian(x) + np.tensordot(lam, base.constraint_hessians(x), axes=1)
    tau, _ = linalg.smallest_eigpair(Z.T @ H @ Z)
    return ScaledModel(
        c=c,
        J=J,
        grad_l=grad_l,
        h_norm=linalg.spectral_norm(H),
        tau_plus=abs(min(tau, 0.0)),
        kkt=float(np.sqrt(grad_l @ grad_l + c @ c)),
    )


def _selected_kind(model: ScaledModel, delta: float) -> str:
    c_norm = float(np.linalg.norm(model.c))
    kind, _ = steps.select_step_type(model.kkt, model.h_norm, model.tau_plus, c_norm, delta)
    return kind


def _decomposition_snapshot(model: ScaledModel, kind: str, delta: float) -> np.ndarray:
    """gamma, normal/delta and tangential/delta of a step of type ``kind``."""
    c_rs, grad_l_rs = steps.rescaled_residuals(model.c, model.J, model.grad_l, model.h_norm)
    if kind == steps.GRADIENT_STEP:
        opt = float(np.linalg.norm(grad_l_rs))
    else:
        opt = model.tau_plus / model.h_norm
    split = steps.split_radius(delta, float(np.linalg.norm(c_rs)), opt)
    gamma, _ = steps.normal_step(model.c, model.J, split.normal)
    return np.array([gamma, split.normal / delta, split.tangential / delta])


def test_criterion_8_scale_invariance():
    # The decomposition is checked with the step type held fixed across the
    # scales. The selection is objective-scale invariant only at c = 0, since
    # ||(grad_L, c)|| mixes objective and constraint units (docs/decisions.md).
    rng = np.random.default_rng(88)
    worst = 0.0
    snapshots = {steps.GRADIENT_STEP: 0, steps.EIGEN_STEP: 0}
    flips = []  # (||c||, tau_plus) where the selection changes with the scale
    feasible_flips = 0
    states = 0
    while states < 100:
        x = rng.uniform(-1.5, 1.5, size=2)
        if np.linalg.norm(x) < 0.2:
            continue
        states += 1
        delta = float(rng.uniform(0.1, 2.0))
        models = [_scaled_saddle(s, x) for s in OBJECTIVE_SCALES]
        kinds = [steps.GRADIENT_STEP]
        if all(m.tau_plus > 0.0 for m in models):
            kinds.append(steps.EIGEN_STEP)
        for kind in kinds:
            rows = [_decomposition_snapshot(m, kind, delta) for m in models]
            worst = max(worst, *(float(np.max(np.abs(r - rows[1]))) for r in rows))
            snapshots[kind] += 1
        if len({_selected_kind(m, delta) for m in models}) > 1:
            flips.append((float(np.linalg.norm(models[1].c)), models[1].tau_plus))
        on_circle = x / np.linalg.norm(x)
        feasible = [_scaled_saddle(s, on_circle) for s in OBJECTIVE_SCALES]
        feasible_flips += len({_selected_kind(m, delta) for m in feasible}) > 1
    explained = all(c_norm > 0.0 and tau_plus > 0.0 for c_norm, tau_plus in flips)
    ok = worst <= 1e-12 and snapshots[steps.EIGEN_STEP] > 0 and feasible_flips == 0 and explained
    report(
        8,
        ok,
        f"decomposition ratios invariant at all {states} states "
        f"({snapshots[steps.GRADIENT_STEP]} gradient, {snapshots[steps.EIGEN_STEP]} eigen "
        f"snapshots, worst mismatch {worst:.1e}); step-type selection flipped at "
        f"{len(flips)}/{states} states, all infeasible with negative curvature, and at "
        f"{feasible_flips}/{states} of their feasible projections",
    )
    assert worst <= 1e-12
    assert snapshots[steps.EIGEN_STEP] > 0
    assert feasible_flips == 0
    assert explained, (
        "the step-type selection flipped at a feasible state or one without negative "
        "curvature, where both of its sides scale linearly; see docs/decisions.md"
    )


def test_criterion_9_determinism(tmp_path):
    args = [
        "run", "--problem", "saddle", "--alpha", "1", "--noise", "0.0001",
        "--seeds", "0", "1", "--max-iters", "150", "--kkt-tol", "1e-4",
    ]
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert cli_main(args + ["--out", str(out)]) == 0
        outs.append(out)
    csv_names = sorted(p.name for p in outs[0].glob("*.csv"))
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in csv_names
    )
    summaries = []
    for out in outs:
        payload = json.loads((out / "summary.json").read_text())
        for entry in payload["runs"]:
            entry.pop("wall_time")
        summaries.append(payload)
    ok = identical and summaries[0] == summaries[1]
    report(9, ok, f"{len(csv_names)} trajectory files byte-identical across reruns")
    assert identical
    assert summaries[0] == summaries[1]
