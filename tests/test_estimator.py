import math
from dataclasses import replace

import numpy as np
import pytest

from trsqp import estimator
from trsqp.benchmarks import make_quadratic, make_saddle
from trsqp.errors import NonFiniteInput, RankDeficient
from trsqp.estimator import (
    GRADIENT,
    HESSIAN,
    VALUE,
    HESSIAN_STRATEGIES,
    AveragedLagrangianHessian,
    BatchedLagrangianHessian,
    IdentityHessian,
    SR1Hessian,
    batch_size,
    build_hessian,
    estimate_gradient,
    estimate_multiplier,
    estimate_value,
    estimate_values,
)
from trsqp.linalg import nullspace_basis
from trsqp.problem import GaussianNoiseSpec, gaussian_noisy
from trsqp.rng import RngStream
from trsqp.solver import SolverConfig, SolverState, run


class TestBatchSize:
    def test_gradient_unit_radius(self):
        config = SolverConfig(alpha=0, kappa_g=0.05, p_g=0.9, c_g=5.0)
        assert batch_size(GRADIENT, 1.0, 1.0, config) == math.ceil(5.0 / (0.9 * 0.0025))
        assert batch_size(GRADIENT, 1.0, 1.0, config) == 2223

    def test_gradient_small_radius_capped(self):
        config = SolverConfig(alpha=0)
        assert batch_size(GRADIENT, 0.1, 1.0, config) == 10_000

    def test_value_capped_with_loose_reliability(self):
        config = SolverConfig(alpha=0)
        assert batch_size(VALUE, 1.0, 1e9, config) == 10_000

    def test_value_reliability_drives_batch(self):
        config = SolverConfig(alpha=0)
        # eps smaller than kappa_f * delta^2 takes over the denominator.
        n = batch_size(VALUE, 100.0, 0.05, config)
        assert n == math.ceil(5.0 / (0.9 * 0.05**2))

    def test_alpha_sharpens_exponents(self):
        c0 = SolverConfig(alpha=0)
        c1 = SolverConfig(alpha=1)
        assert batch_size(GRADIENT, 0.5, 1.0, c1) > batch_size(GRADIENT, 0.5, 1.0, c0)
        assert batch_size(HESSIAN, 0.5, 1.0, c1) == batch_size(HESSIAN, 0.5, 1.0, c0)

    def test_floor_is_one(self):
        config = SolverConfig(alpha=0, c_g=1e-12)
        assert batch_size(GRADIENT, 5.0, 1.0, config) == 1

    @pytest.mark.parametrize(
        "alpha, n_f, n_g, n_h, n_f_eps",
        [(0, 343, 62, 28, 1372), (1, 153, 28, 28, 610)],
    )
    def test_each_kind_matches_hand_computed_rule(self, alpha, n_f, n_g, n_h, n_f_eps):
        # ceil(c / (p (kappa delta^e)^2)) at delta = 1.5, p = 0.9, with
        # e = alpha+2 and kappa_f = 0.4^3/80, c = 1e-3 (value); e = alpha+1,
        # kappa = 0.2, c = 5 (gradient); e = 1, kappa = 0.3, c = 5 (Hessian).
        # An eps at half the value accuracy takes over and quadruples n_f.
        config = SolverConfig(alpha=alpha, kappa_g=0.2, kappa_h=0.3, c_f=1e-3)
        assert batch_size(VALUE, 1.5, 1.0, config) == n_f
        assert batch_size(GRADIENT, 1.5, 1.0, config) == n_g
        assert batch_size(HESSIAN, 1.5, 1.0, config) == n_h
        eps = 0.5 * config.kappa_f * 1.5 ** (alpha + 2)
        assert batch_size(VALUE, 1.5, eps, config) == n_f_eps

    @pytest.mark.parametrize("kind", [VALUE, GRADIENT, HESSIAN])
    def test_underflowing_accuracy_gives_cap(self, kind):
        # (kappa delta^e)^2 underflows to 0 at delta = 1e-200, so p times it
        # is 0 and the guard returns batch_cap rather than dividing by it.
        config = SolverConfig(alpha=1)
        assert batch_size(kind, 1e-200, 1e-200, config) == config.batch_cap

    @pytest.mark.parametrize(
        "kind, delta, eps, message",
        [
            (GRADIENT, 0.0, 1.0, "delta must be positive"),
            (VALUE, -1.0, 1.0, "delta must be positive"),
            ("curvature", 1.0, 1.0, "unknown batch kind 'curvature'"),
            (VALUE, 1.0, 0.0, "eps must be positive"),
            (VALUE, 1.0, -1.0, "eps must be positive"),
            (HESSIAN, math.nan, 1.0, "delta must be positive"),
            (VALUE, 5.0, math.nan, "eps must be positive"),
        ],
        ids=[
            "delta-zero",
            "delta-negative",
            "unknown-kind",
            "eps-zero",
            "eps-negative",
            "delta-nan",
            "eps-nan",
        ],
    )
    def test_rejects_bad_input(self, kind, delta, eps, message):
        with pytest.raises(ValueError, match=message):
            batch_size(kind, delta, eps, SolverConfig())


class TestGradientEstimate:
    def test_exact_at_zero_noise(self):
        prob = gaussian_noisy(make_quadratic(), GaussianNoiseSpec(0.0))
        x = np.array([2.0, -1.0])
        g, n = estimate_gradient(prob, x, 1.0, SolverConfig(alpha=0), RngStream(0).child(0))
        assert np.array_equal(g, prob.noiseless.gradient(x))
        assert n == 2223

    def test_chebyshev_event_frequency(self):
        # The accuracy event must fail far less often than its nominal p.
        prob = gaussian_noisy(make_quadratic(), GaussianNoiseSpec(1e-2))
        config = SolverConfig(alpha=0)
        x = np.array([0.3, 0.3])
        g_true = prob.noiseless.gradient(x)
        failures = sum(
            np.linalg.norm(
                estimate_gradient(prob, x, 1.0, config, RngStream(t).child("mc"))[0] - g_true
            )
            > config.kappa_g
            for t in range(300)
        )
        assert failures / 300 <= config.p_g


class TestValueEstimates:
    def test_exact_at_zero_noise(self):
        prob = gaussian_noisy(make_quadratic(), GaussianNoiseSpec(0.0))
        f_k, f_s, n = estimate_values(
            prob,
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            1.0,
            1.0,
            SolverConfig(alpha=0),
            RngStream(0).child("v"),
        )
        assert f_k == prob.noiseless.value(np.array([1.0, 0.0]))
        assert f_s == prob.noiseless.value(np.array([0.0, 1.0]))

    def test_identical_points_agree_bitwise(self):
        prob = gaussian_noisy(make_quadratic(), GaussianNoiseSpec(1e-2))
        x = np.array([0.25, -0.75])
        f_k, f_s, _ = estimate_values(
            prob, x, x.copy(), 1.0, 1.0, SolverConfig(alpha=0), RngStream(5).child("v")
        )
        assert f_k == f_s

    def test_second_moment_bounded_by_reliability(self):
        prob = gaussian_noisy(make_quadratic(), GaussianNoiseSpec(1e-2))
        config = SolverConfig(alpha=1)
        x = np.array([0.1, 0.9])
        f_true = prob.noiseless.value(x)
        eps = 0.05
        sq_errs = []
        for t in range(400):
            f_bar, _ = estimate_value(prob, x, 5.0, eps, config, RngStream(t).child("mc2"))
            sq_errs.append((f_bar - f_true) ** 2)
        assert np.mean(sq_errs) <= eps**2


class TestMultiplier:
    def test_kernel_gradient_gives_zero(self):
        lam = estimate_multiplier(np.array([[1.0, 0.0]]), np.array([0.0, 1.0]))
        assert np.allclose(lam, [0.0], atol=1e-14)

    def test_image_gradient_cancels(self):
        lam = estimate_multiplier(np.array([[1.0, 0.0]]), np.array([2.0, 0.0]))
        assert np.allclose(lam, [-2.0], atol=1e-13)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            G = rng.standard_normal((2, 4))
            g = rng.standard_normal(4)
            lam = estimate_multiplier(G, g)
            lam_ref = -np.linalg.solve(G @ G.T, G @ g)
            assert np.allclose(lam, lam_ref, atol=1e-10)
            resid = g + G.T @ lam
            assert np.linalg.norm(G @ resid) <= 1e-10

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficient):
            estimate_multiplier(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))


class TestHessianStrategies:
    def _ctx(self, variance=0.0, alpha=1):
        prob = gaussian_noisy(make_saddle(), GaussianNoiseSpec(variance))
        config = SolverConfig(alpha=alpha)
        return prob, config

    def test_identity(self):
        prob, config = self._ctx(alpha=0)
        strat = IdentityHessian()
        x = np.array([0.5, 0.5])
        G = prob.jacobian(x)
        J = nullspace_basis(G)
        H, n = build_hessian(
            strat, prob, x, np.zeros(1), np.zeros(2), 1.0, config, RngStream(0).child(0)
        )
        assert np.array_equal(H, np.eye(2))
        assert n == 0

    def test_lagrangian_at_saddle(self):
        # Exact oracles at the saddle point: multiplier -1, Lagrangian
        # Hessian diag(-2, -1), reduced curvature -1.
        prob, config = self._ctx(alpha=1)
        x = np.array([1.0, 0.0])
        G = prob.jacobian(x)
        g = prob.noiseless.gradient(x)
        lam = estimate_multiplier(G, g)
        assert lam == pytest.approx([-1.0])
        J = nullspace_basis(G)
        strat = BatchedLagrangianHessian()
        H, n = build_hessian(
            strat, prob, x, lam, g + G.T @ lam, 1.0, config, RngStream(0).child(0)
        )
        assert np.allclose(H, np.diag([-2.0, -1.0]), atol=1e-12)
        reduced = J.reduce(H)
        assert reduced.smallest()[0] == pytest.approx(-1.0, abs=1e-12)
        assert reduced.tau_plus == pytest.approx(1.0, abs=1e-12)

    def test_lagrangian_at_minimum(self):
        prob, config = self._ctx(alpha=1)
        x = np.array([-1.0, 0.0])
        G = prob.jacobian(x)
        g = prob.noiseless.gradient(x)
        lam = estimate_multiplier(G, g)
        assert lam == pytest.approx([1.0])
        J = nullspace_basis(G)
        strat = BatchedLagrangianHessian()
        H, _ = build_hessian(
            strat, prob, x, lam, g + G.T @ lam, 1.0, config, RngStream(0).child(0)
        )
        reduced = J.reduce(H)
        assert reduced.w == pytest.approx([3.0], abs=1e-12)
        assert reduced.tau_plus == 0.0

    def test_sr1_secant_and_skip(self):
        strat = SR1Hessian()
        prob, config = self._ctx(alpha=0)
        x0, g0 = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        x1, g1 = np.array([1.0, 0.5]), np.array([0.0, 2.0])
        strat.build(prob, x0, None, g0, 1.0, config, RngStream(0).child(0))
        H, n = strat.build(prob, x1, None, g1, 1.0, config, RngStream(0).child(1))
        assert n == 0
        s, y = x1 - x0, g1 - g0
        assert np.allclose(H @ s, y, atol=1e-12)  # secant equation
        # Unchanged iterate: the update is skipped, H carries over.
        H2, _ = strat.build(prob, x1, None, g1 + 1.0, 1.0, config, RngStream(0).child(2))
        assert np.array_equal(H2, H)

    def test_aveh_is_window_mean(self):
        prob, config = self._ctx(variance=1e-2, alpha=0)
        strat = AveragedLagrangianHessian(window=3)
        x = np.array([0.2, 0.8])
        lam = np.array([0.0])
        seen = []
        for k in range(5):
            H, n = strat.build(prob, x, lam, np.zeros(2), 1.0, config, RngStream(0).child(k))
            assert n == 1
            sample = prob.sampler.hessians(x, 1, RngStream(0).child(k))
            seen.append(sample)  # lam = 0 so the constraint term vanishes
            expected = np.mean(seen[-3:], axis=0)
            assert np.allclose(H, expected, atol=1e-12)

    def test_esth_single_draw(self):
        # EstH is the window-1 average: each build is this iteration's draw
        # alone, bit for bit, with nothing carried over from earlier builds.
        prob, config = self._ctx(variance=1e-2, alpha=0)
        strat = HESSIAN_STRATEGIES["esth"]()
        assert isinstance(strat, AveragedLagrangianHessian)
        x = np.array([0.3, -0.3])
        lam = np.array([0.5])
        for k in range(3):
            H, n = strat.build(prob, x, lam, np.zeros(2), 1.0, config, RngStream(1).child(k))
            assert n == 1
            sample = prob.sampler.hessians(x, 1, RngStream(1).child(k))
            assert np.array_equal(H, sample + 0.5 * 2.0 * np.eye(2))

    def test_alpha1_overrides_strategy_name(self):
        prob, _ = self._ctx(alpha=1)
        state = SolverState.initial(prob, np.zeros(2), SolverConfig(alpha=1, hessian="sr1"))
        assert type(state.strategy).__name__ == "BatchedLagrangianHessian"

    @pytest.mark.parametrize("d", [3, 15])
    def test_identity_size_read_from_x(self, d):
        # IdentityHessian and a fresh SR1Hessian read the dimension off x
        # and nothing off the problem, config or stream.
        x = np.linspace(-1.0, 1.0, d)
        for strat in (IdentityHessian(), SR1Hessian()):
            H, n = strat.build(None, x, None, np.zeros(d), 1.0, None, None)
            assert np.array_equal(H, np.eye(d))
            assert n == 0


class TestEstimateModels:
    def test_bundle_at_saddle(self):
        prob = gaussian_noisy(make_saddle(), GaussianNoiseSpec(0.0))
        x = np.array([1.0, 0.0])
        cfg = SolverConfig(alpha=1)
        c, J = prob.constraint(x), nullspace_basis(prob.jacobian(x))
        est = estimator.estimate_models(
            prob, x, c, J, BatchedLagrangianHessian(),
            1.0, cfg, RngStream(0).child(0),
        )
        state = SolverState.initial(prob, x, cfg)
        assert est.kkt_norm == pytest.approx(0.0, abs=1e-14)
        assert state.reduced(est.hessian, J).tau_plus == pytest.approx(1.0, abs=1e-12)
        assert state.hessian_norm(est.hessian) == pytest.approx(2.0, abs=1e-12)
        assert est.batch_grad > 0 and est.batch_hess > 0

    def test_zero_kkt_passed_through(self):
        # A constant objective at a feasible point has an exactly zero KKT
        # estimate, and the bundle reports it for the progress test to fail.
        from trsqp.problem import NoiselessOracle, exact_problem

        prob = exact_problem(
            2, 1,
            NoiselessOracle(
                value=lambda x: 0.0,
                gradient=lambda x: np.zeros(2),
                hessian=lambda x: np.zeros((2, 2)),
            ),
            constraint=lambda x: np.array([x[0]]),
            jacobian=lambda x: np.array([[1.0, 0.0]]),
            constraint_hessians=lambda x: np.zeros((1, 2, 2)),
        )
        x = np.array([0.0, 0.7])
        c, J = prob.constraint(x), nullspace_basis(prob.jacobian(x))
        est = estimator.estimate_models(
            prob, x, c, J, IdentityHessian(),
            1.0, SolverConfig(alpha=0), RngStream(0).child(0),
        )
        assert est.kkt_norm == 0.0


class _NaNSampler:
    """Sampler proxy whose means of one kind are NaN."""

    def __init__(self, inner, kind):
        self._inner, self._kind = inner, kind

    def __getattr__(self, name):
        draw = getattr(self._inner, name)
        if name != self._kind:
            return draw
        return lambda x, n, stream: draw(x, n, stream) * np.nan


class TestNonFiniteSamples:
    # Without the check a NaN gradient made the KKT norm NaN, which picked an
    # eigen step on a first-order run, and a NaN value made Ared NaN, which
    # rejected every step until the radius floor.
    @pytest.mark.parametrize(
        "make, alpha, kind",
        [(make_quadratic, 0, "gradients"), (make_saddle, 1, "values")],
    )
    def test_nan_mean_raises(self, make, alpha, kind):
        noisy = gaussian_noisy(make(), GaussianNoiseSpec(1e-2))
        prob = replace(noisy, sampler=_NaNSampler(noisy.sampler, kind))
        config = SolverConfig(alpha=alpha, max_iters=50, seed=0)
        with pytest.raises(NonFiniteInput, match=f"sampled {kind}"):
            run(prob, np.array([0.6, 0.9]), config)
