import numpy as np
import pytest

from trsqp import linalg
from trsqp.benchmarks import make_saddle
from trsqp.steps import (
    EIGEN_STEP,
    GRADIENT_STEP,
    build_trial_step,
    normal_step,
    predicted_reduction,
    rescaled_residuals,
    select_step_type,
    soc_step,
    split_radius,
    tangential_eigen,
    tangential_gradient,
)


def random_state(rng, d=None, m=None):
    d = d or int(rng.integers(3, 7))
    m = m or int(rng.integers(1, d - 1))
    G = rng.standard_normal((m, d))
    c = rng.standard_normal(m)
    grad = rng.standard_normal(d)
    H = rng.standard_normal((d, d))
    H = 0.5 * (H + H.T)
    J = linalg.nullspace_basis(G)
    grad_l = grad + G.T @ J.multiplier(grad)
    return c, J, grad, H, grad_l


class TestRescaledResiduals:
    def test_all_zero(self):
        c_rs, gl_rs = rescaled_residuals(
            np.zeros(1), linalg.nullspace_basis(np.array([[1.0, 1.0]])), np.zeros(2), 1.0
        )
        assert not c_rs.any() and not gl_rs.any()

    def test_feasibility_scaling(self):
        # ||G|| = 2 halves the feasibility residual twice over.
        c_rs, _ = rescaled_residuals(
            np.array([4.0]), linalg.nullspace_basis(np.array([[2.0, 0.0]])), np.zeros(2), 1.0
        )
        assert np.allclose(c_rs, [2.0])

    def test_objective_scale_invariance(self):
        rng = np.random.default_rng(0)
        c, J, grad, H, grad_l = random_state(rng)
        base = rescaled_residuals(c, J, grad_l, linalg.spectral_norm(H))
        scaled = rescaled_residuals(c, J, 7.0 * grad_l, linalg.spectral_norm(7.0 * H))
        assert np.array_equal(base[0], scaled[0])
        assert np.allclose(base[1], scaled[1], atol=1e-14)

    def test_zero_hessian_norm_leaves_grad_l_unscaled(self):
        # A zero model has no scale: grad_L is divided by 1, as in the
        # solver's progress test.
        J = linalg.nullspace_basis(np.array([[1.0, 0.0]]))
        grad_l = np.array([0.0, 3.0])
        c_rs, gl_rs = rescaled_residuals(np.array([2.0]), J, grad_l, 0.0)
        assert np.array_equal(c_rs, [2.0])
        assert np.array_equal(gl_rs, grad_l)


class TestSplitRadius:
    def test_feasible_gradient_mode(self):
        split = split_radius(1.5, 0.0, 2.0)
        assert split.normal == 0.0
        assert split.tangential == pytest.approx(1.5)

    def test_feasible_eigen_mode(self):
        split = split_radius(2.0, 0.0, 0.7)
        assert split.normal == 0.0
        assert split.tangential == pytest.approx(2.0)

    def test_three_four_five(self):
        split = split_radius(5.0, 3.0, 4.0)
        assert split.normal == pytest.approx(3.0, abs=1e-12)
        assert split.tangential == pytest.approx(4.0, abs=1e-12)

    def test_pythagorean_property(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            delta = float(rng.uniform(0.01, 5.0))
            a, b = rng.uniform(0.0, 3.0, size=2)
            if a + b == 0.0:
                continue
            split = split_radius(delta, a, b)
            assert abs(split.normal**2 + split.tangential**2 - delta**2) <= 1e-10 * delta**2


class TestNormalStep:
    ROW_OF_ONES = linalg.nullspace_basis(np.array([[1.0, 1.0]]))

    def test_feasible_point(self):
        gamma, w = normal_step(np.zeros(1), self.ROW_OF_ONES, 0.5)
        assert gamma == 1.0
        assert np.array_equal(w, np.zeros(2))

    def test_shrink_factor(self):
        # ||v|| = sqrt(2), radius 0.5 -> gamma = 0.5/sqrt(2).
        gamma, w = normal_step(np.array([2.0]), self.ROW_OF_ONES, 0.5)
        assert gamma == pytest.approx(0.5 / np.sqrt(2.0))
        assert np.allclose(w, gamma * np.array([-1.0, -1.0]))
        assert np.linalg.norm(w) == pytest.approx(0.5)

    def test_full_pullback_inside_radius(self):
        gamma, w = normal_step(np.array([2.0]), self.ROW_OF_ONES, 2.0)
        assert gamma == 1.0
        assert np.allclose(w, [-1.0, -1.0])


class TestTangentialGradient:
    def test_reduced_cauchy_example(self):
        # Reduced problem is the 2-d identity instance with g = (3, 4).
        Z = np.eye(4)[:, :2]
        H = np.eye(4)
        grad = np.array([3.0, 4.0, 0.0, 0.0])
        u = tangential_gradient(linalg.SymmetricEig.of(Z.T @ H @ Z), Z.T @ grad, 1.0)
        m = linalg.model_value(Z.T @ H @ Z, Z.T @ grad, u)
        assert m == pytest.approx(-4.5, abs=1e-10)

    def test_zero_radius(self):
        Z = np.eye(3)[:, :1]
        u = tangential_gradient(linalg.SymmetricEig.of(np.eye(1)), Z.T @ np.ones(3), 0.0)
        assert np.array_equal(u, np.zeros(1))

    def test_zero_reduced_gradient_psd(self):
        Z = np.eye(3)[:, :2]
        u = tangential_gradient(linalg.SymmetricEig.of(np.eye(2)), Z.T @ np.zeros(3), 1.0)
        assert np.linalg.norm(u) <= 1e-12

    def test_step_short_of_cauchy_fraction_is_returned(self, monkeypatch):
        # A zero step has model value 0, above the bound -2.5 of the identity
        # model with g_r = (3, 4) at radius 1. The step is the solve's own;
        # solver.check_step records the miss as its cauchy_fraction row.
        monkeypatch.setattr(linalg.SymmetricEig, "trs", lambda self, g, radius: np.zeros_like(g))
        reduced = linalg.SymmetricEig.of(np.eye(2))
        u = tangential_gradient(reduced, np.array([3.0, 4.0]), 1.0)
        assert np.array_equal(u, np.zeros(2))


class TestTangentialEigen:
    def test_exact_eigenvector_conditions(self):
        H = np.diag([-2.0, 1.0, 3.0])
        Z = np.eye(3)[:, :2]
        H_r = Z.T @ H @ Z
        u = tangential_eigen(linalg.SymmetricEig.of(H_r), np.zeros(2), 1.0)
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert u @ H_r @ u == pytest.approx(-2.0)
        assert u @ H_r @ u <= -1.0 * 2.0 * 1.0**2 + 1e-12

    def test_sign_rule(self):
        H = np.diag([-1.0, 2.0])
        Z = np.eye(2)[:, :1]
        grad = np.array([3.0, 0.0])
        g_r = Z.T @ grad
        u = tangential_eigen(linalg.SymmetricEig.of(Z.T @ H @ Z), g_r, 0.5)
        assert float(g_r @ u) <= 0.0

    def test_zero_curvature_scales_the_bottom_eigenvector(self):
        # The solver picks an eigen step only at negative curvature; called
        # directly at zero curvature it still returns the scaled eigenvector.
        S = np.diag([0.0, 2.0])
        u = tangential_eigen(linalg.SymmetricEig.of(S), np.array([1.0, 0.0]), 0.5)
        assert np.array_equal(u, [-0.5, 0.0])


class TestSocStep:
    def test_affine_constraints_give_zero(self):
        prob = _affine_problem()
        x = np.array([0.3, -0.2, 0.9])
        dx = np.array([0.1, 0.2, -0.1])
        J = linalg.nullspace_basis(prob.jacobian(x))
        d = soc_step(prob.constraint(x), prob.constraint(x + dx), dx, J)
        assert np.max(np.abs(d)) <= 1e-14

    def test_zero_step_gives_zero(self):
        prob = make_saddle()
        x = np.array([1.0, 0.0])
        c = prob.constraint(x)
        d = soc_step(c, c, np.zeros(2), linalg.nullspace_basis(prob.jacobian(x)))
        assert np.array_equal(d, np.zeros(2))

    def test_saddle_hand_expansion(self):
        # c(x + (0, t)) - c - G (0, t) = t^2 at (1, 0), pulled back through
        # G = (2, 0) gives (-t^2/2, 0).
        prob = make_saddle()
        x = np.array([1.0, 0.0])
        t = 0.3
        dx = np.array([0.0, t])
        J = linalg.nullspace_basis(prob.jacobian(x))
        d = soc_step(prob.constraint(x), prob.constraint(x + dx), dx, J)
        assert np.allclose(d, [-(t**2) / 2.0, 0.0], atol=1e-14)


class TestSelectStepType:
    def test_zero_curvature_always_gradient(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            kkt, h_norm = float(rng.uniform(0, 3)), float(rng.uniform(0.1, 3))
            delta = float(rng.uniform(0.01, 2))
            kind, decrease = select_step_type(kkt, h_norm, 0.0, float(rng.uniform(0, 2)), delta)
            assert kind == GRADIENT_STEP
            assert decrease == kkt * min(delta, kkt / h_norm)

    def test_zero_kkt_with_curvature_is_eigen(self):
        assert select_step_type(0.0, 1.0, 0.5, 0.0, 1.0) == (EIGEN_STEP, 0.5)

    def test_direct_evaluation(self):
        # LHS = 1 * min(0.5, 1) = 0.5 >= RHS = 1 * 0.5 * 0.5 = 0.25.
        assert select_step_type(1.0, 1.0, 1.0, 0.0, 0.5) == (GRADIENT_STEP, 0.5)

    def test_zero_hessian_norm_uses_radius(self):
        assert select_step_type(1.0, 0.0, 0.5, 0.0, 2.0) == (GRADIENT_STEP, 2.0)


class TestPredictedReduction:
    def test_zero_step(self):
        assert predicted_reduction(np.ones(2), np.eye(2), 3.0, 0.0, np.zeros(2)) == 0.0

    def test_direct_arithmetic(self):
        # g.dx = -1, dx.H.dx / 2 = 0.5 and mu * drop = 11 * 0.
        pred = predicted_reduction(
            np.array([1.0, 0.0]), np.eye(2), 11.0, 0.0, np.array([-1.0, 0.0])
        )
        assert pred == pytest.approx(-0.5)

    def test_constraint_term_is_gamma_contraction(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            c, J, grad, H, grad_l = random_state(rng)
            step = build_trial_step(
                GRADIENT_STEP, c, J, grad, H, linalg.spectral_norm(H), grad_l, 1.0, J.reduce(H)
            )
            mu = float(rng.uniform(0.5, 20.0))
            c_norm = np.linalg.norm(c)
            drop = np.linalg.norm(c + J.G @ step.dx) - c_norm
            pred = predicted_reduction(grad, H, mu, drop, step.dx)
            pred_no_mu = predicted_reduction(grad, H, 0.0, drop, step.dx)
            assert pred - pred_no_mu == pytest.approx(-mu * step.gamma * c_norm, rel=1e-8)

class TestBuildTrialStep:
    def test_gradient_step_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            c, J, grad, H, grad_l = random_state(rng)
            G = J.G
            delta = float(rng.uniform(0.05, 3.0))
            step = build_trial_step(
                GRADIENT_STEP, c, J, grad, H, linalg.spectral_norm(H), grad_l, delta, J.reduce(H)
            )
            w_norm, t_norm = np.linalg.norm(step.w), np.linalg.norm(step.t)
            assert abs(step.w @ step.t) <= 1e-10 * max(w_norm * t_norm, 1e-300)
            assert np.linalg.norm(step.dx) <= delta * (1 + 1e-10)
            lin = np.linalg.norm(c + G @ step.dx)
            assert lin == pytest.approx((1.0 - step.gamma) * np.linalg.norm(c), rel=1e-8)

    def test_eigen_step_on_saddle(self):
        # At the saddle the reduced space is 1-d with curvature -1, the
        # feasibility residual vanishes, and the eigen step uses the whole
        # radius.
        prob = make_saddle()
        x = np.array([1.0, 0.0])
        c, J = prob.constraint(x), linalg.nullspace_basis(prob.jacobian(x))
        G, Z = J.G, J.Z
        grad = prob.noiseless.gradient(x)
        lam = J.multiplier(grad)
        H = prob.noiseless.hessian(x) + lam[0] * 2.0 * np.eye(2)
        grad_l = grad + G.T @ lam
        delta = 0.4
        step = build_trial_step(
            EIGEN_STEP, c, J, grad, H, linalg.spectral_norm(H), grad_l, delta, J.reduce(H)
        )
        assert step.split.tangential == pytest.approx(delta)
        assert np.linalg.norm(step.u) == pytest.approx(delta)
        H_r = Z.T @ H @ Z
        assert step.u @ H_r @ step.u <= -1.0 * delta**2 * (1 - 1e-12)

    def test_unknown_kind_is_an_error(self):
        prob = make_saddle()
        x = np.array([1.0, 0.0])
        c, J = prob.constraint(x), linalg.JacobianFactor.of(prob.jacobian(x))
        grad, H = prob.noiseless.gradient(x), prob.noiseless.hessian(x)
        with pytest.raises(ValueError, match="unknown step kind 'diagonal'"):
            build_trial_step("diagonal", c, J, grad, H, 1.0, grad, 0.4, J.reduce(H))


def _affine_problem():
    from trsqp.problem import NoiselessOracle, exact_problem

    A = np.array([[1.0, 2.0, -1.0]])
    b = np.array([0.5])
    return exact_problem(
        3,
        1,
        NoiselessOracle(
            value=lambda x: float(x @ x),
            gradient=lambda x: 2.0 * x,
            hessian=lambda x: 2.0 * np.eye(3),
        ),
        constraint=lambda x: A @ x - b,
        jacobian=lambda x: A.copy(),
        constraint_hessians=lambda x: np.zeros((1, 3, 3)),
        name="affine",
    )
