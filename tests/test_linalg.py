import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trsqp.errors import NonFiniteInput, RankDeficient, SubsolverFailure
from trsqp.linalg import (
    JacobianFactor,
    SymmetricEig,
    _brentq,
    cauchy_point,
    min_norm_pull,
    model_value,
    nullspace_basis,
    smallest_eigpair,
    spectral_norm,
    trs_solve,
    vector_norm,
)


def fcd_rhs(H, g, radius):
    """Fraction-of-Cauchy-decrease bound on the model reduction."""
    gnorm = np.linalg.norm(g)
    hnorm = spectral_norm(H)
    curv = gnorm / hnorm if hnorm > 0 else np.inf
    return -0.5 * gnorm * min(radius, curv)


@pytest.mark.filterwarnings("ignore:overflow encountered in dot")
class TestVectorNorm:
    SCALES = [0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e154, 1e200, 1e300]

    @staticmethod
    def assert_bitwise(v):
        got = vector_norm(v)
        assert type(got) is float
        assert got.hex() == float(np.linalg.norm(v)).hex()

    @pytest.mark.parametrize("scale", SCALES)
    def test_bitwise_equal_to_numpy(self, scale):
        rng = np.random.default_rng(7)
        for n in range(21):
            for _ in range(20):
                self.assert_bitwise(scale * rng.standard_normal(n))

    def test_zeros_subnormals_and_overflow(self):
        for n in range(21):
            self.assert_bitwise(np.zeros(n))
            self.assert_bitwise(np.full(n, 5e-324))
            self.assert_bitwise(np.full(n, -2.5e-310))
        huge = np.full(3, 1e300)
        assert vector_norm(huge) == math.inf and np.linalg.norm(huge) == math.inf
        self.assert_bitwise(np.array([1e-300, 3.0, 1e154, 0.0]))

    def test_strided_view_matches_numpy(self):
        # BLAS sums a strided vector in another order than a contiguous one,
        # so the helper must norm a view the way numpy does: as a copy.
        rng = np.random.default_rng(11)
        for n in range(21):
            for _ in range(20):
                M = rng.standard_normal((n, 3))
                self.assert_bitwise(M[:, 1])
                self.assert_bitwise(M[::-1, 2])


class TestNullspaceBasis:
    def test_coordinate_kernel(self):
        G = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        Z = nullspace_basis(G).Z
        assert Z.shape == (3, 1)
        assert abs(abs(Z[2, 0]) - 1.0) < 1e-12
        assert np.linalg.norm(Z[:2, 0]) < 1e-12

    def test_symmetric_kernel(self):
        Z = nullspace_basis(np.array([[1.0, 1.0]])).Z
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(np.linalg.norm(Z[:, 0] - expected), np.linalg.norm(Z[:, 0] + expected)) < 1e-12

    def test_prescribed_singular_values(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((5, 5))
        U, _ = np.linalg.qr(A)
        V, _ = np.linalg.qr(B)
        G = U @ np.diag([3.0, 1.0]) @ V[:, :2].T
        Z = nullspace_basis(G).Z
        assert np.linalg.norm(G @ Z) <= 1e-10
        assert np.linalg.norm(Z.T @ Z - np.eye(3)) <= 1e-10

    def test_rank_deficient_raises(self):
        G = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankDeficient):
            nullspace_basis(G)

    def test_more_rows_than_columns_raises(self):
        with pytest.raises(ValueError, match=r"m <= d, got shape \(3, 2\)"):
            nullspace_basis(np.ones((3, 2)))

    def test_randomized_invariants(self):
        rng = np.random.default_rng(0)
        rhs_rng = np.random.default_rng(1)
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            m = int(rng.integers(1, d))
            G = rng.standard_normal((m, d))
            basis = nullspace_basis(G)
            Z = basis.Z
            assert np.max(np.abs(Z.T @ Z - np.eye(d - m))) <= 1e-10
            assert np.max(np.abs(G @ Z)) <= 1e-10 * max(1.0, np.abs(G).max())
            P = np.eye(d) - G.T @ np.linalg.solve(G @ G.T, G)
            assert np.max(np.abs(Z @ Z.T - P)) <= 1e-8
            # The same factor gives the least-norm pull and the multiplier.
            rhs = rhs_rng.standard_normal(m)
            assert np.max(np.abs(G @ basis.pull(rhs) + rhs)) <= 1e-10 * max(1.0, np.abs(rhs).max())
            g = rhs_rng.standard_normal(d)
            resid = G @ (g + G.T @ basis.multiplier(g))
            assert np.max(np.abs(resid)) <= 1e-10 * max(1.0, np.abs(g).max())

    def test_deterministic(self):
        G = np.random.default_rng(3).standard_normal((3, 7))
        Z1 = nullspace_basis(G).Z
        Z2 = nullspace_basis(G.copy()).Z
        assert np.array_equal(Z1, Z2)


class TestMinNormPull:
    def test_zero_rhs(self):
        G = np.array([[1.0, 1.0]])
        assert np.array_equal(min_norm_pull(G, np.zeros(1)), np.zeros(2))

    def test_row_of_ones(self):
        # (G G^T) y = rhs has y = 1, so the pull-back is -G^T y = [-1, -1].
        v = min_norm_pull(np.array([[1.0, 1.0]]), np.array([2.0]))
        assert np.allclose(v, [-1.0, -1.0], atol=1e-12)

    def test_identity_jacobian(self):
        rhs = np.array([0.3, -1.2, 4.0])
        assert np.allclose(min_norm_pull(np.eye(3), rhs), -rhs, atol=1e-14)

    def test_postconditions_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(2, 8))
            m = int(rng.integers(1, d + 1))
            G = rng.standard_normal((m, d))
            rhs = rng.standard_normal(m)
            v = min_norm_pull(G, rhs)
            assert np.linalg.norm(G @ v + rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))
            # Lies in im(G^T): removing that component leaves nothing.
            coeff, *_ = np.linalg.lstsq(G.T, v, rcond=None)
            assert np.linalg.norm(v - G.T @ coeff) <= 1e-8 * max(1.0, np.linalg.norm(v))

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficient):
            min_norm_pull(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2))


class TestSmallestEigpair:
    def test_diagonal(self):
        tau, zeta = smallest_eigpair(np.diag([-2.0, -1.0]))
        assert tau == pytest.approx(-2.0, abs=1e-12)
        assert abs(abs(zeta[0]) - 1.0) < 1e-12

    def test_known_eigensystem(self):
        tau, zeta = smallest_eigpair(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert tau == pytest.approx(-1.0, abs=1e-12)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(np.linalg.norm(zeta - expected), np.linalg.norm(zeta + expected)) < 1e-10

    def test_residual_and_rayleigh(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            S = rng.standard_normal((n, n))
            S = 0.5 * (S + S.T)
            tau, zeta = smallest_eigpair(S)
            assert np.linalg.norm(S @ zeta - tau * zeta) <= 1e-8 * max(1.0, spectral_norm(S))
            for _ in range(10):
                v = rng.standard_normal(n)
                v /= np.linalg.norm(v)
                assert tau <= v @ S @ v + 1e-10

    def test_nonfinite_raises(self):
        with pytest.raises(NonFiniteInput):
            smallest_eigpair(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_basis_invariance_of_reduced_spectrum(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            d, m = 6, 2
            G = rng.standard_normal((m, d))
            H = rng.standard_normal((d, d))
            H = 0.5 * (H + H.T)
            Z1 = nullspace_basis(G).Z
            # A second orthonormal basis of the same kernel.
            R = rng.standard_normal((d - m, d - m))
            Q, _ = np.linalg.qr(R)
            Z2 = Z1 @ Q
            t1, _ = smallest_eigpair(Z1.T @ H @ Z1)
            t2, _ = smallest_eigpair(Z2.T @ H @ Z2)
            assert abs(t1 - t2) <= 1e-8


class TestCauchyPoint:
    def test_zero_gradient(self):
        assert np.array_equal(cauchy_point(np.eye(2), np.zeros(2), 1.0), np.zeros(2))

    def test_interior_curved(self):
        u = cauchy_point(np.eye(2), np.array([3.0, 4.0]), 1.0)
        assert np.allclose(u, -np.array([3.0, 4.0]) / 5.0, atol=1e-14)

    def test_linear_model_boundary(self):
        u = cauchy_point(np.zeros((2, 2)), np.array([1.0, 0.0]), 0.5)
        assert np.allclose(u, [-0.5, 0.0], atol=1e-14)

    def test_zero_radius_is_the_origin(self):
        assert np.array_equal(cauchy_point(np.eye(2), np.ones(2), 0.0), np.zeros(2))

    @pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
    def test_radius_outside_zero_to_inf_raises(self, radius):
        # A negative radius stepped uphill; NaN and inf returned a step.
        with pytest.raises(ValueError, match="radius must be nonnegative and finite"):
            cauchy_point(np.eye(2), np.ones(2), radius)


class TestTrsSolve:
    def test_pd_interior(self):
        g = np.array([3.0, 4.0])
        u = trs_solve(np.eye(2), g, 1.0)
        m = model_value(np.eye(2), g, u)
        assert m == pytest.approx(-4.5, abs=1e-10)
        assert m <= fcd_rhs(np.eye(2), g, 1.0) + 1e-12

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_nonpositive_radius_raises(self, radius):
        with pytest.raises(ValueError, match="radius must be positive"):
            trs_solve(np.eye(2), np.ones(2), radius)

    @pytest.mark.parametrize("H", [np.diag([-1.0, 2.0]), np.eye(2)], ids=["indefinite", "definite"])
    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_nan_or_infinite_radius_raises(self, H, radius):
        # NaN raised SubsolverFailure from the secular equation; inf returned
        # [0, -1/3] as the "global minimizer" of the unbounded indefinite model.
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            trs_solve(H, np.ones(2), radius)

    def test_negative_curvature_boundary(self):
        H = np.diag([-1.0, 1.0])
        u = trs_solve(H, np.zeros(2), 2.0)
        assert abs(abs(u[0]) - 2.0) < 1e-9
        assert abs(u[1]) < 1e-9
        assert model_value(H, np.zeros(2), u) == pytest.approx(-2.0, abs=1e-9)

    def test_zero_gradient_any_hessian(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            H = rng.standard_normal((4, 4))
            H = 0.5 * (H + H.T)
            u = trs_solve(H, np.zeros(4), 1.5)
            assert model_value(H, np.zeros(4), u) <= 1e-12
            assert np.linalg.norm(u) <= 1.5 * (1 + 1e-12)

    def test_randomized_fcd_and_radius(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            H = rng.standard_normal((n, n))
            H = 0.5 * (H + H.T)
            g = rng.standard_normal(n)
            radius = float(rng.uniform(0.05, 3.0))
            u = trs_solve(H, g, radius)
            assert np.linalg.norm(u) <= radius * (1 + 1e-12)
            m = model_value(H, g, u)
            rhs = fcd_rhs(H, g, radius)
            assert m <= rhs + 1e-10 * max(1.0, abs(rhs))

    def test_exact_beats_cauchy(self):
        def beats_cauchy(H, g, radius):
            u = trs_solve(H, g, radius)
            uc = cauchy_point(H, g, radius)
            mu, mc = model_value(H, g, u), model_value(H, g, uc)
            assert mu <= mc + 1e-10 * max(1.0, abs(mc))

        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            H = rng.standard_normal((n, n))
            H = 0.5 * (H + H.T)
            g = rng.standard_normal(n)
            radius = float(rng.uniform(0.05, 3.0))
            beats_cauchy(H, g, radius)
        # Near the hard case: a repeated bottom eigenvalue, negative or
        # exactly 0, with g's bottom components nearly, but not exactly, zero.
        # At 0, H is singular positive semidefinite and the minimizer may lie
        # on the sphere.
        negative, zero = (lambda rng: -float(rng.uniform(0.1, 3.0))), (lambda rng: 0.0)
        for seed, bottom in ((29, negative), (37, zero)):
            rng = np.random.default_rng(seed)
            for _ in range(300):
                n = int(rng.integers(1, 7))
                k = int(rng.integers(1, n + 1))
                lam = bottom(rng)
                w = np.concatenate([np.full(k, lam), lam + rng.uniform(0.1, 3.0, n - k)])
                Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                H = (Q * w) @ Q.T
                H = 0.5 * (H + H.T)
                gq = rng.standard_normal(n)
                gq[:k] *= 10.0 ** -rng.uniform(4.0, 14.0)
                g = Q @ gq
                radius = float(rng.uniform(0.05, 3.0))
                beats_cauchy(H, g, radius)
        # Singular positive semidefinite H with g orthogonal to its kernel:
        # eigh returns the zero eigenvalues as roundoff of either sign, and
        # the minimizer is the interior point -H^+ g.
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            w = np.concatenate([np.zeros(k), rng.uniform(0.1, 3.0, n - k)])
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            H = (Q * w) @ Q.T
            H = 0.5 * (H + H.T)
            gq = rng.standard_normal(n)
            gq[:k] = 0.0
            g = Q @ gq
            radius = float(rng.uniform(0.1, 2.0))
            beats_cauchy(H, g, radius)

    def test_hard_case(self):
        # g orthogonal to the bottom eigenspace, limit point interior.
        H = np.diag([-2.0, 1.0])
        g = np.array([0.0, 0.1])
        u = trs_solve(H, g, 1.0)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-9)
        # Reduction must beat the pure eigendirection step.
        assert model_value(H, g, u) <= -1.0 + 1e-9
        # Nearly hard: the pole at -lam_min is too sharp for root finding to
        # reach the boundary, where the minimizer lies.
        H, g = np.array([[-1.0]]), np.array([1e-12])
        u = trs_solve(H, g, 3.0)
        assert np.linalg.norm(u) == pytest.approx(3.0, abs=1e-12)
        assert model_value(H, g, u) <= model_value(H, g, cauchy_point(H, g, 3.0))

    def test_root_within_roundoff_of_the_pole(self, monkeypatch):
        # gap_norm / (2 radius) = 5e-18 is below lo's 1e-16 floor, and
        # 1 + 1e-16 rounds to the pole itself, so ||p(lo)|| = 0.5 < radius
        # brackets no root. p(lo) is moved onto the sphere along e_0, with
        # no root finding.
        def no_root_finding(*args, **kwargs):
            raise AssertionError("_brentq called")

        monkeypatch.setattr("trsqp.linalg._brentq", no_root_finding)
        H, g, radius = np.diag([-1.0, 1.0]), np.array([1e-9, 1.0]), 1e8
        u = trs_solve(H, g, radius)
        assert u[1] == -0.5
        assert u[0] == pytest.approx(-radius, rel=1e-15)
        assert np.linalg.norm(u) <= radius * (1 + 1e-12)
        assert model_value(H, g, u) <= model_value(H, g, cauchy_point(H, g, radius))

    def test_nonfinite_raises(self):
        with pytest.raises(NonFiniteInput):
            trs_solve(np.eye(2), np.array([np.inf, 0.0]), 1.0)

    @staticmethod
    def near_pole_draws(seed, count):
        """A zero bottom eigenvalue of multiplicity 2-5 and one to three others
        in U(0.1, 3), diagonal and rotated in turn, g's bottom part at
        radius 10^-U(13, 15.7) and radius 10^U(3.3, 4.5): the secular root lies
        within about 1e-13 of the pole at 0. Yields H, g, the radius and the
        exact model, evaluated in the known eigenbasis, since in the rotated
        frame the kernel part of u amplifies the roundoff of H u."""
        rng = np.random.default_rng(seed)
        for i in range(count):
            k = int(rng.integers(2, 6))
            n = k + int(rng.integers(1, 4))
            w = np.concatenate([np.zeros(k), rng.uniform(0.1, 3.0, n - k)])
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0] if i % 2 else np.eye(n)
            radius = 10.0 ** rng.uniform(3.3, 4.5)
            gq = rng.standard_normal(n)
            bottom = rng.standard_normal(k)
            gq[:k] = bottom / np.linalg.norm(bottom) * radius * 10.0 ** -rng.uniform(13.0, 15.7)
            H = (Q * w) @ Q.T

            def model(u, w=w, Q=Q, gq=gq):
                uq = Q.T @ u
                return float(0.5 * (w * uq) @ uq + gq @ uq)

            yield 0.5 * (H + H.T), Q @ gq, radius, model

    @pytest.mark.parametrize("side", ["overshoot", "shortfall"])
    def test_near_pole_meets_cauchy(self, monkeypatch, side):
        # Brent stops within its tolerance of a root that lies within 1e-13 of
        # the pole, on either side of it. Short of the root only the bottom
        # part of p overshoots the sphere, and it alone shrinks back; past the
        # root to_boundary fills the shortfall along e_0. Scaling all of p back
        # instead missed the Cauchy value on 4 of these 400 draws, by up to
        # 3.7e-7 relative.
        import trsqp.linalg

        brentq, gaps = trsqp.linalg._brentq, []

        def spy(f, *args, **kwargs):
            root = brentq(f, *args, **kwargs)
            gaps.append(f(root))
            return root

        monkeypatch.setattr(trsqp.linalg, "_brentq", spy)
        seen = 0
        for H, g, radius, model in self.near_pole_draws(3, 400):
            gaps.clear()
            u = trs_solve(H, g, radius)
            assert len(gaps) == 1
            if (gaps[0] > 0.0) != (side == "overshoot"):
                continue
            seen += 1
            assert np.linalg.norm(u) <= radius * (1 + 1e-12)
            mc = model(cauchy_point(H, g, radius))
            assert model(u) <= mc + 1e-10 * max(1.0, abs(mc))
        assert seen >= 100


class TestSymmetricEig:
    def test_one_factor_serves_every_reader(self):
        # Singular PSD draws exercise the eigenvalue zeroing, which must not
        # leak into the shared factor that the eigen step and norm read.
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            A = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            S = A @ A.T if rng.uniform() < 0.5 else rng.standard_normal((n, n))
            g, radius = rng.standard_normal(n), float(rng.uniform(0.1, 2.0))
            fac = SymmetricEig.of(S)
            w = fac.w.copy()
            u = fac.trs(g, radius)
            assert np.array_equal(fac.w, w)
            assert np.array_equal(u, trs_solve(S, g, radius))
            tau, zeta = fac.smallest()
            ref_tau, ref_zeta = smallest_eigpair(S)
            assert tau == ref_tau and np.array_equal(zeta, ref_zeta)
            assert fac.tau_plus == abs(min(ref_tau, 0.0))
            sym = 0.5 * (S + S.T)
            assert fac.norm == pytest.approx(spectral_norm(sym), rel=1e-12, abs=1e-300)

    def test_jacobian_reduce(self):
        rng = np.random.default_rng(32)
        G, H = rng.standard_normal((2, 5)), rng.standard_normal((5, 5))
        J = nullspace_basis(G)
        red, M = J.reduce(H), J.Z.T @ H @ J.Z
        ref = SymmetricEig.of(M)
        assert np.array_equal(red.w, ref.w) and np.array_equal(red.Q, ref.Q)
        assert np.allclose(0.5 * (M + M.T), red.Q @ np.diag(red.w) @ red.Q.T, atol=1e-12)


class TestSpectralNorm:
    def test_matches_svd(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((4, 6))
        ref = np.linalg.svd(A, compute_uv=False)[0]
        assert spectral_norm(A) == pytest.approx(ref)
        assert JacobianFactor.of(A).norm == pytest.approx(ref)

    def test_vector_row(self):
        assert spectral_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
    def test_empty_is_zero(self, shape):
        assert spectral_norm(np.zeros(shape)) == 0.0


def secular_equations(rng, count):
    """Random secular equations ||(W + lam I)^{-1} g|| = radius with a
    sign-changing bracket above the pole, as ``SymmetricEig.trs`` builds them."""
    while count:
        d = int(rng.integers(1, 11))
        w = np.sort(rng.standard_normal(d) * 10 ** rng.uniform(-3, 3))
        g = rng.standard_normal(d) * 10 ** rng.uniform(-3, 3)
        radius = 10 ** rng.uniform(-4, 2)
        pole = max(0.0, -float(w[0]))

        def gap(lam, w=w, g=g, radius=radius):
            return float(np.linalg.norm(g / (w + lam)) - radius)

        lo = pole + 10 ** rng.uniform(-12, 0)
        hi = pole + float(np.linalg.norm(g)) / radius + 1e-12
        while gap(hi) > 0.0:
            hi = 2.0 * hi + 1.0
        if gap(lo) > 0.0:
            count -= 1
            yield gap, lo, hi


class TestBrentq:
    def test_bitwise_equal_to_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        eps = float(np.finfo(float).eps)
        rng = np.random.default_rng(41)
        mismatches = 0
        for f, lo, hi in secular_equations(rng, 10_000):
            ref = optimize.brentq(f, lo, hi, xtol=1e-18, rtol=4 * eps, maxiter=200)
            mismatches += _brentq(f, lo, hi) != ref
        assert mismatches == 0

    def test_no_sign_change_raises(self):
        with pytest.raises(SubsolverFailure, match="sign change"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_nan_value_raises(self):
        def f(x):
            return x - 0.75 if x < 0.5 else math.nan

        with pytest.raises(SubsolverFailure, match="NaN"):
            _brentq(f, 0.0, 1.0)

    def test_no_convergence_raises(self):
        with pytest.raises(SubsolverFailure, match="3 iterations"):
            _brentq(lambda x: x**3 - 2.0, 0.0, 2.0, maxiter=3)

    def test_endpoint_root_returned(self):
        assert _brentq(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert _brentq(lambda x: x - 3.0, 1.0, 3.0) == 3.0


class TestAgainstScipyDecompositions:
    """The saddle's shapes: a 1x2 Jacobian, a 2x2 Hessian and a 1x1 reduced
    Hessian, on which numpy's LAPACK drivers give scipy's bits."""

    def test_jacobian_factor(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(42)
        for _ in range(500):
            G = rng.standard_normal((1, 2)) * 10 ** rng.uniform(-3, 3)
            J = JacobianFactor.of(G)
            U, s, Vt = scipy_linalg.svd(G, full_matrices=True)
            assert J.U.tobytes() == U.tobytes() and J.s.tobytes() == s.tobytes()
            assert J.Vt.tobytes() == Vt[:1].tobytes()
            assert J.Z.tobytes() == Vt[1:].T.copy().tobytes()

    def test_spectral_norm(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(43)
        for _ in range(500):
            H = rng.standard_normal((2, 2)) * 10 ** rng.uniform(-3, 3)
            H = H + H.T
            assert spectral_norm(H) == float(scipy_linalg.svd(H, compute_uv=False)[0])

    def test_symmetric_eig(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(44)
        for _ in range(500):
            S = rng.standard_normal((1, 1)) * 10 ** rng.uniform(-3, 3)
            fac = SymmetricEig.of(S)
            w, Q = scipy_linalg.eigh(S)
            assert fac.w.tobytes() == w.tobytes() and fac.Q.tobytes() == Q.tobytes()


def test_import_loads_no_scipy(tmp_path):
    # A solve and the check, in one process that could import scipy, must
    # not: the library needs only numpy.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "from trsqp.cli import main\n"
        "solve = ['run', '--problem', 'saddle', '--noise', '1e-4', '--max-iters', '20',\n"
        "         '--out', sys.argv[1]]\n"
        "if main(solve) or main(['check']):\n"
        "    sys.exit('a command failed')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "runs")],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )  # fmt: skip
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "runs" / "summary.json").exists()
