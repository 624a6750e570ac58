import numpy as np
import pytest

from trsqp.benchmarks import (
    SyntheticLogisticSpec,
    _logistic_records,
    make_logistic,
    make_logistic_from_data,
    make_quadratic,
    make_saddle,
    true_kkt,
)
from trsqp.diagnostics import finite_difference_gradient, finite_difference_hessian
from trsqp.estimator import estimate_multiplier


class TestSaddle:
    def test_values_at_saddle(self):
        prob = make_saddle()
        x = np.array([1.0, 0.0])
        assert prob.noiseless.value(x) == 2.0
        assert prob.constraint(x) == pytest.approx([0.0])

    def test_kkt_at_minimum(self):
        # lambda = 1, gradient of the Lagrangian vanishes, reduced Hessian 3.
        prob = make_saddle()
        x = np.array([-1.0, 0.0])
        g = prob.noiseless.gradient(x)
        G = prob.jacobian(x)
        lam = estimate_multiplier(G, g)
        assert lam == pytest.approx([1.0])
        assert np.allclose(g + G.T @ lam, 0.0, atol=1e-14)
        kkt, tau_plus = true_kkt(prob, x)
        assert kkt <= 1e-14
        assert tau_plus == 0.0

    def test_kkt_at_saddle(self):
        kkt, tau_plus = true_kkt(make_saddle(), np.array([1.0, 0.0]))
        assert kkt <= 1e-14
        assert tau_plus == pytest.approx(1.0, abs=1e-12)

    def test_kkt_at_top_of_circle(self):
        # c = 0, grad f = (2, 1), G = (0, 2), lambda = -1/2, KKT norm 2.
        kkt, _ = true_kkt(make_saddle(), np.array([0.0, 1.0]))
        assert kkt == pytest.approx(2.0, abs=1e-12)


class TestQuadratic:
    def test_solution_is_stationary(self):
        kkt, tau_plus = true_kkt(make_quadratic(), np.array([0.5, 0.5]))
        assert kkt <= 1e-14
        assert tau_plus == 0.0


@pytest.fixture(scope="module")
def small():
    rng = np.random.default_rng(0)
    spec = SyntheticLogisticSpec(dim=5, n_records=50, num_constraints=2)
    return make_logistic(spec, rng)


class TestLogistic:

    def test_value_at_zero_is_log_two(self, small):
        assert small.noiseless.value(np.zeros(5)) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self, small):
        x = np.random.default_rng(1).uniform(-0.5, 0.5, size=5)
        fd = finite_difference_gradient(small.noiseless.value, x)
        assert np.max(np.abs(fd - small.noiseless.gradient(x))) <= 1e-6

    def test_hessian_matches_finite_differences(self, small):
        x = np.random.default_rng(2).uniform(-0.5, 0.5, size=5)
        fd = finite_difference_hessian(small.noiseless.gradient, x)
        assert np.max(np.abs(fd - small.noiseless.hessian(x))) <= 1e-5

    def test_constraints_affine_full_rank(self, small):
        x = np.random.default_rng(3).standard_normal(5)
        G = small.jacobian(x)
        assert G.shape == (2, 5)
        s = np.linalg.svd(G, compute_uv=False)
        assert s[-1] > 1e-10 * s[0]
        assert np.max(np.abs(small.constraint_hessians(x))) == 0.0

    def test_record_hessians_match_einsum_bitwise(self):
        # The estimator averages per-record Hessians with np.mean(axis=0),
        # which sums in memory order: equal values in another layout would
        # change the mean's last bits, so layout is asserted too.
        rng = np.random.default_rng(11)
        features = rng.standard_normal((400, 15))
        labels = np.where(rng.uniform(size=400) < 0.5, 1.0, -1.0)
        _, _, hessian = _logistic_records(features, labels)
        for _ in range(3):
            x = rng.standard_normal(15)
            idx = rng.integers(0, 400, size=1000)
            H = hessian(x, idx)
            s = 1.0 / (1.0 + np.exp(-labels[idx] * (features[idx] @ x)))
            ref = np.einsum("n,ni,nj->nij", s * (1.0 - s), features[idx], features[idx])
            assert H.flags.c_contiguous
            assert H.shape == ref.shape and H.tobytes() == ref.tobytes()
            assert np.mean(H, axis=0).tobytes() == np.mean(ref, axis=0).tobytes()

    def test_balanced_labels_and_law(self):
        rng = np.random.default_rng(7)
        spec = SyntheticLogisticSpec(dim=8, n_records=400, feature_law="exponential")
        prob = make_logistic(spec, rng)
        assert prob.dim == 8
        assert prob.num_constraints == 5

    def test_from_data_reproducible(self):
        rng = np.random.default_rng(5)
        features = rng.standard_normal((40, 6))
        labels = np.where(rng.uniform(size=40) < 0.5, 1.0, -1.0)
        p1 = make_logistic_from_data(features, labels, rng=np.random.default_rng(1))
        p2 = make_logistic_from_data(features, labels, rng=np.random.default_rng(1))
        x = rng.standard_normal(6)
        assert np.array_equal(p1.constraint(x), p2.constraint(x))


class TestFiniteDifferenceSuite:
    @pytest.mark.parametrize("make", [make_quadratic, make_saddle])
    def test_ten_random_points(self, make):
        prob = make()
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=prob.dim)
            g = prob.noiseless.gradient(x)
            fd_g = finite_difference_gradient(prob.noiseless.value, x)
            scale = max(1.0, float(np.max(np.abs(g))))
            assert np.max(np.abs(fd_g - g)) / scale <= 1e-5
            fd_h = finite_difference_hessian(prob.noiseless.gradient, x)
            assert np.max(np.abs(fd_h - prob.noiseless.hessian(x))) / scale <= 1e-5
