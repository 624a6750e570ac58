import dataclasses
import warnings

import numpy as np
import pytest

from trsqp.benchmarks import (
    GRAM_BLOCK,
    SyntheticLogisticSpec,
    _RecordVectors,
    _gram,
    _logistic_records,
    make_logistic,
    make_logistic_from_data,
    make_quadratic,
    make_saddle,
    true_kkt,
)
from finite_differences import finite_difference_gradient, finite_difference_hessian
from trsqp.errors import NonFiniteInput
from trsqp.estimator import estimate_multiplier
from trsqp.linalg import nullspace_basis, smallest_eigpair
from trsqp.problem import NoiselessOracle, _FiniteSumSampler
from trsqp.solver import SolverConfig, SolverState, run


class _Drawn:
    """A stream whose generator draws ``idx``, so that a finite-sum sampler
    given it turns the batch ``idx`` into rows and weights."""

    def __init__(self, idx):
        self.idx = idx

    def generator(self):
        return self

    def integers(self, low, high, size):
        assert low == 0 and size == len(self.idx) and self.idx.max() < high
        return self.idx.copy()


def _batch(N, idx):
    """The (rows, w) pair a sampler over N records passes for the draws ``idx``."""
    return _FiniteSumSampler(None, None, None, N)._batch(len(idx), _Drawn(idx))


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


def _two_factor_kkt(problem, x):
    """The exact KKT residual and negative curvature, with G factored twice:
    once for the multiplier and once for the null-space basis."""
    oracle = problem.noiseless
    g = oracle.gradient(x)
    c = problem.constraint(x)
    G = problem.jacobian(x)
    lam = estimate_multiplier(G, g)
    grad_l = g + G.T @ lam
    kkt = float(np.sqrt(grad_l @ grad_l + c @ c))
    H = oracle.hessian(x) + np.tensordot(lam, problem.constraint_hessians(x), axes=1)
    Z = nullspace_basis(G).Z
    tau, _ = smallest_eigpair(Z.T @ H @ Z)
    return kkt, abs(min(tau, 0.0))


class TestTrueKKT:
    def test_one_svd_and_one_eigh_per_call(self, monkeypatch):
        counts = {"eigh": 0, "svd": 0}
        for name in counts:
            real = getattr(np.linalg, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        true_kkt(make_saddle(), np.array([0.6, 0.9]))
        assert counts == {"eigh": 1, "svd": 1}

    def test_bitwise_equal_to_two_factor_formula(self):
        rng = np.random.default_rng(12)
        logistic = make_logistic(
            SyntheticLogisticSpec(dim=5, n_records=50, num_constraints=2), rng
        )
        cases = [(make_saddle(), 2), (make_quadratic(), 2), (logistic, 5)]
        for problem, d in cases:
            for _ in range(20):
                x = rng.uniform(-1.5, 1.5, size=d)
                got = np.array(true_kkt(problem, x))
                assert got.tobytes() == np.array(_two_factor_kkt(problem, x)).tobytes()

    def test_given_state_gives_the_same_bits(self, monkeypatch):
        # A solver state at x lends the c and factor of G its memo holds, and
        # the same bits of G give the same SVD, so the reference reads them as
        # its own: G and c are not evaluated again and no SVD is run.
        rng = np.random.default_rng(15)
        logistic = make_logistic(
            SyntheticLogisticSpec(dim=5, n_records=50, num_constraints=2), rng
        )
        cases = [(make_saddle(), 2), (make_quadratic(), 2), (logistic, 5)]
        for problem, d in cases:
            for _ in range(10):
                x = rng.uniform(-1.5, 1.5, size=d)
                state = SolverState.initial(problem, x, SolverConfig())
                state.constraint(problem), state.jacobian_factor(problem)
                spent = dataclasses.replace(problem, constraint=None, jacobian=None)
                with monkeypatch.context() as patch:
                    patch.setattr(np.linalg, "svd", None)
                    got = np.array(true_kkt(spent, x.copy(), state))
                assert got.tobytes() == np.array(true_kkt(problem, x)).tobytes()

    @pytest.mark.parametrize(
        "x, at",
        [([0.6, 0.8], [0.8, 0.6]), ([0.6, 0.8], [0.6, 0.8, 0.0]), ([1.0, -0.0], [1.0, 0.0])],
        ids=["another point", "another shape", "sign of zero"],
    )
    def test_state_at_another_point_is_not_read(self, x, at):
        # Only the bits of x key the state's memo: a state anywhere else, -0
        # for 0 included, is not read, and G is evaluated and factored here.
        class Unread:
            def __init__(self, x):
                self.x = np.array(x)

            def constraint(self, problem):
                raise AssertionError("the state was read")

            jacobian_factor = constraint

        x = np.array(x)
        got = np.array(true_kkt(make_saddle(), x, Unread(at)))
        assert got.tobytes() == np.array(true_kkt(make_saddle(), x)).tobytes()

    @pytest.mark.parametrize(
        "gradient, hessian, name",
        [
            (np.full(2, np.nan), None, "exact gradient"),
            # Finite, but ||grad_L||^2 = (2e199)^2 overflows.
            (np.full(2, 1e200), None, "exact KKT residual"),
            (np.ones(2), np.full((2, 2), np.inf), "exact Hessian"),
        ],
    )
    def test_first_non_finite_quantity_is_named(self, gradient, hessian, name):
        # The checks run in order and stop at the first failure (a None
        # Hessian is never read), with no numpy warning on the way.
        def exact_hessian(x):
            assert hessian is not None, "the Hessian was evaluated"
            return hessian

        oracle = NoiselessOracle(
            value=lambda x: 0.0, gradient=lambda x: gradient, hessian=exact_hessian
        )
        problem = dataclasses.replace(make_saddle(), noiseless=oracle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput, match=f"^{name} contains NaN or infinity$"):
                true_kkt(problem, np.array([0.6, 0.8]))

    def test_finite_parts_that_overflow_name_the_lagrangian_hessian(self):
        # At (0.6, 0.8) a gradient of ones gives lam = -0.7, so the finite
        # -1.7e308 I and lam * 1e308 I sum past the largest double.
        oracle = NoiselessOracle(
            value=lambda x: 0.0, gradient=lambda x: np.ones(2), hessian=lambda x: -1.7e308 * np.eye(2)
        )
        problem = dataclasses.replace(
            make_saddle(), noiseless=oracle, constraint_hessians=lambda x: 1e308 * np.eye(2)[None]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput, match="^exact Lagrangian Hessian contains NaN or infinity$"):
                true_kkt(problem, np.array([0.6, 0.8]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_jacobian_is_named(self, bad):
        problem = dataclasses.replace(make_saddle(), jacobian=lambda x: np.array([[bad, 1.0]]))
        with pytest.raises(NonFiniteInput, match="^constraint Jacobian contains NaN or infinity$"):
            true_kkt(problem, np.array([0.6, 0.8]))

    def test_non_finite_constraint_value_is_named(self):
        # Named as run names it, not as the NaN KKT residual it would give.
        problem = dataclasses.replace(make_saddle(), constraint=lambda x: np.full(1, np.nan))
        with pytest.raises(NonFiniteInput, match="^constraint value contains NaN or infinity$"):
            true_kkt(problem, np.array([0.6, 0.8]))

    @pytest.mark.parametrize("x", [[0.6, 0.8, 0.0], [0.6], [[0.6, 0.8]]], ids=["3", "1", "1x2"])
    def test_point_of_wrong_shape_raises(self, x):
        # Rejected as run rejects x0: the oracles would read the first two
        # entries of a 3-entry x, and index past a 1-entry one.
        with pytest.raises(ValueError, match=r"^x must have shape \(2,\)$"):
            true_kkt(make_saddle(), np.array(x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_named(self, bad):
        # Named as x before any oracle call, not as the NaN Jacobian it gives.
        def unreachable(x):
            raise AssertionError("an oracle was called")

        problem = dataclasses.replace(make_saddle(), constraint=unreachable, jacobian=unreachable)
        with pytest.raises(NonFiniteInput, match="^x contains NaN or infinity$"):
            true_kkt(problem, np.array([bad, 0.8]))


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


class TestLogisticLoss:
    @staticmethod
    def loss(margins):
        m = np.asarray(margins, dtype=float)
        return _RecordVectors(m[:, None], np.ones(len(m)), np.ones(1)).loss

    def test_matches_logaddexp(self):
        t = np.geomspace(1e-3, 745.0, 20_001)
        m = np.concatenate([[0.0, 1e-300, -1e-300], t, -t])
        ref = np.logaddexp(0.0, -m)
        assert np.all(np.abs(self.loss(m) - ref) <= 1e-15 * ref)

    def test_exact_at_infinity(self):
        assert self.loss([np.inf, -np.inf]).tolist() == [0.0, np.inf]

    def test_no_floating_point_error(self):
        t = np.geomspace(1e-3, 1e4, 1_001)
        m = np.concatenate([[0.0, 1e-300, -1e-300, np.inf, -np.inf], t, -t])
        with np.errstate(all="raise"):
            self.loss(m)


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

    def test_record_means_match_einsum_reference(self):
        # The sampler's means come without per-record tensors; the reference
        # builds those tensors and averages them. Batches of fewer than 6,000
        # draws gather their rows; the rest weight every record by its draw
        # count, from exactly 6,000 draws with repeats on.
        rng = np.random.default_rng(11)
        labels = np.repeat([1.0, -1.0], 3_000)
        features = rng.normal(np.where(labels > 0, 0.0, 5.0)[:, None], 1.0, size=(6_000, 15))
        prob = make_logistic_from_data(features, labels, rng=np.random.default_rng(1))
        sampler = prob.sampler
        boundary = rng.integers(0, 6_000, size=6_000)
        assert len(np.unique(boundary)) < 6_000
        batches = [rng.integers(0, 6_000, size=n) for n in (1, 10, 5_999)]
        batches += [boundary, rng.integers(0, 6_000, size=10_000), np.arange(6_000)]
        for idx in batches:
            n, stream = len(idx), _Drawn(idx)
            for _ in range(3):
                x = 0.3 * rng.standard_normal(15)
                Zi, yi = features[idx], labels[idx]
                m = yi * (Zi @ x)
                s = 1.0 / (1.0 + np.exp(-m))
                refs = (
                    np.mean(np.log1p(np.exp(-m))),
                    np.mean(np.einsum("n,ni->ni", (s - 1.0) * yi, Zi), axis=0),
                    np.mean(np.einsum("n,ni,nj->nij", s * (1.0 - s), Zi, Zi), axis=0),
                )
                got = (
                    sampler.values(x, n, stream),
                    sampler.gradients(x, n, stream),
                    sampler.hessians(x, n, stream),
                )
                for g, ref in zip(got, refs):
                    assert np.shape(g) == np.shape(ref)
                    assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))
        # The noiseless oracle is bitwise the sampler's batch of every record once.
        exact = prob.require_noiseless()
        full = _Drawn(np.arange(6_000))
        assert exact.value(x) == sampler.values(x, 6_000, full)
        assert np.array_equal(exact.gradient(x), sampler.gradients(x, 6_000, full))
        assert np.array_equal(exact.hessian(x), sampler.hessians(x, 6_000, full))

    def test_blocked_hessian_matches_einsum_reference(self):
        # 2 blocks and a last block of one row. Counted batches sum all of
        # them; gathered ones between one block and N draws span two.
        rng = np.random.default_rng(14)
        N, d = 2 * GRAM_BLOCK + 1, 6
        features = rng.standard_normal((N, d))
        labels = np.where(rng.uniform(size=N) < 0.5, 1.0, -1.0)
        _, _, hessian = _logistic_records(features, labels)
        sizes = (GRAM_BLOCK + 1, 2 * GRAM_BLOCK, N, 3 * N)
        batches = [np.arange(N)] + [rng.integers(0, N, size=n) for n in sizes]
        for idx in batches:
            x = 0.3 * rng.standard_normal(d)
            Zi = features[idx]
            s = 1.0 / (1.0 + np.exp(-labels[idx] * (Zi @ x)))
            ref = np.mean(np.einsum("n,ni,nj->nij", s * (1.0 - s), Zi, Zi), axis=0)
            got = hessian(x, *_batch(N, idx))
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [1, 100, GRAM_BLOCK])
    def test_one_block_is_the_single_product(self, n):
        rng = np.random.default_rng(n)
        Z = rng.standard_normal((n, 15))
        v = rng.uniform(size=n)
        for ZT in (np.ascontiguousarray(Z.T), Z.T):  # counted and gathered layouts
            assert _gram(ZT, Z, v).tobytes() == ((ZT * v) @ Z).tobytes()

    def test_counted_batch_ignores_index_order(self):
        rng = np.random.default_rng(12)
        features = rng.standard_normal((6_000, 15))
        labels = np.where(rng.uniform(size=6_000) < 0.5, 1.0, -1.0)
        sampler = make_logistic_from_data(features, labels, rng=np.random.default_rng(1)).sampler
        idx = rng.integers(0, 6_000, size=10_000)
        x = 0.3 * rng.standard_normal(15)
        for mean in (sampler.values, sampler.gradients, sampler.hessians):
            shuffled = _Drawn(rng.permutation(idx))
            assert np.array_equal(mean(x, 10_000, _Drawn(idx)), mean(x, 10_000, shuffled))

    def test_records_that_served_earlier_calls_match_fresh_ones(self):
        # The callables keep the last point's whole-dataset vectors. Whatever
        # they served before, each result must equal that of a fresh set of
        # records bit for bit.
        rng = np.random.default_rng(13)
        N, d = 300, 6
        features = rng.standard_normal((N, d))
        labels = np.where(rng.uniform(size=N) < 0.5, 1.0, -1.0)
        served = _logistic_records(features, labels)
        shared, other = (_batch(N, rng.integers(0, N, size=2 * N)) for _ in range(2))
        exact, boundary = _batch(N, np.arange(N)), _batch(N, rng.integers(0, N, size=N))
        gathered = _batch(N, rng.integers(0, N, size=10))
        x, z = 0.3 * rng.standard_normal(d), 0.3 * rng.standard_normal(d)
        script = [
            (x, shared), (x, shared), (z, shared), (x, shared),  # repeated and alternating points
            (x, other), (x, shared),  # another sample set of the same size
            (x, exact), (x, boundary), (x, exact),  # N draws, without and with repeats
            (x, gathered), (x, shared),  # gathered, then every record at the same x
            (z, gathered), (z, exact),
        ]
        for k, fn in enumerate(served):

            def fresh(x_at, batch):
                return _logistic_records(features, labels)[k](x_at, *batch)

            for x_at, batch in script:
                assert np.array_equal(fn(x_at, *batch), fresh(x_at, batch))
            fn(x, *shared)
            x += 0.125  # mutated in place: the bits of x are the key
            assert np.array_equal(fn(x, *shared), fresh(x, shared))

    @pytest.mark.parametrize(
        "rows, labels, match",
        [
            (np.ones(40), np.ones(40), "2-D"),
            (np.ones((40, 6, 1)), np.ones(40), "2-D"),
            (np.ones((40, 6)), np.ones(30), "one label per feature row"),
            (np.ones((40, 6)), np.ones((40, 1)), "one label per feature row"),
            (np.ones((40, 6)), np.tile([3.0, -3.0], 20), "-1 or \\+1"),
            (np.ones((40, 6)), np.tile([1.0, 0.0], 20), "-1 or \\+1"),
        ],
        ids=["features-1d", "features-3d", "labels-short", "labels-2d", "labels-scaled", "labels-01"],
    )
    def test_from_data_rejects_malformed_input(self, rows, labels, match):
        with pytest.raises(ValueError, match=match):
            make_logistic_from_data(rows, labels, rng=np.random.default_rng(1))

    def test_solve_with_batches_beyond_dataset(self):
        # 40 records: every batch above 40 draws weights records by counts,
        # and the batch sizes reach the cap of 10^4.
        rng = np.random.default_rng(5)
        features = rng.standard_normal((40, 6))
        labels = np.where(rng.uniform(size=40) < 0.5, 1.0, -1.0)
        prob = make_logistic_from_data(features, labels, rng=np.random.default_rng(1))
        cfg = SolverConfig(alpha=1, kkt_tol=1e-2, seed=0)
        first, again = (run(prob, np.zeros(6), cfg) for _ in range(2))
        assert first.converged
        assert first.invariants.total_violations == 0
        assert max(max(r.batch_g, r.batch_h) for r in first.records) == cfg.batch_cap
        rows = [[r.csv_row() for r in res.records] for res in (first, again)]
        assert rows[0] == rows[1]
        assert np.array_equal(first.state.x, again.state.x)

    def test_constraints_are_the_first_draw(self):
        features = np.random.default_rng(5).standard_normal((40, 6))
        labels = np.tile([1.0, -1.0], 20)
        prob = make_logistic_from_data(features, labels, rng=np.random.default_rng(1))
        draws = np.random.default_rng(1)
        A, b = draws.standard_normal((5, 6)), draws.standard_normal(5)
        x = np.arange(6.0)
        assert np.array_equal(prob.jacobian(x), A)
        assert np.array_equal(prob.constraint(x), A @ x - b)

    @pytest.mark.parametrize(
        "field, match",
        [({"feature_law": "uniform"}, "feature_law"), ({"n_records": 1}, "two records")],
        ids=["unknown-law", "one-record"],
    )
    def test_spec_rejects_bad_fields(self, field, match):
        with pytest.raises(ValueError, match=match):
            SyntheticLogisticSpec(**field)

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
