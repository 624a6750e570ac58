import ast
import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trsqp.benchmarks import make_quadratic, make_saddle, true_kkt
from finite_differences import finite_difference_gradient
from trsqp.errors import EmptyDataset, MissingNoiselessOracle, NonFiniteInput
from trsqp.problem import (
    GaussianNoiseSpec,
    NoiselessOracle,
    Problem,
    exact_problem,
    finite_sum_problem,
    gaussian_noisy,
    load_labeled_csv,
)
from trsqp.rng import RngStream
from trsqp.solver import SolverConfig, SolverState, iterate, run


@pytest.fixture
def noisy():
    return gaussian_noisy(make_quadratic(), GaussianNoiseSpec(1e-2))


def _smooth_problem(d, symmetric=True):
    """Exact d-dimensional problem with a dense, x-dependent Hessian. With
    ``symmetric=False`` the Hessian oracle's entries (i, j) and (j, i) differ."""
    M = np.random.default_rng(d).standard_normal((d, d))
    Q = M + M.T if symmetric else M
    oracle = NoiselessOracle(
        value=lambda x: float(0.5 * x @ Q @ x + np.sum(np.sin(x))),
        gradient=lambda x: Q @ x + np.cos(x),
        hessian=lambda x: Q - np.diag(np.sin(x)),
    )
    return exact_problem(
        d,
        1,
        oracle,
        constraint=lambda x: x[:1] - 1.0,
        jacobian=lambda x: np.eye(1, d),
        constraint_hessians=lambda x: np.zeros((1, d, d)),
    )


def _tensor_means(oracle, d, sigma, x, n, stream, symmetric=True):
    """Reference: build every draw of the noise law as a per-sample tensor
    and average it with np.mean, drawing as the sampler does. With
    ``symmetric=False`` the Hessian noise sits around (H + H^T) / 2."""
    values = oracle.value(x) + sigma * stream.point_generator(x).standard_normal(n)
    rng = stream.point_generator(x)
    z = rng.standard_normal((n, d))
    z0 = rng.standard_normal((n, 1))
    gradients = oracle.gradient(x)[None, :] + sigma * (z + z0)
    iu = np.triu_indices(d)
    draws = sigma * stream.point_generator(x).standard_normal((n, len(iu[0])))
    noise = np.zeros((n, d, d))
    noise[:, iu[0], iu[1]] = draws
    noise[:, iu[1], iu[0]] = draws
    H = oracle.hessian(x)
    if not symmetric:
        H = (H + H.T) / 2
    hessians = H[None, :, :] + noise
    return float(np.mean(values)), np.mean(gradients, axis=0), np.mean(hessians, axis=0)


def _means_over_streams(draw, x, n, count, stream):
    """``count`` batch means of size ``n``, each on its own child stream."""
    return np.array([draw(x, n, stream.child(i)) for i in range(count)])


# The law tests read nothing but the law of one batch mean, so any sampler
# that draws from it passes with overwhelming probability, whatever its
# keying: each statistic is checked to LAW_Z standard errors over LAW_COUNT
# stream keys.
LAW_Z = 5.0
LAW_COUNT = 5_000
LAW_VARIANCE = 0.3
LAW_BATCHES = (1, 10, 1_000)


def _assert_moments(errors, cov):
    """The rows of ``errors`` (means minus their expected value) have mean 0
    and covariance ``cov``, each entry to LAW_Z standard errors; about a
    known mean, a sample covariance entry over N rows has variance
    (cov_ii cov_jj + cov_ij^2) / N."""
    count = len(errors)
    var = np.diag(cov)
    assert np.all(np.abs(errors.mean(axis=0)) <= LAW_Z * np.sqrt(var / count))
    sample_cov = errors.T @ errors / count
    cov_se = np.sqrt((np.outer(var, var) + cov**2) / count)
    assert np.all(np.abs(sample_cov - cov) <= LAW_Z * cov_se)


def _assert_means_match_reference(sampler, oracle, d, x, n, stream, symmetric=True):
    """Each mean equals the tensor reference in bytes, the Hessian mean is
    its own transpose, and no mean shares memory with the sampler's
    workspace, since callers such as ``aveh`` keep it."""
    f, g, H = _tensor_means(oracle, d, np.sqrt(0.3), x, n, stream, symmetric)
    means = sampler.values(x, n, stream), sampler.gradients(x, n, stream), sampler.hessians(x, n, stream)
    assert means[0] == f
    assert means[1].tobytes() == g.tobytes()
    assert means[2].tobytes() == H.tobytes()
    assert np.array_equal(means[2], means[2].T)
    for mean in means:
        assert not np.shares_memory(mean, sampler._work)
    return means, (f, g, H)


class TestGaussianNoise:
    @pytest.mark.parametrize("d", [2, 5, 10])
    @pytest.mark.parametrize("n", [1, 7, 10_000])
    def test_means_match_tensor_reference_bitwise(self, d, n):
        # Entries (i, j) and (j, i) take one draw around one entry of the
        # oracle's symmetric part, which is H itself for a symmetric oracle.
        x = np.random.default_rng(n).standard_normal(d)
        for symmetric in (True, False):
            base = _smooth_problem(d, symmetric)
            prob = gaussian_noisy(base, GaussianNoiseSpec(0.3))
            stream = RngStream(d).child("ref", n)
            _assert_means_match_reference(prob.sampler, base.noiseless, d, x, n, stream, symmetric)

    def test_interleaved_calls_reuse_workspace_bitwise(self):
        # One sampler grows its workspace, then serves smaller and larger
        # batches; every mean, also one kept from an earlier call, stays exact.
        d = 3
        base = _smooth_problem(d, symmetric=False)
        sampler = gaussian_noisy(base, GaussianNoiseSpec(0.3)).sampler
        rng = np.random.default_rng(11)
        kept = []
        for i, n in enumerate((10_000, 7, 1, 10_000)):
            x = rng.standard_normal(d)
            stream = RngStream(7).child("interleaved", i)
            kept.append(
                _assert_means_match_reference(sampler, base.noiseless, d, x, n, stream, symmetric=False)
            )
        for means, reference in kept:
            assert [np.asarray(m).tobytes() for m in means] == [np.asarray(r).tobytes() for r in reference]

    @pytest.mark.parametrize("kind", ["values", "gradients", "hessians"])
    def test_warm_call_allocates_nothing_that_grows_with_n(self, kind):
        # The per-draw arrays of a 10^4 batch alone take 80-320 KB.
        draw = getattr(gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-2)).sampler, kind)
        x = np.array([0.3, -0.2])
        stream = RngStream(0).child("alloc")
        draw(x, 10_000, stream)
        tracemalloc.start()
        try:
            draw(x, 10_000, stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024

    def test_zero_variance_reproduces_oracle(self):
        prob = gaussian_noisy(make_saddle(), GaussianNoiseSpec(0.0))
        rng = np.random.default_rng(0)
        stream = RngStream(0).child("t")
        for _ in range(2_000):
            x = rng.uniform(-3.0, 3.0, size=2)
            n = int(rng.integers(1, 10_001))
            assert prob.sampler.values(x, n, stream) == prob.noiseless.value(x)
            assert np.array_equal(prob.sampler.gradients(x, n, stream), prob.noiseless.gradient(x))
            assert np.array_equal(prob.sampler.hessians(x, n, stream), prob.noiseless.hessian(x))

    def test_value_moments(self):
        # The mean of n draws has mean f and variance sigma^2 / n.
        base = _smooth_problem(3, symmetric=False)
        sampler = gaussian_noisy(base, GaussianNoiseSpec(LAW_VARIANCE)).sampler
        x = np.array([0.4, -1.1, 0.7])
        for n in LAW_BATCHES:
            means = _means_over_streams(sampler.values, x, n, LAW_COUNT, RngStream(1).child(n))
            errors = (means - base.noiseless.value(x))[:, None]
            _assert_moments(errors, np.array([[LAW_VARIANCE / n]]))

    def test_gradient_covariance(self):
        # sigma^2 (I + 1 1^T) / n: one shared scalar draw per sample.
        d = 4
        base = _smooth_problem(d, symmetric=False)
        sampler = gaussian_noisy(base, GaussianNoiseSpec(LAW_VARIANCE)).sampler
        x = np.array([0.4, -1.1, 0.7, 0.2])
        cov = LAW_VARIANCE * (np.eye(d) + np.ones((d, d)))
        for n in LAW_BATCHES:
            means = _means_over_streams(sampler.gradients, x, n, LAW_COUNT, RngStream(2).child(n))
            _assert_moments(means - base.noiseless.gradient(x), cov / n)

    def test_hessian_noise_symmetric_with_right_variance(self):
        # Around the symmetric part of a non-symmetric oracle, the d(d+1)/2
        # upper-triangle entries are independent with variance sigma^2 / n,
        # and every mean is exactly symmetric.
        d = 3
        base = _smooth_problem(d, symmetric=False)
        sampler = gaussian_noisy(base, GaussianNoiseSpec(LAW_VARIANCE)).sampler
        x = np.array([0.4, -1.1, 0.7])
        H = base.noiseless.hessian(x)
        iu = np.triu_indices(d)
        for n in LAW_BATCHES:
            means = _means_over_streams(sampler.hessians, x, n, LAW_COUNT, RngStream(3).child(n))
            assert np.array_equal(means, np.transpose(means, (0, 2, 1)))
            errors = (means - (H + H.T) / 2)[:, iu[0], iu[1]]
            _assert_moments(errors, LAW_VARIANCE / n * np.eye(len(iu[0])))

    def test_constraints_never_perturbed(self, noisy):
        x = np.array([0.7, 0.7])
        base = make_quadratic()
        assert np.array_equal(noisy.constraint(x), base.constraint(x))
        assert np.array_equal(noisy.jacobian(x), base.jacobian(x))

    def test_point_keyed_sharing(self, noisy):
        # One sample set evaluated twice at the same point agrees bitwise;
        # distinct points see independent noise.
        x = np.array([0.1, 0.2])
        stream = RngStream(4).child("shared")
        for draw, oracle in [
            (noisy.sampler.values, noisy.noiseless.value),
            (noisy.sampler.gradients, noisy.noiseless.gradient),
            (noisy.sampler.hessians, noisy.noiseless.hessian),
        ]:
            a = draw(x, 100, stream)
            assert np.array_equal(a, draw(x.copy(), 100, stream))
            c = draw(x + 0.5, 100, stream)
            assert not np.array_equal(a - oracle(x), c - oracle(x + 0.5))

    def test_requires_noiseless_oracle(self, noisy):
        stripped = Problem(
            dim=2,
            num_constraints=1,
            constraint=noisy.constraint,
            jacobian=noisy.jacobian,
            constraint_hessians=noisy.constraint_hessians,
            sampler=noisy.sampler,
            noiseless=None,
        )
        with pytest.raises(MissingNoiselessOracle):
            gaussian_noisy(stripped, GaussianNoiseSpec(1e-2))

    @pytest.mark.parametrize("num_constraints", [0, 2, 3])
    def test_constraint_count_must_be_below_dim(self, noisy, num_constraints):
        with pytest.raises(ValueError, match="0 < num_constraints < dim"):
            dataclasses.replace(noisy, num_constraints=num_constraints)

    def test_negative_variance_rejected(self):
        for variance in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                GaussianNoiseSpec(variance)


def _toy_finite_sum(n_records=5, dim=3, seed=0, seen=None):
    """Least-squares finite sum; ``seen`` collects the rows of every value call."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_records, dim))
    b = rng.standard_normal(n_records)

    def records(rows):
        return (A, b) if rows is None else (A[rows], b[rows])

    def value(x, rows):
        if seen is not None:
            seen.append(rows)
        Ar, br = records(rows)
        return np.mean(0.5 * (Ar @ x - br) ** 2)

    def gradient(x, rows):
        Ar, br = records(rows)
        return (Ar @ x - br) @ Ar / len(br)

    def hessian(x, rows):
        Ar, _ = records(rows)
        return Ar.T @ Ar / len(Ar)

    return finite_sum_problem(
        dim=dim,
        value_fn=value,
        gradient_fn=gradient,
        hessian_fn=hessian,
        n_records=n_records,
        constraint=lambda x: np.array([x[0] - 1.0]),
        jacobian=lambda x: np.eye(1, dim),
        constraint_hessians=lambda x: np.zeros((1, dim, dim)),
        num_constraints=1,
    )


def _finite_sum(n_records, value_fn=lambda x, rows: 0.0, hessian_fn=lambda x, rows: np.eye(2)):
    """A 2-D finite sum over ``n_records`` records with the given value and Hessian means."""
    return finite_sum_problem(
        dim=2,
        value_fn=value_fn,
        gradient_fn=lambda x, rows: np.zeros(2),
        hessian_fn=hessian_fn,
        n_records=n_records,
        constraint=lambda x: x[:1],
        jacobian=lambda x: np.eye(1, 2),
        constraint_hessians=lambda x: np.zeros((1, 2, 2)),
        num_constraints=1,
    )


class TestFiniteSum:
    def test_noiseless_is_full_mean(self):
        seen = []
        prob = _toy_finite_sum(seen=seen)
        x = np.array([0.2, -0.4, 1.0])
        # Independent recomputation of the full-data mean.
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        expected = np.mean(0.5 * (A @ x - b) ** 2)
        assert prob.noiseless.value(x) == pytest.approx(expected, rel=1e-12)
        # Every record, at each distinct point.
        prob.noiseless.value(-x)
        assert seen == [None, None]

    def test_batches_share_indices_across_points(self):
        seen = []
        prob = _toy_finite_sum(n_records=500, seen=seen)
        stream = RngStream(9).child("batch")
        x1 = np.array([0.0, 0.0, 0.0])
        x2 = np.array([1.0, 1.0, 1.0])
        v1 = prob.sampler.values(x1, 50, stream)
        prob.sampler.values(x2, 50, stream)
        prob.sampler.values(x1, 50, stream.child("other"))
        # Same key, same records at both points; another key, other records.
        rows, again, other = seen
        assert rows.shape == (50,) and np.array_equal(again, rows)
        assert not np.array_equal(rows, other)
        assert v1 == prob.sampler.values(x1, 50, stream)

    def test_value_pair_shares_records(self):
        # Step 3 evaluates one stream at x_k and at the trial point: both
        # calls see equal rows. Another key, or another size, sees other rows.
        seen = []
        prob = _toy_finite_sum(n_records=6_000, seen=seen)
        stream = RngStream(9).child("pair", 1)
        prob.sampler.values(np.zeros(3), 5_000, stream)
        prob.sampler.values(np.ones(3), 5_000, stream)
        prob.sampler.values(np.zeros(3), 4_999, stream)
        prob.sampler.values(np.zeros(3), 5_000, RngStream(9).child("pair", 2))
        rows, again, smaller, other = seen
        assert np.array_equal(again, rows)
        assert not np.array_equal(smaller, rows[:4_999])
        assert not np.array_equal(other, rows)

    def test_batch_of_dataset_size_or_more_is_every_record(self, monkeypatch):
        draws = []
        generator = RngStream.generator

        def counted(stream):
            draws.append(stream.path)
            return generator(stream)

        monkeypatch.setattr(RngStream, "generator", counted)
        seen = []
        prob = _toy_finite_sum(n_records=6_000, seen=seen)
        x = np.array([0.3, 0.1, -0.7])
        exact = prob.noiseless.value(x)
        assert seen == [None]
        for n in (6_000, 10_000):  # as many records as the dataset, and more
            stream = RngStream(5).child("big", n)
            mean = prob.sampler.values(x, n, stream)
            # The noiseless oracle's kept mean, bit for bit, with no new call.
            assert seen == [None]
            assert np.float64(mean).tobytes() == np.float64(exact).tobytes()
            for kind, oracle in (("gradients", "gradient"), ("hessians", "hessian")):
                assert prob.mean(kind, x, n, stream).tobytes() == prob.exact(oracle, x).tobytes()
        assert draws == []

    @pytest.mark.parametrize("n", [1, 3_000, 5_999])
    def test_batch_below_dataset_size_holds_distinct_records(self, n):
        seen = []
        prob = _toy_finite_sum(n_records=6_000, seen=seen)
        for key in range(3):
            prob.sampler.values(np.zeros(3), n, RngStream(key).child("set"))
        assert len(seen) == 3
        for rows in seen:
            assert rows.shape == (n,) and len(np.unique(rows)) == n
            assert 0 <= rows.min() and rows.max() < 6_000

    @pytest.mark.parametrize("n", [1, 10, 19, 20])
    def test_batch_mean_variance_is_that_of_sampling_without_replacement(self, n):
        # A mean of n of N records drawn without replacement has variance
        # (N - n)/(N - 1) sigma^2/n (Cochran, Sampling Techniques, ch. 2),
        # against sigma^2/n with replacement: 0.53 of it at n = 10, 0.05 at
        # n = 19, and 0 at n = N, where the mean is the exact one.
        N, keys = 20, 4_000
        records = np.random.default_rng(3).standard_normal(N) ** 2
        prob = _finite_sum(N, value_fn=lambda x, rows: np.mean(records if rows is None else records[rows]))
        x = np.zeros(2)
        means = np.array([prob.sampler.values(x, n, RngStream(k).child("var")) for k in range(keys)])
        expected = (N - n) / (N - 1) * np.var(records) / n
        if n == N:
            assert np.all(means == prob.noiseless.value(x)) and expected == 0.0
            return
        # Within five standard errors of the sample variance, estimated from
        # its fourth moment; above n = 1 the law with replacement lies outside.
        dev = means - means.mean()
        stderr = np.sqrt((np.mean(dev**4) - np.mean(dev**2) ** 2) / keys)
        var = np.var(means, ddof=1)
        assert abs(var - expected) <= 5.0 * stderr
        if n > 1:
            assert abs(var - np.var(records) / n) > 5.0 * stderr

    def test_gradient_matches_finite_differences(self):
        prob = _toy_finite_sum()
        x = np.array([0.3, 0.1, -0.7])
        fd = finite_difference_gradient(prob.noiseless.value, x)
        assert np.max(np.abs(fd - prob.noiseless.gradient(x))) <= 1e-6

    def test_kept_mean_is_handed_out_as_a_copy(self):
        prob = _toy_finite_sum(n_records=40)
        x = np.array([0.3, 0.1, -0.7])
        g, H = prob.noiseless.gradient(x), prob.noiseless.hessian(x)
        fresh = _toy_finite_sum(n_records=40).noiseless
        g[:] = np.nan
        H[0, 0] = np.inf
        stream = RngStream(0)
        for got in (prob.noiseless.gradient(x), prob.sampler.gradients(x, 40, stream)):
            assert got.tobytes() == fresh.gradient(x).tobytes()
        for got in (prob.noiseless.hessian(x), prob.sampler.hessians(x, 40, stream)):
            assert got.tobytes() == fresh.hessian(x).tobytes()

    def test_call_that_raises_keeps_no_mean(self):
        # A Hessian oracle that fails once at z: the next read at z evaluates
        # again, and the mean kept for x before it is not served at z.
        calls = []

        def hessian(x, rows):
            calls.append(x[0])
            if len(calls) == 2:
                raise FloatingPointError("transient")
            return np.diag([x[0], 1.0])

        prob = _finite_sum(10, hessian_fn=hessian)
        x, z = np.zeros(2), np.ones(2)
        assert np.array_equal(prob.noiseless.hessian(x), np.diag([0.0, 1.0]))
        with pytest.raises(FloatingPointError):
            prob.noiseless.hessian(z)
        assert np.array_equal(prob.noiseless.hessian(z), np.eye(2))
        assert np.array_equal(prob.sampler.hessians(z, 10, RngStream(0)), np.eye(2))
        assert calls == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize("n_records", [6_000.0, 2.5, True, "40"])
    def test_record_count_must_be_an_integer(self, n_records):
        with pytest.raises(ValueError, match="n_records must be an integer"):
            _finite_sum(n_records)

    def test_numpy_integer_record_count_accepted(self):
        prob = _finite_sum(np.int64(40), value_fn=lambda x, rows: 40.0 if rows is None else len(rows))
        assert prob.sampler.values(np.zeros(2), 39, RngStream(0)) == 39
        assert prob.sampler.values(np.zeros(2), 40, RngStream(0)) == 40.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            finite_sum_problem(
                dim=2,
                value_fn=lambda x, rows: 0.0,
                gradient_fn=lambda x, rows: np.zeros(2),
                hessian_fn=lambda x, rows: np.zeros((2, 2)),
                n_records=0,
                constraint=lambda x: np.array([x[0]]),
                jacobian=lambda x: np.array([[1.0, 0.0]]),
                constraint_hessians=lambda x: np.zeros((1, 2, 2)),
                num_constraints=1,
            )


class TestCsvLoader:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,0.5,-1.0\n-1,2.0,3.0\n")
        features, labels = load_labeled_csv(path)
        assert np.array_equal(labels, [1.0, -1.0])
        assert np.array_equal(features, [[0.5, -1.0], [2.0, 3.0]])

    def test_bad_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,0.5\n")
        with pytest.raises(ValueError):
            load_labeled_csv(path)

    def test_label_column_alone_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("1\n-1\n1\n")
        with pytest.raises(ValueError, match="at least one column"):
            load_labeled_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, bad):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"1,0.5,-1.0\n-1,{bad},3.0\n")
        with pytest.raises(ValueError, match="NaN or infinity"):
            load_labeled_csv(path)


class _Reshaped:
    """The sampler ``inner`` with the means of ``kind`` passed through ``change``."""

    def __init__(self, inner, kind, change):
        self._inner, self._kind, self._change = inner, kind, change

    def __getattr__(self, name):
        draw = getattr(self._inner, name)
        if name != self._kind:
            return draw
        return lambda x, n, stream: self._change(draw(x, n, stream))


def _saddle_with(noise=0.0, **oracles):
    """The saddle at this noise level with some oracle fields replaced; a
    ``value``, ``gradient`` or ``hessian`` replaces the exact one the sampler
    draws around."""
    base = make_saddle()
    exact = {k: oracles.pop(k) for k in ("value", "gradient", "hessian") if k in oracles}
    base = dataclasses.replace(base, noiseless=dataclasses.replace(base.noiseless, **exact))
    return dataclasses.replace(gaussian_noisy(base, GaussianNoiseSpec(noise)), **oracles)


AT = np.array([0.6, 0.8])


def _solve(problem, alpha=1, hessian="identity"):
    return run(problem, AT, SolverConfig(alpha=alpha, hessian=hessian, max_iters=50, seed=0))


class TestOracleOutputChecks:
    # A wrong shape used to give a wrong answer with no error, or numpy's
    # matmul, reshape, IndexError or TypeError message; each oracle output
    # is now read once, by Problem, and its error names it.
    @pytest.mark.parametrize(
        "constraint",
        [lambda x: np.array([x @ x - 1.0, 0.3]), lambda x: x @ x - 1.0],
        ids=["two entries", "scalar"],
    )
    def test_constraint_value_of_wrong_shape(self, constraint):
        problem = _saddle_with(constraint=constraint)
        for solve in (lambda: true_kkt(problem, AT), lambda: _solve(problem)):
            with pytest.raises(ValueError, match=r"^constraint value must have shape \(1,\)$"):
                solve()

    def test_jacobian_of_wrong_shape(self):
        problem = _saddle_with(jacobian=lambda x: np.diag(2.0 * x))
        for solve in (lambda: true_kkt(problem, AT), lambda: _solve(problem)):
            with pytest.raises(ValueError, match=r"^constraint Jacobian must have shape \(1, 2\)$"):
                solve()

    @pytest.mark.parametrize("alpha, hessian", [(0, "esth"), (1, "identity")])
    def test_non_finite_constraint_hessians_without_exact_oracle(self, alpha, hessian):
        nan = _saddle_with(1e-4, noiseless=None, constraint_hessians=lambda x: np.full((1, 2, 2), np.nan))
        with pytest.raises(NonFiniteInput, match="^constraint Hessians contains NaN or infinity$"):
            _solve(nan, alpha, hessian)
        flat = dataclasses.replace(nan, constraint_hessians=lambda x: 2.0 * np.eye(2))
        with pytest.raises(ValueError, match=r"^constraint Hessians must have shape \(1, 2, 2\)$"):
            _solve(flat, alpha, hessian)

    @pytest.mark.parametrize(
        "kind, change, message",
        [
            ("gradients", lambda g: np.append(g, 0.0), r"sampled gradients must have shape \(2,\)"),
            ("values", lambda f: np.full(2, f), r"sampled values must have shape \(\)"),
        ],
        ids=["gradients", "values"],
    )
    def test_sampled_mean_of_wrong_shape(self, kind, change, message):
        noisy = _saddle_with(1e-4)
        problem = dataclasses.replace(noisy, sampler=_Reshaped(noisy.sampler, kind, change))
        with pytest.raises(ValueError, match=f"^{message}$"):
            _solve(problem)

    @pytest.mark.parametrize("noise", [0.0, 1e-4])
    def test_exact_hessian_of_wrong_shape(self, noise):
        # At noise 0 the sampler's model was wrong too, and the run "converged".
        problem = _saddle_with(noise, hessian=lambda x: np.zeros((1, 1)))
        for solve in (lambda: true_kkt(problem, AT), lambda: _solve(problem)):
            with pytest.raises(ValueError, match=r"^exact Hessian must have shape \(2, 2\)$"):
                solve()

    def test_exact_gradient_of_wrong_shape(self):
        problem = _saddle_with(gradient=lambda x: np.array([2.0]))
        with pytest.raises(ValueError, match=r"^exact gradient must have shape \(2,\)$"):
            true_kkt(problem, AT)


    @pytest.mark.parametrize(
        "oracle, message",
        [
            ({"hessian": lambda x: np.zeros((1, 1))}, r"exact Hessian must have shape \(2, 2\)"),
            ({"gradient": lambda x: np.array([2.0, x[1], 0.0])}, r"exact gradient must have shape \(2,\)"),
            ({"value": lambda x: np.array([2.0 * x[0], 0.5 * x[1] ** 2])}, r"exact value must have shape \(\)"),
        ],
        ids=["hessian", "gradient", "value"],
    )
    def test_noisy_sampler_names_a_wrong_exact_oracle(self, oracle, message):
        # iterate without run has no true_kkt ahead of it: the Gaussian
        # sampler's own read of the exact oracle names the fault.
        problem = _saddle_with(1e-4, **oracle)
        config = SolverConfig(alpha=1, max_iters=50, seed=0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            iterate(SolverState.initial(problem, AT, config), problem, config)

# Problem fields that hold an oracle, and the noiseless oracle's methods.
ORACLE_FIELDS = {"sampler", "constraint", "jacobian", "constraint_hessians"}
EXACT_METHODS = {"value", "gradient", "hessian"}


def oracle_reads(source: str) -> list[int]:
    """Lines of ``source`` that read an oracle field of a problem (a name
    ``problem`` or a parameter annotated ``Problem``) or use a noiseless
    oracle's methods (on ``.noiseless``, ``.require_noiseless()`` or a name
    assigned one of them). The receiver decides, so a method that shares a
    field's name, such as ``state.constraint(problem)``, is not a read."""
    tree = ast.parse(source)
    problems = {"problem"} | {
        a.arg for a in ast.walk(tree)
        if isinstance(a, ast.arg) and a.annotation is not None
        and re.search(r"\bProblem\b", ast.unparse(a.annotation))
    }  # fmt: skip

    def is_noiseless(node):
        """``<x>.noiseless`` or ``<x>.require_noiseless()``."""
        if isinstance(node, ast.Call):
            return isinstance(node.func, ast.Attribute) and node.func.attr == "require_noiseless"
        return isinstance(node, ast.Attribute) and node.attr == "noiseless"

    oracles = {
        t.id for node in ast.walk(tree) if isinstance(node, ast.Assign) and is_noiseless(node.value)
        for t in node.targets if isinstance(t, ast.Name)
    }  # fmt: skip
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        recv = node.value
        named = recv.id if isinstance(recv, ast.Name) else None
        if (node.attr in ORACLE_FIELDS and named in problems) or (
            node.attr in EXACT_METHODS and (named in oracles or is_noiseless(recv))
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_problem_reads_oracles():
    root = Path(__file__).resolve().parents[1]
    paths = [*sorted((root / "src" / "trsqp").glob("*.py")), *sorted((root / "demos").glob("*.py"))]
    reads = [
        f"{path.relative_to(root)}:{line}"
        for path in paths if path.name != "problem.py"
        for line in oracle_reads(path.read_text())
    ]  # fmt: skip
    assert reads == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("def f(problem):\n    return getattr(problem.sampler, 'values')", [2]),
        ("def f(p: Problem, x):\n    return p.jacobian(x)", [2]),
        ("def f(problem, x):\n    h = problem.constraint_hessians\n    return h(x)", [2]),
        ("def f(problem, x):\n    o = problem.require_noiseless()\n    return o.gradient(x)", [3]),
        ("def f(problem, x):\n    return problem.noiseless.hessian(x)", [2]),
        ("def f(state, problem, x):\n    return state.constraint(problem), problem.mean('values', x, 1, 0)", []),
    ],
    ids=["sampler", "annotated", "field-read", "oracle-name", "noiseless", "methods"],
)
def test_oracle_read_guard_matches_on_the_receiver(source, lines):
    assert oracle_reads(source) == lines
