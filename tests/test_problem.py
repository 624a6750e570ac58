import dataclasses
import tracemalloc

import numpy as np
import pytest

from trsqp.benchmarks import make_quadratic, make_saddle
from finite_differences import finite_difference_gradient
from trsqp.errors import EmptyDataset, MissingNoiselessOracle
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
    """Least-squares finite sum; ``seen`` collects every (rows, w) batch."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_records, dim))
    b = rng.standard_normal(n_records)

    def records(rows):
        return (A, b) if rows is None else (A[rows], b[rows])

    def value(x, rows, w):
        if seen is not None:
            seen.append((rows, w))
        Ar, br = records(rows)
        return w @ (0.5 * (Ar @ x - br) ** 2)

    def gradient(x, rows, w):
        Ar, br = records(rows)
        return (w * (Ar @ x - br)) @ Ar

    def hessian(x, rows, w):
        Ar, _ = records(rows)
        return (Ar.T * w) @ Ar

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
        # Every record once: bitwise the weights of a count of arange(N).
        prob.noiseless.value(-x)
        (rows, w), again = seen
        assert rows is None and again[1] is w and not w.flags.writeable
        assert w.tobytes() == (np.bincount(np.arange(5), minlength=5) / 5).tobytes()

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
        (rows, w), again, other = seen
        assert again[0] is rows and again[1] is w and rows.shape == (50,)
        assert not rows.flags.writeable and not w.flags.writeable
        assert np.array_equal(w, np.full(50, 1 / 50))
        assert not np.array_equal(rows, other[0])
        assert v1 == prob.sampler.values(x1, 50, stream)

    def test_value_pair_draws_indices_once(self, monkeypatch):
        keys = []
        generator = RngStream.generator

        def counted(stream):
            keys.append(stream.path)
            return generator(stream)

        monkeypatch.setattr(RngStream, "generator", counted)
        seen = []
        prob = _toy_finite_sum(n_records=6_000, seen=seen)
        stream = RngStream(9).child("pair", 1)
        prob.sampler.values(np.zeros(3), 10_000, stream)
        prob.sampler.values(np.ones(3), 10_000, stream)
        assert len(keys) == 1 and seen[0][1] is seen[1][1]
        assert not seen[0][1].flags.writeable
        # Another size, or a path part that compares equal but keys another
        # generator, draws afresh.
        prob.sampler.values(np.zeros(3), 9_999, stream)
        prob.sampler.values(np.zeros(3), 10_000, RngStream(9).child("pair", np.int64(1)))
        assert len(keys) == 3
        fresh = _toy_finite_sum(n_records=6_000, seen=[]).sampler._batch
        _, w = fresh(10_000, RngStream(9).child("pair", np.int64(1)))
        assert np.array_equal(seen[3][1], w)
        assert not np.array_equal(seen[3][1], seen[0][1])

    def test_batch_larger_than_dataset_draws_with_replacement(self):
        seen = []
        prob = _toy_finite_sum(n_records=6_000, seen=seen)
        x = np.array([0.3, 0.1, -0.7])
        stream = RngStream(5).child("big")
        for n in (6_000, 10_000):  # as many draws as records, and more
            mean = prob.sampler.values(x, n, stream)
            rows, w = seen.pop()
            # Every record, weighted by its draw count over n.
            idx = stream.generator().integers(0, 6_000, size=n)
            assert rows is None
            assert w.tobytes() == (np.bincount(idx, minlength=6_000) / n).tobytes()
            assert np.count_nonzero(w) < 6_000
            assert mean != prob.noiseless.value(x)

    def test_gradient_matches_finite_differences(self):
        prob = _toy_finite_sum()
        x = np.array([0.3, 0.1, -0.7])
        fd = finite_difference_gradient(prob.noiseless.value, x)
        assert np.max(np.abs(fd - prob.noiseless.gradient(x))) <= 1e-6

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            finite_sum_problem(
                dim=2,
                value_fn=lambda x, rows, w: 0.0,
                gradient_fn=lambda x, rows, w: np.zeros(2),
                hessian_fn=lambda x, rows, w: np.zeros((2, 2)),
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
