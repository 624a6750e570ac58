"""Property tests: whole solves on random small problems.

Each example is an affine-constrained quadratic with d <= 6 and m < d: a
Jacobian of controlled condition number, a convex or indefinite Hessian,
an objective scale of 10^U(-8, 8), Gaussian noise of variance 0, 1e-4 or
1e-2, either alpha and every first-order Hessian strategy, with or without
the noiseless oracle (without it the run stops on its estimates). A
second family is affine-constrained logistic regression over N <= 40
records, with a batch cap below or above N, so batches are both sets of
records and the whole dataset. Every solve must stop for a known reason,
break no per-iteration invariant, and repeat bit for bit. The examples are
drawn deterministically, so a failure reproduces.
"""

import dataclasses
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trsqp.benchmarks import make_logistic_from_data, true_kkt
from trsqp.estimator import HESSIAN_STRATEGIES
from trsqp.problem import GaussianNoiseSpec, NoiselessOracle, exact_problem, gaussian_noisy
from trsqp.solver import SolverConfig, run

STOP_REASONS = {"converged", "max-iters", "radius-floor"}
MAX_ITERS = 60


def _orthonormal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


@st.composite
def instances(draw):
    """(problem, x0, config) of one random affine-constrained quadratic."""
    d = draw(st.integers(2, 6))
    m = draw(st.integers(1, d - 1))
    cond_exp = draw(st.floats(0.0, 6.0))  # cond(G) = 10^cond_exp
    convex = draw(st.booleans())
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    noise = draw(st.sampled_from([0.0, 1e-4, 1e-2]))
    alpha = draw(st.sampled_from([0, 1]))
    hessian = draw(st.sampled_from(sorted(HESSIAN_STRATEGIES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    # G = U diag(s) V_m^T with singular values spread over [1, 10^cond_exp].
    s = np.logspace(0.0, cond_exp, m)
    G = (_orthonormal(rng, m) * s) @ _orthonormal(rng, d)[:m]
    b = rng.standard_normal(m)
    lo = 0.1 if convex else -3.0
    V = _orthonormal(rng, d)
    Q = (V * rng.uniform(lo, 3.0, d)) @ V.T
    Q = 0.5 * (Q + Q.T)
    q = rng.standard_normal(d)

    oracle = NoiselessOracle(
        value=lambda x: float(scale * (0.5 * x @ Q @ x + q @ x)),
        gradient=lambda x: scale * (Q @ x + q),
        hessian=lambda x: scale * Q,
    )
    base = exact_problem(
        d, m, oracle,
        constraint=lambda x: G @ x - b,
        jacobian=lambda x: G,
        constraint_hessians=lambda x: np.zeros((m, d, d)),
    )  # fmt: skip
    problem = gaussian_noisy(base, GaussianNoiseSpec(noise))
    config = SolverConfig(
        alpha=alpha, hessian=hessian, kkt_tol=1e-6, max_iters=MAX_ITERS, seed=3
    )
    return problem, rng.standard_normal(d), config


@st.composite
def finite_sums(draw):
    """(problem, x0, config) of one random logistic regression over N records."""
    d = draw(st.integers(2, 6))
    m = draw(st.integers(1, d - 1))
    n_records = draw(st.integers(2, 40))
    below = draw(st.booleans())
    cap = draw(st.integers(1, n_records - 1) if below else st.integers(n_records, 4 * n_records))
    alpha = draw(st.sampled_from([0, 1]))
    hessian = draw(st.sampled_from(sorted(HESSIAN_STRATEGIES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.standard_normal((n_records, d))
    labels = np.where(rng.uniform(size=n_records) < 0.5, 1.0, -1.0)
    problem = make_logistic_from_data(features, labels, num_constraints=m, rng=rng)
    config = SolverConfig(
        alpha=alpha, hessian=hessian, kkt_tol=1e-6, max_iters=MAX_ITERS, seed=3, batch_cap=cap
    )
    return problem, rng.standard_normal(d), config


SETTINGS = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(instances(), st.booleans())
def test_random_solves_stop_cleanly_and_repeat(instance, with_oracle):
    _check_solves(*instance, with_oracle)


@SETTINGS
@given(finite_sums(), st.booleans())
def test_random_finite_sum_solves_stop_cleanly_and_repeat(instance, with_oracle):
    _check_solves(*instance, with_oracle)


def _check_solves(problem, x0, config, with_oracle):
    if not with_oracle:
        problem = dataclasses.replace(problem, noiseless=None)
    first, second = run(problem, x0, config), run(problem, x0, config)
    assert first.stop_reason in STOP_REASONS
    assert first.invariants.total_violations == 0, first.invariants.violations
    assert [r.csv_row() for r in first.records] == [r.csv_row() for r in second.records]
    assert first.state.x.tobytes() == second.state.x.tobytes()
    if not with_oracle:
        assert all(math.isnan(r.kkt_true) for r in first.records)
    else:
        # The standalone reference and the solver's path into it agree.
        standalone = np.array(true_kkt(problem, first.state.x))
        assert standalone.tobytes() == np.array([first.final_kkt, first.final_tau]).tobytes()
