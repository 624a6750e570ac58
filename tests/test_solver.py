import numpy as np
import pytest

from trsqp.benchmarks import make_quadratic, make_saddle, true_kkt
from trsqp.errors import MissingNoiselessOracle
from trsqp.estimator import AccuracyParams
from trsqp.problem import GaussianNoiseSpec, gaussian_noisy
from trsqp.solver import (
    SUCCESSFUL_RELIABLE,
    SUCCESSFUL_UNRELIABLE,
    UNSUCCESSFUL_LINE6,
    UNSUCCESSFUL_REJECTED,
    SolverConfig,
    SolverState,
    iterate,
    run,
)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = SolverConfig()
        assert cfg.accuracy.kappa_f == pytest.approx(0.4**3 / 80.0)

    def test_kappa_f_bound_enforced(self):
        with pytest.raises(ValueError, match="kappa_f"):
            SolverConfig(accuracy=AccuracyParams(alpha=0, kappa_f=0.01))

    def test_range_checks(self):
        with pytest.raises(ValueError):
            SolverConfig(eta=1.5)
        with pytest.raises(ValueError):
            SolverConfig(gamma=1.0)
        with pytest.raises(ValueError):
            SolverConfig(delta0=6.0, delta_max=5.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha=2)

    def test_alpha_mismatch_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            SolverConfig(alpha=1, accuracy=AccuracyParams(alpha=0, kappa_f=1e-4))


class TestIterate:
    def test_line6_at_solution(self):
        # Exact solution, zero noise, small radius: the progress criterion
        # fails, the iterate stays, radius and reliability shrink by 1/gamma.
        prob = make_quadratic()
        cfg = SolverConfig(alpha=0, hessian="identity", kkt_tol=0.0, seed=0)
        state = SolverState.initial(prob, np.array([0.5, 0.5]), cfg)
        state.delta, state.eps = 0.25, 0.125
        state, rec = iterate(state, prob, cfg)
        assert rec.outcome == UNSUCCESSFUL_LINE6
        assert np.array_equal(state.x, [0.5, 0.5])
        assert state.delta == 0.25 / cfg.gamma
        assert state.eps == 0.125 / cfg.gamma

    def test_saddle_selects_eigen(self):
        # At the saddle with zero noise: KKT residual 0, curvature 1, so the
        # progress criterion holds and the eigen step is selected; the SOC
        # retry then makes the iteration succeed.
        prob = make_saddle()
        cfg = SolverConfig(alpha=1, kkt_tol=0.0, seed=0)
        state = SolverState.initial(prob, np.array([1.0, 0.0]), cfg)
        state, rec = iterate(state, prob, cfg)
        assert rec.step_kind == "eigen"
        assert rec.tau_est == pytest.approx(1.0, abs=1e-12)
        assert rec.soc
        assert rec.outcome in (SUCCESSFUL_RELIABLE, SUCCESSFUL_UNRELIABLE)

    def test_merit_parameter_monotone(self):
        prob = gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-2))
        cfg = SolverConfig(alpha=1, kkt_tol=0.0, seed=3)
        state = SolverState.initial(prob, np.array([0.4, 1.2]), cfg)
        mus = [state.mu]
        for _ in range(50):
            state, rec = iterate(state, prob, cfg)
            mus.append(state.mu)
        assert all(b >= a for a, b in zip(mus, mus[1:]))

    def test_update_discipline(self):
        prob = gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-4))
        cfg = SolverConfig(alpha=1, kkt_tol=0.0, seed=5)
        state = SolverState.initial(prob, np.array([1.0, 0.005]), cfg)
        for _ in range(60):
            before = (state.x.copy(), state.delta, state.eps)
            state, rec = iterate(state, prob, cfg)
            x0, d0, e0 = before
            if rec.outcome in (UNSUCCESSFUL_LINE6, UNSUCCESSFUL_REJECTED):
                assert np.array_equal(state.x, x0)
                assert state.delta == d0 / cfg.gamma
                assert state.eps == max(e0 / cfg.gamma, cfg.eps_floor)
            else:
                assert not np.array_equal(state.x, x0)
                assert state.delta == min(cfg.gamma * d0, cfg.delta_max)
                if rec.outcome == SUCCESSFUL_RELIABLE:
                    assert state.eps == cfg.gamma * e0
                else:
                    assert state.eps == max(e0 / cfg.gamma, cfg.eps_floor)


class TestRun:
    def test_quadratic_converges(self):
        prob = make_quadratic()
        cfg = SolverConfig(alpha=0, hessian="identity", kkt_tol=1e-6, max_iters=200, seed=0)
        res = run(prob, np.array([3.0, -1.0]), cfg)
        assert res.converged
        assert np.max(np.abs(res.state.x - 0.5)) <= 1e-5
        assert res.final_kkt <= 1e-6

    def test_zero_max_iters(self):
        prob = make_quadratic()
        cfg = SolverConfig(alpha=0, kkt_tol=0.0, max_iters=0)
        res = run(prob, np.array([3.0, -1.0]), cfg)
        assert res.records == []
        assert np.array_equal(res.state.x, [3.0, -1.0])

    def test_bitwise_determinism(self):
        prob = gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-2))
        cfg = SolverConfig(alpha=1, kkt_tol=1e-4, max_iters=300, seed=11)
        rows = []
        for _ in range(2):
            res = run(prob, np.array([1.0, 0.003]), cfg)
            rows.append([r.csv_row() for r in res.records])
        assert rows[0] == rows[1]

    def test_estimate_based_stopping_with_debounce(self):
        prob = gaussian_noisy(make_quadratic(), GaussianNoiseSpec(1e-8))
        cfg = SolverConfig(
            alpha=0, hessian="identity", kkt_tol=1e-3, max_iters=300, seed=2,
            use_true_kkt=False,
        )
        res = run(prob, np.array([2.0, 0.0]), cfg)
        assert res.converged
        tail = [r.kkt_est for r in res.records[-cfg.stop_patience:]]
        assert all(v <= cfg.kkt_tol for v in tail)

    def test_true_kkt_needs_oracle(self):
        from trsqp.problem import Problem

        noisy = gaussian_noisy(make_quadratic(), GaussianNoiseSpec(1e-2))
        stripped = Problem(
            dim=2, num_constraints=1,
            constraint=noisy.constraint, jacobian=noisy.jacobian,
            constraint_hessians=noisy.constraint_hessians,
            sampler=noisy.sampler, noiseless=None,
        )
        with pytest.raises(MissingNoiselessOracle):
            run(stripped, np.zeros(2), SolverConfig(alpha=0, use_true_kkt=True))

    def test_radius_floor_stops(self):
        prob = make_quadratic()
        cfg = SolverConfig(alpha=0, kkt_tol=0.0, max_iters=1000, delta_min=1e-6, seed=0)
        res = run(prob, np.array([0.5, 0.5]), cfg)
        assert res.stop_reason == "radius-floor"
        assert res.state.delta < 1e-6

    def test_invariants_clean_on_noisy_run(self):
        prob = gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-2))
        cfg = SolverConfig(alpha=1, kkt_tol=1e-4, max_iters=400, seed=4)
        res = run(prob, np.array([1.0, -0.004]), cfg)
        assert res.invariants.total_checked > 0
        assert res.invariants.total_violations == 0

    def test_saddle_escape_single_run(self):
        prob = gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-8))
        cfg = SolverConfig(alpha=1, kkt_tol=1e-4, max_iters=2000, seed=0)
        res = run(prob, np.array([1.0, 0.002]), cfg)
        assert res.converged
        assert np.linalg.norm(res.state.x - np.array([-1.0, 0.0])) <= 0.05
        kkt, tau_plus = true_kkt(prob, res.state.x)
        assert max(kkt, tau_plus) <= 1e-4

    @pytest.mark.parametrize("use_true_kkt", [None, False])
    def test_exact_oracle_once_per_distinct_iterate(self, monkeypatch, use_true_kkt):
        import trsqp.benchmarks

        prob = gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-2))
        cfg = SolverConfig(
            alpha=1, kkt_tol=1e-4, max_iters=150, seed=3, use_true_kkt=use_true_kkt
        )
        x0 = np.array([1.0, 0.003])
        calls = []

        def counting(problem, x):
            calls.append(1)
            return true_kkt(problem, x)

        monkeypatch.setattr(trsqp.benchmarks, "true_kkt", counting)
        res = run(prob, x0, cfg)
        accepted = sum(
            r.outcome in (SUCCESSFUL_RELIABLE, SUCCESSFUL_UNRELIABLE) for r in res.records
        )
        assert 0 < accepted < len(res.records)
        assert len(calls) == 1 + accepted

        # Replaying through iterate leaves the exact columns NaN; run stamps
        # them with the exact values at each iteration's start point.
        state = SolverState.initial(prob, x0, cfg)
        for rec in res.records:
            kkt, tau = true_kkt(prob, state.x)
            state, replayed = iterate(state, prob, cfg)
            assert np.isnan(replayed.kkt_true) and np.isnan(replayed.tau_true)
            assert (rec.kkt_true.hex(), rec.tau_true.hex()) == (kkt.hex(), tau.hex())
            assert (replayed.k, replayed.outcome, replayed.ared) == (rec.k, rec.outcome, rec.ared)
        assert np.array_equal(state.x, res.state.x)
        final = true_kkt(prob, state.x)
        assert (res.final_kkt.hex(), res.final_tau.hex()) == (final[0].hex(), final[1].hex())
