import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from trsqp.benchmarks import (
    SyntheticLogisticSpec,
    make_logistic,
    make_quadratic,
    make_saddle,
    true_kkt,
)
from trsqp.cli import _initial_point
from trsqp.problem import GaussianNoiseSpec, NoiselessOracle, exact_problem, gaussian_noisy
from trsqp.solver import (
    DELTA_MIN,
    EPS_FLOOR,
    STOP_PATIENCE,
    SUCCESSFUL_RELIABLE,
    SUCCESSFUL_UNRELIABLE,
    UNSUCCESSFUL_LINE6,
    UNSUCCESSFUL_REJECTED,
    InvariantReport,
    IterationRecord,
    SolverConfig,
    SolverState,
    iterate,
    run,
)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = SolverConfig()
        assert cfg.kappa_f == pytest.approx(0.4**3 / 80.0)

    def test_kappa_f_is_derived(self):
        cfg = SolverConfig(eta=0.3, delta0=0.5, delta_max=0.8)
        assert cfg.kappa_f == 0.3**3 / 16.0
        with pytest.raises(AttributeError):
            cfg.kappa_f = 1e-4
        with pytest.raises(TypeError):
            SolverConfig(kappa_f=1e-4)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            SolverConfig(eta=1.5)
        with pytest.raises(ValueError):
            SolverConfig(gamma=1.0)
        with pytest.raises(ValueError):
            SolverConfig(delta0=6.0, delta_max=5.0)
        with pytest.raises(ValueError):
            SolverConfig(alpha=2)
        with pytest.raises(ValueError, match="hessian"):
            SolverConfig(alpha=1, hessian="sr-1")
        with pytest.raises(ValueError, match="hessian"):
            SolverConfig(alpha=0, hessian="lagrangian")
        with pytest.raises(ValueError, match="kappa_g"):
            SolverConfig(kappa_g=0.0)
        with pytest.raises(ValueError, match="p_f"):
            SolverConfig(p_f=1.0)
        with pytest.raises(ValueError, match="batch_cap"):
            SolverConfig(batch_cap=0)
        with pytest.raises(ValueError, match="batch_cap"):
            SolverConfig(batch_cap=math.nan)

    @pytest.mark.parametrize(
        "field, bad",
        [("kkt_tol", math.nan), ("kkt_tol", -1e-4), ("max_iters", -5), ("max_iters", math.nan)],
    )
    def test_stop_settings_must_be_nonnegative(self, field, bad):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: bad})

    @pytest.mark.parametrize(
        "field",
        ["gamma", "rho", "mu0", "eps0", "kappa_g", "kappa_h", "c_f", "c_g", "c_h", "delta_max"],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_settings_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: bad})

    def test_r_and_kkt_tol_may_be_infinite(self):
        SolverConfig(r=math.inf, kkt_tol=math.inf)
        with pytest.raises(ValueError, match="r must"):
            SolverConfig(r=math.nan)


README = Path(__file__).resolve().parents[1] / "README.md"


def _hand_written_row(rec):
    """The trajectory row written column by column: the reference that the
    derived ``csv_row`` must reproduce."""
    vals = [
        str(rec.k),
        rec.outcome,
        rec.step_kind,
        str(int(rec.soc)),
        *(format(v, ".17g") for v in (rec.delta, rec.eps, rec.mu, rec.pred, rec.ared)),
        *(format(v, ".17g") for v in (rec.kkt_est, rec.tau_est, rec.kkt_true, rec.tau_true)),
        str(rec.batch_f),
        str(rec.batch_g),
        str(rec.batch_h),
    ]
    return ",".join(vals)


class TestIterationRecord:
    def test_header_matches_readme(self):
        assert IterationRecord.CSV_FIELDS in README.read_text().splitlines()

    def test_row_formats_like_the_hand_written_row(self):
        # A bool, ints, a NaN, an inf, floats that are not exactly
        # representable (0.1, 1/3) and the numpy scalars a solve can log.
        rec = IterationRecord(
            k=7, outcome=SUCCESSFUL_RELIABLE, step_kind="eigen", soc=True,
            delta=0.1, eps=1.0 / 3.0, mu=np.float64(1.2), pred=-2.5e-17, ared=math.nan,
            kkt_est=1e300, tau_est=0.0, kkt_true=math.nan, tau_true=-math.inf,
            batch_f=10_000, batch_g=np.int64(1), batch_h=0,
        )
        assert rec.csv_row() == _hand_written_row(rec)
        assert rec.csv_row().split(",")[3:6] == ["1", "0.10000000000000001", "0.33333333333333331"]
        assert "nan" in rec.csv_row().split(",")
        off = dataclasses.replace(rec, soc=False)
        assert off.csv_row().split(",")[3] == "0" and off.csv_row() == _hand_written_row(off)


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

    def test_one_jacobian_factorization_per_iteration(self, monkeypatch):
        # The null-space basis, multiplier, normal step, SOC pull and the
        # invariant checks all read off one SVD of G per distinct iterate:
        # line-6 and rejected iterations, which leave x where it is, reuse it.
        import trsqp.linalg

        prob = gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-2))
        cfg = SolverConfig(alpha=1, kkt_tol=0.0, seed=0)
        state = SolverState.initial(prob, np.array([1.0, 0.005]), cfg)
        svd = trsqp.linalg._checked_svd
        calls = []

        def counting(G):
            calls.append(1)
            return svd(G)

        monkeypatch.setattr(trsqp.linalg, "_checked_svd", counting)
        report = InvariantReport()
        seen = set()
        iterates = set()
        for _ in range(20):
            iterates.add(state.x.tobytes())
            state, rec = iterate(state, prob, cfg, report)
            assert len(calls) == len(iterates)
            seen.add("line6" if rec.outcome == UNSUCCESSFUL_LINE6 else rec.step_kind)
            if rec.soc:
                seen.add("soc")
        assert seen == {"line6", "gradient", "eigen", "soc"}
        assert len(calls) < 20
        assert sum(report.checked.values()) > 0 and report.total_violations == 0

    @pytest.mark.parametrize("name", ["quadratic", "logistic"])
    def test_constant_jacobian_factored_once_per_run(self, monkeypatch, name):
        # An affine constraint has the same G at every iterate: the solver
        # factors it once per run, while true_kkt keeps its own factor at
        # each distinct iterate.
        import trsqp.benchmarks
        import trsqp.linalg

        if name == "quadratic":
            prob = gaussian_noisy(make_quadratic(), GaussianNoiseSpec(1e-2))
            x0 = np.array([3.0, -1.0])
            cfg = SolverConfig(alpha=1, kkt_tol=1e-4, max_iters=100, seed=0)
        else:
            spec = SyntheticLogisticSpec(n_records=600)
            prob = make_logistic(spec, np.random.default_rng(913_000))
            x0 = np.zeros(prob.dim)
            cfg = SolverConfig(alpha=1, kkt_tol=1e-2, max_iters=100, seed=0)
        svd = trsqp.linalg._checked_svd
        calls = {"solver": 0, "true_kkt": 0}
        in_true_kkt = []

        def counting(G):
            calls["true_kkt" if in_true_kkt else "solver"] += 1
            return svd(G)

        def exact(problem, x):
            in_true_kkt.append(1)
            try:
                return true_kkt(problem, x)
            finally:
                in_true_kkt.pop()

        monkeypatch.setattr(trsqp.linalg, "_checked_svd", counting)
        monkeypatch.setattr(trsqp.benchmarks, "true_kkt", exact)
        res = run(prob, x0, cfg)
        accepted = sum(
            r.outcome in (SUCCESSFUL_RELIABLE, SUCCESSFUL_UNRELIABLE) for r in res.records
        )
        assert res.converged and accepted > 1
        assert calls == {"solver": 1, "true_kkt": 1 + accepted}

    def test_soc_evaluates_the_constraint_once(self):
        # c(x + dx) is evaluated once per trial iteration and c(x) only at the
        # first iterate: later iterates reuse the accepted trial point's c.
        # The SOC reads both and evaluates c only at its own trial point.
        base = gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-2))
        calls = []

        def counting(x):
            calls.append(1)
            return base.constraint(x)

        prob = dataclasses.replace(base, constraint=counting)
        cfg = SolverConfig(alpha=1, kkt_tol=0.0, seed=0)
        state = SolverState.initial(prob, np.array([1.0, 0.005]), cfg)
        socs = 0
        for k in range(20):
            calls.clear()
            state, rec = iterate(state, prob, cfg)
            trial = rec.outcome != UNSUCCESSFUL_LINE6
            assert len(calls) == (k == 0) + trial + rec.soc
            socs += rec.soc
        assert socs > 0

    def test_run_evaluates_the_constraint_once_per_point(self):
        # Over a run, c is evaluated at x0, at each trial point and at each
        # SOC trial point; line-6, rejected and accepted iterations add no
        # evaluation at the start point.
        base = gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-2))
        calls = []

        def counting(x):
            calls.append(x.copy())
            return base.constraint(x)

        prob = dataclasses.replace(base, constraint=counting, noiseless=None)
        cfg = SolverConfig(alpha=1, kkt_tol=0.0, max_iters=60, seed=0)
        result = run(prob, np.array([1.0, 0.005]), cfg)
        trials = sum(r.outcome != UNSUCCESSFUL_LINE6 for r in result.records)
        socs = sum(r.soc for r in result.records)
        accepted = (SUCCESSFUL_RELIABLE, SUCCESSFUL_UNRELIABLE)
        assert any(r.outcome in accepted for r in result.records)
        assert socs > 0
        assert len(calls) == 1 + trials + socs

    def test_assigned_iterate_gets_a_fresh_constraint(self):
        base = gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-2))
        calls = []

        def counting(x):
            calls.append(x.copy())
            return base.constraint(x)

        prob = dataclasses.replace(base, constraint=counting)
        cfg = SolverConfig(alpha=1, kkt_tol=0.0, seed=0)
        state = SolverState.initial(prob, np.array([1.0, 0.005]), cfg)
        state, _ = iterate(state, prob, cfg)

        def assert_fresh():
            calls.clear()
            c = state.constraint(prob)
            assert len(calls) == 1 and np.array_equal(calls[0], state.x)
            assert c.tobytes() == base.constraint(state.x).tobytes()

        state.x = np.array([0.3, 0.8])
        assert_fresh()
        state.x[0] += 0.25  # changed in place
        assert_fresh()

    @pytest.mark.parametrize(
        "alpha, x0, kind, eigh, svd",
        [
            # Estimate and step share one eigh of Z^T H Z; the SVDs are G
            # (which also gives ||G||) and ||H||.
            (1, [0.0, 1.0], "gradient", 1, 2),
            # A first-order line-6 iteration reads no reduced curvature.
            (0, [-1.0, 0.0], "none", 0, 2),
            # A first-order step decomposes Z^T H Z once, for its tangential solve.
            (0, [0.0, 1.0], "gradient", 1, 2),
        ],
    )
    def test_decompositions_per_iteration(self, monkeypatch, alpha, x0, kind, eigh, svd):
        counts = {"eigh": 0, "svd": 0}
        for name in counts:
            real = getattr(np.linalg, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        prob = gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-2))
        cfg = SolverConfig(alpha=alpha, kkt_tol=0.0, seed=0)
        state = SolverState.initial(prob, np.array(x0), cfg)
        _, rec = iterate(state, prob, cfg, report=None)
        assert rec.step_kind == kind
        assert counts == {"eigh": eigh, "svd": svd}

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
                assert state.eps == max(e0 / cfg.gamma, EPS_FLOOR)
            else:
                assert not np.array_equal(state.x, x0)
                assert state.delta == min(cfg.gamma * d0, cfg.delta_max)
                if rec.outcome == SUCCESSFUL_RELIABLE:
                    assert state.eps == cfg.gamma * e0
                else:
                    assert state.eps == max(e0 / cfg.gamma, EPS_FLOOR)


def make_hs28():
    """Hock and Schittkowski problem 28: min (x1 + x2)^2 + (x2 + x3)^2 subject
    to x1 + 2 x2 + 3 x3 = 1; x* = (0.5, -0.5, 0.5), f* = 0."""
    A = np.array([[1.0, 2.0, 3.0]])
    oracle = NoiselessOracle(
        value=lambda x: float((x[0] + x[1]) ** 2 + (x[1] + x[2]) ** 2),
        gradient=lambda x: np.array(
            [2.0 * (x[0] + x[1]), 2.0 * (x[0] + x[1]) + 2.0 * (x[1] + x[2]), 2.0 * (x[1] + x[2])]
        ),
        hessian=lambda x: np.array([[2.0, 2.0, 0.0], [2.0, 4.0, 2.0], [0.0, 2.0, 2.0]]),
    )
    return exact_problem(
        3, 1, oracle,
        constraint=lambda x: A @ x - 1.0,
        jacobian=lambda x: A.copy(),
        constraint_hessians=lambda x: np.zeros((1, 3, 3)),
        name="hs28",
    )


class TestRun:
    @pytest.mark.parametrize("variance", [0.0, 1e-2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pred_threshold_holds_on_feasible_affine_steps(self, variance, seed):
        # x0 = (-4, 1, 1) is feasible, so every step stays at c = 0 up to the
        # roundoff of G dx, which Pred's slack must cover (docs/decisions.md).
        prob = gaussian_noisy(make_hs28(), GaussianNoiseSpec(variance))
        cfg = SolverConfig(alpha=0, max_iters=2000, seed=seed)
        res = run(prob, np.array([-4.0, 1.0, 1.0]), cfg)
        assert res.converged
        assert res.invariants.checked["pred_threshold"] > 0
        assert res.invariants.violations == {}
        assert np.allclose(res.state.x, [0.5, -0.5, 0.5], atol=1e-3)

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
        # Without a noiseless oracle the run stops on the estimates.
        noisy = gaussian_noisy(make_quadratic(), GaussianNoiseSpec(1e-8))
        prob = dataclasses.replace(noisy, noiseless=None)
        cfg = SolverConfig(alpha=0, hessian="identity", kkt_tol=1e-3, max_iters=300, seed=2)
        res = run(prob, np.array([2.0, 0.0]), cfg)
        assert res.converged
        tail = [r.kkt_est for r in res.records[-STOP_PATIENCE:]]
        assert all(v <= cfg.kkt_tol for v in tail)
        assert all(math.isnan(r.kkt_true) for r in res.records)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_objective_scaled_by_1e8(self, seed):
        # The merit parameter has to grow by about the objective scale in the
        # first iteration; it rises as far as Pred needs, with no cap.
        saddle = make_saddle()
        base, scale = saddle.noiseless, 1e8
        oracle = NoiselessOracle(
            value=lambda x: scale * base.value(x),
            gradient=lambda x: scale * base.gradient(x),
            hessian=lambda x: scale * base.hessian(x),
        )
        prob = exact_problem(
            2, 1, oracle, saddle.constraint, saddle.jacobian, saddle.constraint_hessians
        )
        cfg = SolverConfig(alpha=1, kkt_tol=1e-4, seed=seed)
        res = run(prob, _initial_point("saddle", prob, seed), cfg)
        assert res.invariants.total_violations == 0
        assert np.linalg.norm(res.state.x - np.array([-1.0, 0.0])) <= 1e-9

    def test_radius_floor_stops(self):
        prob = make_quadratic()
        cfg = SolverConfig(alpha=0, kkt_tol=0.0, max_iters=1000, seed=0)
        res = run(prob, np.array([0.5, 0.5]), cfg)
        assert res.stop_reason == "radius-floor" and not res.converged
        assert res.state.delta < DELTA_MIN
        # The start is the solution, so every iteration fails line 6.
        assert all(r.outcome == UNSUCCESSFUL_LINE6 for r in res.records)

    def test_invariants_clean_on_noisy_run(self):
        prob = gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-2))
        cfg = SolverConfig(alpha=1, kkt_tol=1e-4, max_iters=400, seed=4)
        res = run(prob, np.array([1.0, -0.004]), cfg)
        assert sum(res.invariants.checked.values()) > 0
        assert res.invariants.total_violations == 0

    def test_saddle_escape_single_run(self):
        prob = gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-8))
        cfg = SolverConfig(alpha=1, kkt_tol=1e-4, max_iters=2000, seed=0)
        res = run(prob, np.array([1.0, 0.002]), cfg)
        assert res.converged
        assert np.linalg.norm(res.state.x - np.array([-1.0, 0.0])) <= 0.05
        kkt, tau_plus = true_kkt(prob, res.state.x)
        assert max(kkt, tau_plus) <= 1e-4

    # None leaves the problem's noiseless oracle attached, so the run stops
    # on the exact measure; False strips it, so the run stops on the
    # estimates and never calls the exact oracle.
    @pytest.mark.parametrize("exact_stop", [None, False])
    def test_exact_oracle_once_per_distinct_iterate(self, monkeypatch, exact_stop):
        import trsqp.benchmarks

        prob = gaussian_noisy(make_saddle(), GaussianNoiseSpec(1e-2))
        if exact_stop is False:
            prob = dataclasses.replace(prob, noiseless=None)
        cfg = SolverConfig(alpha=1, kkt_tol=1e-4, max_iters=150, seed=3)
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
        assert len(calls) == (0 if exact_stop is False else 1 + accepted)

        # Replaying through iterate leaves the exact columns NaN; run stamps
        # them with the exact values at each iteration's start point, when
        # the problem has a noiseless oracle.
        def exact(x):
            if exact_stop is False:
                return math.nan, math.nan
            return true_kkt(prob, x)

        state = SolverState.initial(prob, x0, cfg)
        for rec in res.records:
            kkt, tau = exact(state.x)
            state, replayed = iterate(state, prob, cfg)
            assert np.isnan(replayed.kkt_true) and np.isnan(replayed.tau_true)
            assert (rec.kkt_true.hex(), rec.tau_true.hex()) == (kkt.hex(), tau.hex())
            assert (replayed.k, replayed.outcome, replayed.ared) == (rec.k, rec.outcome, rec.ared)
        assert np.array_equal(state.x, res.state.x)
        final = exact(state.x)
        assert (res.final_kkt.hex(), res.final_tau.hex()) == (final[0].hex(), final[1].hex())
