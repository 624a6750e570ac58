import argparse
import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trsqp.rng
from trsqp import benchmarks
from trsqp.cli import build_config, build_problem, main, read_config_file
from trsqp.errors import RankDeficient
from trsqp.linalg import JacobianFactor, SymmetricEig
from trsqp.solver import SolverConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse errors
        return exc.code


class TestRunCommand:
    def test_zero_iterations_writes_header_only(self, tmp_path):
        out = tmp_path / "runs"
        code = run_cli(
            ["run", "--problem", "quadratic", "--max-iters", "0", "--out", str(out)]
        )
        assert code == 0
        csv = (out / "quadratic_noise0_seed0.csv").read_text()
        assert csv.splitlines() == [
            "k,outcome,step_kind,soc,delta,eps,mu,pred,ared,"
            "kkt_est,tau_est,kkt_true,tau_true,batch_f,batch_g,batch_h"
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"][0]["iterations"] == 0

    def test_reports_the_solver_wall_time(self, tmp_path, capsys, monkeypatch):
        # The printed time and summary.json read RunResult.wall_time; the
        # command takes no clock of its own.
        import trsqp.cli

        real_run = trsqp.cli.run
        monkeypatch.setattr(
            trsqp.cli, "run", lambda *a: dataclasses.replace(real_run(*a), wall_time=12.345)
        )
        out = tmp_path / "runs"
        code = run_cli(["run", "--problem", "quadratic", "--max-iters", "3", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"][0]["wall_time"] == 12.345
        assert "12.35s)" in capsys.readouterr().out

    def test_unknown_problem_exits_2(self, tmp_path, capsys):
        code = run_cli(["run", "--problem", "mystery", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: trsqp run")
        assert err.splitlines()[-1].startswith("trsqp run: error: unknown problem 'mystery'")

    def test_quadratic_run_converges(self, tmp_path):
        out = tmp_path / "q"
        code = run_cli(
            [
                "run",
                "--problem",
                "quadratic",
                "--kkt-tol",
                "1e-6",
                "--max-iters",
                "100",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"][0]["converged"] is True
        assert summary["runs"][0]["final_kkt"] <= 1e-6

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "run", "--problem", "saddle", "--alpha", "1",
            "--noise", "1e-4", "--seeds", "0", "1",
            "--max-iters", "150", "--kkt-tol", "1e-4",
        ]
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli(args + ["--out", str(out)]) == 0
            outs.append(out)
        for name in ("saddle_noise0.0001_seed0.csv", "saddle_noise0.0001_seed1.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_hessian_flag_and_config_file(self, tmp_path):
        cfg_file = tmp_path / "solver.cfg"
        cfg_file.write_text("gamma = 2.0\nmax_iters = 60\n")
        out = tmp_path / "h"
        code = run_cli(
            [
                "run", "--problem", "quadratic", "--hessian", "sr1",
                "--kkt-tol", "1e-6", "--config", str(cfg_file), "--out", str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"][0]["converged"] is True

    def test_hessian_from_config_file(self, tmp_path):
        # The file's hessian reaches the solve: at noise 1e-4 SR1 updates
        # the model, so its trajectory is the flag's and not identity's.
        common = "eta = 0.3\nmax_iters = 200\n"
        runs = {
            "file": (common + "hessian = sr1\n", []),
            "flag": (common, ["--hessian", "sr1"]),
            "identity": (common, []),
        }
        csv = {}
        for tag, (config, flags) in runs.items():
            cfg, out = tmp_path / f"{tag}.cfg", tmp_path / tag
            cfg.write_text(config)
            args = ["run", "--problem", "quadratic", "--noise", "1e-4", "--config", str(cfg)]
            assert run_cli(args + ["--out", str(out), *flags]) == 0
            csv[tag] = (out / "quadratic_noise0.0001_seed0.csv").read_bytes()
        assert csv["file"] == csv["flag"] != csv["identity"]

    def test_config_hessian_applies_with_config_alpha_1(self, tmp_path):
        # Only the --hessian flag is a usage error at alpha 1; a config file
        # may name both keys, and the run takes the batched Hessian.
        cfg, out = tmp_path / "solver.cfg", tmp_path / "o"
        cfg.write_text("alpha = 1\nhessian = sr1\n")
        args = ["run", "--problem", "saddle", "--max-iters", "3", "--config", str(cfg)]
        assert run_cli(args + ["--out", str(out)]) == 0
        assert (out / "saddle_noise0_seed0.csv").exists()

    def test_negative_zero_noise_is_noise_zero(self, tmp_path):
        # -0 is the same solve as 0, so it takes its name and its summary value.
        out = tmp_path / "o"
        args = ["run", "--problem", "saddle", "--noise", "-0", "--max-iters", "3"]
        assert run_cli(args + ["--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.csv")) == ["saddle_noise0_seed0.csv"]
        assert '"noise": 0.0,' in (out / "summary.json").read_text()

    def test_seed_env_is_ignored(self, tmp_path, monkeypatch):
        # The seeds come from --seeds or the config file alone, so a
        # TRSQP_SEED in the environment changes no byte.
        args = ["run", "--problem", "saddle", "--noise", "1e-4", "--max-iters", "20"]
        monkeypatch.delenv("TRSQP_SEED", raising=False)
        assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
        monkeypatch.setenv("TRSQP_SEED", "3")
        assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
        name = "saddle_noise0.0001_seed0.csv"
        assert [p.name for p in (tmp_path / "b").glob("*.csv")] == [name]
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "flag, want", [([], 5), (["--seeds", "7"], 7)], ids=["file", "flag-over-file"]
    )
    def test_seed_precedence(self, tmp_path, flag, want):
        # --seeds, then the config file's seed, then 0.
        cfg_file = tmp_path / "solver.cfg"
        cfg_file.write_text("seed = 5\n")
        out = tmp_path / "s"
        code = run_cli(
            ["run", "--problem", "quadratic", "--max-iters", "0", "--config", str(cfg_file),
             "--out", str(out), *flag]
        )  # fmt: skip
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [r["seed"] for r in summary["runs"]] == [want]
        assert (out / f"quadratic_noise0_seed{want}.csv").exists()

    @pytest.mark.parametrize(
        "problem, flags, config, message",
        [
            ("saddle", ["--seeds", "0", "-1001"], None,
             "trsqp run: error: argument --seeds: must be nonnegative, got -1001"),
            ("logistic-normal", ["--data-seed", "-913001"], None,
             "trsqp run: error: argument --data-seed: must be nonnegative, got -913001"),
            ("quadratic", [], "seed = -5\n",
             "error: {cfg}:1: seed: must be nonnegative, got -5"),
        ],
        ids=["seeds", "data-seed", "config-seed"],
    )  # fmt: skip
    def test_negative_seed_is_an_error(self, tmp_path, capsys, problem, flags, config, message):
        # The saddle's start and the logistic dataset draw from
        # default_rng(1000 + seed) and default_rng(913_000 + data_seed), so a
        # negative seed is rejected, by name and value, before any build.
        cfg = tmp_path / "seed.cfg"
        if config is not None:
            cfg.write_text(config)
            flags = flags + ["--config", str(cfg)]
        out = tmp_path / "o"
        code = run_cli(["run", "--problem", problem, "--out", str(out), *flags])
        assert code == (1 if config else 2)
        assert capsys.readouterr().err.splitlines()[-1] == message.format(cfg=cfg)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, clash",
        [
            (["--noise", "0.1", "0.10000001"],
             "runs (noise=0.1, seed=0) and (noise=0.10000001, seed=0) "
             "share the name 'quadratic_noise0.1_seed0'"),
            (["--seeds", "1", "1"],
             "runs (noise=0.0, seed=1) and (noise=0.0, seed=1) "
             "share the name 'quadratic_noise0_seed1'"),
            (["--noise", "0", "-0"],
             "runs (noise=0.0, seed=0) and (noise=0.0, seed=0) "
             "share the name 'quadratic_noise0_seed0'"),
        ],
        ids=["noise-levels", "seeds", "signed-zero"],
    )  # fmt: skip
    def test_colliding_run_names_are_an_error(self, tmp_path, capsys, flags, clash):
        # Two runs of one name would write one CSV and list it twice in the
        # summary, so the sweep stops before it writes any file.
        out = tmp_path / "o"
        args = ["run", "--problem", "quadratic", "--max-iters", "3", "--out", str(out)]
        assert run_cli(args + flags) == 1
        assert capsys.readouterr().err == f"error: {clash}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "problem, flags, message",
        [
            ("saddle", ["--full-size"], "--full-size applies only to logistic-* problems"),
            ("csv:data.csv", ["--full-size"], "--full-size applies only to logistic-* problems"),
            ("quadratic", ["--data-seed", "7"],
             "--data-seed applies only to logistic-* and csv: problems"),
            ("saddle", ["--data-seed", "0"],
             "--data-seed applies only to logistic-* and csv: problems"),
            ("saddle", ["--alpha", "1", "--hessian", "sr1"],
             "--hessian applies only to --alpha 0 runs"),
            ("saddle", ["--config", "alpha1.cfg", "--hessian", "esth"],
             "--hessian applies only to --alpha 0 runs"),
        ],
        ids=["full-size-saddle", "full-size-csv", "data-seed-quadratic", "data-seed-saddle",
             "hessian-alpha-1", "hessian-config-alpha-1"],
    )  # fmt: skip
    def test_flag_that_does_nothing_is_an_error(
        self, tmp_path, capsys, monkeypatch, problem, flags, message
    ):
        # The flag would change no run, so it is the run parser's error, exit
        # code 2, before any problem is built. A second-order run always uses
        # the batched Lagrangian Hessian, whichever source set its alpha.
        def unreachable(*args):
            raise AssertionError("a problem was built")

        monkeypatch.setattr("trsqp.cli.build_problem", unreachable)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "alpha1.cfg").write_text("alpha = 1\n")
        out = tmp_path / "o"
        assert run_cli(["run", "--problem", problem, "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"trsqp run: error: {message}"
        assert not out.exists()

    def test_subproblem_fault_is_recorded(self, tmp_path, monkeypatch):
        # A subproblem solve that returns zeros misses the Cauchy fraction and
        # predicts no decrease once feasible. Every run of the sweep records
        # both rows, rejects those steps and stops at the radius floor.
        monkeypatch.setattr(SymmetricEig, "trs", lambda self, g, radius: np.zeros_like(g))
        out = tmp_path / "runs"
        args = ["run", "--problem", "saddle", "--alpha", "1", "--noise", "1e-4", "1e-2",
                "--seeds", "0", "1", "--out", str(out)]  # fmt: skip
        assert run_cli(args) == 0
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert len(runs) == 4
        for result in runs:
            assert result["stop_reason"] == "radius-floor"
            assert result["invariant_worst"]["cauchy_fraction"] > 1
            assert result["invariant_worst"]["pred_threshold"] > 1

    def test_hessian_names_match_config(self, tmp_path, capsys):
        # The flag takes the config file's names, so "identity" runs and
        # the old "id" spelling is an argparse error.
        out = tmp_path / "h"
        args = ["run", "--problem", "quadratic", "--max-iters", "3", "--out", str(out)]
        assert run_cli(args + ["--hessian", "identity"]) == 0
        assert (out / "quadratic_noise0_seed0.csv").exists()
        assert run_cli(args + ["--hessian", "id"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_logistic_rejects_noise(self, tmp_path, capsys):
        # Every level is checked before the first solve, so a sweep whose
        # first level is valid writes nothing either.
        for noise in (["0.01"], ["0", "0.01"]):
            out = tmp_path / "l"
            code = run_cli(
                [
                    "run", "--problem", "logistic-normal", "--noise", *noise,
                    "--max-iters", "2", "--out", str(out),
                ]
            )
            assert code == 1
            assert "subsampling" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("law", ["normal", "exponential"])
    def test_synthetic_logistic_run(self, tmp_path, law):
        out = tmp_path / "runs"
        code = run_cli(
            ["run", "--problem", f"logistic-{law}", "--max-iters", "2", "--out", str(out)]
        )
        assert code == 0
        (result,) = json.loads((out / "summary.json").read_text())["runs"]
        assert result["name"] == f"logistic-{law}_noise0_seed0"
        assert 1 <= result["iterations"] <= 2
        assert len(result["final_x"]) == 15
        rows = (out / f"{result['name']}.csv").read_text().splitlines()
        assert len(rows) == 1 + result["iterations"]

    def test_invariant_violation_reaches_the_summary(self, tmp_path, monkeypatch):
        # A boundary TRS step pushed 0.1% past its sphere breaks
        # step_within_radius; the run records the violation and goes on.
        original = SymmetricEig.trs

        def past_sphere(self, g, radius):
            u = original(self, g, radius)
            return 1.001 * u if np.linalg.norm(u) >= 0.999 * radius else u

        monkeypatch.setattr(SymmetricEig, "trs", past_sphere)
        out = tmp_path / "runs"
        code = run_cli(["run", "--problem", "quadratic", "--max-iters", "5", "--out", str(out)])
        assert code == 0
        (result,) = json.loads((out / "summary.json").read_text())["runs"]
        assert result["invariant_violations"] > 0
        # Each check's worst excess over its tolerance: above 1 for the broken
        # row only.
        worst = result["invariant_worst"]
        assert "cauchy_fraction" in worst and worst["step_within_radius"] > 1
        assert all(margin <= 1 for name, margin in worst.items() if name != "step_within_radius")

    def test_csv_problem(self, tmp_path):
        data = tmp_path / "toy.csv"
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(30):
            label = 1.0 if rng.uniform() < 0.5 else -1.0
            feats = rng.standard_normal(7)
            rows.append(",".join([f"{label:g}"] + [f"{v:.6f}" for v in feats]))
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "csvrun"
        code = run_cli(
            [
                "run", "--problem", f"csv:{data}", "--max-iters", "5",
                "--kkt-tol", "0", "--out", str(out),
            ]
        )
        assert code == 0
        assert len(list(out.glob("*.csv"))) == 1

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1\n-1\n1\n-1\n", "at least one column"),
            ("1,0.5,-1.0\n-1,nan,3.0\n1,0.1,0.2\n-1,2.0,1.0\n", "NaN or infinity"),
            ("1,0,1,2\n-1,1,0,2\n1,2,1,0\n-1,0,2,1\n", "needs at least 6 feature columns, got 3"),
            ("1,0,1,2,3,4\n-1,1,0,2,4,3\n1,2,1,0,3,4\n-1,0,2,1,4,3\n",
             "needs at least 6 feature columns, got 5"),
        ],
        ids=["label-only", "nan-feature", "three-features", "five-features"],
    )
    def test_malformed_csv_is_an_error(self, tmp_path, capsys, rows, message):
        data = tmp_path / "bad.csv"
        data.write_text(rows)
        out = tmp_path / "o"
        code = run_cli(["run", "--problem", f"csv:{data}", "--max-iters", "5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_zero_features_converge_at_alpha_1(self, tmp_path):
        # All-zero features give a zero Hessian estimate at alpha = 1, a
        # linear model that is an ordinary trust-region step.
        data = tmp_path / "zero.csv"
        data.write_text("1,0,0,0,0,0,0\n-1,0,0,0,0,0,0\n")
        out = tmp_path / "o"
        code = run_cli(["run", "--problem", f"csv:{data}", "--alpha", "1", "--out", str(out)])
        assert code == 0
        (result,) = json.loads((out / "summary.json").read_text())["runs"]
        assert result["converged"] and result["invariant_violations"] == 0

    def test_package_error_is_an_error_line(self, tmp_path):
        # A feature of 1e200 overflows the exact KKT residual at x0 to
        # infinity, so the solve raises NonFiniteInput; a file with no records
        # raises EmptyDataset. The command reports each as one error line,
        # with no traceback and no numpy warning before it, and leaves no
        # output directory.
        huge, empty = tmp_path / "huge.csv", tmp_path / "empty.csv"
        huge.write_text("1,1e200,0,0,0,0,0\n-1,1e200,1,0,0,0,0\n1,0,0,1,0,0,0\n")
        empty.write_text("")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for data, message in [
            (huge, "exact KKT residual contains NaN or infinity"),
            (empty, f"{empty} has no records"),
        ]:
            proc = subprocess.run(
                [sys.executable, "-m", "trsqp.cli", "run", "--problem", f"csv:{data}",
                 "--alpha", "1", "--out", str(tmp_path / "o")],
                env=env, capture_output=True, text=True, timeout=120, check=False,
            )
            assert proc.returncode == 1
            assert proc.stderr.splitlines() == [f"error: {message}"]
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
    def test_invalid_noise_is_an_error(self, tmp_path, capsys, noise):
        # Every level's problem is built before the output directory, so a
        # bad last level writes nothing either.
        out = tmp_path / "o"
        args = ["run", "--problem", "saddle", "--noise", "0", noise, "--out", str(out)]
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite and nonnegative" in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "config, flags, key",
        [
            ("kkt_tol = nan\nmax_iters = 30\n", [], "kkt_tol"),
            ("max_iters = -5\n", [], "max_iters"),
            ("", ["--kkt-tol", "-1"], "kkt_tol"),
            ("", ["--max-iters", "-5"], "max_iters"),
            ("gamma = nan\n", [], "gamma"),
            ("mu0 = nan\nmax_iters = 40\n", [], "mu0"),
            ("delta_max = inf\n", [], "delta_max"),
        ],
        ids=[
            "file-kkt-tol-nan",
            "file-max-iters-negative",
            "flag-kkt-tol",
            "flag-max-iters",
            "file-gamma-nan",
            "file-mu0-nan",
            "file-delta-max-inf",
        ],
    )
    def test_invalid_stop_setting_is_an_error(self, tmp_path, capsys, config, flags, key):
        cfg_file = tmp_path / "stop.cfg"
        cfg_file.write_text(config)
        out = tmp_path / "o"
        args = ["run", "--problem", "quadratic", "--config", str(cfg_file), "--out", str(out)]
        assert run_cli(args + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not out.exists()

    NOT_AN_INT = "invalid literal for int() with base 10: "

    @pytest.mark.parametrize(
        "config, line, key, message",
        [
            ("alpha = x\n", 1, "alpha", f"{NOT_AN_INT}'x'"),
            ("# cap\neta = 0.3\n\nbatch_cap = 1e4\n", 4, "batch_cap", f"{NOT_AN_INT}'1e4'"),
            ("eta = fast\n", 1, "eta", "could not convert string to float: 'fast'"),
            ("eta = 0.3\nwarp_speed = 9\n", 2, None, "unknown config key 'warp_speed'"),
            ("max_iters = 2\nmax_iters = 3\n", 2, None, "duplicate key 'max_iters'"),
            ("eta 0.3\n", 1, None, "expected key=value, got 'eta 0.3'"),
        ],
        ids=["alpha-word", "batch-cap-float", "eta-word", "unknown-key", "duplicate-key", "no-equals"],
    )
    def test_config_parse_error_names_file_line_and_key(
        self, tmp_path, capsys, config, line, key, message
    ):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(config)
        out = tmp_path / "o"
        args = ["run", "--problem", "quadratic", "--config", str(cfg_file), "--out", str(out)]
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        where = f"error: {cfg_file}:{line}: "
        assert err == where + (f"{key}: " if key else "") + message + "\n"
        assert not out.exists()


class TestBuildProblem:
    @pytest.fixture
    def build(self, monkeypatch):
        """Builds ``logistic-normal`` with the given flags and returns the
        features and labels handed to the dataset constructor, then A and b."""
        seen = []
        original = benchmarks.make_logistic_from_data

        def spy(features, labels, **kwargs):
            seen.append((features, labels))
            return original(features, labels, **kwargs)

        monkeypatch.setattr(benchmarks, "make_logistic_from_data", spy)

        def build(full_size=False, data_seed=0):
            spec = argparse.Namespace(
                problem="logistic-normal", full_size=full_size, data_seed=data_seed
            )
            problem = build_problem(spec, 0.0)
            x = np.zeros(problem.dim)
            return (*seen.pop(), problem.jacobian(x), -problem.constraint(x))

        return build

    @pytest.mark.parametrize("full_size, n_records", [(False, 6_000), (True, 60_000)])
    def test_full_size_sets_the_record_count(self, build, full_size, n_records):
        features, labels, _, _ = build(full_size=full_size)
        assert features.shape == (n_records, benchmarks.SyntheticLogisticSpec.dim)
        assert labels.shape == (n_records,)

    def test_unknown_problem_is_an_error(self):
        with pytest.raises(ValueError, match="unknown problem 'mystery'"):
            build_problem(argparse.Namespace(problem="mystery"), 0.0)

    def test_data_seed_fixes_the_dataset(self, build):
        first, again, other = (build(data_seed=seed) for seed in (3, 3, 4))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
        features, labels, A, b = (a.tobytes() != b.tobytes() for a, b in zip(first, other))
        assert features and A and b and not labels  # labels are an equal split


class TestCheckCommand:
    ROWS = ("seeded runs reproduce bitwise", "exact TRS beats Cauchy point")

    @staticmethod
    def rows(out, status):
        return [ln for ln in out.splitlines() if ln.startswith(f"[{status}]")]

    def test_default_suite_passes(self, capsys):
        assert run_cli(["check"]) == 0
        out = capsys.readouterr().out
        passed = self.rows(out, "PASS")
        assert len(passed) == 2 and not self.rows(out, "FAIL")
        assert all(name in row for name, row in zip(self.ROWS, passed))
        assert re.search(r"0 invariant violations, worst margin \d\.\de-\d\d \(\w+\)$", passed[0])
        assert out.splitlines()[-1] == "2/2 checks passed"

    def test_short_trs_fails_only_the_trs_row(self, capsys, monkeypatch):
        # A boundary solution pulled 0.1% inside the sphere loses to the
        # Cauchy point on the near-hard instances. It still meets the solver's
        # fraction-of-Cauchy bound, so the seeded solves run and reproduce.
        original = SymmetricEig.trs

        def short_of_sphere(self, g, radius):
            u = original(self, g, radius)
            return 0.999 * u if np.linalg.norm(u) >= 0.999 * radius else u

        monkeypatch.setattr(SymmetricEig, "trs", short_of_sphere)
        assert run_cli(["check"]) == 1
        failed = self.rows(capsys.readouterr().out, "FAIL")
        assert len(failed) == 1 and "exact TRS beats Cauchy point" in failed[0]

    def test_irreproducible_rerun_fails_only_the_rerun_row(self, capsys, monkeypatch):
        # Generators keyed by a call counter draw other numbers on the rerun.
        calls = itertools.count()
        monkeypatch.setattr(
            trsqp.rng, "_generator", lambda key: np.random.Generator(np.random.Philox(next(calls)))
        )
        assert run_cli(["check"]) == 1
        failed = self.rows(capsys.readouterr().out, "FAIL")
        assert len(failed) == 1 and "seeded runs reproduce bitwise" in failed[0]

    def test_kernel_error_fails_only_its_row(self, capsys, monkeypatch):
        # A package error inside the rerun's solve is that row's failure; the
        # TRS row still runs.
        def rank_deficient(G):
            raise RankDeficient("injected")

        monkeypatch.setattr(JacobianFactor, "of", staticmethod(rank_deficient))
        assert run_cli(["check"]) == 1
        out = capsys.readouterr().out
        failed, passed = self.rows(out, "FAIL"), self.rows(out, "PASS")
        assert len(failed) == 1 and "seeded runs reproduce bitwise" in failed[0]
        assert "RankDeficient: injected" in failed[0]
        assert len(passed) == 1 and "exact TRS beats Cauchy point" in passed[0]
        assert out.splitlines()[-1] == "1/2 checks passed"

    def test_inject_fault_option_is_gone(self, capsys):
        assert run_cli(["check", "--inject-fault", "pred-sign"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_filter_option_is_gone(self, capsys):
        assert run_cli(["check", "--filter", "steps"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg_file = tmp_path / "solver.cfg"
        cfg_file.write_text(
            "# comment\neta = 0.3\nmax_iters = 55\nhessian = sr1\nkappa_g = 0.1\n"
        )
        values = read_config_file(cfg_file)
        cfg = build_config(values, {"max_iters": 77})
        assert cfg.eta == 0.3
        assert cfg.max_iters == 77  # CLI wins over file
        assert cfg.hessian == "sr1"
        assert cfg.kappa_g == 0.1
        # kappa_f derived from the overridden eta.
        assert cfg.kappa_f == pytest.approx(0.3**3 / 80.0)

    @pytest.mark.parametrize(
        "key",
        [
            "warp_speed",
            "trs_method",
            "check_invariants",
            "merit_loop_cap",
            "max_resample",
            "aveh_window",
            "eps_floor",
            "stop_patience",
            "kappa_f",
            "kappa_fcd",
            "accuracy",
            "use_true_kkt",
            "delta_min",
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, key):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"{key} = 9\n")
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            build_config(read_config_file(cfg_file), {})

    def test_readme_lists_every_key(self):
        listing = re.search(r"fields of\s+`SolverConfig`:(.*?)\.", README.read_text(), re.S)
        keys = re.findall(r"`(\w+)`", listing.group(1))
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(SolverConfig))
