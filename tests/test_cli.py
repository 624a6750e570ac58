import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

import trsqp.rng
from trsqp.cli import build_config, main, read_config_file
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
        assert "usage" in capsys.readouterr().err

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

    def test_seed_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRSQP_SEED", "3")
        out = tmp_path / "env"
        code = run_cli(
            ["run", "--problem", "quadratic", "--max-iters", "0", "--out", str(out)]
        )
        assert code == 0
        assert (out / "quadratic_noise0_seed3.csv").exists()

    @pytest.mark.parametrize(
        "env, flag, want",
        [(None, [], 5), ("3", [], 3), ("3", ["--seeds", "7"], 7)],
        ids=["file", "env-over-file", "flag-over-env"],
    )
    def test_seed_precedence(self, tmp_path, monkeypatch, env, flag, want):
        # --seeds, then TRSQP_SEED, then the config file's seed, then 0.
        if env is None:
            monkeypatch.delenv("TRSQP_SEED", raising=False)
        else:
            monkeypatch.setenv("TRSQP_SEED", env)
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

    def test_hessian_names_match_config(self, tmp_path, capsys):
        # The flag takes the config file's names, so "identity" runs and
        # the old "id" spelling is an argparse error.
        out = tmp_path / "h"
        args = ["run", "--problem", "quadratic", "--max-iters", "3", "--out", str(out)]
        assert run_cli(args + ["--hessian", "identity"]) == 0
        assert (out / "quadratic_noise0_seed0.csv").exists()
        assert run_cli(args + ["--hessian", "id"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_seed_env_must_be_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TRSQP_SEED", "abc")
        code = run_cli(["run", "--problem", "quadratic", "--out", str(tmp_path)])
        assert code == 2
        assert "TRSQP_SEED" in capsys.readouterr().err

    def test_logistic_rejects_noise(self, tmp_path, capsys):
        code = run_cli(
            [
                "run", "--problem", "logistic-normal", "--noise", "0.01",
                "--max-iters", "1", "--out", str(tmp_path / "l"),
            ]
        )
        assert code == 1
        assert "subsampling" in capsys.readouterr().err

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
        ],
        ids=["label-only", "nan-feature"],
    )
    def test_malformed_csv_is_an_error(self, tmp_path, capsys, rows, message):
        data = tmp_path / "bad.csv"
        data.write_text(rows)
        code = run_cli(
            ["run", "--problem", f"csv:{data}", "--max-iters", "5", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


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
