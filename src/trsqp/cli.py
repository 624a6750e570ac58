"""Command-line front end: run benchmark experiments and check an installation.

``trsqp run`` sweeps (noise level, seed) pairs for a chosen problem,
writing one trajectory CSV per run plus a JSON summary. ``trsqp check``
prints a pass/fail row for each of two checks that the installed numpy and
LAPACK build can fail: a seeded noisy solve run twice must reproduce bit for
bit, and the exact trust-region solve must beat the Cauchy point on
near-hard instances. Configuration is plain key=value text with
command-line overrides; re-running an identical spec reproduces the CSVs
byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import benchmarks, errors, estimator, linalg
from .problem import GaussianNoiseSpec, gaussian_noisy, load_labeled_csv
from .solver import IterationRecord, SolverConfig, run

PROBLEM_CHOICES = ("saddle", "logistic-normal", "logistic-exponential", "quadratic")


def nonnegative_int(raw: str) -> int:
    """A seed: an int of at least 0, as the start-point and dataset
    generators require."""
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


# Flat key=value names accepted in config files, with the type each parses to.
_CONFIG_TYPES = {f.name: type(f.default) for f in dataclasses.fields(SolverConfig)}
_CONFIG_TYPES["seed"] = nonnegative_int


def read_config_file(path) -> dict:
    """Parse key=value lines into typed ``SolverConfig`` values; '#' starts a
    comment and each key may appear once. An error names the file, the line
    and the key."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_TYPES[key](raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def build_config(file_values: dict, cli_overrides: dict) -> SolverConfig:
    """Assemble a SolverConfig from defaults, config-file values, and CLI flags."""
    overrides = {k: v for k, v in cli_overrides.items() if v is not None}
    return SolverConfig(**(file_values | overrides))


def _initial_point(problem_name: str, problem, seed: int) -> np.ndarray:
    if problem_name == "saddle":
        # Uniform draw in the 0.01-ball around the saddle point.
        rng = np.random.default_rng(1000 + seed)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        radius = 0.01 * np.sqrt(rng.uniform())
        return np.array([1.0, 0.0]) + radius * np.array([np.cos(angle), np.sin(angle)])
    if problem_name == "quadratic":
        return np.array([3.0, -1.0])
    return np.zeros(problem.dim)


def build_problem(spec: argparse.Namespace, noise: float):
    """The problem named by ``spec.problem`` at this noise level; logistic
    datasets also read ``spec.full_size`` and ``spec.data_seed``. Finite-sum
    problems are driven by subsampling alone, so they take noise 0 only."""
    name = spec.problem
    if noise != 0.0 and name.startswith(("logistic-", "csv:")):
        raise ValueError("finite-sum problems are driven by subsampling; use --noise 0")
    if name == "quadratic":
        return gaussian_noisy(benchmarks.make_quadratic(), GaussianNoiseSpec(noise))
    if name == "saddle":
        return gaussian_noisy(benchmarks.make_saddle(), GaussianNoiseSpec(noise))
    if name.startswith(("logistic-", "csv:")):
        data_rng = np.random.default_rng(913_000 + (spec.data_seed or 0))
        if name.startswith("csv:"):
            features, labels = load_labeled_csv(name[4:])
            return benchmarks.make_logistic_from_data(features, labels, rng=data_rng)
        law = name.split("-", 1)[1]
        n_records = 60_000 if spec.full_size else 6_000
        lspec = benchmarks.SyntheticLogisticSpec(n_records=n_records, feature_law=law)
        return benchmarks.make_logistic(lspec, data_rng)
    raise ValueError(f"unknown problem {name!r}")


def _run_name(problem: str, noise: float, seed: int) -> str:
    tag = problem.replace(":", "_").replace("/", "_")
    return f"{tag}_noise{noise:g}_seed{seed}"


def cmd_run(args: argparse.Namespace, config: SolverConfig) -> int:
    """Solve every (noise level, seed) pair of ``args``; without ``--seeds``
    the one seed is ``config.seed``. Every noise level's problem is built,
    and every run name checked for a clash, before the first file is written;
    the output directory is made after a solve, so a failed one leaves none."""
    seeds = args.seeds or [config.seed]
    problems = [build_problem(args, noise) for noise in args.noise]
    runs, first = [], {}
    for noise in args.noise:
        for seed in seeds:
            name, pair = _run_name(args.problem, noise, seed), f"(noise={noise!r}, seed={seed})"
            if name in first:
                raise ValueError(f"runs {first[name]} and {pair} share the name {name!r}")
            first[name] = pair
            runs.append((noise, seed, name))
    out_dir = Path(args.out)
    summary = {"problem": args.problem, "runs": []}
    for i, (noise, seed, name) in enumerate(runs):
        if i % len(seeds) == 0:
            problem = problems.pop(0)  # the list lets go, so a finished level's workspace is freed
        x0 = _initial_point(args.problem, problem, seed)
        result = run(problem, x0, dataclasses.replace(config, seed=seed))
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"{name}.csv", "w") as fh:
            fh.write(IterationRecord.CSV_FIELDS + "\n")
            for rec in result.records:
                fh.write(rec.csv_row() + "\n")
        summary["runs"].append(
            {
                "name": name,
                "noise": noise,
                "seed": seed,
                "converged": result.converged,
                "stop_reason": result.stop_reason,
                "iterations": result.state.k,
                "final_kkt": result.final_kkt,
                "final_tau": result.final_tau,
                "final_x": [float(v) for v in result.state.x],
                "invariant_violations": result.invariants.total_violations,
                "invariant_worst": result.invariants.worst,
                "wall_time": result.wall_time,
            }
        )
        print(
            f"{name}: {result.stop_reason} after {result.state.k} iterations "
            f"(kkt={result.final_kkt:.3e}, {result.wall_time:.2f}s)"
        )
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return 0


def _check_rerun() -> tuple[bool, str]:
    """Two runs of one seeded noisy saddle solve must write equal CSV rows, and
    the first must record no invariant violation; the detail names its worst margin."""
    problem = gaussian_noisy(benchmarks.make_saddle(), GaussianNoiseSpec(1e-4))
    config = SolverConfig(alpha=1, kkt_tol=1e-4, max_iters=500, seed=7)
    runs = [run(problem, np.array([1.0, 0.005]), config) for _ in range(2)]
    rows = [[rec.csv_row() for rec in r.records] for r in runs]
    violations = runs[0].invariants.total_violations
    worst, margin = max(runs[0].invariants.worst.items(), key=lambda item: item[1])
    return (
        rows[0] == rows[1] and violations == 0,
        f"{len(rows[0])} iterations compared, {violations} invariant violations, "
        f"worst margin {margin:.1e} ({worst})",
    )


def _check_trs() -> tuple[bool, str]:
    """The exact solve must not lose to the Cauchy point on instances of
    dimension at most 6 with a repeated negative bottom eigenvalue and g's
    components on its eigenspace scaled by 10^-U(4, 14), where the secular
    equation's pole is too sharp for root finding alone to reach the
    boundary."""
    rng = np.random.default_rng(20241)
    worst = -np.inf
    for _ in range(200):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, n + 1))
        lam = -float(rng.uniform(0.1, 3.0))
        w = np.concatenate([np.full(k, lam), lam + rng.uniform(0.1, 3.0, n - k)])
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        gq = rng.standard_normal(n)
        gq[:k] *= 10.0 ** -rng.uniform(4.0, 14.0)
        H, g, radius = (Q * w) @ Q.T, Q @ gq, float(rng.uniform(0.1, 2.0))
        H = 0.5 * (H + H.T)
        u, uc = linalg.trs_solve(H, g, radius), linalg.cauchy_point(H, g, radius)
        worst = max(worst, linalg.model_value(H, g, u) - linalg.model_value(H, g, uc))
    return worst <= 1e-10, f"worst reduction gap {worst:.2e} on 200 near-hard instances"


_CHECKS = (
    ("seeded runs reproduce bitwise", _check_rerun),
    ("exact TRS beats Cauchy point", _check_trs),
)


def cmd_check() -> int:
    """Print one row per check; a package error fails its own check only."""
    width = max(len(name) for name, _ in _CHECKS)
    failures = 0
    for name, check in _CHECKS:
        try:
            passed, detail = check()
        except errors.TrsqpError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        status = "PASS" if passed else "FAIL"
        failures += not passed
        print(f"[{status}] {name:<{width}}  {detail}")
    print(f"{len(_CHECKS) - failures}/{len(_CHECKS)} checks passed")
    return 0 if failures == 0 else 1


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The ``trsqp`` parser and its ``run`` subparser, which reports run usage errors."""
    parser = argparse.ArgumentParser(
        prog="trsqp",
        description="Trust-region SQP solver benchmarks for stochastic "
        "equality-constrained problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a benchmark sweep over noise levels and seeds")
    runp.add_argument(
        "--problem",
        required=True,
        help=f"one of {', '.join(PROBLEM_CHOICES)}, or csv:<path> for a labeled dataset",
    )
    runp.add_argument("--alpha", type=int, choices=(0, 1), default=None)
    runp.add_argument("--noise", type=float, nargs="+", default=[0.0], help="noise variances")
    runp.add_argument("--seeds", type=nonnegative_int, nargs="+", default=None)
    runp.add_argument("--max-iters", type=int, default=None)
    runp.add_argument("--kkt-tol", type=float, default=None)
    runp.add_argument("--hessian", choices=tuple(estimator.HESSIAN_STRATEGIES), default=None)
    runp.add_argument("--out", default="runs", help="output directory")
    runp.add_argument("--config", default=None, help="key=value config file")
    runp.add_argument("--full-size", action="store_true", help="full-size logistic datasets")
    runp.add_argument("--data-seed", type=nonnegative_int, help="dataset seed (default 0)")

    sub.add_parser("check", help="check this installation's reproducibility and TRS solve")
    return parser, runp


def main(argv: list[str] | None = None) -> int:
    parser, runp = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        return cmd_check()
    if args.problem not in PROBLEM_CHOICES and not args.problem.startswith("csv:"):
        runp.error(
            f"unknown problem {args.problem!r}; choose from "
            f"{', '.join(PROBLEM_CHOICES)} or csv:<path>"
        )
    if args.full_size and not args.problem.startswith("logistic-"):
        runp.error("--full-size applies only to logistic-* problems")
    if args.data_seed is not None and not args.problem.startswith(("logistic-", "csv:")):
        runp.error("--data-seed applies only to logistic-* and csv: problems")
    overrides = {
        "alpha": args.alpha,
        "max_iters": args.max_iters,
        "kkt_tol": args.kkt_tol,
        "hessian": args.hessian,
    }
    try:
        file_values = read_config_file(args.config) if args.config else {}
        return cmd_run(args, build_config(file_values, overrides))
    except (ValueError, OSError, errors.TrsqpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
