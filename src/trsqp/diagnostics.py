"""The ``check`` command: the two behaviours that lean most on the numpy
and LAPACK build where the package is installed, which the test suite
exercises only on the build it ran on. A seeded noisy solve must reproduce
bit for bit, and the exact trust-region solve must reach the sphere on
near-hard instances, where the answer rests on ``eigh``'s bottom eigenpairs.
A package error raised inside a check fails that check alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import benchmarks, linalg
from .errors import TrsqpError
from .problem import GaussianNoiseSpec, gaussian_noisy
from .solver import SolverConfig, run

__all__ = ["CheckResult", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_rerun() -> tuple[bool, str]:
    """Two runs of one seeded noisy saddle solve must write equal CSV rows,
    and the first must record no invariant violation."""
    problem = gaussian_noisy(benchmarks.make_saddle(), GaussianNoiseSpec(1e-4))
    config = SolverConfig(alpha=1, kkt_tol=1e-4, max_iters=500, seed=7)
    runs = [run(problem, np.array([1.0, 0.005]), config) for _ in range(2)]
    rows = [[rec.csv_row() for rec in r.records] for r in runs]
    violations = runs[0].invariants.total_violations
    return (
        rows[0] == rows[1] and violations == 0,
        f"{len(rows[0])} iterations compared, {violations} invariant violations",
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


def run_checks() -> list[CheckResult]:
    """Run both checks; a package error fails its own check only."""
    results = []
    for name, check in _CHECKS:
        try:
            passed, detail = check()
        except TrsqpError as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail))
    return results
