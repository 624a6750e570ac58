"""Trust-region SQP for stochastic objectives with deterministic equality
constraints.

The solver targets first-order stationary points (``alpha=0``) or
second-order stationary points (``alpha=1``), estimating objective
quantities from adaptively sized sample batches and taking gradient, eigen
(negative-curvature), and second-order-correction steps inside an
adaptively managed trust region.
"""

from .benchmarks import (
    SyntheticLogisticSpec,
    make_logistic,
    make_logistic_from_data,
    make_quadratic,
    make_saddle,
    true_kkt,
)
from .problem import (
    GaussianNoiseSpec,
    NoiselessOracle,
    Problem,
    exact_problem,
    finite_sum_problem,
    gaussian_noisy,
    load_labeled_csv,
)
from .rng import RngStream
from .solver import IterationRecord, RunResult, SolverConfig, SolverState, iterate, run

__all__ = [
    "GaussianNoiseSpec",
    "IterationRecord",
    "NoiselessOracle",
    "Problem",
    "RngStream",
    "RunResult",
    "SolverConfig",
    "SolverState",
    "SyntheticLogisticSpec",
    "exact_problem",
    "finite_sum_problem",
    "gaussian_noisy",
    "iterate",
    "load_labeled_csv",
    "make_logistic",
    "make_logistic_from_data",
    "make_quadratic",
    "make_saddle",
    "run",
    "true_kkt",
]

__version__ = "0.1.0"
