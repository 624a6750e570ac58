"""Central-difference oracles that tests compare exact derivatives against."""

import numpy as np


def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient, the independent oracle for exact ones."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def finite_difference_hessian(grad, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of a gradient oracle, symmetrized."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    H = np.zeros((d, d))
    for i in range(d):
        e = np.zeros_like(x)
        e[i] = h
        H[:, i] = (grad(x + e) - grad(x - e)) / (2.0 * h)
    return 0.5 * (H + H.T)
