"""Dense linear-algebra kernels shared by the step computations.

Null-space bases, least-norm constraint solves, symmetric eigenpairs, and
trust-region subproblem solvers. All routines work on small dense arrays,
are deterministic for identical input bits, and raise rather than silently
regularize when a Jacobian fails its rank tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from .errors import NonFiniteInput, RankDeficient

__all__ = [
    "NullSpaceBasis",
    "nullspace_basis",
    "min_norm_pull",
    "smallest_eigpair",
    "spectral_norm",
    "trs_solve",
    "cauchy_point",
]

# Relative rank tolerance on singular values of constraint Jacobians.
RANK_TOL = 1e-10

# Dimension threshold above which trs_solve(method="auto") switches from the
# eigendecomposition-based exact solver to Steihaug CG.
EXACT_TRS_MAX_DIM = 200


def _require_finite(*arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFiniteInput("input contains NaN or infinity")


def _checked_svd(G: np.ndarray, rank_tol: float):
    """SVD of a Jacobian with a full-row-rank check."""
    G = np.asarray(G, dtype=float)
    _require_finite(G)
    if G.ndim != 2:
        raise ValueError("expected a 2-d Jacobian")
    m, d = G.shape
    U, s, Vt = scipy.linalg.svd(G, full_matrices=True)
    if m == 0 or s[min(m, d) - 1] <= rank_tol * s[0]:
        raise RankDeficient(
            f"smallest singular value {s[-1] if m else 0.0:.3e} below "
            f"tolerance {rank_tol:.1e} * {s[0] if m else 0.0:.3e}"
        )
    return U, s, Vt


@dataclass(frozen=True)
class NullSpaceBasis:
    """Orthonormal basis of ker(G) for an m-by-d Jacobian G.

    ``Z`` has shape (d, d - m) with Z^T Z = I, G Z = 0, and Z Z^T equal to
    the orthogonal projector onto ker(G).
    """

    Z: np.ndarray


def nullspace_basis(G: np.ndarray, rank_tol: float = RANK_TOL) -> NullSpaceBasis:
    """Orthonormal basis of the kernel of a full-row-rank Jacobian.

    Parameters
    ----------
    G : ndarray, shape (m, d), m < d
        Constraint Jacobian.
    rank_tol : float
        Relative singular-value tolerance for the rank check.

    Raises
    ------
    RankDeficient
        If the smallest singular value falls below ``rank_tol`` times the
        largest one.
    """
    m, d = np.shape(G)
    if m >= d:
        raise ValueError(f"need m < d, got m={m}, d={d}")
    _, _, Vt = _checked_svd(G, rank_tol)
    # Right-singular vectors beyond the row rank span ker(G); LAPACK's SVD is
    # deterministic for identical input bits.
    return NullSpaceBasis(Z=Vt[m:].T.copy())


def min_norm_pull(G: np.ndarray, rhs: np.ndarray, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Least-norm solution of G y = -rhs, i.e. ``-G^T (G G^T)^{-1} rhs``.

    The result lies in im(G^T) and satisfies ``G @ result == -rhs`` up to
    roundoff.
    """
    rhs = np.asarray(rhs, dtype=float)
    _require_finite(rhs)
    U, s, Vt = _checked_svd(G, rank_tol)
    m = G.shape[0]
    return -Vt[:m].T @ ((U.T @ rhs) / s[:m])


def smallest_eigpair(S: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector of a symmetric matrix.

    The matrix is symmetrized defensively as (S + S^T)/2 before the solve.
    """
    S = np.asarray(S, dtype=float)
    _require_finite(S)
    S = 0.5 * (S + S.T)
    w, V = scipy.linalg.eigh(S)
    return float(w[0]), V[:, 0].copy()


def spectral_norm(A: np.ndarray) -> float:
    """Exact operator 2-norm (largest singular value)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _require_finite(A)
    if A.size == 0:
        return 0.0
    return float(scipy.linalg.svd(A, compute_uv=False)[0])


def model_value(H: np.ndarray, g: np.ndarray, u: np.ndarray) -> float:
    """Quadratic model m(u) = 0.5 u^T H u + g^T u (with m(0) = 0)."""
    return float(0.5 * u @ (H @ u) + g @ u)


def cauchy_point(H: np.ndarray, g: np.ndarray, radius: float) -> np.ndarray:
    """Minimizer of the quadratic model along -g within the ball.

    Serves as the independent oracle for fraction-of-Cauchy-decrease checks
    on :func:`trs_solve`.
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    _require_finite(H, g)
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0 or radius == 0.0:
        return np.zeros_like(g)
    gHg = float(g @ (H @ g))
    if gHg <= 0.0:
        step = radius / gnorm
    else:
        step = min(gnorm**2 / gHg, radius / gnorm)
    return -step * g


def _exact_trs(H: np.ndarray, g: np.ndarray, radius: float) -> np.ndarray:
    """Global solution of min m(u) s.t. ||u|| <= radius via the secular equation.

    Works on the eigendecomposition of H, handling the interior, boundary,
    and hard cases (More-Sorensen).
    """
    w, Q = scipy.linalg.eigh(0.5 * (H + H.T))
    gq = Q.T @ g
    lam_min = float(w[0])

    def shifted(lam: float) -> np.ndarray:
        """-(H + lam I)^{-1} g in the eigenbasis, with exact poles punctured."""
        denom = w + lam
        u = np.zeros_like(gq)
        nz = denom != 0.0
        u[nz] = -gq[nz] / denom[nz]
        return u

    def radius_gap(lam: float) -> float:
        return float(np.linalg.norm(shifted(lam)) - radius)

    if lam_min > 0.0:
        u = -(gq / w)
        if np.linalg.norm(u) <= radius:
            return Q @ u
        lo = 0.0  # Newton point outside: secular root in (0, hi].
    else:
        lam_lo = -lam_min
        bottom = (w - lam_min) <= 1e-12 * max(1.0, abs(lam_min))
        gap_norm = float(np.linalg.norm(gq[bottom]))
        if gap_norm <= 1e-13 * max(1.0, float(np.linalg.norm(gq))):
            # Hard case: g has no component on the bottom eigenspace, and the
            # limit point at lam = -lam_min may already be interior. Fill the
            # remaining radius along a bottom eigendirection.
            u = shifted(lam_lo)
            u[bottom] = 0.0
            shortfall = radius**2 - float(u @ u)
            if shortfall >= 0.0:
                u[int(np.argmax(bottom))] = np.sqrt(shortfall)
                return Q @ u
        # Regular boundary case: pick lo above the pole where the norm still
        # exceeds the radius (bottom term alone contributes ~gap_norm/(lo-pole)).
        lo = lam_lo + max(gap_norm / (2.0 * radius), 1e-16 * max(1.0, lam_lo))
        for _ in range(300):
            if radius_gap(lo) > 0.0:
                break
            new_lo = lam_lo + 0.25 * (lo - lam_lo)
            if new_lo <= lam_lo or new_lo == lo:
                return Q @ shifted(lo)
            lo = new_lo
        else:
            return Q @ shifted(lo)

    hi = max(0.0, -lam_min) + float(np.linalg.norm(gq)) / radius + 1e-12
    while radius_gap(hi) > 0.0:
        hi = 2.0 * hi + 1.0
    eps = float(np.finfo(float).eps)
    lam = brentq(radius_gap, lo, hi, xtol=1e-18, rtol=4 * eps, maxiter=200)
    return Q @ shifted(lam)


def _dogleg_trs(H: np.ndarray, g: np.ndarray, radius: float) -> np.ndarray:
    """Dogleg path solution; falls back to the Cauchy point when H is not SPD.

    Both branches attain the full Cauchy reduction, so the method carries
    kappa_fcd = 1.
    """
    try:
        c, low = scipy.linalg.cho_factor(0.5 * (H + H.T))
        newton = -scipy.linalg.cho_solve((c, low), g)
    except scipy.linalg.LinAlgError:
        return cauchy_point(H, g, radius)
    if np.linalg.norm(newton) <= radius:
        return newton
    gnorm = np.linalg.norm(g)
    if gnorm == 0.0:
        return np.zeros_like(g)
    gHg = float(g @ (H @ g))
    pu = -(gnorm**2 / gHg) * g
    pu_norm = np.linalg.norm(pu)
    if pu_norm >= radius:
        return -(radius / gnorm) * g
    # Intersection of the second dogleg leg with the boundary.
    d = newton - pu
    a = float(d @ d)
    b = float(pu @ d)
    cc = float(pu @ pu) - radius**2
    t = (-b + np.sqrt(b * b - a * cc)) / a
    return pu + t * d


def _steihaug_trs(H: np.ndarray, g: np.ndarray, radius: float, tol: float = 1e-10) -> np.ndarray:
    """Steihaug-Toint truncated CG for the trust-region subproblem."""
    n = len(g)
    z = np.zeros(n)
    r = g.copy()
    d = -g.copy()
    r0 = np.linalg.norm(r)
    if r0 == 0.0:
        return z
    threshold = r0 * min(0.5, np.sqrt(r0))

    def to_boundary(z, d):
        a = float(d @ d)
        b = float(z @ d)
        c = float(z @ z) - radius**2
        return (-b + np.sqrt(max(b * b - a * c, 0.0))) / a

    for _ in range(2 * n + 10):
        Hd = H @ d
        dHd = float(d @ Hd)
        if dHd <= 0.0:
            return z + to_boundary(z, d) * d
        alpha = float(r @ r) / dHd
        z_next = z + alpha * d
        if np.linalg.norm(z_next) >= radius:
            return z + to_boundary(z, d) * d
        r_next = r + alpha * Hd
        if np.linalg.norm(r_next) <= max(threshold, tol):
            return z_next
        beta = float(r_next @ r_next) / float(r @ r)
        d = -r_next + beta * d
        z, r = z_next, r_next
    return z


def trs_solve(H: np.ndarray, g: np.ndarray, radius: float, method: str = "auto") -> np.ndarray:
    """Approximately solve min 0.5 u^T H u + g^T u subject to ||u|| <= radius.

    Parameters
    ----------
    H : ndarray, symmetric
    g : ndarray
    radius : float, > 0
    method : {"auto", "exact", "dogleg", "steihaug"}
        "exact" computes the global minimizer (safeguarded secular-equation
        root finding on the eigendecomposition) and, like "dogleg", attains
        the full Cauchy reduction. "steihaug" attains a configured fraction.
        "auto" uses "exact" up to dimension 200 and "steihaug" beyond.

    Returns
    -------
    u : ndarray with ||u|| <= radius (tiny relative slack from root finding).
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    _require_finite(H, g)
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if method == "auto":
        method = "exact" if len(g) <= EXACT_TRS_MAX_DIM else "steihaug"
    if method == "exact":
        u = _exact_trs(H, g, radius)
    elif method == "dogleg":
        u = _dogleg_trs(H, g, radius)
    elif method == "steihaug":
        u = _steihaug_trs(H, g, radius)
    else:
        raise ValueError(f"unknown trust-region method {method!r}")
    nrm = np.linalg.norm(u)
    if nrm > radius:
        u *= radius / nrm
    return u
