"""Dense linear-algebra kernels shared by the step computations.

One factorization per constraint Jacobian (null-space basis, least-norm
solve and least-squares multiplier), one eigendecomposition per symmetric
matrix (smallest eigenpair, norm and the exact trust-region subproblem
solve) and the Cauchy point. All routines work on small dense arrays, are
deterministic for identical input bits, and raise rather than silently
regularize when a Jacobian fails its rank tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, RankDeficient, SubsolverFailure

__all__ = [
    "vector_norm",
    "JacobianFactor",
    "SymmetricEig",
    "nullspace_basis",
    "min_norm_pull",
    "smallest_eigpair",
    "spectral_norm",
    "trs_solve",
    "cauchy_point",
]

# Relative rank tolerance on singular values of constraint Jacobians.
RANK_TOL = 1e-10


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector, bit for bit ``np.linalg.norm(v)``.

    numpy computes a real vector's 2-norm as ``sqrt(x.dot(x))`` on
    ``x = v.ravel(order="K")``; this is that formula without the argument
    handling. The ravel matters: BLAS sums a strided view in another order
    than a contiguous copy.
    """
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _require_finite(*arrays, what: str = "input") -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise NonFiniteInput(f"{what} contains NaN or infinity")


def _checked_svd(G: np.ndarray):
    """SVD of an m-by-d Jacobian, m <= d, with a full-row-rank check."""
    _require_finite(G)
    if G.ndim != 2 or G.shape[0] > G.shape[1]:
        raise ValueError(f"expected an m-by-d Jacobian with m <= d, got shape {G.shape}")
    m = G.shape[0]
    U, s, Vt = np.linalg.svd(G, full_matrices=True)
    if m == 0 or s[m - 1] <= RANK_TOL * s[0]:
        raise RankDeficient(
            f"smallest singular value {s[-1] if m else 0.0:.3e} below "
            f"tolerance {RANK_TOL:.1e} * {s[0] if m else 0.0:.3e}"
        )
    return U, s, Vt


@dataclass(frozen=True)
class JacobianFactor:
    """One SVD of a full-row-rank m-by-d Jacobian G, m <= d.

    ``Z`` has shape (d, d - m) with Z^T Z = I, G Z = 0, and Z Z^T equal to
    the orthogonal projector onto ker(G). ``U``, ``s`` and ``Vt`` are the
    leading m singular triplets; the least-norm solve, the least-squares
    multiplier and the norm read them without refactorizing G.
    """

    G: np.ndarray
    Z: np.ndarray
    U: np.ndarray
    s: np.ndarray
    Vt: np.ndarray

    @classmethod
    def of(cls, G: np.ndarray) -> "JacobianFactor":
        """Factor G; raises RankDeficient when its smallest singular value
        falls below ``RANK_TOL`` times the largest one."""
        G = np.asarray(G, dtype=float)
        U, s, Vt = _checked_svd(G)
        m = G.shape[0]
        # Right-singular vectors beyond the row rank span ker(G); LAPACK's SVD
        # is deterministic for identical input bits.
        return cls(G=G, Z=Vt[m:].T.copy(), U=U, s=s[:m], Vt=Vt[:m])

    @property
    def norm(self) -> float:
        """Operator 2-norm, the largest singular value."""
        return float(self.s[0])

    def pull(self, rhs: np.ndarray) -> np.ndarray:
        """Least-norm solution ``-G^T (G G^T)^{-1} rhs`` of G y = -rhs, in im(G^T)."""
        rhs = np.asarray(rhs, dtype=float)
        _require_finite(rhs)
        return -self.Vt.T @ ((self.U.T @ rhs) / self.s)

    def multiplier(self, g: np.ndarray) -> np.ndarray:
        """Least-squares multiplier ``-(G G^T)^{-1} G g``, minimizing ||g + G^T lam||."""
        return -self.U @ ((self.Vt @ g) / self.s)

    def reduce(self, H: np.ndarray) -> "SymmetricEig":
        """The reduced matrix Z^T H Z on ker(G), decomposed once."""
        return SymmetricEig.of(self.Z.T @ H @ self.Z)


def nullspace_basis(G: np.ndarray) -> JacobianFactor:
    """The factorization of G that ``solver.iterate`` takes once per distinct G."""
    return JacobianFactor.of(G)


def min_norm_pull(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-norm solution of G y = -rhs; see :meth:`JacobianFactor.pull`."""
    return JacobianFactor.of(G).pull(rhs)


def smallest_eigpair(S: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector; see :meth:`SymmetricEig.smallest`."""
    return SymmetricEig.of(S).smallest()


def spectral_norm(A: np.ndarray) -> float:
    """Exact operator 2-norm (largest singular value)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _require_finite(A)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


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
    gnorm = vector_norm(g)
    if gnorm == 0.0 or radius == 0.0:
        return np.zeros_like(g)
    gHg = float(g @ (H @ g))
    if gHg <= 0.0:
        step = radius / gnorm
    else:
        step = min(gnorm**2 / gHg, radius / gnorm)
    return -step * g


@dataclass(frozen=True)
class SymmetricEig:
    """One eigendecomposition S = Q diag(w) Q^T, w ascending, of the input
    symmetrized as (S + S^T)/2. The smallest eigenpair, the norm and the
    trust-region solve all read it."""

    S: np.ndarray
    w: np.ndarray
    Q: np.ndarray

    @classmethod
    def of(cls, S: np.ndarray) -> "SymmetricEig":
        S = np.asarray(S, dtype=float)
        _require_finite(S)
        S = 0.5 * (S + S.T)
        w, Q = np.linalg.eigh(S)
        return cls(S=S, w=w, Q=Q)

    def smallest(self) -> tuple[float, np.ndarray]:
        """Smallest eigenvalue and a unit eigenvector."""
        return float(self.w[0]), self.Q[:, 0].copy()

    @property
    def norm(self) -> float:
        """Operator 2-norm, max |lambda|."""
        return float(np.max(np.abs(self.w), initial=0.0))

    @property
    def tau_plus(self) -> float:
        """Negative curvature max(-lambda_min, 0)."""
        return max(0.0, -float(self.w[0]))

    def trs(self, g: np.ndarray, radius: float) -> np.ndarray:
        """Global minimizer of 0.5 u^T S u + g^T u subject to ||u|| <= radius.

        Safeguarded secular-equation root finding in the eigenbasis covers
        the interior, boundary and hard cases of More and Sorensen (1983), so
        the Cauchy-decrease fraction is 1. A root-finding overshoot is
        scaled back onto the sphere.
        """
        g = np.asarray(g, dtype=float)
        _require_finite(g)
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        u = self._secular_solve(g, radius)
        nrm = vector_norm(u)
        if nrm > radius:
            u *= radius / nrm
        return u

    def _secular_solve(self, g: np.ndarray, radius: float) -> np.ndarray:
        # eigh returns the zero eigenvalues of a singular S as roundoff of either
        # sign. A roundoff-positive one would send a g orthogonal to the kernel
        # down the positive-definite branch, which divides by it. The shared
        # factor keeps its own eigenvalues, so the zeroing works on a copy.
        w, Q = self.w.copy(), self.Q
        w[np.abs(w) <= 1e-12 * self.norm] = 0.0
        gq = Q.T @ g
        neg_gq = -gq
        lam_min = float(w[0])

        def shifted(lam: float) -> np.ndarray:
            """-(S + lam I)^{-1} g in the eigenbasis, with exact poles punctured."""
            denom = w + lam
            return np.divide(neg_gq, denom, out=np.zeros_like(gq), where=denom != 0.0)

        def radius_gap(lam: float) -> float:
            return vector_norm(shifted(lam)) - radius

        def to_boundary(u: np.ndarray) -> np.ndarray:
            """Move u along the bottom eigenvector e_0 onto the sphere if it falls
            short by more than root-finding accuracy, to the root t of
            ||u + t e_0|| = radius with the lower model value (More-Sorensen)."""
            shortfall = radius**2 - float(u @ u)
            if shortfall > 1e-12 * radius**2:
                u[0] = -np.copysign(np.sqrt(u[0] ** 2 + shortfall), gq[0])
            return Q @ u

        if lam_min > 0.0:
            u = -(gq / w)
            if vector_norm(u) <= radius:
                return Q @ u
            lo = 0.0  # Newton point outside: secular root in (0, hi].
        else:
            lam_lo = -lam_min
            bottom = (w - lam_min) <= 1e-12 * max(1.0, abs(lam_min))
            gap_norm = vector_norm(gq[bottom])
            if gap_norm <= 1e-13 * max(1.0, vector_norm(gq)):
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
                    return to_boundary(shifted(lo))
                lo = new_lo
            else:
                return to_boundary(shifted(lo))

        hi = max(0.0, -lam_min) + vector_norm(gq) / radius + 1e-12
        while radius_gap(hi) > 0.0:
            hi = 2.0 * hi + 1.0
        u = shifted(_brentq(radius_gap, lo, hi))
        # Near the hard case the pole at -lam_min is too sharp for Brent to reach
        # the sphere, though a minimizer lies on it whenever lam_min <= 0.
        return Q @ u if lam_min > 0.0 else to_boundary(u)


def _brentq(f, xa: float, xb: float, xtol=1e-18, rtol=4 * np.finfo(float).eps, maxiter=200):
    """A root of f in the sign-changing bracket [xa, xb] by Brent's method
    (Brent, 1973, ch. 4).

    A line-for-line port of SciPy's ``brentq.c``, so it returns SciPy's bits
    for the same f, bracket and tolerances. No sign change, a NaN value and
    no convergence within ``maxiter`` steps raise SubsolverFailure.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise SubsolverFailure(f"secular equation is NaN at {x!r}")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise SubsolverFailure(f"secular equation has no sign change on [{xa!r}, {xb!r}]")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise SubsolverFailure(f"secular equation root not found in {maxiter} iterations")


def trs_solve(H: np.ndarray, g: np.ndarray, radius: float) -> np.ndarray:
    """Exact trust-region subproblem solve; see :meth:`SymmetricEig.trs`."""
    return SymmetricEig.of(H).trs(g, radius)
