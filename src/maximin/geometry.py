"""Geometry of the Sigma inner product and differentials of the maximin map.

Everything here lives in the metric <x, y> = x^T Sigma y. The maximin
point M of an active column set B is characterized by Sigma-
orthogonality of M to every difference of active columns, and near a
well-separated configuration the map (B, Sigma) -> M is differentiable.
Both closed-form differentials are methods of ``Face``:

* Face.jacobians: the p x p Jacobian of M with respect to each active
  column b_g, stacked over the columns,

      J_g = -u_g (Sigma M)^T / |u_g|^2  +  (|w_g| / |u_g|) Pi_B,

  where u_g is the residual of b_g after affine projection onto the
  remaining active columns, w_g the same residual of M, |.| the Sigma
  norm, and Pi_B the Sigma-orthogonal projector onto the complement of
  the difference span. Derivatives with respect to inactive columns
  vanish.

* Face.dsigma: the response of M to a symmetric perturbation Delta
  of the metric, -D (D^T Sigma D)^{-1} D^T Delta M with D the matrix
  of active-column differences.

These, the projections and the metric term of the covariance all read
one factorisation of the face, made when the ``Face`` is built: the thin SVD
D = U S V^T of D = (b_2 - b_1, ..., b_k - b_1) gives the rank check,
and the Cholesky factor R of U^T Sigma U (as well conditioned as Sigma,
whatever the spectrum of D) gives the Sigma-orthonormal basis
E = U R^{-T} of the difference span. So the Gram Gamma = D^T Sigma D
has D Gamma^{-1} D^T = E E^T and Pi_B = I - E E^T Sigma. With
N = [-1^T; I] (weights summing to zero, D = B N), Q = N Gamma^{-1} N^T
is the top-left block of the inverse of the bordered Gram
K = [[B^T Sigma B, 1], [1^T, 0]], and yields every leave-one-out
residual at once:

    |u_g|^2 = 1 / Q_gg,        u_g = D Gamma^{-1} N^T e_g / Q_gg.

With r = Pi_B (M - b_1) the residual of M off the face and
t_g = <M - b_g, u_g> + |u_g|^2,

    |w_g|^2 = |r|^2 + t_g^2 / |u_g|^2,

which is exact even when weights below the activity threshold put M
slightly off the face. When M = B alpha lies on the face (r = 0),
w_g = alpha_g u_g, so |w_g| / |u_g| = alpha_g.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DefinitenessError, DegenerateGeometryError, RankError

# Relative cutoff for rank decisions on D.
_RANK_RTOL = 1e-12

# Projections drop singular values of D below this fraction of the
# largest (a pseudo-inverse cutoff of _RANK_RTOL on the Gram's spectrum).
_PINV_RTOL = _RANK_RTOL ** 0.5

# Residual norms below this mean the configuration is degenerate.
_DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class SigmaMetric:
    """A positive definite Sigma with a cached Cholesky factorization."""

    Sigma: np.ndarray

    def __post_init__(self):
        Sigma = np.asarray(self.Sigma, dtype=float)
        if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
            raise DefinitenessError("Sigma must be square")
        scale = float(np.max(np.abs(Sigma))) or 1.0
        if np.max(np.abs(Sigma - Sigma.T)) > 1e-10 * scale:
            raise DefinitenessError("Sigma is not symmetric")
        Sigma = (Sigma + Sigma.T) / 2.0
        try:
            factor = scipy.linalg.cho_factor(Sigma, lower=True)
        except scipy.linalg.LinAlgError:
            raise DefinitenessError("Sigma is not positive definite") from None
        object.__setattr__(self, "Sigma", Sigma)
        object.__setattr__(self, "_factor", factor)

    @classmethod
    def ensure(cls, sigma, p=None):
        """Wrap a raw matrix (checked to be p x p if p is given) once."""
        metric = sigma if isinstance(sigma, cls) else cls(sigma)
        if p is not None and metric.p != p:
            raise DefinitenessError(
                f"Sigma must be {p} x {p}, got {metric.Sigma.shape}")
        return metric

    @property
    def p(self):
        return self.Sigma.shape[0]

    def inner(self, x, y):
        return float(np.asarray(x) @ self.Sigma @ np.asarray(y))

    def norm(self, x):
        v = self.inner(x, x)
        return float(np.sqrt(max(v, 0.0)))

    def solve(self, rhs):
        """Sigma^{-1} rhs via the cached factorization."""
        return scipy.linalg.cho_solve(self._factor, np.asarray(rhs, dtype=float))

    def inverse(self):
        return self.solve(np.eye(self.p))


class Face:
    """The affine hull of the used columns B_A, factorised once.

    Projections follow pseudo-inverse semantics and never raise.
    Jacobians raise DegenerateGeometryError for a single column or when
    a column lies within 1e-10 of the hull of the others; the metric
    response and term_V raise RankError when D is rank deficient.
    """

    def __init__(self, B_active, metric):
        self.metric = metric = SigmaMetric.ensure(metric)
        self.B = np.atleast_2d(np.asarray(B_active, dtype=float))
        self.p, self.k = self.B.shape
        D = self.B[:, 1:] - self.B[:, :1]
        if self.k == 1:  # a single point: nothing to factorise
            empty = np.zeros((0, 0))
            U, self._s, self._Vt, self._Rinv = D, np.zeros(0), empty, empty
        else:
            U, self._s, self._Vt = np.linalg.svd(D, full_matrices=False)
            self._Rinv = np.linalg.inv(np.linalg.cholesky(U.T @ metric.Sigma @ U))
        self._E = U @ self._Rinv.T
        rank = int(np.sum(self._s > _PINV_RTOL * self._s.max(initial=0.0)))
        self._E_kept = self._E[:, :rank]

    def project(self, x):
        """Sigma-orthogonal projection of x onto the face's affine hull."""
        base, E = self.B[:, 0], self._E_kept
        d = np.asarray(x, dtype=float) - base
        return base + E @ (E.T @ (self.metric.Sigma @ d))

    @functools.cached_property
    def complement(self):
        """Pi_B = I - E E^T Sigma."""
        return np.eye(self.p) - self._E_kept @ (self._E_kept.T @ self.metric.Sigma)

    def _full_rank_basis(self):
        """E after the rank check on D; empty for a single column."""
        s = self._s
        if s.size < self.k - 1 or (s.size and s[-1] <= _RANK_RTOL * s[0]):
            raise RankError("active-column differences are rank deficient")
        return self._E

    @functools.cached_property
    def _residuals(self):
        """Leave-one-out residuals u_g as columns, and their norms."""
        if self.k - 1 <= self.p:
            Vt = self._Vt
            with np.errstate(divide="ignore", invalid="ignore"):
                Y = (np.vstack([-Vt.sum(axis=1), Vt.T]) / self._s) @ self._Rinv.T
                q = np.einsum("gm,gm->g", Y, Y)
                U, unorm = self._E @ Y.T / q, 1.0 / np.sqrt(q)
            if np.all(unorm >= _DEGENERACY_TOL):
                return U, unorm
        # Degenerate or wide faces: project each column onto the others.
        U = np.column_stack([
            b - Face(np.delete(self.B, g, axis=1), self.metric).project(b)
            for g, b in enumerate(self.B.T)
        ])
        return U, np.sqrt(np.einsum("pg,pg->g", U, self.metric.Sigma @ U))

    def jacobians(self, M):
        """Stacked J_g for every column, shape (k, p, p)."""
        if self.k < 2:
            raise DegenerateGeometryError(
                "vertex solution: the maximin map is not differentiable for a"
                " single active column"
            )
        U, unorm = self._residuals
        bad = np.flatnonzero(unorm < _DEGENERACY_TOL)
        if bad.size:
            raise DegenerateGeometryError(
                f"active column {bad[0]} lies in the affine hull of the others"
            )
        metric, M = self.metric, np.asarray(M, dtype=float)
        Pi = self.complement
        r = Pi @ (M - self.B[:, 0])
        SU = metric.Sigma @ U
        t = M @ SU - np.einsum("pg,pg->g", self.B, SU) + unorm**2
        wnorm = np.sqrt(metric.inner(r, r) + (t / unorm) ** 2)
        outer = (U / unorm**2).T[:, :, None] * (metric.Sigma @ M)
        return (wnorm / unorm)[:, None, None] * Pi - outer

    def dsigma(self, M, Delta):
        """-D Gamma^{-1} D^T Delta M = -E E^T Delta M; zero for one column."""
        Delta = np.asarray(Delta, dtype=float)
        if Delta.shape != (self.p, self.p):
            raise RankError(f"Delta must be {self.p} x {self.p}")
        scale = float(np.max(np.abs(Delta))) or 1.0
        if np.max(np.abs(Delta - Delta.T)) > 1e-8 * scale:
            raise ValueError("Delta must be symmetric")
        E = self._full_rank_basis()
        return -E @ (E.T @ (Delta @ np.asarray(M, dtype=float)))

    def term_V(self, C_hat):
        """P C_hat P with P = D Gamma^{-1} D^T = E E^T; zero for one column."""
        E = self._full_rank_basis()
        P = E @ E.T
        V = P @ np.asarray(C_hat, dtype=float) @ P
        return (V + V.T) / 2.0

