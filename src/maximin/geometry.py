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

which is exact even when weights below magging.ACTIVITY_THRESHOLD put M
slightly off the face. When M = B alpha lies on the face (r = 0),
w_g = alpha_g u_g, so |w_g| / |u_g| = alpha_g.

SigmaMetric and Face, like the helpers below, work over leading stack
axes: a (..., p, p) stack of metrics, a (..., p, k) stack of faces with
one metric each. A single face is the stack with no leading axes, so
the coverage harness's batched pass and the per-dataset pipeline run
the same formulas, item for item.
"""

import functools

import numpy as np
from scipy.linalg.lapack import dpotrs as _potrs

from .errors import DefinitenessError, DegenerateGeometryError, RankError

# Relative cutoff for rank decisions on D.
_RANK_RTOL = 1e-12

# Projections drop singular values of D below this fraction of the
# largest (a pseudo-inverse cutoff of _RANK_RTOL on the Gram's spectrum).
_PINV_RTOL = _RANK_RTOL ** 0.5

# Residual norms below this mean the configuration is degenerate.
_DEGENERACY_TOL = 1e-10


def symmetric(A):
    """(A + A^T) / 2 over the last two axes."""
    return (A + A.swapaxes(-1, -2)) / 2.0


def matvec(A, x):
    """A x over leading stack axes: (..., m, k) times (..., k)."""
    return (A @ x[..., None])[..., 0]


def quadratic_form(A, x):
    """x^T A x over leading stack axes, evaluated as (x^T A) x."""
    return ((x[..., None, :] @ A) @ x[..., :, None])[..., 0, 0]


def nan_where_singular(kernel, A, *rest):
    """kernel(A, *rest) over a stack of matrices A, item by item on failure.

    A batched numpy.linalg kernel raises LinAlgError for the whole stack
    when one item cannot be factored. Here such items come back as NaN
    and the others as the kernel computes them. The result has the
    shape of A, or of rest[0] broadcast over A's stack axes.
    """
    try:
        return kernel(A, *rest)
    except np.linalg.LinAlgError:
        pass
    batch = A.shape[:-2]
    rest = [np.broadcast_to(b, batch + b.shape[-2:]) for b in rest]
    out = np.full(batch + (rest[0] if rest else A).shape[-2:], np.nan)
    for i in np.ndindex(batch):
        try:
            out[i] = kernel(A[i], *(b[i] for b in rest))
        except np.linalg.LinAlgError:
            pass
    return out


class SigmaMetric:
    """A positive definite Sigma, or a (..., p, p) stack, with Cholesky factors.

    The constructor checks each matrix for symmetry (to 1e-10 of its
    largest entry) and factors its symmetrised form; a matrix that fails
    either check raises DefinitenessError.
    """

    def __init__(self, Sigma):
        Sigma = np.asarray(Sigma, dtype=float)
        if Sigma.ndim < 2 or Sigma.shape[-1] != Sigma.shape[-2]:
            raise DefinitenessError("Sigma must be square")
        scale = np.max(np.abs(Sigma), axis=(-2, -1), initial=0.0)
        scale = np.where(scale > 0.0, scale, 1.0)
        skew = np.max(np.abs(Sigma - Sigma.swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
        if np.any(skew > 1e-10 * scale):
            raise DefinitenessError("Sigma is not symmetric")
        self.Sigma = symmetric(Sigma)
        try:
            self.L = np.linalg.cholesky(self.Sigma)
        except np.linalg.LinAlgError:
            self.L = None
        if self.L is None or not np.isfinite(self.L).all():
            raise DefinitenessError("Sigma is not positive definite")

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
        return self.Sigma.shape[-1]

    def inner(self, x, y):
        return float(np.asarray(x) @ self.Sigma @ np.asarray(y))

    def norm(self, x):
        v = self.inner(x, x)
        return float(np.sqrt(max(v, 0.0)))

    def solve(self, rhs):
        """Sigma^{-1} rhs for a single metric, by LAPACK's potrs on L."""
        return _potrs(self.L, np.asarray(rhs, dtype=float), lower=1)[0]

    def inverse(self):
        """Sigma^{-1}, symmetrised; potrs on each factor of a stack."""
        eye, out = np.eye(self.p), np.empty(self.L.shape)
        for i in np.ndindex(self.L.shape[:-2]):
            out[i] = _potrs(self.L[i], eye, lower=1)[0]
        return symmetric(out)


class Face:
    """The affine hull of the used columns B_A, factorised once.

    B_active is (p, k), or a (..., p, k) stack of faces with one metric
    per face; every result then carries the same leading axes.
    Projections follow pseudo-inverse semantics and never raise.
    Jacobians raise DegenerateGeometryError for a single column or when
    a column lies within 1e-10 of the hull of the others; the metric
    response and term_V raise RankError when D is rank deficient. On a
    stack they raise when any face does; ``full_rank`` and
    ``separated`` say which faces pass.
    """

    def __init__(self, B_active, metric):
        self.metric = metric = SigmaMetric.ensure(metric)
        self.B = np.ascontiguousarray(np.atleast_2d(np.asarray(B_active, dtype=float)))
        self.p, self.k = self.B.shape[-2:]
        batch = self.B.shape[:-2]
        D = self.B[..., 1:] - self.B[..., :1]
        if self.k == 1:  # a single point: nothing to factorise
            U, self._s = D, np.zeros(batch + (0,))
            self._Vt = self._Rinv = np.zeros(batch + (0, 0))
            self.full_rank = np.ones(batch, dtype=bool)
        else:
            U, self._s, self._Vt = np.linalg.svd(D, full_matrices=False)
            gram = U.swapaxes(-1, -2) @ metric.Sigma @ U
            self._Rinv = np.linalg.inv(np.linalg.cholesky(gram))
            s = self._s
            self.full_rank = (s.shape[-1] == self.k - 1) & ~(
                s[..., -1] <= _RANK_RTOL * s[..., 0])
        self._E = U @ self._Rinv.swapaxes(-1, -2)
        s = self._s
        kept = s > _PINV_RTOL * s.max(axis=-1, initial=0.0, keepdims=True)
        self._E_kept = self._E * kept[..., None, :]

    def project(self, x):
        """Sigma-orthogonal projection of x onto the face's affine hull."""
        base, E = self.B[..., 0], self._E_kept
        d = np.asarray(x, dtype=float) - base
        return base + matvec(E, matvec(E.swapaxes(-1, -2), matvec(self.metric.Sigma, d)))

    @functools.cached_property
    def complement(self):
        """Pi_B = I - E E^T Sigma."""
        E = self._E_kept
        return np.eye(self.p) - E @ (E.swapaxes(-1, -2) @ self.metric.Sigma)

    def _full_rank_basis(self):
        """E after the rank check on D; empty for a single column."""
        if not np.all(self.full_rank):
            raise RankError("active-column differences are rank deficient")
        return self._E

    @functools.cached_property
    def _closed_form(self):
        """Leave-one-out residuals from the factorisation, and their norms.

        Valid for the faces marked ``separated``; NaN or tiny elsewhere.
        """
        Vt, s = self._Vt, self._s
        with np.errstate(divide="ignore", invalid="ignore"):
            N = np.concatenate(
                [-Vt.sum(axis=-1)[..., None, :], Vt.swapaxes(-1, -2)], axis=-2)
            Y = (N / s[..., None, :]) @ self._Rinv.swapaxes(-1, -2)
            q = np.einsum("...gm,...gm->...g", Y, Y)
            U = self._E @ Y.swapaxes(-1, -2) / q[..., None, :]
            unorm = 1.0 / np.sqrt(q)
        return U, unorm

    @functools.cached_property
    def separated(self):
        """Whether k - 1 <= p and every closed-form residual norm is >= 1e-10."""
        if self.k - 1 > self.p:
            return np.zeros(self.B.shape[:-2], dtype=bool)
        return np.all(self._closed_form[1] >= _DEGENERACY_TOL, axis=-1)

    @functools.cached_property
    def _residuals(self):
        """Leave-one-out residuals u_g as columns, and their norms."""
        if self.k - 1 <= self.p:
            U, unorm = (a.copy() for a in self._closed_form)
        else:
            U, unorm = np.empty(self.B.shape), np.empty(self.B.shape[:-2] + (self.k,))
        # Degenerate or wide faces: project each column onto the others.
        for i in np.ndindex(self.B.shape[:-2]):
            if self.separated[i]:
                continue
            B, metric = self.B[i], SigmaMetric(self.metric.Sigma[i])
            U[i] = np.column_stack([
                b - Face(np.delete(B, g, axis=1), metric).project(b)
                for g, b in enumerate(B.T)
            ])
            unorm[i] = np.sqrt(np.einsum("pg,pg->g", U[i], metric.Sigma @ U[i]))
        return U, unorm

    def jacobians(self, M):
        """Stacked J_g for every column, shape (..., k, p, p)."""
        if self.k < 2:
            raise DegenerateGeometryError(
                "vertex solution: the maximin map is not differentiable for a"
                " single active column"
            )
        U, unorm = self._residuals
        bad = np.argwhere(unorm < _DEGENERACY_TOL)
        if bad.size:
            raise DegenerateGeometryError(
                f"active column {bad[0][-1]} lies in the affine hull of the others"
            )
        Sigma, M = self.metric.Sigma, np.asarray(M, dtype=float)
        Pi = self.complement
        r = matvec(Pi, M - self.B[..., 0])
        SU = Sigma @ U
        t = (M[..., None, :] @ SU)[..., 0, :] - np.einsum(
            "...pg,...pg->...g", self.B, SU) + unorm**2
        wnorm = np.sqrt(quadratic_form(Sigma, r)[..., None] + (t / unorm) ** 2)
        outer = (U / unorm[..., None, :] ** 2).swapaxes(-1, -2)[..., None] * (
            matvec(Sigma, M)[..., None, None, :])
        return (wnorm / unorm)[..., None, None] * Pi[..., None, :, :] - outer

    def dsigma(self, M, Delta):
        """-D Gamma^{-1} D^T Delta M = -E E^T Delta M; zero for one column."""
        Delta = np.asarray(Delta, dtype=float)
        if Delta.shape != (self.p, self.p):
            raise RankError(f"Delta must be {self.p} x {self.p}")
        scale = float(np.max(np.abs(Delta))) or 1.0
        if np.max(np.abs(Delta - Delta.T)) > 1e-8 * scale:
            raise ValueError("Delta must be symmetric")
        E = self._full_rank_basis()
        return -matvec(E, matvec(E.swapaxes(-1, -2), matvec(Delta, np.asarray(M, dtype=float))))

    def term_V(self, C_hat):
        """P C_hat P with P = D Gamma^{-1} D^T = E E^T; zero for one column."""
        E = self._full_rank_basis()
        P = E @ E.swapaxes(-1, -2)
        return symmetric(P @ np.asarray(C_hat, dtype=float) @ P)
