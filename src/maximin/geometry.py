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
  the difference span. A single active column has J_1 = I, and
  derivatives with respect to inactive columns vanish.

* Face.dsigma: the response of M to a symmetric perturbation Delta
  of the metric, -D (D^T Sigma D)^{-1} D^T Delta M with D the matrix
  of active-column differences.

These, the complement projector and the metric term of the covariance
all read one factorisation of the face, made when the ``Face`` is
built: the thin SVD L^T D = U S V^T of D = (b_2 - b_1, ..., b_k - b_1)
whitened by Sigma = L L^T. E = L^{-T} U is a Sigma-orthonormal basis of
the difference span and D = E S V^T, so the Gram Gamma = D^T Sigma D
has D Gamma^{-1} D^T = E E^T and Pi_B = I - E E^T Sigma. X -> XA maps
L^T D to Q^T L^T D, Q orthogonal, so S and the rank cut on it do not
depend on the design's units (van der Sluis, Numer. Math. 14, 1969). With
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
the same formulas, item for item. Both keep their refusals as values,
as NaN factors or results for the items they refuse; only a single
matrix given to SigmaMetric raises. Every batched Cholesky factor,
solve and inverse that may meet a singular item is one stacked_linalg
call, which returns NaN for that item instead of raising for the stack.
"""

import functools

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DefinitenessError, DimensionError

# Relative cutoff for rank decisions on L^T D and on equilibrated pivots.
_RANK_RTOL = 1e-12

# Projections drop singular values of L^T D below this fraction of the
# largest (a pseudo-inverse cutoff of _RANK_RTOL on the Gram's spectrum).
_PINV_RTOL = _RANK_RTOL ** 0.5

# Residual norms at or below this fraction of the face's largest column
# Sigma-norm mean the configuration is degenerate.
_DEGENERACY_RTOL = 1e-10


def symmetric(A):
    """A / 2 + A^T / 2 over the last two axes: halving first keeps every
    representable A finite, and it is (A + A^T) / 2 bit for bit unless
    an entry's half is subnormal."""
    return A / 2.0 + A.swapaxes(-1, -2) / 2.0


def matvec(A, x):
    """A x over leading stack axes: (..., m, k) times (..., k)."""
    return (A @ x[..., None])[..., 0]


def quadratic_form(A, x):
    """x^T A x over leading stack axes, evaluated as (x^T A) x."""
    return ((x[..., None, :] @ A) @ x[..., :, None])[..., 0, 0]


def reduce_rows(ufunc, X):
    """ufunc reduced over each row of X (n, G), on a (G, n) copy: NumPy
    reduces a short last axis row by row, many times slower. A min, max or
    any keeps its value (a zero may change sign); a sum may not from G = 8."""
    return ufunc.reduce(np.ascontiguousarray(X.T), axis=0)


def stacked_linalg(kernel, *arrays):
    """numpy.linalg's gufunc kernel ("cholesky_lo", "solve" or "inv") over
    a stack of matrices, NaN for each item it cannot factor.

    numpy.linalg.cholesky, solve and inv call these gufuncs of
    numpy.linalg._umath_linalg (numpy/linalg/umath_linalg.cpp), which
    fill an item that fails to factor with NaN and set the floating-point
    invalid flag; the wrappers turn that flag into one LinAlgError for
    the whole stack. With the flag ignored, every item that numpy.linalg
    factors alone keeps its bits and every other item is NaN. solve reads
    its right-hand side as a (..., m, k) stack on every NumPy version.
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        return getattr(_umath_linalg, kernel)(*arrays)


def positive_definite(S):
    """The one positive-definiteness test, over a (..., p, p) stack.

    Returns (L, ok): each matrix's Cholesky factor from one
    stacked_linalg call, NaN where it cannot be factored, and whether
    min_i L_ii^2 / S_ii > _RANK_RTOL max_i L_ii^2 / S_ii: false for a
    NaN factor. Those ratios are the squared Cholesky pivots of
    D^{-1/2} S D^{-1/2}, D = diag(S), so no diagonal scaling of S moves
    the verdict (van der Sluis, Numer. Math. 14, 1969).
    """
    L = stacked_linalg("cholesky_lo", S)
    with np.errstate(invalid="ignore"):
        pivots = (np.diagonal(L, 0, -2, -1) / np.sqrt(np.diagonal(S, 0, -2, -1))) ** 2
        return L, pivots.min(axis=-1) > _RANK_RTOL * pivots.max(axis=-1)


class SigmaMetric:
    """A positive definite Sigma, or a (..., p, p) stack, with Cholesky factors.

    The constructor checks each matrix for symmetry (to 1e-10 of its
    largest entry) and its symmetrised form by positive_definite, the one
    definiteness test. ``errors`` over the stack axes holds None for a
    pass and a DefinitenessError, with a NaN factor, for a failure; a
    single (p, p) matrix raises it, and a non-square array DimensionError.
    """

    def __init__(self, Sigma):
        Sigma = np.asarray(Sigma, dtype=float)
        if Sigma.ndim < 2 or Sigma.shape[-1] != Sigma.shape[-2]:
            raise DimensionError("Sigma must be square")
        scale = np.max(np.abs(Sigma), axis=(-2, -1), initial=0.0)
        scale = np.where(scale > 0.0, scale, 1.0)
        skew = np.max(np.abs(Sigma - Sigma.swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
        asymmetric = skew > 1e-10 * scale
        self.Sigma = symmetric(Sigma)
        self.L, definite = positive_definite(self.Sigma)
        bad = asymmetric | ~definite
        self.errors = np.full(bad.shape, None, dtype=object)
        if not bad.any():
            return
        for i in map(tuple, np.argwhere(bad)):
            self.L[i] = np.nan
            self.errors[i] = DefinitenessError(
                "Sigma is not symmetric" if asymmetric[i] else "Sigma is not positive definite")
        if Sigma.ndim == 2:
            raise self.errors[()]

    @classmethod
    def ensure(cls, sigma, p=None):
        """Wrap a raw matrix once; a SigmaMetric is returned as it is.

        With p given, this is the one check of a known Sigma's shape and
        entries, made before the constructor's: a matrix or metric that
        is not p x p raises DimensionError, and a matrix with a NaN or
        infinite entry ValueError.
        """
        metric = isinstance(sigma, cls)
        matrix = sigma.Sigma if metric else np.asarray(sigma, dtype=float)
        if p is not None and matrix.shape != (p, p):
            raise DimensionError(f"known_sigma must be {p} x {p}, got {matrix.shape}")
        if p is not None and not np.isfinite(matrix).all():
            raise ValueError("known_sigma contains NaN or infinite entries")
        return sigma if metric else cls(matrix)

    def __getitem__(self, index):
        """The metrics at index of a stack, sharing their checked factors."""
        return _checked_metric(self.Sigma[index], self.L[index],
                               np.asarray(self.errors[index], dtype=object))

    @property
    def p(self):
        return self.Sigma.shape[-1]

    def inner(self, x, y):
        return float(np.asarray(x) @ self.Sigma @ np.asarray(y))

    def norm(self, x):
        v = self.inner(x, x)
        return float(np.sqrt(max(v, 0.0)))

    def inverse(self):
        """Sigma^{-1} = L^{-T} L^{-1}, symmetrised, from one stacked_linalg
        inverse of the factors; NaN for a NaN factor."""
        Linv = stacked_linalg("inv", self.L)
        return symmetric(Linv.swapaxes(-1, -2) @ Linv)


def _checked_metric(Sigma, L, errors):
    """A SigmaMetric of factors and verdicts already checked."""
    metric = object.__new__(SigmaMetric)
    metric.Sigma, metric.L, metric.errors = Sigma, L, errors
    return metric


def concatenate_metrics(metrics):
    """SigmaMetric stacks joined along their first axis, sharing their
    checked factors and verdicts."""
    return _checked_metric(*(np.concatenate([getattr(m, name) for m in metrics])
                             for name in ("Sigma", "L", "errors")))


class Face:
    """The affine hull of the used columns B_A: one SVD of L^T D per face.

    B_active is (p, k), or a (..., p, k) stack of faces with one metric
    per face; every result then carries the same leading axes. The
    complement projector follows pseudo-inverse semantics and never
    refuses. A single column is a face too, a lone vertex: its Jacobian
    is the identity and its metric response and term_V vanish. Jacobians
    refuse a face with a column within 1e-10 times the face's largest
    column Sigma-norm of the hull of the others;
    the metric response and term_V refuse rank deficient D. Nothing is
    raised, for a single face or a stack: a refused face's results are
    NaN, and ``degenerate`` and ``full_rank`` say which faces and columns
    those are.
    """

    def __init__(self, B_active, metric):
        self.metric = metric = SigmaMetric.ensure(metric)
        self.B = np.ascontiguousarray(np.atleast_2d(np.asarray(B_active, dtype=float)))
        self.p, self.k = self.B.shape[-2:]
        batch = self.B.shape[:-2]
        D = self.B[..., 1:] - self.B[..., :1]
        if self.k == 1:  # a single point: nothing to factorise
            self._E, s, self._Vt = D, np.zeros(batch + (0,)), np.zeros(batch + (0, 0))
            self.full_rank = np.ones(batch, dtype=bool)
        else:
            Lt = metric.L.swapaxes(-1, -2)
            U, s, self._Vt = np.linalg.svd(Lt @ D, full_matrices=False)
            self._E = np.linalg.solve(Lt, U)
            self.full_rank = (s.shape[-1] == self.k - 1) & ~(
                s[..., -1] <= _RANK_RTOL * s[..., 0])
        self._s = s
        kept = s > _PINV_RTOL * s.max(axis=-1, initial=0.0, keepdims=True)
        self._E_kept = self._E * kept[..., None, :]

    @functools.cached_property
    def complement(self):
        """Pi_B = I - E E^T Sigma."""
        E = self._E_kept
        return np.eye(self.p) - E @ (E.swapaxes(-1, -2) @ self.metric.Sigma)

    @functools.cached_property
    def _closed_form(self):
        """Leave-one-out residuals from the factorisation, and their norms.

        Valid for the faces marked ``separated``; NaN or tiny elsewhere.
        """
        Vt, s = self._Vt, self._s
        with np.errstate(divide="ignore", invalid="ignore"):
            N = np.concatenate(
                [-Vt.sum(axis=-1)[..., None, :], Vt.swapaxes(-1, -2)], axis=-2)
            Y = N / s[..., None, :]
            q = np.einsum("...gm,...gm->...g", Y, Y)
            U = self._E @ Y.swapaxes(-1, -2) / q[..., None, :]
            unorm = 1.0 / np.sqrt(q)
        return U, unorm

    @functools.cached_property
    def _degeneracy_tol(self):
        """(..., 1) residual norms at or below which a column is on the
        others' hull: _DEGENERACY_RTOL times the largest column Sigma-norm,
        so a response rescaled by c moves the bound with the residuals."""
        norms2 = np.einsum("...pg,...pg->...g", self.B, self.metric.Sigma @ self.B)
        return _DEGENERACY_RTOL * np.sqrt(norms2.max(axis=-1, keepdims=True))

    @functools.cached_property
    def separated(self):
        """Whether k - 1 <= p and every closed-form residual norm is above
        the degeneracy bound."""
        if self.k - 1 > self.p:
            return np.zeros(self.B.shape[:-2], dtype=bool)
        return np.all(self._closed_form[1] > self._degeneracy_tol, axis=-1)

    @functools.cached_property
    def _residuals(self):
        """Leave-one-out residuals u_g as columns, and their norms."""
        if self.k - 1 <= self.p:
            U, unorm = (a.copy() for a in self._closed_form)
        else:
            U, unorm = np.empty(self.B.shape), np.empty(self.B.shape[:-2] + (self.k,))
        # Degenerate or wide faces: project each column onto the others'
        # hull, b - (b_1 + E E^T Sigma (b - b_1)) on their kept basis.
        for i in np.ndindex(self.B.shape[:-2]):
            if self.separated[i]:
                continue
            B, Sigma = self.B[i], self.metric.Sigma[i]
            for g, b in enumerate(B.T):
                others = Face(np.delete(B, g, axis=1), self.metric[i])
                base, E = others.B[:, 0], others._E_kept
                U[i][:, g] = b - (base + matvec(E, matvec(E.T, matvec(Sigma, b - base))))
            unorm[i] = np.sqrt(np.einsum("pg,pg->g", U[i], Sigma @ U[i]))
        return U, unorm

    @functools.cached_property
    def degenerate(self):
        """(..., k) mask of the columns within the degeneracy bound of the
        others' hull."""
        return self._residuals[1] <= self._degeneracy_tol

    def jacobians(self, M):
        """Stacked J_g for every column, shape (..., k, p, p); NaN on a
        face with a ``degenerate`` column. A single column's is the
        identity: M = b_1 moves with its column."""
        if self.k == 1:
            shape = self.B.shape[:-2] + (1, self.p, self.p)
            return np.broadcast_to(np.eye(self.p), shape).copy()
        refused = self.degenerate.any(axis=-1)
        U, unorm = self._residuals
        Sigma, M = self.metric.Sigma, np.asarray(M, dtype=float)
        Pi = self.complement
        # refused faces divide by their vanishing residuals; NaN replaces them
        quiet = "ignore" if refused.any() else None
        with np.errstate(divide=quiet, invalid=quiet):
            r = matvec(Pi, M - self.B[..., 0])
            SU = Sigma @ U
            t = (M[..., None, :] @ SU)[..., 0, :] - np.einsum(
                "...pg,...pg->...g", self.B, SU) + unorm**2
            wnorm = np.sqrt(quadratic_form(Sigma, r)[..., None] + (t / unorm) ** 2)
            outer = (U / unorm[..., None, :] ** 2).swapaxes(-1, -2)[..., None] * (
                matvec(Sigma, M)[..., None, None, :])
            J = (wnorm / unorm)[..., None, None] * Pi[..., None, :, :] - outer
        return np.where(refused[..., None, None, None], np.nan, J)

    def dsigma(self, M, Delta):
        """-D Gamma^{-1} D^T Delta M = -E E^T Delta M; zero for one column,
        NaN where D is not ``full_rank``."""
        Delta = np.asarray(Delta, dtype=float)
        if Delta.shape != (self.p, self.p):
            raise DimensionError(f"Delta must be {self.p} x {self.p}")
        scale = float(np.max(np.abs(Delta))) or 1.0
        if np.max(np.abs(Delta - Delta.T)) > 1e-8 * scale:
            raise ValueError("Delta must be symmetric")
        E, refused = self._E, ~self.full_rank
        dM = -matvec(E, matvec(E.swapaxes(-1, -2), matvec(Delta, np.asarray(M, dtype=float))))
        return np.where(refused[..., None], np.nan, dM)

    def term_V(self, C_hat):
        """P C_hat P with P = D Gamma^{-1} D^T = E E^T; zero for one column,
        NaN where D is not ``full_rank``."""
        E, refused = self._E, ~self.full_rank
        P = E @ E.swapaxes(-1, -2)
        V = symmetric(P @ np.asarray(C_hat, dtype=float) @ P)
        return np.where(refused[..., None, None], np.nan, V)
