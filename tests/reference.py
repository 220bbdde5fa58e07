"""Reference implementations that only the tests use.

The pseudo-inverse bodies below are the straightforward per-column
evaluations the Face kernel in ``maximin.geometry`` replaced: every
Jacobian refactorises the Gram of the remaining columns from scratch.
They stay here as the oracle for the differential tests.
"""

import numpy as np

from maximin.errors import DegenerateGeometryError, DimensionError, RankError
from maximin.geometry import SigmaMetric

_RANK_RTOL = 1e-12
_DEGENERACY_TOL = 1e-10


def affine_project(x, points, metric):
    """Sigma-orthogonal projection of x onto the affine hull of the points."""
    metric = SigmaMetric.ensure(metric)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.asarray(x, dtype=float)
    base = pts[0]
    if pts.shape[0] == 1:
        return base.copy()
    D = (pts[1:] - base).T
    gram = D.T @ metric.Sigma @ D
    coef = np.linalg.pinv(gram, rcond=_RANK_RTOL, hermitian=True)
    return base + D @ (coef @ (D.T @ (metric.Sigma @ (x - base))))


def complement_projector(B, metric):
    """Matrix of the Sigma-orthogonal projector onto span(b_g - b_1)^perp."""
    metric = SigmaMetric.ensure(metric)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    p = B.shape[0]
    if B.shape[1] <= 1:
        return np.eye(p)
    D = B[:, 1:] - B[:, :1]
    gram = D.T @ metric.Sigma @ D
    coef = np.linalg.pinv(gram, rcond=_RANK_RTOL, hermitian=True)
    return np.eye(p) - D @ coef @ D.T @ metric.Sigma


def dmagging_dB(B_active, Sigma, g, M):
    """Jacobian of the maximin point with respect to active column g."""
    metric = SigmaMetric.ensure(Sigma)
    B = np.atleast_2d(np.asarray(B_active, dtype=float))
    Gp = B.shape[1]
    if Gp < 2:
        raise DegenerateGeometryError("vertex solution")
    M = np.asarray(M, dtype=float)
    others = np.delete(B, g, axis=1).T
    u = B[:, g] - affine_project(B[:, g], others, metric)
    nu = metric.norm(u)
    if nu < _DEGENERACY_TOL:
        raise DegenerateGeometryError(
            f"active column {g} lies in the affine hull of the others"
        )
    w = M - affine_project(M, others, metric)
    proj = complement_projector(B, metric)
    term1 = -np.outer(u, metric.Sigma @ M) / nu**2
    term2 = (metric.norm(w) / nu) * proj
    return term1 + term2


def sigma_term_V(B_active, Sigma, C_hat):
    """D (D^T Sigma D)^{-1} D^T C_hat D (D^T Sigma D)^{-1} D^T."""
    metric = SigmaMetric.ensure(Sigma)
    B = np.atleast_2d(np.asarray(B_active, dtype=float))
    p, Gp = B.shape
    if Gp == 1:
        return np.zeros((p, p))
    C_hat = np.asarray(C_hat, dtype=float)
    D = B[:, 1:] - B[:, :1]
    s = np.linalg.svd(D, compute_uv=False)
    if s[-1] <= _RANK_RTOL * s[0]:
        raise RankError("active-column differences are rank deficient")
    gram = D.T @ metric.Sigma @ D
    P = D @ np.linalg.solve(gram, D.T)
    V = P @ C_hat @ P
    return (V + V.T) / 2.0


def assemble_W(B_used, Sigma, M, sigma2, C_hat):
    """W on a face from the per-column Jacobians, summed one at a time."""
    metric = SigmaMetric.ensure(Sigma)
    sigma_inv = metric.inverse()
    sigma_inv = (sigma_inv + sigma_inv.T) / 2.0
    term_B = np.zeros((metric.p, metric.p))
    for g in range(B_used.shape[1]):
        J = dmagging_dB(B_used, metric, g, M)
        term_B += J @ sigma_inv @ J.T
    term_B = sigma2 * (term_B + term_B.T) / 2.0
    W = term_B + sigma_term_V(B_used, metric, C_hat)
    return (W + W.T) / 2.0


def fourth_moment_reference(X, G):
    """Rank-4 empirical tensor c[i, j, k, l] (p <= 4).

    c[i, j, k, l] is the sample covariance of X_i X_j with X_k X_l over
    the rows, divided by G. Contracting with M in j and l reproduces
    empirical_C; the production path never builds this tensor.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    p = X.shape[1]
    if p > 4:
        raise DimensionError("reference tensor limited to p <= 4")
    prods = X[:, :, None] * X[:, None, :]
    flat = prods.reshape(X.shape[0], p * p)
    flat = flat - flat.mean(axis=0)
    cov = (flat.T @ flat) / X.shape[0]
    return cov.reshape(p, p, p, p) / G
