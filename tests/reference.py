"""Reference implementations that only the tests use.

The pseudo-inverse bodies below are the straightforward per-column
evaluations the Face kernel in ``maximin.geometry`` replaced: every
Jacobian refactorises the Gram of the remaining columns from scratch.
fit, hull_distance and contains_relaxed are the group-by-group and
piece-by-piece loops the batched versions in ``maximin.linmodel`` and
``maximin.relaxation`` replaced, and run_block is the replicate-by-
replicate loop the block engine in ``maximin.simulate`` replaced. They stay here as the oracles for the
differential tests. explained_variance states the objective the maximin
point is defined by, for the defining-property test.
"""

import math
from dataclasses import replace

import numpy as np
import scipy.linalg

from maximin.confidence import contains
from maximin.errors import (
    ConditioningError,
    ConvergenceError,
    DefinitenessError,
    DegenerateGeometryError,
    DimensionError,
    RankError,
    SingularFitError,
)
from maximin.geometry import SigmaMetric
from maximin.linmodel import GroupEstimates, generate
from maximin.magging import _simplex_qp
from maximin.pipeline import analyze_dataset

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


def explained_variance(b, b_g, Sigma):
    """Variance a regression vector b explains in a group with truth b_g.

    Evaluates 2 b^T Sigma b_g - b^T Sigma b.
    """
    b = np.asarray(b, dtype=float)
    b_g = np.asarray(b_g, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    return float(2.0 * b @ Sigma @ b_g - b @ Sigma @ b)


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


def fit(dataset, ridge_jitter=0.0):
    """Per-group least squares, one Cholesky factor per group."""
    n, p, G = dataset.n, dataset.p, dataset.G
    Bhat = np.empty((p, G))
    Sigma_g = []
    rss = 0.0
    for g, (X, y) in enumerate(dataset.groups):
        S = (X.T @ X) / n + ridge_jitter * np.eye(p)
        try:
            factor = scipy.linalg.cho_factor(S, lower=True)
        except scipy.linalg.LinAlgError:
            raise SingularFitError(
                f"group {dataset.labels[g]}: design scatter is singular;"
                " a positive ridge_jitter is required",
                group=dataset.labels[g],
            ) from None
        pivots = np.abs(np.diag(factor[0])) ** 2
        if pivots.min() <= 1e-12 * pivots.max():
            raise SingularFitError(
                f"group {dataset.labels[g]}: design scatter is numerically"
                " rank-deficient",
                group=dataset.labels[g],
            )
        b = scipy.linalg.cho_solve(factor, (X.T @ y) / n)
        Bhat[:, g] = b
        Sigma_g.append(S)
        r = y - X @ b
        rss += float(r @ r)
    X_all = dataset.design_stack()
    Sigma_hat = (X_all.T @ X_all) / (n * G) + ridge_jitter * np.eye(p)
    approximate = p >= n
    dof = G * n if approximate else G * (n - p)
    return GroupEstimates(
        Bhat=Bhat,
        Sigma_hat=Sigma_hat,
        Sigma_g_hat=np.array(Sigma_g),
        sigma2_hat=rss / dof,
        ridge_jitter_used=float(ridge_jitter),
        n=n,
        sigma2_approximate=approximate,
    )


def hull_distance(B, metric, M):
    """Sigma-norm distance from M to the convex hull of B's columns."""
    Sigma = metric.Sigma
    H = B.T @ Sigma @ B
    H = (H + H.T) / 2.0
    c = -2.0 * (B.T @ (Sigma @ M))
    gamma, _, _ = _simplex_qp(H, c)
    d2 = float(gamma @ H @ gamma + c @ gamma + M @ Sigma @ M)
    return math.sqrt(max(d2, 0.0))


def contains_relaxed(region, M, slack=1e-9):
    """Piece-by-piece membership: shell test, then one hull QP per piece."""
    metric = SigmaMetric(region.Sigma0)
    M = np.asarray(M, dtype=float)
    norm = metric.norm(M)
    for k in range(region.pieces):
        eps = region.radii[k]
        if abs(norm - region.shells[k]) > eps + slack:
            continue
        if hull_distance(region.centers[k], metric, M) <= eps + slack:
            return True
    return False


REPLICATE_ERRORS = (
    SingularFitError,
    DefinitenessError,
    ConvergenceError,
    DegenerateGeometryError,
    RankError,
    ConditioningError,
)


def run_block(spec, alpha, M0, items):
    """Rows (replicate, covered, top eigenvalue, degenerate, vertex), one
    replicate at a time: generate, analyze_dataset, contains, eigvalsh."""
    out = []
    for rep, seed in items:
        dataset, _ = generate(replace(spec, seed=seed))
        try:
            analysis = analyze_dataset(
                dataset, alpha=alpha, ridge_jitter=spec.ridge_jitter)
        except REPLICATE_ERRORS:
            out.append((rep, 0, float("nan"), True, False))
            continue
        W = analysis.covariance.W
        out.append((
            rep,
            int(contains(analysis.region, M0)),
            float(np.linalg.eigvalsh((W + W.T) / 2.0)[-1]),
            False,
            analysis.covariance.vertex_mode,
        ))
    return out
