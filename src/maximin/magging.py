"""Maximin aggregation: the minimum Sigma-norm point of a convex hull.

Given per-group coefficient vectors B = (b_1 .. b_G) and a positive
definite Sigma, the maximin point is argmin over the convex hull of the
columns of b^T Sigma b. In weight space that is the simplex-constrained
quadratic program

    minimize  a^T H a,  H = B^T Sigma B,  over  a >= 0, sum(a) = 1,

solved here by a primal active-set method: hold a working set of
nonzero weights, solve the equality-constrained subproblem through its
KKT system, step to the nearest feasibility boundary when the solution
leaves the simplex, and grow the working set by the most negative
multiplier otherwise. Exact linear solves make the method finite for
the small G this package targets.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConvergenceError
from .geometry import SigmaMetric

DEFAULT_ACTIVITY_THRESHOLD = 1e-6

# Weights this far below zero are treated as boundary, not infeasible.
_FEAS_TOL = 1e-12

# Largest G the exhaustive oracle enumerates (2^G - 1 faces).
ORACLE_MAX_G = 15


@dataclass(frozen=True)
class MaggingSolution:
    """Maximin point with its convex weights and solver diagnostics.

    active holds the indices g with alpha_g above the activity
    threshold. unique_weights reports whether the active columns are
    linearly independent, in which case the weight vector (not just the
    point) is unique.
    """

    M: np.ndarray
    alpha: np.ndarray
    active: tuple
    objective: float
    kkt_residual: float
    unique_weights: bool
    iterations: int = 0


def _kkt_solve(H, c, free):
    """Minimize x^T H x + c^T x over sum(x) = 1 on the free coordinates."""
    k = len(free)
    idx = np.ix_(free, free)
    K = np.zeros((k + 1, k + 1))
    K[:k, :k] = 2.0 * H[idx]
    K[:k, k] = 1.0
    K[k, :k] = 1.0
    rhs = np.concatenate([-c[free], [1.0]])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    if not np.all(np.isfinite(sol)):
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
    return sol[:k]


def _residual(H, c, gamma, support):
    """KKT residual: multiplier spread on the support, violation off it."""
    grad = 2.0 * (H @ gamma) + c
    lam = float(gamma @ grad)
    res = 0.0
    if support:
        res = float(np.max(np.abs(grad[support] - lam)))
    rest = [g for g in range(len(gamma)) if g not in support]
    if rest:
        res = max(res, float(max(0.0, lam - np.min(grad[rest]))))
    return res, grad, lam


def _simplex_qp(H, c=None, max_iter=None, tol=None):
    """Solve min gamma^T H gamma + c^T gamma over the probability simplex.

    Returns (gamma, kkt_residual, iterations). H must be symmetric
    positive semidefinite; c defaults to zero.
    """
    G = H.shape[0]
    if c is None:
        c = np.zeros(G)
    if max_iter is None:
        max_iter = 100 * G
    if tol is None:
        scale = max(abs(np.trace(H)) / G, float(np.max(np.abs(c))) if G else 0.0)
        tol = 1e-10 * scale
    if G == 1:
        return np.ones(1), 0.0, 0
    start = int(np.argmin(np.diag(H) + c))
    gamma = np.zeros(G)
    gamma[start] = 1.0
    free = [start]
    best = gamma.copy()
    best_obj = float(gamma @ H @ gamma + c @ gamma)
    for it in range(1, max_iter + 1):
        x = _kkt_solve(H, c, free)
        if np.all(x >= -_FEAS_TOL):
            gamma = np.zeros(G)
            gamma[free] = np.clip(x, 0.0, None)
            gamma /= gamma.sum()
            obj = float(gamma @ H @ gamma + c @ gamma)
            if obj < best_obj:
                best_obj, best = obj, gamma.copy()
            res, grad, lam = _residual(H, c, gamma, free)
            rest = [g for g in range(G) if g not in free]
            if not rest:
                return gamma, res, it
            j = rest[int(np.argmin(grad[rest]))]
            if lam - grad[j] <= tol:
                return gamma, res, it
            free.append(j)
        else:
            # Step from the current face iterate toward x until the first
            # coordinate hits zero, then drop it from the working set.
            cur = gamma[free]
            step = x - cur
            blocking = [i for i in range(len(free)) if x[i] < -_FEAS_TOL]
            ts = [cur[i] / (cur[i] - x[i]) for i in blocking]
            t = min(ts)
            hit = blocking[int(np.argmin(ts))]
            moved = cur + t * step
            moved[hit] = 0.0
            gamma = np.zeros(G)
            gamma[free] = np.clip(moved, 0.0, None)
            gamma /= gamma.sum()
            free = [g for i, g in enumerate(free) if i != hit]
    raise ConvergenceError(
        f"simplex QP did not converge within {max_iter} iterations", best=best
    )


def maximin_point(B, Sigma, activity_threshold=DEFAULT_ACTIVITY_THRESHOLD):
    """Compute the maximin point of the columns of B under Sigma.

    Parameters
    ----------
    B : ndarray, shape (p, G)
        Per-group coefficient vectors as columns.
    Sigma : ndarray, shape (p, p), or SigmaMetric
        Symmetric positive definite metric; pass a SigmaMetric to reuse
        its factorization.
    activity_threshold : float
        Weights above this count as active.

    Returns
    -------
    MaggingSolution

    Raises
    ------
    DefinitenessError
        If Sigma fails the symmetry or factorization check.
    ConvergenceError
        If the active-set iteration cap is hit; the best iterate is
        attached to the exception.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Sigma = SigmaMetric.ensure(Sigma, B.shape[0]).Sigma
    if not 0.0 < activity_threshold < 1.0:
        raise ValueError("activity_threshold must lie in (0, 1)")
    H = B.T @ Sigma @ B
    H = (H + H.T) / 2.0
    try:
        alpha, res, iterations = _simplex_qp(H)
    except ConvergenceError as err:
        err.best = _package(B, Sigma, H, err.best, np.inf, 0, activity_threshold)
        raise
    return _package(B, Sigma, H, alpha, res, iterations, activity_threshold)


def _package(B, Sigma, H, alpha, res, iterations, threshold):
    M = B @ alpha
    active = tuple(int(g) for g in np.flatnonzero(alpha > threshold))
    sub = B[:, active]
    if sub.shape[1] == 0:
        unique = False
    else:
        s = np.linalg.svd(sub, compute_uv=False)
        unique = bool(np.sum(s > 1e-12 * s[0]) == sub.shape[1])
    return MaggingSolution(
        M=M,
        alpha=alpha,
        active=active,
        objective=float(M @ Sigma @ M),
        kkt_residual=float(res),
        unique_weights=unique,
        iterations=iterations,
    )


def brute_force_oracle(B, Sigma):
    """Exhaustive reference solution for the maximin point.

    Enumerates every nonempty subset of columns, solves the equality-
    constrained minimum-norm problem on its affine hull, and keeps the
    best candidate whose weights are all nonnegative. Exponential in G,
    hence the ORACLE_MAX_G cap; intended for validation, not production.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    p, G = B.shape
    if G > ORACLE_MAX_G:
        raise BudgetError(f"brute force supports G <= {ORACLE_MAX_G}, got {G}")
    Sigma = SigmaMetric.ensure(Sigma, p).Sigma
    H = B.T @ Sigma @ B
    H = (H + H.T) / 2.0
    best_obj = np.inf
    best_M = None
    for size in range(1, G + 1):
        for subset in itertools.combinations(range(G), size):
            idx = list(subset)
            k = len(idx)
            K = np.zeros((k + 1, k + 1))
            K[:k, :k] = 2.0 * H[np.ix_(idx, idx)]
            K[:k, k] = 1.0
            K[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            gamma = np.linalg.lstsq(K, rhs, rcond=None)[0][:k]
            if np.min(gamma) < -1e-10:
                continue
            obj = float(gamma @ H[np.ix_(idx, idx)] @ gamma)
            if obj < best_obj - 1e-15:
                best_obj = obj
                best_M = B[:, idx] @ gamma
    return best_M


def explained_variance(b, b_g, Sigma):
    """Variance a regression vector b explains in a group with truth b_g.

    Evaluates 2 b^T Sigma b_g - b^T Sigma b.
    """
    b = np.asarray(b, dtype=float)
    b_g = np.asarray(b_g, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    return float(2.0 * b @ Sigma @ b_g - b @ Sigma @ b)

