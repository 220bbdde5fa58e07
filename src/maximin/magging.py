"""Maximin aggregation: the minimum Sigma-norm point of a convex hull.

Given per-group coefficient vectors B = (b_1 .. b_G) and a positive
definite Sigma, the maximin point is argmin over the convex hull of the
columns of b^T Sigma b. In weight space that is the simplex-constrained
quadratic program

    minimize  a^T H a + c^T a,  H = B^T Sigma B,  over  a >= 0, sum(a) = 1,

with c = 0 for the maximin point and c = -2 B^T Sigma m for the Sigma-
distance from m to the hull. Two solvers share one entry point,
stacked_simplex_qp, which takes a stack of such programs:

- Face enumeration, for G <= ENUMERATION_MAX_G. The optimum lies on a
  face spanned by at most p + 1 affinely independent columns
  (Caratheodory's theorem in R^p), and on that face it is the solution
  of the face's equality-constrained KKT system. Every face of at most
  p + 1 columns, of every program in the stack, is padded to one size
  and solved in a single np.linalg.solve; the face whose weights are
  nonnegative and whose objective is lowest wins. Singular faces
  (duplicated columns) are discarded, never raised.
- A primal active-set method, for larger G: hold a working set of
  nonzero weights, solve the equality-constrained subproblem through
  its KKT system, step to the nearest feasibility boundary when the
  solution leaves the simplex, and grow the working set by the most
  negative multiplier otherwise. Exact linear solves make the method
  finite. It runs on each program of the stack in turn.

stacked_maximin forms those programs for a stack of coefficient
matrices and metrics; maximin_point is its stack of one.

The switch sits at the measured single-call crossover. With p = G, 50
random programs per G, one BLAS thread, NumPy 2.4 on a 2-core Xeon VM,
enumeration took 78/84/100/104/204/409/804 us per program at
G = 2..8 against 155/200/254/264/329/361/439 us for the active-set
loop (1.4 to 4.0 iterations): enumeration wins up to G = 6 and loses
from G = 7, where the face count (2^G - 1 at p >= G - 1) outgrows the
loop's few iterations.
"""

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, ConvergenceError
from .geometry import SigmaMetric, matvec, nan_where_singular, symmetric

# Weights above this count as active.
ACTIVITY_THRESHOLD = 1e-6

# Weights this far below zero are treated as boundary, not infeasible.
_FEAS_TOL = 1e-12

# Largest G the exhaustive oracle enumerates (2^G - 1 faces).
ORACLE_MAX_G = 15

# Largest G whose programs stacked_simplex_qp solves by face enumeration.
ENUMERATION_MAX_G = 6


@dataclass(frozen=True)
class MaggingSolution:
    """Maximin point with its convex weights and solver diagnostics.

    active holds the indices g with alpha_g above ACTIVITY_THRESHOLD.
    kkt_residual is measured on the face the solver returned.
    iterations counts the faces solved when G is at most
    ENUMERATION_MAX_G, and the active-set iterations otherwise.
    """

    M: np.ndarray
    alpha: np.ndarray
    active: tuple
    objective: float
    kkt_residual: float
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


def _simplex_qp(H, c=None):
    """Solve min gamma^T H gamma + c^T gamma over the probability simplex.

    Returns (gamma, support, iterations), support being the final
    working set; _residual(H, c, gamma, support) is the KKT residual.
    H must be symmetric positive semidefinite; c defaults to zero. The
    loop stops after 100 G iterations; a multiplier gap of at most 1e-10
    times the larger of |trace(H)| / G and max|c| counts as optimal.
    """
    G = H.shape[0]
    if c is None:
        c = np.zeros(G)
    max_iter = 100 * G
    tol = 1e-10 * max(abs(np.trace(H)) / G, float(np.max(np.abs(c))) if G else 0.0)
    if G == 1:
        return np.ones(1), [0], 0
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
            _, grad, lam = _residual(H, c, gamma, free)
            rest = [g for g in range(G) if g not in free]
            if not rest:
                return gamma, free, it
            j = rest[int(np.argmin(grad[rest]))]
            if lam - grad[j] <= tol:
                return gamma, free, it
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


class _Faces(NamedTuple):
    scale: np.ndarray
    base: np.ndarray
    cslots: np.ndarray
    cscale: np.ndarray
    rhs: np.ndarray
    onehot: np.ndarray
    members: np.ndarray


@functools.lru_cache(maxsize=None)
def _face_table(G, size):
    """Bordered KKT systems of every face of at most size columns of G.

    Each face is padded to size slots plus the border. A face's system
    is base + scale * H[cslots, cslots] with right-hand side rhs -
    cscale * c[cslots], so padded slots get an identity row and a zero
    right-hand side and solve to weight exactly 0. onehot (F, size, G)
    maps slot weights onto columns; members (F, G) marks each face's
    columns.
    """
    faces = [f for k in range(1, size + 1) for f in itertools.combinations(range(G), k)]
    F, K = len(faces), size
    cslots = np.zeros((F, K + 1), dtype=int)
    real = np.zeros((F, K + 1), dtype=bool)
    onehot = np.zeros((F, K, G))
    for i, face in enumerate(faces):
        cslots[i, :len(face)] = face
        real[i, :len(face)] = True
        onehot[i, range(len(face)), face] = 1.0
    pad = ~real
    pad[:, K] = False
    base = np.zeros((F, K + 1, K + 1))
    base[:, range(K), range(K)] = pad[:, :K]
    base[:, :, K] = real
    base[:, K, :] = real
    # A leading stack axis keeps rhs.ndim == kkt.ndim, which NumPy 1.x
    # needs to read rhs as a stack of column vectors.
    rhs = np.zeros((1, F, K + 1, 1))
    rhs[..., K, 0] = 1.0
    table = _Faces(
        scale=2.0 * (real[:, :, None] & real[:, None, :]),
        base=base,
        cslots=cslots,
        cscale=real.astype(float),
        rhs=rhs,
        onehot=onehot,
        members=onehot.any(axis=1),
    )
    for value in table:
        value.flags.writeable = False
    return table


def program_bytes(G, p):
    """Bytes of one program's bordered KKT systems in stacked_simplex_qp.

    The systems of every face are held at once for G up to
    ENUMERATION_MAX_G; above it programs are solved one at a time and
    this is 0.
    """
    if G > ENUMERATION_MAX_G:
        return 0
    return _face_table(G, min(G, p + 1)).base.nbytes


def stacked_simplex_qp(H, p, c=None):
    """Solve a stack of simplex QPs  min a^T H_r a + c_r^T a  over the simplex.

    Parameters
    ----------
    H : ndarray, shape (R, G, G)
        Symmetric positive semidefinite, H_r = B_r^T Sigma B_r for points
        B_r with p rows.
    p : int
        Dimension of the points. Faces of more than p + 1 columns are
        never enumerated (Caratheodory), which is exact when every c_r
        lies in the row space of B_r, as c_r = -2 B_r^T Sigma m does.
    c : ndarray, shape (R, G), optional
        Linear terms; zero by default.

    Returns
    -------
    (gamma, support, iterations)
        gamma (R, G) optimal weights; support (R, G) marks the face each
        solution was read from, the set _residual measures the KKT
        conditions on; iterations (R,) counts faces solved for G <=
        ENUMERATION_MAX_G and active-set iterations above it.

    Raises
    ------
    ConvergenceError
        From the active-set path (G > ENUMERATION_MAX_G), for the first
        program that hits the iteration cap.
    """
    H = np.asarray(H, dtype=float)
    R, G, _ = H.shape
    if c is not None:
        c = np.asarray(c, dtype=float)
    if G > ENUMERATION_MAX_G:
        gamma = np.empty((R, G))
        support = np.zeros((R, G), dtype=bool)
        iterations = np.empty(R, dtype=int)
        for r in range(R):
            gamma[r], free, iterations[r] = _simplex_qp(H[r], None if c is None else c[r])
            support[r, free] = True
        return gamma, support, iterations
    t = _face_table(G, min(G, p + 1))
    F, K = t.onehot.shape[:2]
    kkt = t.base + t.scale * H[:, t.cslots[:, :, None], t.cslots[:, None, :]]
    rhs = t.rhs if c is None else t.rhs - (t.cscale * c[:, t.cslots])[..., None]
    x = nan_where_singular(np.linalg.solve, kkt, rhs)[..., :K, 0]
    feasible = np.all(x >= -_FEAS_TOL, axis=-1)
    w = np.clip(x, 0.0, None)
    w /= np.where(feasible, w.sum(axis=-1), 1.0)[..., None]
    half_grad = 0.5 * (kkt[..., :K, :K] @ w[..., None])[..., 0] - rhs[..., :K, 0]
    obj = np.sum(w * half_grad, axis=-1)
    # Vertices always solve to weight 1, so every row keeps a finite entry.
    best = np.argmin(np.where(feasible & np.isfinite(obj), obj, np.inf), axis=1)
    gamma = (w[np.arange(R), best][:, None, :] @ t.onehot[best])[:, 0, :]
    return gamma, t.members[best], np.full(R, F)


def active_mask(gamma):
    """Which weights of an array count as active (above ACTIVITY_THRESHOLD)."""
    return gamma > ACTIVITY_THRESHOLD


class MaximinStack(NamedTuple):
    """Maximin solutions of a stack of programs, from stacked_maximin."""

    H: np.ndarray
    gamma: np.ndarray
    support: np.ndarray
    iterations: np.ndarray
    M: np.ndarray


def stacked_maximin(B, Sigma):
    """Maximin points of a stack of coefficient matrices.

    B (R, p, G) holds each program's columns and Sigma (R, p, p) its
    symmetric positive definite metric (a SigmaMetric's Sigma). Forms
    H = B^T Sigma B, solves the stack with stacked_simplex_qp and
    returns a MaximinStack: H, gamma, support and iterations as that
    function returns them, and the points M = B gamma (R, p).
    """
    B = np.asarray(B, dtype=float)
    H = symmetric(B.swapaxes(-1, -2) @ Sigma @ B)
    gamma, support, iterations = stacked_simplex_qp(H, B.shape[-2])
    return MaximinStack(H, gamma, support, iterations, matvec(B, gamma))


def maximin_point(B, Sigma):
    """Compute the maximin point of the columns of B under Sigma.

    The program goes through stacked_maximin as a stack of one.

    Parameters
    ----------
    B : ndarray, shape (p, G)
        Per-group coefficient vectors as columns.
    Sigma : ndarray, shape (p, p), or SigmaMetric
        Symmetric positive definite metric; pass a SigmaMetric to reuse
        its factorization.

    Returns
    -------
    MaggingSolution
        Its active set holds the weights above ACTIVITY_THRESHOLD.

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
    try:
        H, gamma, support, iterations, M = stacked_maximin(B[None], Sigma[None])
    except ConvergenceError as err:
        err.best = _package(Sigma, err.best, matvec(B, err.best), np.inf, 0)
        raise
    alpha = gamma[0]
    free = [int(g) for g in np.flatnonzero(support[0])]
    res, _, _ = _residual(H[0], np.zeros(B.shape[1]), alpha, free)
    return _package(Sigma, alpha, M[0], res, int(iterations[0]))


def _package(Sigma, alpha, M, res, iterations):
    return MaggingSolution(
        M=M,
        alpha=alpha,
        active=tuple(int(g) for g in np.flatnonzero(active_mask(alpha))),
        objective=float(M @ Sigma @ M),
        kkt_residual=float(res),
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

