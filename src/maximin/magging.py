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
  nonnegative and whose objective is lowest wins. A face holding a
  duplicated column is singular and discarded, never raised, unless
  rounding hides that; it then ties with the faces of either copy.
- A primal active-set method, for larger G, run over the whole stack
  in lockstep. Each program starts at its best vertex. An iteration
  grows the working set of every program at its face's solution by the
  most negative multiplier, then solves the face of every program whose
  working set changed, laid out as the enumeration lays out a face, in
  one padded np.linalg.solve; a solution off the simplex moves the
  program's point up to the first weight that reaches zero and drops
  that column. Exact solves make the method finite, and where no two
  faces tie it ends on the bits the enumeration returns.

stacked_maximin forms those programs for a stack of coefficient
matrices and metrics; maximin_point is its stack of one.

The switch sits at G = 6. In us per program at G = 2..8 (p = G, one
BLAS thread, NumPy 2.4, 2-core Xeon VM, best of 3), enumeration against
the loop (0.3 to 3.3 solves a program) took 39/44/50/66/104/203/432
against 68/110/153/181/203/248/286 for a single call, 2.8/5.5/13/29/82/
189/449 against 3.9/10/15/20/25/40/53 for stacks of 32, and 1.7/4.3/11/
29/83/207/528 against 1.1/2.7/4.7/7.6/9.6/13/15 for stacks of 256. A
single call favours enumeration through G = 7, stacks of 32 the loop
from G = 5 and stacks of 256 from G = 2: the loop pays its overhead
once a stack, enumeration its 2^G - 1 faces (p >= G - 1) once a program.
"""

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError
from .geometry import SigmaMetric, matvec, nan_where_singular, symmetric

# Weights above this count as active.
ACTIVITY_THRESHOLD = 1e-6

# Weights this far below zero are treated as boundary, not infeasible.
_FEAS_TOL = 1e-12

# Largest G whose programs stacked_simplex_qp solves by face enumeration.
ENUMERATION_MAX_G = 6


@dataclass(frozen=True)
class MaggingSolution:
    """Maximin point with its convex weights and solver diagnostics.

    active holds the indices g with alpha_g above ACTIVITY_THRESHOLD.
    kkt_residual is measured on the face the solver returned.
    iterations counts the bordered face systems solved: every face's
    when G is at most ENUMERATION_MAX_G, the active-set loop's otherwise.
    """

    M: np.ndarray
    alpha: np.ndarray
    active: tuple
    objective: float
    kkt_residual: float
    iterations: int = 0


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


def capped_error(G):
    """The ConvergenceError of a simplex QP in G weights that hit the cap."""
    return ConvergenceError(f"simplex QP did not converge within {100 * G} iterations")


def _faces(cols, real):
    """Bordered KKT systems of faces, both solvers' one layout: cols
    (S, F, K) lists each face's columns in its first slots, ascending,
    and real marks them. Returns (cslots, scale, base, cscale, rhs),
    read-only: a face's system is base + scale * H[cslots, cslots], its
    right-hand side rhs - cscale * c[cslots], that is 2 H on the face,
    the border last, and on each padded slot an identity row and a zero
    right-hand side (weight 0, whatever finite H the slot reads)."""
    K = cols.shape[-1]
    border = np.zeros(real.shape[:-1] + (1,), dtype=bool)
    inner = np.concatenate([real, border], axis=-1)
    base = np.zeros(inner.shape + (K + 1,))
    base[..., range(K), range(K)] = ~real
    base[..., :, K] = inner
    base[..., K, :] = inner
    rhs = np.zeros(inner.shape + (1,))
    rhs[..., K, 0] = 1.0
    cslots = np.concatenate([np.where(real, cols, 0), border], axis=-1)
    layout = (cslots, 2.0 * (inner[..., :, None] & inner[..., None, :]), base,
              inner.astype(float), rhs)
    for value in layout:
        value.flags.writeable = False
    return layout


@functools.lru_cache(maxsize=None)
def _face_table(G, size):
    """The _faces of every face of at most size columns of G, shared by
    every program of a stack; onehot (F, K, G) maps slot weights onto
    columns and members (F, G) marks each face's columns."""
    faces = [f for k in range(1, size + 1) for f in itertools.combinations(range(G), k)]
    real = np.arange(size) < np.array([len(f) for f in faces])[:, None]
    cols = np.zeros(real.shape, dtype=int)
    cols[real] = [g for f in faces for g in f]
    onehot = (cols[:, :, None] == np.arange(G)) & real[:, :, None]
    members, onehot = onehot.any(axis=1), onehot.astype(float)
    for value in (onehot, members):
        value.flags.writeable = False
    return _faces(cols[None], real[None]), onehot, members


@functools.lru_cache(maxsize=None)
def _working_sets(G):
    """_faces of the working sets {0 .. k}, k < G, one program each; a
    working set of k + 1 columns differs from them in cslots alone."""
    real = np.arange(G) <= np.arange(G)[:, None]
    return _faces(np.broadcast_to(np.arange(G), (G, 1, G)), real[:, None])


def _face_solutions(H, c, faces):
    """The systems kkt (R, F, K + 1, K + 1) of programs H (R, G, G) and
    c (R, G) or None on _faces whose cslots they share, right-hand sides
    rhs with kkt's number of axes (as NumPy 1.x needs), and slot weights
    x (R, F, K) from one np.linalg.solve, NaN where a system is singular."""
    s, scale, base, cscale, rhs = faces
    kkt = base + scale * H[:, s[0, :, :, None], s[0, :, None, :]]
    rhs = rhs if c is None else rhs - (cscale * c[:, s[0]])[..., None]
    return kkt, rhs, nan_where_singular(np.linalg.solve, kkt, rhs)[..., :-1, 0]


def _face_weights(x):
    """Which face solutions x (..., K) are feasible, and their weights:
    clipped at zero and, where feasible, normalised to sum to one."""
    feasible = x.min(axis=-1) >= -_FEAS_TOL
    w = np.clip(x, 0.0, None)
    w /= np.where(feasible, w.sum(axis=-1), 1.0)[..., None]
    return feasible, w


def _lockstep_qp(H, c=None):
    """The module's active-set method on a stack of simplex QPs, each
    working set padded to G slots. A multiplier gap of at most 1e-10 times
    the larger of |trace(H)| / G and max|c| is optimal. A program not
    optimal after 100 G solves, or whose face system is singular (exact
    arithmetic never adds a column on the working set's affine hull),
    gets NaN weights. Returns (gamma, support, solves)."""
    R, G, _ = H.shape
    rows = np.arange(R)
    linear = np.zeros((R, G)) if c is None else c
    tol = 1e-10 * np.maximum(np.abs(np.trace(H, axis1=1, axis2=2)) / G,
                             np.abs(linear).max(axis=1))
    work = np.zeros((R, G), dtype=bool)
    work[rows, np.argmin(np.diagonal(H, axis1=1, axis2=2) + linear, axis=1)] = True
    gamma = work.astype(float)
    at_point, running = np.ones(R, dtype=bool), np.ones(R, dtype=bool)
    optimal, solves = np.zeros(R, dtype=bool), np.zeros(R, dtype=int)
    while True:
        grad = 2.0 * matvec(H, gamma) + linear
        lam = (gamma * grad).sum(axis=1)
        grad[work] = np.inf
        j = np.argmin(grad, axis=1)
        done = running & at_point & (lam - grad[rows, j] <= tol)
        optimal |= done
        running &= ~done & (solves < 100 * G)
        grow = running & at_point
        work[grow, j[grow]] = True
        now = np.flatnonzero(running)
        if not now.size:
            gamma[~optimal] = np.nan
            return gamma, work, solves
        solves += running
        # each program's columns reordered, working columns first and in
        # ascending order: its working set is the face {0 .. k}
        cols = np.argsort(~work[now], axis=1, kind="stable")
        k = work[now].sum(axis=1) - 1
        slots, *layout = _working_sets(G)
        x = _face_solutions(H[now[:, None, None], cols[:, :, None], cols[:, None, :]],
                            None if c is None else c[now[:, None], cols],
                            (slots[-1:], *(a[k] for a in layout)))[2][:, 0]
        feasible, w = _face_weights(x)
        gamma[now[feasible, None], cols[feasible]] = w[feasible]
        at_point[now] = feasible
        if feasible.all():
            continue
        singular = np.isnan(x).any(axis=1)
        running[now[singular]] = False
        # step toward x until the first weight reaches zero, and drop it
        step = ~feasible & ~singular
        now, cols, x = now[step], cols[step], x[step]
        cur = gamma[now[:, None], cols]
        blocking = x < -_FEAS_TOL
        ts = np.where(blocking, cur / np.where(blocking, cur - x, 1.0), np.inf)
        hit = np.argmin(ts, axis=1)
        m = np.arange(now.size)
        moved = np.clip(cur + ts[m, hit][:, None] * (x - cur), 0.0, None)
        moved[m, hit] = 0.0
        gamma[now[:, None], cols] = moved / moved.sum(axis=1)[:, None]
        work[now, cols[m, hit]] = False


def program_bytes(G, p):
    """Bytes of one program's bordered KKT systems in stacked_simplex_qp:
    every face's for G up to ENUMERATION_MAX_G, and 0 above it, where
    the active-set loop holds one (G + 1)^2 system per program."""
    if G > ENUMERATION_MAX_G:
        return 0
    return _face_table(G, min(G, p + 1))[0][2].nbytes  # the systems' base


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
        conditions on; iterations (R,) counts the face systems solved
        for each program: every face's for G <= ENUMERATION_MAX_G, the
        lockstep active-set loop's above it. A program of the loop
        (G > ENUMERATION_MAX_G) that hits its cap of 100 G solves has
        NaN weights; capped_error(G) describes it. Nothing is raised.
    """
    H = np.asarray(H, dtype=float)
    R, G, _ = H.shape
    if c is not None:
        c = np.asarray(c, dtype=float)
    if G > ENUMERATION_MAX_G:
        return _lockstep_qp(H, c)
    faces, onehot, members = _face_table(G, min(G, p + 1))
    kkt, rhs, x = _face_solutions(H, c, faces)
    feasible, w = _face_weights(x)
    K = x.shape[-1]
    half_grad = 0.5 * (kkt[..., :K, :K] @ w[..., None])[..., 0] - rhs[..., :K, 0]
    obj = np.sum(w * half_grad, axis=-1)
    # Vertices always solve to weight 1, so every row keeps a finite entry.
    best = np.argmin(np.where(feasible & np.isfinite(obj), obj, np.inf), axis=1)
    gamma = (w[np.arange(R), best][:, None, :] @ onehot[best])[:, 0, :]
    return gamma, members[best], np.full(R, len(members))


def active_mask(gamma):
    """Which weights of an array count as active (above ACTIVITY_THRESHOLD)."""
    return gamma > ACTIVITY_THRESHOLD


def sigma_gram(B, Sigma):
    """H = B^T Sigma B over leading stack axes, symmetrised: the quadratic
    term of the simplex QP. An overflow leaves H non-finite, silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        return symmetric(B.swapaxes(-1, -2) @ Sigma @ B)


class MaximinStack(NamedTuple):
    """Maximin solutions of a stack of programs, from stacked_maximin."""

    H: np.ndarray
    gamma: np.ndarray
    support: np.ndarray
    iterations: np.ndarray
    M: np.ndarray
    errors: tuple


def stacked_maximin(B, Sigma):
    """Maximin points of a stack of coefficient matrices.

    B (R, p, G) holds each program's columns and Sigma (R, p, p) its
    symmetric positive definite metric (a SigmaMetric's Sigma), or one
    (p, p) metric that every program shares. Returns
    a MaximinStack: H = B^T Sigma B, gamma, support and iterations from
    stacked_simplex_qp, the points M = B gamma (R, p), and errors, per
    program None or the ConvergenceError that refuses it; nothing is
    raised. A program whose H is not finite is left out of the solve,
    with NaN weights, and its error names the first group column g whose
    b_g^T Sigma b_g overflowed (or is not finite, for a non-finite b_g);
    as |H_gh| <= max(H_gg, H_hh), no other entry overflows alone. A
    program the active-set loop leaves unsolved at its cap keeps its NaN
    weights, and its error is capped_error(G).
    """
    B = np.asarray(B, dtype=float)
    R, p, G = B.shape
    H = sigma_gram(B, Sigma)
    errors = [None] * R
    if np.isfinite(H).all():
        gamma, support, iterations = stacked_simplex_qp(H, p)
    else:
        finite = np.isfinite(H).all(axis=(-2, -1))
        gamma, support = np.full((R, G), np.nan), np.zeros((R, G), dtype=bool)
        iterations = np.zeros(R, dtype=int)
        gamma[finite], support[finite], iterations[finite] = stacked_simplex_qp(H[finite], p)
        for r in np.flatnonzero(~finite):
            g = int(np.argmax(~np.isfinite(np.diagonal(H[r]))))
            cause = "overflowed" if np.isfinite(B[r, :, g]).all() else "is not finite"
            errors[r] = ConvergenceError(
                f"B^T Sigma B {cause} in group column {g + 1}; the simplex QP has no finite solution")
    if G > ENUMERATION_MAX_G:  # the active-set loop leaves NaN weights at its cap
        for r in np.flatnonzero(np.isnan(gamma).any(axis=1)):
            errors[r] = errors[r] or capped_error(G)
    return MaximinStack(H, gamma, support, iterations, matvec(B, gamma), tuple(errors))


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
    DimensionError
        If Sigma is not p x p.
    DefinitenessError
        If Sigma fails the symmetry or factorization check.
    ConvergenceError
        The program's error from stacked_maximin: H = B^T Sigma B is not
        finite, or the active-set loop hit its iteration cap.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Sigma = SigmaMetric.ensure(Sigma, B.shape[0]).Sigma
    H, gamma, support, iterations, M, errors = stacked_maximin(B[None], Sigma[None])
    if errors[0] is not None:
        raise errors[0]
    alpha, M = gamma[0], M[0]
    free = [int(g) for g in np.flatnonzero(support[0])]
    res, _, _ = _residual(H[0], np.zeros(B.shape[1]), alpha, free)
    return MaggingSolution(
        M=M,
        alpha=alpha,
        active=tuple(int(g) for g in np.flatnonzero(active_mask(alpha))),
        objective=float(M @ Sigma @ M),
        kkt_residual=float(res),
        iterations=int(iterations[0]),
    )
