"""Maximin aggregation: the minimum Sigma-norm point of a convex hull.

Given per-group coefficient vectors B = (b_1 .. b_G) and a positive
definite Sigma, the maximin point is argmin over the convex hull of the
columns of b^T Sigma b. In weight space that is the simplex-constrained
quadratic program

    minimize  a^T H a + c^T a,  H = B^T Sigma B,  over  a >= 0, sum(a) = 1,

with c = 0 for the maximin point and c = -2 B^T Sigma m for the Sigma-
distance from m to the hull. stacked_simplex_qp solves a stack of such
programs by one primal active-set method (Wolfe's minimum-norm-point
method, written in weight space), run over the whole stack in lockstep.
Each program starts at its best vertex. A face is a boolean mask of the
working columns, kept in column order. An iteration grows the working
set of every program at its face's solution by the most negative
multiplier, then solves the face of every program whose working set
changed: the face's equality-constrained KKT system over all G columns,
with an identity row for each column off the face and bordered by the
sum-to-one row, all of them in one batched solve. A solution off the
simplex moves the program's point up to the first weight that reaches
zero and drops that column. Exact
solves make the method finite, and a program's bits do not depend on the
stack it is solved in.

On the loop's first pass, the programs not optimal at their best vertex
try their full face, the all-True mask, in one batched solve. A face's
solution depends only on the face, so a program whose full face the loop
would reach takes its weights from this trial and skips the G - 1 growth
solves from its vertex: interior programs take one face solve. The trial
accepts a feasible solution whose every column passes the loop's growth
test at the face without it (_full_face); every other program goes on
from its best vertex, as without the trial. When G > p + 1 the full face
is singular in exact arithmetic (H has rank at most p): some column lies
on the others' affine hull, its gap is of rounding size, and the trial
refuses the face as the loop would never grow it.

stacked_maximin forms those programs for a stack of coefficient
matrices and metrics; maximin_point is its stack of one.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError
from .geometry import Face, SigmaMetric, matvec, stacked_linalg, symmetric

# Weights above this count as active.
ACTIVITY_THRESHOLD = 1e-6

# Weights this far below zero are treated as boundary, not infeasible.
_FEAS_TOL = 1e-12


@dataclass(frozen=True)
class MaggingSolution:
    """Maximin point with its convex weights and solver diagnostics.

    active holds the indices g with alpha_g above ACTIVITY_THRESHOLD.
    kkt_residual is measured on the face the solver returned.
    iterations counts the bordered face systems solved for the program:
    the full-face trial's, when it takes one, then the active-set loop's.
    An interior program the trial accepts reports 1, a program optimal
    at its best vertex 0. unique_weights says whether the active columns
    are affinely independent under the solve's metric (Face.full_rank)
    and every column off the solver's working set has a multiplier gap
    grad_j - lam above the QP's tolerance, 1e-10 |trace H| / G: only
    then are the weights, not just M, unique. A zero gap puts the column
    on the supporting hyperplane <x, M>_Sigma = |M|^2_Sigma, where it
    can take weight from the active columns.
    """

    M: np.ndarray
    alpha: np.ndarray
    active: tuple
    objective: float
    kkt_residual: float
    unique_weights: bool
    iterations: int = 0


def _multipliers(H, gamma, linear):
    """The gradient 2 H gamma + linear (R, G) of a stack of programs at
    weights gamma, and the multiplier lam = gamma^T grad (R,) of the
    sum-to-one row. Column j's multiplier gap is grad_j - lam: the loop
    stops when no column off the working set has a gap below -tol, and
    maximin_point's KKT certificate reads the same gaps."""
    grad = 2.0 * matvec(H, gamma) + linear
    return grad, (gamma * grad).sum(axis=1)


def capped_error(G):
    """The ConvergenceError of a simplex QP in G weights that hit the cap."""
    return ConvergenceError(f"simplex QP did not converge within {100 * G} iterations")


def _face_systems(H, c, face):
    """The bordered KKT systems (kkt, rhs) of programs H (R, G, G) and
    c (R, G) or None on the faces of a mask face, (R, G) or one (1, G)
    mask for the whole stack. Each system is in column order over G + 1
    slots with the border last: 2 H where both columns are on the face
    (formed without an overflow warning), an identity row and a zero
    right-hand side for each column off it (weight 0, whatever finite H
    the column reads), a border equal to the mask, and the right-hand
    side [-c on the face; 1] as a (..., G + 1, 1) column."""
    G = H.shape[-1]
    columns = np.arange(G)
    inner = np.zeros((len(face), G + 1))  # the mask, with the border slot off
    inner[:, :G] = face
    base = np.zeros(inner.shape + (G + 1,))
    base[:, :, G] = base[:, G] = inner
    base[:, columns, columns] = ~face
    slots = np.append(columns, 0)  # the border reads column 0; inner zeroes it
    kkt = H[:, slots[:, None], slots]
    with np.errstate(over="ignore"):
        kkt *= 2.0 * inner[:, :, None] * inner[:, None, :]
    kkt += base
    rhs = np.zeros((len(face), G + 1, 1))
    rhs[:, G] = 1.0
    if c is not None:
        rhs = rhs - (inner * c[:, slots])[..., None]
    return kkt, rhs


def _face_solutions(H, c, face):
    """Weights x (R, G) of the _face_systems of H, c and face: one
    stacked_linalg solve, NaN where a system is singular."""
    kkt, rhs = _face_systems(H, c, face)
    return stacked_linalg("solve", kkt, rhs)[:, :-1, 0]


def _clipped(x):
    """Which face solutions x (R, G) are feasible, and their weights
    clipped at zero and, on the feasible rows, scaled to sum to one."""
    feasible = x.min(axis=1) >= -_FEAS_TOL
    w = np.clip(x, 0.0, None)
    w /= np.where(feasible, w.sum(axis=1), 1.0)[:, None]
    return feasible, w


def _full_face(H, c, tol):
    """The trial: every program's full face, the all-True mask of its G
    columns, in one _face_solutions call. Returns which programs accept
    it, and the weights the loop would read from it.

    A program accepts a feasible solution x whose every column j passes
    the loop's growth test at the face without j. From that face's
    solution the multiplier gap of column j is x_j / (K^{-1})_jj =
    2 |u_j|^2 x_j, K the full face's bordered system and |u_j| the
    H-distance of column j from the other columns' affine hull (the
    geometry module's leave-one-out residual), so the loop, standing
    there, would grow j and solve this face. As |u_j|^2 is at least
    H's smallest eigenvalue, a positive Gershgorin bound g on it passes
    every gap above 2 g x_j at once; the other feasible programs read
    their gaps from K^{-1}, whose stacked_linalg inverse costs twice the
    solve. A singular face comes back NaN from either stacked_linalg
    call, and one that is singular up to rounding (a column on the
    others' affine hull, as some are whenever G > p + 1) has gaps of
    rounding size, so neither is accepted. A face whose system
    overflows (2 H_gg beyond the largest float, on a face the loop may
    never form) gives that column no weight, or NaN, and is refused too.
    """
    full = np.ones((1, H.shape[-1]), dtype=bool)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        accept, w = _clipped(_face_solutions(H, c, full))
        gershgorin = (2.0 * np.diagonal(H, 0, 1, 2) - np.abs(H).sum(axis=2)).min(axis=1)
        doubt = accept & ~(2.0 * gershgorin * w.min(axis=1) > tol)
        if doubt.any():
            kkt, _ = _face_systems(H[doubt], None, full)
            inverse = stacked_linalg("inv", kkt)
            gaps = w[doubt] / np.diagonal(inverse, 0, 1, 2)[:, :-1]
            accept[doubt] = (gaps > tol[doubt, None]).all(axis=1)
    return accept, w


def _gap_tolerance(H, linear):
    """The multiplier gap (R,) at or below which stacked_simplex_qp calls
    a program (H, linear) optimal: 1e-10 times the larger of
    |trace(H_r)| / G and max|linear_r|. The trace is summed at scale 2^-e
    (2^e > G) so that the sum of finite diagonals cannot overflow; bit for
    bit trace / G otherwise."""
    G = H.shape[-1]
    e = G.bit_length()
    mean_diag = np.ldexp(np.ldexp(np.diagonal(H, 0, 1, 2), -e).sum(axis=1) / G, e)
    return 1e-10 * np.maximum(np.abs(mean_diag), np.abs(linear).max(axis=1))


def stacked_simplex_qp(H, c=None):
    """Solve a stack of simplex QPs  min a^T H_r a + c_r^T a  over the simplex
    by the module's full-face trial and active-set method, in lockstep.

    Parameters
    ----------
    H : ndarray, shape (R, G, G)
        Symmetric positive semidefinite, H_r = B_r^T Sigma B_r.
    c : ndarray, shape (R, G), optional
        Linear terms; zero by default.

    Returns
    -------
    (gamma, support, iterations)
        gamma (R, G) optimal weights; support (R, G) is the mask, in
        column order, of the face each solution was read from, the set
        maximin_point's KKT certificate measures; iterations (R,) counts
        each program's face solves, the trial's included: 0 for a
        program optimal at its best vertex, 1 for one the trial accepts,
        1 plus the loop's solves for one it refuses. A multiplier gap of
        at most 1e-10 times the larger of |trace(H_r)| / G and max|c_r|
        is optimal. A program not optimal after 100 G loop solves (the
        trial's is not counted), or whose face system is singular (exact
        arithmetic never adds a column on the working set's affine hull)
        or overflows (2 H_gg beyond the largest float), has NaN weights;
        capped_error(G) describes it. Nothing is raised.
    """
    H = np.asarray(H, dtype=float)
    R, G, _ = H.shape
    if c is not None:
        c = np.asarray(c, dtype=float)
    rows = np.arange(R)
    linear = np.zeros((R, G)) if c is None else c
    tol = _gap_tolerance(H, linear)
    work = np.zeros((R, G), dtype=bool)
    work[rows, np.argmin(np.diagonal(H, axis1=1, axis2=2) + linear, axis=1)] = True
    gamma = work.astype(float)
    at_point, running = np.ones(R, dtype=bool), np.ones(R, dtype=bool)
    optimal, solves = np.zeros(R, dtype=bool), np.zeros(R, dtype=int)
    trial, trials = True, np.zeros(R, dtype=int)
    while True:
        grad, lam = _multipliers(H, gamma, linear)
        grad[work] = np.inf
        j = np.argmin(grad, axis=1)
        done = running & at_point & (lam - grad[rows, j] <= tol)
        optimal |= done
        running &= ~done & (solves < 100 * G)
        if trial and running.any():
            # first pass only: the programs not optimal at their best
            # vertex try their full face
            trial, tried = False, np.flatnonzero(running)
            full, w = _full_face(H[tried], None if c is None else c[tried], tol[tried])
            trials[tried] = 1
            tried = tried[full]
            work[tried], gamma[tried] = True, w[full]
            optimal[tried], running[tried] = True, False
        grow = running & at_point
        work[grow, j[grow]] = True
        now = np.flatnonzero(running)
        if not now.size:
            gamma[~optimal] = np.nan
            return gamma, work, solves + trials
        solves += running
        x = _face_solutions(H[now], None if c is None else c[now], work[now])
        feasible, w = _clipped(x)
        gamma[now[feasible]] = w[feasible]
        at_point[now] = feasible
        if feasible.all():
            continue
        singular = np.isnan(x).any(axis=1)
        running[now[singular]] = False
        # step toward x until the first weight reaches zero, and drop it
        step = ~feasible & ~singular
        now, x = now[step], x[step]
        cur = gamma[now]
        blocking = x < -_FEAS_TOL
        ts = np.where(blocking, cur / np.where(blocking, cur - x, 1.0), np.inf)
        hit = np.argmin(ts, axis=1)
        m = np.arange(now.size)
        moved = np.clip(cur + ts[m, hit][:, None] * (x - cur), 0.0, None)
        moved[m, hit] = 0.0
        gamma[now] = moved / moved.sum(axis=1)[:, None]
        work[now, hit] = False


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
    program the active-set loop leaves unsolved keeps its NaN weights,
    and its error is capped_error(G).
    """
    B = np.asarray(B, dtype=float)
    R, _, G = B.shape
    H = sigma_gram(B, Sigma)
    errors = [None] * R
    if np.isfinite(H).all():
        gamma, support, iterations = stacked_simplex_qp(H)
    else:
        finite = np.isfinite(H).all(axis=(-2, -1))
        gamma, support = np.full((R, G), np.nan), np.zeros((R, G), dtype=bool)
        iterations = np.zeros(R, dtype=int)
        gamma[finite], support[finite], iterations[finite] = stacked_simplex_qp(H[finite])
        for r in np.flatnonzero(~finite):
            g = int(np.argmax(~np.isfinite(np.diagonal(H[r]))))
            cause = "overflowed" if np.isfinite(B[r, :, g]).all() else "is not finite"
            errors[r] = ConvergenceError(
                f"B^T Sigma B {cause} in group column {g + 1}; the simplex QP has no finite solution")
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
    metric = SigmaMetric.ensure(Sigma, B.shape[0])
    H, gamma, support, iterations, M, errors = stacked_maximin(B[None], metric.Sigma[None])
    if errors[0] is not None:
        raise errors[0]
    alpha, M = gamma[0], M[0]
    linear = np.zeros((1, B.shape[1]))
    grad, lam = _multipliers(H, gamma, linear)
    gaps = grad - lam[:, None]
    # the multiplier spread on the support and the violation off it; an
    # off-support column within tolerance of the supporting hyperplane
    # gives M a second weight vector
    res = np.where(support, np.abs(gaps), -gaps).max(axis=1, initial=0.0)
    clear = (support | (gaps > _gap_tolerance(H, linear)[:, None])).all(axis=1)
    active = tuple(int(g) for g in np.flatnonzero(active_mask(alpha)))
    return MaggingSolution(
        M=M,
        alpha=alpha,
        active=active,
        objective=float(M @ metric.Sigma @ M),
        kkt_residual=float(res[0]),
        unique_weights=bool(clear[0] and Face(B[:, list(active)], metric).full_rank),
        iterations=int(iterations[0]),
    )
