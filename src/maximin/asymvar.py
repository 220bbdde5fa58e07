"""Plug-in asymptotic covariance of the scaled maximin estimate.

The covariance of sqrt(n) (M_hat - M) splits into two parts:

* a coefficient-fluctuation term: per-group least-squares noise with
  covariance sigma^2 Sigma^{-1} pushed through the maximin Jacobians
  (``Face.jacobians``), summed over active groups;

* a metric-fluctuation term V: the pooled covariance estimate wiggles
  by a fourth-moment CLT, and the maximin point responds through the
  metric differential (``Face.dsigma``). V compresses to a sandwich of
  the empirical covariance C of the vectors (1/sqrt(G)) x_k (x_k . M)
  between hull projectors (``Face.term_V``), so the fourth-moment tensor
  never has to be materialized.

When the design covariance is known exactly (so nothing is plugged in
for it), V is identically zero and only the first term remains.

empirical_C and face_covariance work over leading stack axes.
covariance_stack picks the face W differentiates through, for a stack
of datasets; assemble_W is its stack of one.
"""

from dataclasses import dataclass

import numpy as np

from .confidence import chi2_quantile
from .errors import DegenerateGeometryError, DimensionError, RankError
from .geometry import Face, SigmaMetric, matvec, symmetric

# Probe level for the vertex tie test below. This classifies columns as
# statistically indistinguishable; it is not a user-facing inference level.
TIE_PROBE_LEVEL = 0.95


@dataclass(frozen=True)
class AsymptoticCovariance:
    """W, its two summands, the columns differentiated through and the mode flags."""

    W: np.ndarray
    term_B: np.ndarray
    term_V: np.ndarray
    active_used: tuple
    vertex_mode: bool = False
    known_sigma: bool = False


def empirical_C(X, M, G):
    """Empirical covariance of the scaled quadratic-form vectors.

    Args:
        X: stacked design rows, shape (nG, p), or a (..., nG, p) stack.
        M: the maximin point the forms are taken against, (p,) or
            (..., p) to match X.
        G: number of groups (sets the 1/sqrt(G) scaling).

    Returns:
        The p x p sample covariance (divisor nG) of the vectors
        (1/sqrt(G)) x_k (x_k . M) over all rows x_k, with X's leading
        axes; zero for a single row.

    With w = X M, the forms are the rows of X * w and their mean is
    X^T w / N, so they are centred against one matrix-vector product and
    the 1/G goes into the one Gram's divisor N G. The centring stays: the
    uncentred Gram minus the outer product of the mean cancels
    catastrophically on designs far from the origin.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    N = X.shape[-2]
    if N < 1:
        raise DimensionError("empirical_C needs at least one row")
    w = matvec(X, np.asarray(M, dtype=float))
    V = X * w[..., None]
    V -= matvec(X.swapaxes(-1, -2), w)[..., None, :] / N
    return (V.swapaxes(-1, -2) @ V) / (N * G)


def _tie_mask(B, active, metric, sigma2, n, Sigma_g):
    """The (R, G) inactive columns the data cannot separate from the
    single active column w, over R stacked vertex solutions shaped as
    for covariance_stack.

    A column whose squared metric distance to b_w is within the noise
    of the coefficient estimates could have taken part in the maximin
    combination; the fit has not resolved its exclusion. Column h is
    tied when

        |b_h - b_w|_Sigma^2 <= (s_h^2 + s_w^2) * chi2_p(TIE_PROBE_LEVEL) / p

    where s_g^2 = sigma^2 tr(Sigma Sigma_g^{-1}) / n is the expected
    squared metric error of column g under the fixed design, computed
    from the (G, p, p) per-group design grams ``Sigma_g`` (as fitted,
    ridge included). The bound shrinks like 1/n, so ties vanish for
    separated columns as the sample grows; nothing is tied when n or
    sigma^2 is not positive.
    """
    p = B.shape[1]
    if n <= 0:
        return np.zeros_like(active)
    w = np.argmax(active, axis=1)[:, None]
    rhs = np.broadcast_to(metric.Sigma[:, None], Sigma_g.shape)
    inv_traces = np.trace(np.linalg.solve(Sigma_g, rhs), axis1=-2, axis2=-1)
    scales = sigma2[:, None] * inv_traces / n
    quant = chi2_quantile(p, TIE_PROBE_LEVEL) / p
    D = B - np.take_along_axis(B, w[:, None], axis=2)
    dist2 = np.einsum("...pg,...pg->...g", D, metric.Sigma @ D)
    bound = (scales + np.take_along_axis(scales, w, axis=1)) * quant
    return (dist2 <= bound) & ~active & (sigma2 > 0.0)[:, None]


def covariance_stack(Bhat, active, M, metric, sigma2, n, Sigma_g, C_hat):
    """Plug-in covariances of sqrt(n) (M_hat - M) for R solved datasets.

    The one place that picks the columns W differentiates through. An
    interior solution uses its active columns. When _tie_mask finds
    columns the data cannot separate from a single active column, the
    winner and its ties form the face, and their small hull distances
    inflate W along the ambiguous directions. A cleanly isolated vertex
    is a face of one column, one group's least squares: its Jacobian is
    the identity and its term_V vanishes, so W is sigma^2 Sigma^{-1}.
    Faces of equal size share one stacked ``Face`` and face_covariance,
    which leave the refused faces NaN.

    Bhat (R, p, G), active (R, G) and M (R, p) describe the solutions,
    metric is the (R, p, p) SigmaMetric stack of their solve, Sigma_g
    (R, G, p, p) holds the per-group grams (read on vertex rows only)
    and C_hat (R, p, p) comes from empirical_C, or is None under a known
    metric, where term_V vanishes. Returns (W, term_B, term_V, used,
    vertex, errors): W and its terms, NaN where a row failed; the used
    columns (R, G); the single-column rows (R,); and per row None, a
    DegenerateGeometryError naming, as a 1-based group column, the
    face's first column on the others' hull (Face.degenerate), or else,
    when C_hat is given, a RankError for rank-deficient differences.
    """
    R, p, _ = Bhat.shape
    vertex = active.sum(axis=1) == 1
    used = active.copy()
    rows = np.flatnonzero(vertex)
    if rows.size:
        used[rows] |= _tie_mask(Bhat[rows], active[rows], metric[rows],
                                sigma2[rows], n, Sigma_g[rows])
    W, term_B, term_V = (np.full((R, p, p), np.nan) for _ in range(3))
    errors = [None] * R
    k = used.sum(axis=1)
    for size in np.unique(k):
        pick = np.flatnonzero(k == size)
        cols = np.nonzero(used[pick])[1].reshape(pick.size, size)
        face = Face(np.take_along_axis(Bhat[pick], cols[:, None, :], axis=2), metric[pick])
        bad = face.degenerate.any(axis=1)
        rank = ~bad & ~face.full_rank & (C_hat is not None)
        first = np.argmax(face.degenerate, axis=1)
        for i in np.flatnonzero(bad):
            errors[pick[i]] = DegenerateGeometryError(
                f"group column {cols[i, first[i]] + 1} lies in the affine hull of the"
                " other used columns")
        for i in np.flatnonzero(rank):
            errors[pick[i]] = RankError("active-column differences are rank deficient")
        ok = ~(bad | rank)
        results = face_covariance(face, M[pick], sigma2[pick], face.metric.inverse(),
                                  None if C_hat is None else C_hat[pick])
        W[pick[ok]], term_B[pick[ok]], term_V[pick[ok]] = (a[ok] for a in results)
    return W, term_B, term_V, used, vertex, tuple(errors)


def assemble_W(estimates, solution, C_hat, Sigma):
    """AsymptoticCovariance of one dataset: covariance_stack on a stack of one.

    estimates and solution come from the fit and the QP, C_hat from
    empirical_C (None under a known metric), and Sigma is the metric,
    matrix or SigmaMetric, of the solve. The row's failure is raised;
    vertex_mode marks a single-column active set.
    """
    metric = SigmaMetric.ensure(Sigma)
    Bhat = np.atleast_2d(np.asarray(estimates.Bhat, dtype=float))
    active = np.isin(np.arange(Bhat.shape[1]), solution.active)
    W, term_B, term_V, used, vertex, errors = covariance_stack(
        Bhat[None], active[None], np.asarray(solution.M, dtype=float)[None],
        metric[None], np.array([float(estimates.sigma2_hat)]), estimates.n,
        np.asarray(estimates.Sigma_g_hat)[None],
        None if C_hat is None else np.asarray(C_hat, dtype=float)[None])
    if errors[0] is not None:
        raise errors[0]
    return AsymptoticCovariance(
        W=W[0], term_B=term_B[0], term_V=term_V[0],
        active_used=tuple(int(g) for g in np.flatnonzero(used[0])),
        vertex_mode=bool(vertex[0]), known_sigma=C_hat is None)


def face_covariance(face, M, sigma2, sigma_inv, C_hat):
    """(W, term_B, term_V) of the maximin point M differentiated on a face.

    term_B = sigma2 sum_g J_g Sigma^{-1} J_g^T over the face's Jacobians
    and term_V = face.term_V(C_hat), zero when C_hat is None. Works over
    a stack of faces: M (..., p), sigma2 (...), sigma_inv and C_hat
    (..., p, p), with the face's leading axes.
    """
    J = face.jacobians(M)
    sigma2 = np.asarray(sigma2, dtype=float)[..., None, None]
    term_B = symmetric(
        sigma2 * np.einsum("...gij,...glj->...il", J @ sigma_inv[..., None, :, :], J))
    term_V = np.zeros_like(term_B) if C_hat is None else face.term_V(C_hat)
    return symmetric(term_B + term_V), term_B, term_V
