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

empirical_C and face_covariance work over leading stack axes;
assemble_W picks the face for one dataset and calls face_covariance on
it.
"""

from dataclasses import dataclass

import numpy as np

from .confidence import chi2_quantile
from .errors import DimensionError
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
        axes.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[-2] < 2:
        raise DimensionError("empirical_C needs at least two rows")
    V = X * matvec(X, np.asarray(M, dtype=float))[..., None]
    V /= np.sqrt(G)
    V -= V.mean(axis=-2, keepdims=True)
    return (V.swapaxes(-1, -2) @ V) / X.shape[-2]


def tied_neighbors(Bhat, active, Sigma, sigma2, n, Sigma_g):
    """Inactive columns the data cannot separate from the active face.

    A column whose squared metric distance to the affine hull of the
    active columns is within the noise of the coefficient estimates
    could have taken part in the maximin combination; the fit has not
    resolved its exclusion. Column h is tied when

        dist_Sigma^2(b_h, face) <= (s_h^2 + max_{g active} s_g^2)
                                   * chi2_p(TIE_PROBE_LEVEL) / p

    where s_g^2 = sigma^2 tr(Sigma Sigma_g^{-1}) / n is the expected
    squared metric error of column g under the fixed design, computed
    from the (G, p, p) per-group design grams ``Sigma_g`` (as fitted,
    ridge included). The bound shrinks like 1/n, so ties vanish for
    separated columns as the sample grows.

    Returns:
        Sorted tuple of tied column indices, disjoint from ``active``.
    """
    metric = SigmaMetric.ensure(Sigma)
    B = np.atleast_2d(np.asarray(Bhat, dtype=float))
    p = B.shape[0]
    n = int(n)
    sigma2 = float(sigma2)
    if n <= 0 or sigma2 <= 0.0:
        return ()
    active = tuple(active)
    face = Face(B[:, list(active)], metric)
    rhs = np.broadcast_to(metric.Sigma, Sigma_g.shape)
    inv_traces = np.trace(np.linalg.solve(Sigma_g, rhs), axis1=1, axis2=2)
    scales = sigma2 * inv_traces / n
    quant = chi2_quantile(p, TIE_PROBE_LEVEL) / p
    s_face = max(scales[g] for g in active)
    R = face.complement @ (B - face.B[:, :1])
    tied = np.einsum("pg,pg->g", R, metric.Sigma @ R) <= (scales + s_face) * quant
    tied[list(active)] = False
    return tuple(int(h) for h in np.flatnonzero(tied))


def assemble_W(estimates, solution, C_hat, Sigma):
    """Assemble the plug-in covariance of sqrt(n) (M_hat - M).

    Args:
        estimates: GroupEstimates from the fit.
        solution: MaggingSolution for the maximin point.
        C_hat: output of empirical_C, or None for the known-covariance
            mode where the metric term vanishes.
        Sigma: metric the solution was computed under, as a matrix or
            a SigmaMetric.

    Returns:
        AsymptoticCovariance. The Jacobians and term_V come from one
        ``Face`` built here, under this metric, on the columns the
        assembly differentiates through. An interior solution uses its
        active columns. A single-column active set has no Jacobian: when
        ``tied_neighbors`` finds columns the data cannot separate from
        the winner, the winner and its ties are treated as jointly
        active and the face is the enlarged one; the near ties carry
        small hull distances into the Jacobians and inflate W along the
        ambiguous directions. A cleanly isolated vertex means the
        estimate equals one group's least squares and W falls back to
        sigma^2 Sigma^{-1} with the vertex_mode flag raised.
    """
    metric = SigmaMetric.ensure(Sigma)
    p = metric.p
    sigma2 = float(estimates.sigma2_hat)
    active = tuple(solution.active)
    known = C_hat is None
    sigma_inv = metric.inverse()
    Bhat = np.atleast_2d(np.asarray(estimates.Bhat, dtype=float))
    vertex = len(active) == 1
    tied = ()
    if vertex:
        tied = tied_neighbors(
            Bhat, active, metric, sigma2, estimates.n, estimates.Sigma_g_hat)
    used = tuple(sorted(set(active).union(tied))) if tied else active
    if len(used) == 1:
        term_B, term_V = sigma2 * sigma_inv, np.zeros((p, p))
        W = symmetric(term_B + term_V)
    else:
        face = Face(Bhat[:, list(used)], metric)
        W, term_B, term_V = face_covariance(face, solution.M, sigma2, sigma_inv, C_hat)
    return AsymptoticCovariance(
        W=W,
        term_B=term_B,
        term_V=term_V,
        active_used=used,
        vertex_mode=vertex,
        known_sigma=known,
    )


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
