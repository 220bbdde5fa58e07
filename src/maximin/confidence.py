"""Chi-squared quantiles and the ellipsoidal confidence region.

The region for the true maximin effect is

    { M : (M_hat - M)^T W^{-1} (M_hat - M) <= tau / n }

with tau the (1 - alpha) quantile of chi squared with p degrees of
freedom and W the plug-in asymptotic covariance. Quantiles invert the
regularized lower incomplete gamma with SciPy's gammaincinv.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.special

from .errors import ConditioningError
from .geometry import quadratic_form, symmetric

# Refuse to invert W beyond this eigenvalue ratio.
CONDITION_LIMIT = 1e12


def chi2_cdf(dof, x):
    """CDF of chi squared with ``dof`` degrees of freedom at x."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if x <= 0:
        return 0.0
    return float(scipy.special.gammainc(dof / 2.0, x / 2.0))


@functools.lru_cache(maxsize=256)
def chi2_quantile(dof, prob):
    """Value tau with P[chi2_dof <= tau] = prob.

    Pure in (dof, prob), so results are memoised: a coverage run asks
    for the same few quantiles once per replicate.

    Parameters
    ----------
    dof : int
        Degrees of freedom, >= 1.
    prob : float
        Target probability, strictly inside (0, 1).

    Returns
    -------
    float
        Twice the inverse regularized lower incomplete gamma at
        (dof / 2, prob).
    """
    dof = int(dof)
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie strictly inside (0, 1)")
    return 2.0 * float(scipy.special.gammaincinv(dof / 2.0, prob))


@dataclass(frozen=True)
class ConfidenceRegion:
    """Ellipsoid {M : (center - M)^T precision (center - M) <= radius2}.

    eigenvalues and axes describe W / n (the squared-scale geometry of
    the region before the quantile inflation), sorted descending.
    """

    center: np.ndarray
    precision: np.ndarray
    radius2: float
    level: float
    n_used: int
    p_used: int
    eigenvalues: np.ndarray
    axes: np.ndarray
    tau: float
    flags: dict = field(default_factory=dict)

    def semi_axes(self):
        """Lengths of the principal semi-axes, sorted descending."""
        return np.sqrt(self.tau * self.eigenvalues)

    def quadratic_form(self, M):
        return float(quadratic_form(self.precision, self.center - np.asarray(M, dtype=float)))

    def to_dict(self):
        return {
            "schema_version": 1,
            "center": self.center.tolist(),
            "precision": self.precision.tolist(),
            "radius2": self.radius2,
            "tau": self.tau,
            "level": self.level,
            "n": self.n_used,
            "p": self.p_used,
            "eigenvalues_W_over_n": self.eigenvalues.tolist(),
            "axes": self.axes.tolist(),
            "semi_axes": self.semi_axes().tolist(),
            "flags": dict(self.flags),
        }


def build_region(M_hat, W, n, alpha):
    """Construct the confidence ellipsoid around a maximin estimate.

    Parameters
    ----------
    M_hat : ndarray
        Center of the region.
    W : ndarray, shape (p, p)
        Plug-in covariance of sqrt(n) (M_hat - M).
    n : int
        Per-group sample size.
    alpha : float
        Miscoverage level in (0, 1).

    Returns
    -------
    ConfidenceRegion
        With empty flags; pipeline.infer fills them in.

    Raises
    ------
    ConditioningError
        If W has a nonpositive eigenvalue or its eigenvalue ratio
        exceeds CONDITION_LIMIT; the spectrum travels on the error.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    M_hat = np.asarray(M_hat, dtype=float)
    p = M_hat.shape[0]
    vals, vecs, ok = spectrum(W)
    if not ok:
        raise ConditioningError(
            "covariance is numerically singular; eigenvalue range"
            f" [{vals[0]:.3e}, {vals[-1]:.3e}]",
            eigenvalues=vals,
        )
    precision = precision_matrix(vals, vecs)
    tau = chi2_quantile(p, 1.0 - alpha)
    order = np.argsort(vals)[::-1]
    return ConfidenceRegion(
        center=M_hat.copy(),
        precision=precision,
        radius2=region_radius2(p, n, alpha),
        level=1.0 - alpha,
        n_used=n,
        p_used=p,
        eigenvalues=vals[order] / n,
        axes=vecs[:, order],
        tau=tau,
    )


def contains(region, M):
    """Whether M lies in the region (quadratic form at most radius2)."""
    return bool(covers(region.precision, region.center, M, region.radius2))


def region_radius2(p, n, alpha):
    """Squared radius tau / n of the level 1 - alpha region in dimension p."""
    return chi2_quantile(p, 1.0 - alpha) / n


def covers(precision, center, M, radius2):
    """(center - M)^T precision (center - M) <= radius2, over leading stack axes."""
    d = np.asarray(center, dtype=float) - np.asarray(M, dtype=float)
    return quadratic_form(precision, d) <= radius2


def spectrum(W):
    """Eigen-decomposition of the symmetrised W, over leading stack axes.

    Returns (vals, vecs, ok): ascending eigenvalues, eigenvectors as
    columns, and whether each W passes the conditioning test, that is
    has a positive smallest eigenvalue and an eigenvalue ratio of at
    most CONDITION_LIMIT.
    """
    vals, vecs = np.linalg.eigh(symmetric(np.asarray(W, dtype=float)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ill = (vals[..., 0] <= 0) | (vals[..., -1] / vals[..., 0] > CONDITION_LIMIT)
    return vals, vecs, ~ill


def precision_matrix(vals, vecs):
    """W^{-1} from spectrum's output, symmetrised, over leading stack axes."""
    return symmetric((vecs * (1.0 / vals)[..., None, :]) @ vecs.swapaxes(-1, -2))


def max_eigenvalue(W):
    """Largest eigenvalue of a covariance matrix, or of each in a stack."""
    top = np.linalg.eigvalsh(symmetric(np.asarray(W, dtype=float)))[..., -1]
    return float(top) if top.ndim == 0 else top
