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
        d = self.center - np.asarray(M, dtype=float)
        return float(d @ self.precision @ d)

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
    W : AsymptoticCovariance or ndarray
        Plug-in covariance of sqrt(n) (M_hat - M). Flags carried by an
        AsymptoticCovariance propagate onto the region.
    n : int
        Per-group sample size.
    alpha : float
        Miscoverage level in (0, 1).

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
    flags = {}
    W_matrix = W
    if hasattr(W, "W"):
        flags["vertex_mode"] = bool(W.vertex_mode)
        flags["known_sigma"] = bool(W.known_sigma)
        W_matrix = W.W
    W_matrix = np.asarray(W_matrix, dtype=float)
    M_hat = np.asarray(M_hat, dtype=float)
    p = M_hat.shape[0]
    vals, vecs = np.linalg.eigh((W_matrix + W_matrix.T) / 2.0)
    if vals[0] <= 0 or vals[-1] / vals[0] > CONDITION_LIMIT:
        raise ConditioningError(
            "covariance is numerically singular; eigenvalue range"
            f" [{vals[0]:.3e}, {vals[-1]:.3e}]",
            eigenvalues=vals,
        )
    precision = vecs @ np.diag(1.0 / vals) @ vecs.T
    precision = (precision + precision.T) / 2.0
    tau = chi2_quantile(p, 1.0 - alpha)
    order = np.argsort(vals)[::-1]
    return ConfidenceRegion(
        center=M_hat.copy(),
        precision=precision,
        radius2=tau / n,
        level=1.0 - alpha,
        n_used=n,
        p_used=p,
        eigenvalues=vals[order] / n,
        axes=vecs[:, order],
        tau=tau,
        flags=flags,
    )


def contains(region, M):
    """Membership test. Returns (inside, quadratic-form value)."""
    value = region.quadratic_form(M)
    return value <= region.radius2, value


def max_eigenvalue(W):
    """Largest eigenvalue of a covariance (matrix or AsymptoticCovariance)."""
    W_matrix = W.W if hasattr(W, "W") else W
    W_matrix = np.asarray(W_matrix, dtype=float)
    return float(np.linalg.eigvalsh((W_matrix + W_matrix.T) / 2.0)[-1])
