"""Chi-squared quantiles and the ellipsoidal confidence region.

The region for the true maximin effect is

    { M : (M_hat - M)^T W^{-1} (M_hat - M) <= tau / n }

with tau the (1 - alpha) quantile of chi squared with p degrees of
freedom and W the plug-in asymptotic covariance. The chi-squared CDF is
the regularized lower incomplete gamma P(dof / 2, x / 2), evaluated here
with the standard library's math module alone: a power series below
x / 2 = dof / 2 + 1 and a continued fraction for the upper tail above
it (the error function for one degree of freedom). Quantiles invert the
smaller tail by Newton steps on its logarithm, kept inside a bisection
bracket.
"""

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError
from .geometry import quadratic_form, symmetric

# The schema version of every JSON payload: the region's, the grid's, the CLI's.
SCHEMA_VERSION = 1


def json_text(payload):
    """payload as indented, key-sorted strict JSON: a non-finite float
    is written as null. The one writer of every JSON payload."""
    return json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


# Refuse to invert W beyond this eigenvalue ratio.
CONDITION_LIMIT = 1e12

# The series and the continued fraction stop once a term moves the sum
# by at most this fraction.
_EPS = 2.0 ** -52

# Bernoulli coefficients B_2k / (2k (2k - 1)) of Stirling's series for
# ln Gamma(a) - ((a - 1/2) ln a - a + ln(2 pi) / 2); from a = 15 on, the
# first omitted term is below 1e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_STIRLING_MIN_A = 15.0


def _stirling_correction(a):
    """ln Gamma(a) - ((a - 1/2) ln a - a + ln(2 pi) / 2), without the
    cancellation of its large terms."""
    if a >= _STIRLING_MIN_A:
        r = 1.0 / (a * a)
        return functools.reduce(lambda acc, c: c + r * acc, reversed(_STIRLING)) / a
    stirling = math.pow(a, a - 0.5) * math.exp(-a) * math.sqrt(2.0 * math.pi)
    return math.log(math.gamma(a) / stirling)


def _log_scale(a, x):
    """ln(x^a e^-x / Gamma(a)), for x > 0.

    Written as a (ln(1 + t) - t) + ln(a / (2 pi)) / 2 - the Stirling
    correction, t = (x - a) / a, so its terms stay of the size of the
    result: a ln x - x - ln Gamma(a) would lose about ten digits to
    cancellation at a = 5000. ln(1 + t) - t is its series for |t| < 1/2.
    """
    d = x - a
    if abs(d) < 0.5 * a:
        t = d / a
        power, core, k = t * t, -0.5 * t * t, 2
        while True:
            k += 1
            power *= -t
            core -= power / k
            if abs(power) <= _EPS * k * abs(core):
                break
        core *= a
    else:
        core = a * math.log(x / a) - d
    return core + 0.5 * math.log(a / (2.0 * math.pi)) - _stirling_correction(a)


def _gamma_tails(a, x):
    """(P, Q, s): the regularized lower and upper incomplete gamma at
    (a, x > 0) and s = x^a e^-x / Gamma(a), x times their density.

    Below x = a + 1 the series of P (Numerical Recipes' gser), above it
    the continued fraction of Q (gcf), and erf and erfc for a = 1/2; the
    tail computed is accurate relative to itself, the other is 1 minus it.
    """
    s = math.exp(_log_scale(a, x))
    if a == 0.5:  # chi squared on one degree of freedom: a squared normal
        r = math.sqrt(x)
        return math.erf(r), math.erfc(r), s
    if x < a + 1.0:
        term = total = 1.0 / a
        k = a
        while term > _EPS * total:
            k += 1.0
            term *= x / k
            total += term
        lower = s * total
        return lower, 1.0 - lower, s
    # Lentz's method finds the depth n at which the continued fraction of
    # Q stops moving; its terms then shrink about geometrically, so the
    # approximant of depth 2n, summed from the bottom, is converged to
    # rounding, which Lentz's running product is not near x = a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    depth = 0
    while True:
        depth += 1
        an = -depth * (depth - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        if abs(d * c - 1.0) <= _EPS:
            break
    f = x + 1.0 - a + 4.0 * depth
    for i in range(2 * depth, 0, -1):
        f = (x - 1.0 - a + 2.0 * i) - i * (i - a) / f
    h = 1.0 / f
    upper = s * h
    return 1.0 - upper, upper, s


def chi2_cdf(dof, x):
    """CDF of chi squared with ``dof`` degrees of freedom at x."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if x <= 0:
        return 0.0
    if not x < math.inf:
        return 1.0 if x == math.inf else math.nan
    return _gamma_tails(dof / 2.0, x / 2.0)[0]


def _initial_guess(a, prob):
    """A starting x for P(a, x) = prob: Wilson and Hilferty's cube with
    the normal quantile of Abramowitz and Stegun 26.2.23 (error < 5e-4),
    or, for a root far below a + 1, that of the series' first term."""
    if prob <= 0.5:
        first_term = math.exp((math.log(prob) + math.lgamma(a + 1.0)) / a)
        if first_term < 0.1 * (a + 1.0):
            return first_term
    t = math.sqrt(-2.0 * math.log(min(prob, 1.0 - prob)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    z = z if prob > 0.5 else -z
    return a * max(1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a)), 0.01) ** 3


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
        Twice the root x of P(dof / 2, x) = prob, found on the smaller
        tail: P itself for prob <= 1/2, else Q(dof / 2, x) = 1 - prob,
        which is exact there. Where rounding leaves no exact root, x is
        the first double at which the computed CDF reaches prob.
    """
    dof = int(dof)
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie strictly inside (0, 1)")
    a, upper = dof / 2.0, prob > 0.5
    target = 1.0 - prob if upper else prob
    x, lo, hi = _initial_guess(a, prob), 0.0, math.inf
    for _ in range(200):
        tails = _gamma_tails(a, x)
        tail = tails[upper]
        if tail == target:
            return 2.0 * x
        below = (tail < target) != upper
        if below:
            lo = x
        else:
            hi = x
        if math.nextafter(lo, math.inf) >= hi:
            return 2.0 * hi  # the first double at which the CDF reaches prob
        # Newton on ln(tail): d ln P / dx = s / (x P), d ln Q / dx = -s / (x Q)
        if tail > 0.0 and tails[2] > 0.0:
            step = math.log(tail / target) * x * tail / tails[2]
            new = x + step if upper else x - step
            if new == x:  # below rounding: one ulp towards the root
                new = math.nextafter(x, math.inf if below else 0.0)
        else:
            new = math.nan  # underflowed: bisect
        if not lo < new < hi:  # bisect, geometrically once both ends are positive
            new = 2.0 * lo if hi == math.inf else (math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi)
        x = new
    raise ArithmeticError(f"chi2_quantile({dof}, {prob}) did not converge")


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

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
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
        With empty flags; pipeline.analyze_dataset fills them in.

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
    is finite, has a positive smallest eigenvalue and an eigenvalue
    ratio of at most CONDITION_LIMIT. A W with an inf or NaN entry
    fails it with NaN eigenvalues.
    """
    W = np.asarray(W, dtype=float)
    finite = np.isfinite(W).all(axis=(-2, -1))
    vals, vecs = np.linalg.eigh(symmetric(np.where(finite[..., None, None], W, 0.0)))
    vals[~finite] = np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        ill = (vals[..., 0] <= 0) | (vals[..., -1] / vals[..., 0] > CONDITION_LIMIT)
    return vals, vecs, finite & ~ill


def precision_matrix(vals, vecs):
    """W^{-1} from spectrum's output, symmetrised, over leading stack axes."""
    return symmetric((vecs * (1.0 / vals)[..., None, :]) @ vecs.swapaxes(-1, -2))


def max_eigenvalue(W):
    """Largest eigenvalue of a covariance matrix, or of each in a stack."""
    top = np.linalg.eigvalsh(symmetric(np.asarray(W, dtype=float)))[..., -1]
    return float(top) if top.ndim == 0 else top
