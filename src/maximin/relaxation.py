"""Conservative covering-based confidence region for a known metric.

The maximin functional is Lipschitz in the group coefficients: moving
every column of B by at most eps in Sigma-norm moves the Sigma-norm of
the maximin point by at most eps. That single inequality turns any
joint confidence set for the coefficients into a conservative region
for the maximin effect:

1. a per-group ellipsoidal box at level 1 - alpha/G each, so the joint
   event covers B with probability at least 1 - alpha (union bound);
2. an axis-aligned lattice whose cells cover the boxes, each cell
   center B_k within eps of every point of its cell in max-column
   Sigma-norm;
3. the region is the union over centers of a norm shell around
   |M(B_k)| intersected with the eps-inflated hull of B_k's columns.

Whenever the truth lands inside its boxes, some center is eps-close to
it and the true maximin point satisfies that center's shell and hull
conditions, so validity is inherited from the boxes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .confidence import chi2_quantile
from .errors import BudgetError
from .geometry import SigmaMetric
from .magging import maximin_point, stacked_simplex_qp

# Most lattice centers covering_region builds before raising BudgetError.
BUDGET = 10**6

_SLACK = 1e-9

# Shell-passing pieces per stacked hull-distance solve in contains_relaxed.
# Larger chunks amortise the per-solve overhead but waste the tail of a
# chunk after an early hit; at G = 6 a chunk holds 64 x 63 bordered 7 x 7
# systems, about 1.6 MB.
_CHUNK = 64


def maximin_norm_gap(B, B_prime, Sigma0):
    """Gap in maximin norms against the column-shift bound.

    Returns (gap, bound) with gap = | |M(B')| - |M(B)| | and bound the
    largest Sigma0-norm column difference. The gap never exceeds the
    bound (up to solver slack); callers rely on that inequality.
    """
    metric = SigmaMetric.ensure(Sigma0)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Bp = np.atleast_2d(np.asarray(B_prime, dtype=float))
    norm = metric.norm(maximin_point(B, metric).M)
    norm_p = metric.norm(maximin_point(Bp, metric).M)
    bound = max(metric.norm(Bp[:, g] - B[:, g]) for g in range(B.shape[1]))
    return abs(norm_p - norm), bound


@dataclass(frozen=True)
class GroupBoxes:
    """Per-group confidence ellipsoids with their bounding boxes.

    The box for group g is {b : (bhat_g - b)^T S_g (bhat_g - b) /
    sigma2 <= threshold} with S_g the raw design scatter X_g^T X_g.
    halfwidths[:, g] are the axis-aligned half-extents enclosing it.
    """

    centers: np.ndarray
    scatters: tuple
    sigma2: float
    threshold: float
    level_per_box: float
    alpha: float
    n: int
    halfwidths: np.ndarray

    @property
    def p(self):
        return self.centers.shape[0]

    @property
    def G(self):
        return self.centers.shape[1]

    def contains_truth(self, B0):
        """Whether every column of B0 lies in its group's ellipsoid."""
        B0 = np.atleast_2d(np.asarray(B0, dtype=float))
        for g in range(self.G):
            d = self.centers[:, g] - B0[:, g]
            if float(d @ self.scatters[g] @ d) / self.sigma2 > self.threshold:
                return False
        return True


def group_confidence_boxes(estimates, alpha):
    """Joint per-group coefficient region at overall level 1 - alpha.

    Splits the miscoverage evenly: each group's ellipsoid has level
    1 - alpha/G, so the intersection covers the full coefficient matrix
    with probability at least 1 - alpha by the union bound.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    p, G, n = estimates.p, estimates.G, estimates.n
    jitter = estimates.ridge_jitter_used
    scatters = tuple(
        n * (S - jitter * np.eye(p)) for S in estimates.Sigma_g_hat
    )
    threshold = chi2_quantile(p, 1.0 - alpha / G)
    sigma2 = float(estimates.sigma2_hat)
    halfwidths = np.empty((p, G))
    for g, S in enumerate(scatters):
        inv = np.linalg.inv(S)
        halfwidths[:, g] = np.sqrt(threshold * sigma2 * np.diag(inv))
    return GroupBoxes(
        centers=estimates.Bhat.copy(),
        scatters=scatters,
        sigma2=sigma2,
        threshold=threshold,
        level_per_box=1.0 - alpha / G,
        alpha=alpha,
        n=n,
        halfwidths=halfwidths,
    )


@dataclass(frozen=True)
class CoveringRegion:
    """Union of shell-and-hull pieces indexed by lattice centers."""

    centers: np.ndarray
    radii: np.ndarray
    shells: np.ndarray
    Sigma0: np.ndarray
    level: float
    spacing: float

    @property
    def pieces(self):
        return self.centers.shape[0]

    def to_dict(self):
        return {
            "schema_version": 1,
            "pieces": int(self.pieces),
            "level": self.level,
            "spacing": self.spacing,
            "radii": self.radii.tolist(),
            "shells": self.shells.tolist(),
            "centers": self.centers.tolist(),
        }


def covering_region(boxes, Sigma0, target_eps):
    """Cover the coefficient boxes by a lattice and precompute the pieces.

    The lattice spacing is chosen so that any point of a cell is within
    target_eps of the cell center in max-column Sigma0-norm. Raises
    BudgetError when the covering would need more than BUDGET centers;
    enlarging target_eps shrinks the lattice.
    """
    if target_eps <= 0:
        raise ValueError("target_eps must be > 0")
    metric = SigmaMetric.ensure(Sigma0)
    p, G = boxes.p, boxes.G
    lam_max = float(np.linalg.eigvalsh(metric.Sigma)[-1])
    h = 2.0 * target_eps / (math.sqrt(p) * math.sqrt(lam_max))
    positions = []
    total = 1
    for g in range(G):
        for j in range(p):
            c = boxes.centers[j, g]
            r = boxes.halfwidths[j, g]
            count = max(1, math.ceil(2.0 * r / h))
            total *= count
            if total > BUDGET:
                raise BudgetError(
                    f"covering needs more than {BUDGET} centers at"
                    f" eps={target_eps}; increase target_eps"
                )
            if count == 1:
                positions.append(np.array([c]))
            else:
                positions.append(c - r + h / 2.0 + h * np.arange(count))
    mesh = np.meshgrid(*positions, indexing="ij")
    flat = np.stack([m.reshape(-1) for m in mesh], axis=1)
    centers = flat.reshape(-1, G, p).transpose(0, 2, 1)
    shells = np.empty(centers.shape[0])
    for k in range(centers.shape[0]):
        shells[k] = metric.norm(maximin_point(centers[k], metric).M)
    return CoveringRegion(
        centers=centers,
        radii=np.full(centers.shape[0], float(target_eps)),
        shells=shells,
        Sigma0=metric.Sigma,
        level=1.0 - boxes.alpha,
        spacing=h,
    )


def contains_relaxed(region, M):
    """Whether M satisfies some piece's shell and inflated-hull conditions.

    The hull test is the Sigma-distance from M to the hull of a piece's
    columns, a simplex QP with linear term -2 B^T Sigma M. Pieces that
    pass the shell test are tested in fixed-size chunks, in piece order,
    one stacked solve per chunk, stopping at the first chunk with a hit.
    """
    metric = SigmaMetric(region.Sigma0)
    M = np.asarray(M, dtype=float)
    norm = metric.norm(M)
    passing = np.flatnonzero(np.abs(norm - region.shells) <= region.radii + _SLACK)
    Sigma = metric.Sigma
    SM = Sigma @ M
    MSM = float(M @ SM)
    p = region.centers.shape[1]
    for start in range(0, passing.size, _CHUNK):
        pieces = passing[start:start + _CHUNK]
        B = region.centers[pieces]
        Bt = B.transpose(0, 2, 1)
        H = Bt @ Sigma @ B
        H = (H + H.transpose(0, 2, 1)) / 2.0
        c = -2.0 * (Bt @ SM)
        gamma, _, _ = stacked_simplex_qp(H, p, c)
        d2 = np.sum(gamma * ((H @ gamma[:, :, None])[:, :, 0] + c), axis=1) + MSM
        if np.any(np.sqrt(np.maximum(d2, 0.0)) <= region.radii[pieces] + _SLACK):
            return True
    return False
