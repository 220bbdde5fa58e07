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

A CoveringRegion stores its lattice as the p * G coordinate axes, the
shells |M(B_k)| and the maximin weights of every center, rounded to 8
bits; the (K, p, G) centers are formed from the axes on first read.
covering_region reads each chunk of centers from the axes and solves the
chunk's maximin points in one stacked_maximin call, and contains_relaxed
reads the lattice in blocks of the same size, so neither the build nor a
query holds the full lattice. The weights cost K * G bytes, against
8 K for the float64 shells.

A query bounds each piece's hull distance before it solves the
piece's QP. The stored weights, renormalised, give a point
P_k = B_k w_k of hull k however they were rounded: |M - P_k|_Sigma
bounds the distance from above, and the supporting hyperplane of the
hull normal to P_k bounds it from below. A piece whose upper bound is
within its radius answers True; one whose lower bound exceeds it is
dropped. Each chunk of the rest is solved in one stacked QP. On a
miss, a nearest hull point z, the certificate of the
minimum-norm-point method (Wolfe 1976), gives the direction
u = z - M, and the hyperplane normal to u bounds the distance from M
to every other hull from below, the same bound in one shared
direction, before the next chunk is solved: the separating-direction
step of Gilbert, Johnson and Keerthi (1988), taken at every miss.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .confidence import chi2_quantile
from .errors import BudgetError, DimensionError, SingularFitError
from .geometry import SigmaMetric, matvec, positive_definite, quadratic_form, reduce_rows
from .magging import capped_error, sigma_gram, stacked_maximin, stacked_simplex_qp

# Most lattice centers covering_region builds before raising BudgetError.
BUDGET = 10**6

_SLACK = 1e-9

# Pieces per stacked hull-distance solve in contains_relaxed, of those
# that pass the shell test, the latest miss's hyperplane and both weight
# bounds. On the perfbench covering workload (seeds 1-12), 17 of the 480
# queries make one solve each, of 6 to 64 programs, and none makes two.
# At G = 2 a solve of 64 programs costs about what a solve of one does,
# and the hyperplane of each missed chunk drops most of the rest: the
# boundary query (1, 1, 1) on the 7^6 test lattice makes 13 solves of
# 588 programs. A chunk's solve holds 64 bordered (G + 1) x (G + 1)
# systems.
_CHUNK = 64

# Most lattice centers per stacked_maximin call in covering_region, and
# lattice indices per block of contains_relaxed's shell test and bounds.
# A full build chunk at p = 5, G = 6 peaks at 4.7 MB (centers within 0.1)
# to 10.2 MB (spread over a unit) of tracemalloc (NumPy 2.4).
_BUILD_CHUNK = 4096


@dataclass(frozen=True)
class GroupBoxes:
    """Per-group confidence ellipsoids with their bounding boxes.

    The box for group g is {b : (bhat_g - b)^T S_g (bhat_g - b) /
    sigma2 <= threshold} with S_g = scatters[g] the raw design scatter
    X_g^T X_g. halfwidths[:, g] are the axis-aligned half-extents
    enclosing it.
    """

    centers: np.ndarray
    scatters: np.ndarray
    sigma2: float
    threshold: float
    alpha: float
    halfwidths: np.ndarray

    @property
    def p(self):
        return self.centers.shape[0]

    @property
    def G(self):
        return self.centers.shape[1]


def group_confidence_boxes(estimates, alpha):
    """Joint per-group coefficient region at overall level 1 - alpha.

    Splits the miscoverage evenly: each group's ellipsoid has level
    1 - alpha/G, so the intersection covers the full coefficient matrix
    with probability at least 1 - alpha by the union bound. A box needs
    its group's raw scatter n (S_g - jitter Id) to pass positive_definite,
    the one definiteness test; a jittered fit with n < p fails it, and
    the first such group column (1-based) raises SingularFitError.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    p, G, n = estimates.p, estimates.G, estimates.n
    jitter = estimates.ridge_jitter_used
    scatters = n * (estimates.Sigma_g_hat - jitter * np.eye(p))
    _, full_rank = positive_definite(scatters)
    if not full_rank.all():
        g = int(np.argmin(full_rank)) + 1
        raise SingularFitError(f"group column {g}: raw design scatter is not positive"
                               " definite; no confidence box exists", group=g)
    threshold = chi2_quantile(p, 1.0 - alpha / G)
    sigma2 = float(estimates.sigma2_hat)
    variances = np.diagonal(np.linalg.inv(scatters), axis1=1, axis2=2)
    halfwidths = np.sqrt(threshold * sigma2 * variances).T
    return GroupBoxes(
        centers=estimates.Bhat.copy(),
        scatters=scatters,
        sigma2=sigma2,
        threshold=threshold,
        alpha=alpha,
        halfwidths=halfwidths,
    )


@dataclass(frozen=True)
class CoveringRegion:
    """Union of shell-and-hull pieces indexed by lattice centers.

    axes holds the lattice's p * G coordinate vectors in (g, j) order:
    axes[g * p + j] lists the values entry j of column g takes. Piece k
    is the k-th point of their product in C order, the k-th entry of
    centers, with shell shells[k] and radius radii[k]. weights (K, G)
    uint8 holds each center's maximin weights gamma as
    rint(255 gamma_g / max gamma), K * G bytes; any nonnegative row with
    a positive sum serves queries, as its renormalisation weights a
    point of the center's hull. Sigma0 is
    the symmetrised metric covering_region checked, and queries use it
    as it is.
    """

    axes: tuple
    radii: np.ndarray
    shells: np.ndarray
    weights: np.ndarray
    Sigma0: np.ndarray

    @property
    def pieces(self):
        return self.shells.shape[0]

    @functools.cached_property
    def centers(self):
        """The (K, p, G) lattice centers, expanded from the axes once."""
        return _lattice_points(self.axes, np.arange(self.pieces), self.Sigma0.shape[0])


def _lattice_points(axes, k, p):
    """The centers (len(k), p, G) at lattice indices k, in C order over
    axes, read digit by digit; unlike np.meshgrid or np.unravel_index,
    this takes any number of axes."""
    flat = np.empty((k.size, len(axes)))
    for i in reversed(range(len(axes))):
        k, digit = np.divmod(k, axes[i].size)
        flat[:, i] = axes[i][digit]
    return flat.reshape(-1, len(axes) // p, p).transpose(0, 2, 1)


def covering_region(boxes, Sigma0, target_eps):
    """Cover the coefficient boxes by a lattice and precompute the pieces.

    The lattice spacing is chosen so that any point of a cell is within
    target_eps of the cell center in max-column Sigma0-norm. Raises
    BudgetError when the covering would need more than BUDGET centers;
    enlarging target_eps shrinks the lattice. The shells and the 8-bit
    weights are solved in chunks of at most _BUILD_CHUNK centers, one
    stacked_maximin call a chunk; the first center in lattice order
    whose program is refused raises its ConvergenceError.
    """
    if not target_eps > 0:
        raise ValueError("target_eps must be > 0")
    p, G = boxes.p, boxes.G
    Sigma = SigmaMetric.ensure(Sigma0, p).Sigma
    lam_max = float(np.linalg.eigvalsh(Sigma)[-1])
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
    shells = np.empty(total)
    weights = np.empty((total, G), dtype=np.uint8)
    for start in range(0, total, _BUILD_CHUNK):
        end = min(start + _BUILD_CHUNK, total)
        solved = stacked_maximin(_lattice_points(positions, np.arange(start, end), p), Sigma)
        refused = next((e for e in solved.errors if e is not None), None)
        if refused is not None:
            raise refused
        shells[start:end] = np.sqrt(np.maximum(quadratic_form(Sigma, solved.M), 0.0))
        weights[start:end] = _rounded_weights(solved.gamma)
    return CoveringRegion(
        axes=tuple(positions),
        radii=np.broadcast_to(float(target_eps), (total,)),
        shells=shells,
        weights=weights,
        Sigma0=Sigma,
    )


def _hull_tests(Sigma, B, SM, MSM, radii):
    """Which pieces with centers B (n, p, G) hold M within radii of their
    hull, and each hull's nearest weights gamma (n, G), from one stacked
    hull-distance solve (SM = Sigma M, MSM = M^T Sigma M). A program the
    active-set loop leaves unsolved raises its ConvergenceError."""
    H = sigma_gram(B, Sigma)
    c = -2.0 * (B.transpose(0, 2, 1) @ SM)
    gamma, _, _ = stacked_simplex_qp(H, c)
    if np.isnan(gamma).any():
        raise capped_error(gamma.shape[1])
    d2 = np.sum(gamma * (matvec(H, gamma) + c), axis=1) + MSM
    return np.sqrt(np.maximum(d2, 0.0)) <= radii, gamma


def _separations(Sigma, M, u, B):
    """min_g <Sigma u_k, b_kg - M> for centers B (n, p, G) and directions
    u, one (p,) for every piece or one (n, p) per piece: for any u_k, at
    most |u_k|_Sigma times the Sigma-distance from M to hull k, since
    |x - M|_Sigma |u_k|_Sigma >= <Sigma u_k, x - M> (Cauchy-Schwarz) and
    a linear function's minimum over a hull is at a column."""
    normal = u @ Sigma
    return reduce_rows(np.minimum, np.einsum("...j,...jg->...g", normal, B)) - normal @ M


def _rounded_weights(gamma):
    """Simplex weights gamma (n, G) as uint8, rint(255 gamma_g / max gamma):
    every row keeps a 255, so its sum is positive for any G."""
    return np.rint(255.0 * gamma / reduce_rows(np.maximum, gamma)[:, None]).astype(np.uint8)


def _weighted_points(B, weights):
    """The points P_k = B_k w_k / sum(w_k) (n, p) of the hulls of centers
    B (n, p, G) under nonnegative weights (n, G), each row with a positive
    sum."""
    w = weights.astype(float)
    return np.einsum("npg,ng->np", B, w / reduce_rows(np.add, w)[:, None])


def _norms(Sigma, X):
    """The Sigma-norms (n,) of the rows of X (n, p), from one product
    X Sigma; geometry.quadratic_form's stacked matmul runs row by row."""
    return np.sqrt(np.maximum(np.einsum("kj,kj->k", X @ Sigma, X), 0.0))


def contains_relaxed(region, M):
    """Whether M satisfies some piece's shell and inflated-hull conditions.

    The hull test is the Sigma-distance from M to the hull of a piece's
    columns, a simplex QP with linear term -2 B^T Sigma M. The shell test,
    the bounds and the solves run over blocks of _BUILD_CHUNK lattice
    indices, with the centers read from the axes, so a query forms no
    array over all K pieces.

    The pieces of a block that pass the shell test go through one loop
    until none are left. After a miss, the lower bound

        (min_g <Sigma u, b_kg> - <Sigma u, M>) / |u|_Sigma        (*)

    along the latest miss's u = z - M drops each piece it puts beyond
    its radius (_separations); u carries over to later blocks. Each piece
    left is then bounded from the point P_k = B_k w_k of its hull that
    the stored weights, renormalised, give (_weighted_points): the upper
    bound |M - P_k|_Sigma within its radius returns True, and (*) with
    u = P_k above its radius drops the piece. The next _CHUNK pieces, in
    piece order, are solved in one stacked call; a hit returns True, and
    on a miss the nearest hull point z of the chunk's first piece
    re-aims u. Each bound holds for any point of the hull and any u,
    however the weights were rounded and however accurate the solves, so
    the answer can differ from solving every piece only where a hull
    distance lies within rounding of its threshold.

    A hull program the active-set loop leaves unsolved (at its cap of
    100 G solves) raises ConvergenceError. The programs of pieces the
    bounds decide, like those of pieces after a hit, are never solved,
    so their caps cannot raise. M of a shape other than (p,) raises
    DimensionError, and M with a NaN or infinite entry ValueError.
    """
    Sigma, M = region.Sigma0, np.asarray(M, dtype=float)
    p = Sigma.shape[0]
    if M.shape != (p,):
        raise DimensionError(f"M must have shape ({p},), got {M.shape}")
    if not all(map(math.isfinite, M.tolist())):
        raise ValueError("M must be finite")
    norm = np.sqrt(max(float(M @ Sigma @ M), 0.0))
    SM = Sigma @ M
    MSM = float(M @ SM)
    u = None  # z - M from the latest miss
    for start in range(0, region.pieces, _BUILD_CHUNK):
        end = min(start + _BUILD_CHUNK, region.pieces)
        shell = np.abs(norm - region.shells[start:end]) <= region.radii[start:end] + _SLACK
        pieces = start + np.flatnonzero(shell)
        if not pieces.size:
            continue
        B = _lattice_points(region.axes, pieces, p)
        radii = region.radii[pieces] + _SLACK
        weights = region.weights[pieces]
        while radii.size:
            if u is not None:
                survive = _separations(Sigma, M, u, B) <= radii * _norms(Sigma, u[None])
                B, radii, weights = B[survive], radii[survive], weights[survive]
            P = _weighted_points(B, weights)
            if (_norms(Sigma, M - P) <= radii).any():
                return True
            survive = _separations(Sigma, M, P, B) <= radii * _norms(Sigma, P)
            B, radii, weights = B[survive], radii[survive], weights[survive]
            if not radii.size:
                break
            hit, gamma = _hull_tests(Sigma, B[:_CHUNK], SM, MSM, radii[:_CHUNK])
            if hit.any():
                return True
            u = B[0] @ gamma[0] - M
            B, radii, weights = B[_CHUNK:], radii[_CHUNK:], weights[_CHUNK:]
    return False
