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

A CoveringRegion stores its lattice as the p * G coordinate axes and the
shells |M(B_k)|, one per center; the (K, p, G) centers are formed from
the axes on first read. covering_region reads each chunk of centers from
the axes and solves the chunk's maximin points in one stacked_maximin
call, and contains_relaxed reads the lattice in blocks of the same size,
so neither the build nor a query holds the full lattice.

A query solves one hull-distance QP per piece it cannot rule out. The
first piece that passes the shell test is solved alone. If it misses,
its nearest hull point z, the certificate of the minimum-norm-point
method (Wolfe 1976), gives the direction u = z - M, and the hyperplane
normal to u bounds the distance from M to every other hull from below:
a piece whose bound exceeds its radius is dropped without a QP.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .confidence import chi2_quantile
from .errors import BudgetError, SingularFitError
from .geometry import SigmaMetric, positive_definite, quadratic_form
from .magging import capped_error, sigma_gram, stacked_maximin, stacked_simplex_qp

# Most lattice centers covering_region builds before raising BudgetError.
BUDGET = 10**6

_SLACK = 1e-9

# Pieces per stacked hull-distance solve in contains_relaxed, of those
# that pass the shell test and the screen. On the perfbench covering
# workload (seeds 1-5 and 11), a query off the hulls passes 540-650
# shells, and 0-286 of those pieces pass the screen. Larger chunks
# amortise the per-solve overhead but waste the tail of a chunk after an
# early hit; a chunk's solve holds 64 bordered (G + 1) x (G + 1) systems.
_CHUNK = 64

# Most lattice centers per stacked_maximin call in covering_region, and
# lattice indices per block of contains_relaxed's shell test and screen.
# A full build chunk at p = 5, G = 6 peaks at 7.8 MB of tracemalloc
# (NumPy 2.4).
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
        level_per_box=1.0 - alpha / G,
        alpha=alpha,
        n=n,
        halfwidths=halfwidths,
    )


@dataclass(frozen=True)
class CoveringRegion:
    """Union of shell-and-hull pieces indexed by lattice centers.

    axes holds the lattice's p * G coordinate vectors in (g, j) order:
    axes[g * p + j] lists the values entry j of column g takes. Piece k
    is the k-th point of their product in C order, the k-th entry of
    centers, with shell shells[k] and radius radii[k]. Sigma0 is the
    symmetrised metric covering_region checked, and queries use it as
    it is.
    """

    axes: tuple
    radii: np.ndarray
    shells: np.ndarray
    Sigma0: np.ndarray
    level: float
    spacing: float

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
    enlarging target_eps shrinks the lattice. The shells are solved in
    chunks of at most _BUILD_CHUNK centers, one stacked_maximin call a
    chunk; the first center in lattice order whose program is refused
    raises its ConvergenceError.
    """
    if target_eps <= 0:
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
    for start in range(0, total, _BUILD_CHUNK):
        end = min(start + _BUILD_CHUNK, total)
        solved = stacked_maximin(_lattice_points(positions, np.arange(start, end), p), Sigma)
        refused = next((e for e in solved.errors if e is not None), None)
        if refused is not None:
            raise refused
        shells[start:end] = np.sqrt(np.maximum(quadratic_form(Sigma, solved.M), 0.0))
    return CoveringRegion(
        axes=tuple(positions),
        radii=np.broadcast_to(float(target_eps), (total,)),
        shells=shells,
        Sigma0=Sigma,
        level=1.0 - boxes.alpha,
        spacing=h,
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
    d2 = np.sum(gamma * ((H @ gamma[:, :, None])[:, :, 0] + c), axis=1) + MSM
    return np.sqrt(np.maximum(d2, 0.0)) <= radii, gamma


def _separations(Sigma, M, u, B):
    """min_g <Sigma u, b_kg - M> for centers B (n, p, G): for any u, at
    most |u|_Sigma times the Sigma-distance from M to hull k, since
    |x - M|_Sigma |u|_Sigma >= <Sigma u, x - M> (Cauchy-Schwarz) and a
    linear function's minimum over a hull is at a column."""
    normal = Sigma @ u
    return (normal @ B).min(axis=1) - normal @ M


def contains_relaxed(region, M):
    """Whether M satisfies some piece's shell and inflated-hull conditions.

    The hull test is the Sigma-distance from M to the hull of a piece's
    columns, a simplex QP with linear term -2 B^T Sigma M. The shell test
    and the screen run over blocks of _BUILD_CHUNK lattice indices, with
    the centers read from the axes, so a query forms no array over all K
    pieces.

    The first piece that passes the shell test is solved alone, and a hit
    returns True. Otherwise its nearest hull point z gives u = z - M, and
    the screen drops each later piece k whose bound

        (min_g <Sigma u, b_kg> - <Sigma u, M>) / |u|_Sigma

    on the distance from M to its hull (_separations) exceeds its
    radius, with no QP. The bound holds for any u, however accurate the
    first solve, so the answer can differ from solving every piece only
    where a hull distance lies within rounding of its threshold. The
    pieces that pass both tests are solved in chunks of _CHUNK, in piece
    order, stopping at the first chunk with a hit.

    A hull program the active-set loop leaves unsolved (at its cap of
    100 G solves) raises ConvergenceError. The programs of dropped pieces,
    like those of pieces after a hit, are never solved, so their caps
    cannot raise.
    """
    Sigma, M = region.Sigma0, np.asarray(M, dtype=float)
    p = Sigma.shape[0]
    norm = np.sqrt(max(float(M @ Sigma @ M), 0.0))
    SM = Sigma @ M
    MSM = float(M @ SM)
    u = None  # z - M, once the first passing piece has missed
    for start in range(0, region.pieces, _BUILD_CHUNK):
        end = min(start + _BUILD_CHUNK, region.pieces)
        shell = np.abs(norm - region.shells[start:end]) <= region.radii[start:end] + _SLACK
        pieces = start + np.flatnonzero(shell)
        if u is None and pieces.size:
            B = _lattice_points(region.axes, pieces[:1], p)
            hit, gamma = _hull_tests(Sigma, B, SM, MSM, region.radii[pieces[:1]] + _SLACK)
            if hit[0]:
                return True
            u = B[0] @ gamma[0] - M
            scale = np.sqrt(max(float(u @ Sigma @ u), 0.0))
            pieces = pieces[1:]
        if not pieces.size:
            continue
        B = _lattice_points(region.axes, pieces, p)
        radii = region.radii[pieces] + _SLACK
        survive = _separations(Sigma, M, u, B) <= radii * scale
        B, radii = B[survive], radii[survive]
        for chunk in range(0, radii.size, _CHUNK):
            hit, _ = _hull_tests(Sigma, B[chunk:chunk + _CHUNK], SM, MSM,
                                 radii[chunk:chunk + _CHUNK])
            if hit.any():
                return True
    return False
