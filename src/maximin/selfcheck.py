"""Self-check measurements shared by ``maximin check`` and the acceptance tests.

Each measurement returns numbers rather than a verdict, so the
acceptance criteria can hold them against their own pinned bands and
``battery`` against its quick ones. Nothing here runs on import; the
package does not import this module, and the CLI loads it only for the
``check`` command.

This is the one module of the package that imports SciPy: the quantile
round trip checks chi2_quantile against scipy.stats' independent CDF.
That import also loads scipy.linalg, whose cho_factor perfbench's
tracer (perfbench/tracing.py) looks up in sys.modules after importing
every maximin module, so the traced benchmark runs rely on it.
"""

import itertools

import numpy as np
import scipy.stats

from . import simulate
from .asymvar import assemble_W
from .confidence import chi2_quantile
from .errors import BudgetError
from .geometry import Face, SigmaMetric, symmetric
from .linmodel import GroupEstimates, ScenarioSpec, fit, generate
from .magging import maximin_point

# Largest G the exhaustive oracle enumerates (2^G - 1 faces).
ORACLE_MAX_G = 15


def brute_force_oracle(B, Sigma):
    """Exhaustive reference solution for the maximin point.

    Enumerates every nonempty subset of columns, solves the equality-
    constrained minimum-norm problem on its affine hull, and keeps the
    best candidate whose weights are all nonnegative. Exponential in G,
    hence the ORACLE_MAX_G cap; intended for validation, not production.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    p, G = B.shape
    if G > ORACLE_MAX_G:
        raise BudgetError(f"brute force supports G <= {ORACLE_MAX_G}, got {G}")
    Sigma = SigmaMetric.ensure(Sigma, p).Sigma
    H = symmetric(B.T @ Sigma @ B)
    best_obj = np.inf
    best_M = None
    for size in range(1, G + 1):
        for subset in itertools.combinations(range(G), size):
            idx = list(subset)
            k = len(idx)
            K = np.zeros((k + 1, k + 1))
            K[:k, :k] = 2.0 * H[np.ix_(idx, idx)]
            K[:k, k] = 1.0
            K[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            gamma = np.linalg.lstsq(K, rhs, rcond=None)[0][:k]
            if np.min(gamma) < -1e-10:
                continue
            obj = float(gamma @ H[np.ix_(idx, idx)] @ gamma)
            if obj < best_obj - 1e-15:
                best_obj = obj
                best_M = B[:, idx] @ gamma
    return best_M


def gaussian_population_C(Sigma, M, G):
    """Closed form of C for centered Gaussian designs with covariance Sigma."""
    Sigma = np.asarray(Sigma, dtype=float)
    M = np.asarray(M, dtype=float)
    s = Sigma @ M
    return (np.outer(s, s) + float(M @ s) * Sigma) / G


def separated_instances(count, seed, p_range=(2, 4), G_range=(2, 5)):
    """Seeded (B, Sigma, solution) triples with stable interior optima.

    Instances are filtered so the maximin point sits strictly inside a
    face: at least two active columns, every active weight at least
    0.05, every active column at Sigma-distance at least 0.1 from the
    affine hull of the other active columns, and
    no stray weight on inactive columns. On such instances the maximin
    map is differentiable and finite differences are trustworthy.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 41))))
    out = []
    while len(out) < count:
        p = int(rng.integers(p_range[0], p_range[1] + 1))
        G = int(rng.integers(G_range[0], G_range[1] + 1))
        # Shifting the cloud off the origin favors non-vertex optima.
        B = rng.standard_normal((p, G)) + 2.0
        A = rng.standard_normal((p, p))
        Sigma = A @ A.T + 0.5 * np.eye(p)
        solution = maximin_point(B, Sigma)
        act = list(solution.active)
        if len(act) < 2 or min(solution.alpha[act]) < 0.05:
            continue
        inactive = [g for g in range(G) if g not in act]
        if inactive and max(solution.alpha[inactive]) > 1e-10:
            continue
        if Face(B[:, act], Sigma)._residuals[1].min() >= 0.1:
            out.append((B, Sigma, solution))
    return out


def oracle_gap(rng, draws, p_range, G_range):
    """Solver against the exhaustive oracle on random programs.

    Draws p and G uniformly from the inclusive ranges, then B and a
    positive definite Sigma. Returns (worst Sigma-norm gap between
    maximin_point and brute_force_oracle, worst KKT residual).
    """
    worst_gap = 0.0
    worst_kkt = 0.0
    for _ in range(draws):
        p = int(rng.integers(p_range[0], p_range[1] + 1))
        G = int(rng.integers(G_range[0], G_range[1] + 1))
        B = rng.standard_normal((p, G))
        A = rng.standard_normal((p, p))
        Sigma = A @ A.T + 0.5 * np.eye(p)
        solution = maximin_point(B, Sigma)
        oracle = brute_force_oracle(B, Sigma)
        metric = SigmaMetric(Sigma)
        worst_gap = max(worst_gap, float(metric.norm(solution.M - oracle)))
        worst_kkt = max(worst_kkt, solution.kkt_residual)
    return worst_gap, worst_kkt


def chi2_round_trip_error(dofs):
    """Worst |F(F^{-1}(q)) - q| over the given degrees of freedom and four
    levels, F^{-1} this package's chi2_quantile and F SciPy's CDF."""
    worst = 0.0
    for dof in dofs:
        for prob in (0.5, 0.9, 0.95, 0.99):
            x = chi2_quantile(dof, prob)
            worst = max(worst, abs(float(scipy.stats.chi2.cdf(x, dof)) - prob))
    return worst


def finite_difference_errors(instances, rng):
    """Both differentials against forward differences of maximin_point.

    For every (B, Sigma, solution) instance, each active column moves
    along one random unit direction and Sigma along one random unit
    symmetric direction, with step 1e-6. Returns (checks made, failed
    checks, worst relative error other than NaN). A check fails when its
    relative error exceeds 1e-4 or is NaN, as on a face the differentials
    refuse.
    """
    h = 1.0e-6
    tol = 1.0e-4
    worst = 0.0
    checked = 0
    failed = 0
    for B, Sigma, solution in instances:
        face = Face(B[:, list(solution.active)], Sigma)
        jacobians = face.jacobians(solution.M)
        p = B.shape[0]
        for J, g in zip(jacobians, solution.active):
            d = rng.standard_normal(p)
            d /= np.linalg.norm(d)
            B2 = B.copy()
            B2[:, g] += h * d
            fd = (maximin_point(B2, Sigma).M - solution.M) / h
            err = np.linalg.norm(J @ d - fd)
            rel = err / max(np.linalg.norm(fd), 1e-8)
            worst = max(worst, rel)
            failed += not rel <= tol
            checked += 1
        A = rng.standard_normal((p, p))
        Delta = (A + A.T) / 2.0
        Delta /= np.linalg.norm(Delta)
        fd = (maximin_point(B, Sigma + h * Delta).M - solution.M) / h
        err = np.linalg.norm(face.dsigma(solution.M, Delta) - fd)
        rel = err / max(np.linalg.norm(fd), 1e-8)
        worst = max(worst, rel)
        failed += not rel <= tol
        checked += 1
    return checked, int(failed), float(worst)


def _population_reference():
    # Symmetric three-group configuration has a closed covariance form.
    B = np.eye(3)
    Sigma = np.eye(3)
    sol = maximin_point(B, Sigma)
    C = gaussian_population_C(Sigma, sol.M, 3)

    est = GroupEstimates(Bhat=B, Sigma_hat=Sigma, Sigma_g_hat=np.stack((Sigma,) * 3),
                         sigma2_hat=1.0, ridge_jitter_used=0.0, n=10**9)
    W = assemble_W(est, sol, C, Sigma=Sigma).W
    expected = (4.0 / 9.0) * np.eye(3) - np.ones((3, 3)) / 27.0
    return bool(np.allclose(W, expected, atol=1e-10))


def _simulation_determinism(seed):
    spec = ScenarioSpec(p=2, G=2, n=40, seed=seed)
    r1 = simulate.run_cell(spec, 20, 0.05)
    r2 = simulate.run_cell(spec, 20, 0.05)
    return r1.covered == r2.covered and r1.mean_max_eigenvalue == r2.mean_max_eigenvalue


def _fit_round_trip(seed):
    dataset, B0 = generate(ScenarioSpec(p=3, G=3, n=200, noise_sd=1e-12, seed=seed))
    return bool(np.allclose(fit(dataset).Bhat, B0, atol=1e-8))


def battery(seed):
    """Yield (name, passed) for each quick self-check, running it on demand."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 99))))
    gap, kkt = oracle_gap(rng, 50, (2, 4), (2, 5))
    yield "magging matches exhaustive oracle", gap <= 1e-6 and kkt <= 1e-8
    yield "chi-squared quantile round trip", chi2_round_trip_error(range(1, 11)) <= 1e-8
    fd_rng = np.random.default_rng(np.random.SeedSequence((seed, 42)))
    _, failed, _ = finite_difference_errors(separated_instances(10, seed), fd_rng)
    yield "maximin derivative matches finite differences", failed == 0
    yield "population covariance closed form", _population_reference()
    yield "simulation is seed-deterministic", _simulation_determinism(seed)
    yield "noiseless fit recovers coefficients", _fit_round_trip(seed)
