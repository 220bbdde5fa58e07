"""End-to-end flow shared by the estimator class, the CLI and the simulator.

One replicate of the full analysis is: fit per-group least squares,
solve the maximin weight program under the pooled (or supplied) metric,
assemble the plug-in covariance (which differentiates the maximin map
at the solution) and build the confidence ellipsoid. Supplying known_sigma
switches every step onto the exact metric and drops the metric-
fluctuation term of the covariance.
"""

from dataclasses import dataclass

import numpy as np

from . import asymvar, confidence, geometry, linmodel, magging


@dataclass(frozen=True)
class Analysis:
    """Everything one full pass over a dataset produces."""

    estimates: object
    solution: object
    covariance: object
    region: object
    sigma_used: np.ndarray


def estimate_dataset(dataset, ridge_jitter=0.0, known_sigma=None):
    """Fit and solve the maximin program; no covariance assembly.

    Returns (estimates, solution, metric), metric being the SigmaMetric
    the program was solved under: the pooled estimate, or known_sigma.
    """
    estimates = linmodel.fit(dataset, ridge_jitter)
    sigma = estimates.Sigma_hat if known_sigma is None else known_sigma
    metric = geometry.SigmaMetric(sigma)
    return estimates, magging.maximin_point(estimates.Bhat, metric), metric


def infer(dataset, estimates, solution, metric, alpha, known_sigma):
    """Confidence region for a solved dataset: (covariance, region).

    Estimates the metric-fluctuation term C_hat (skipped under a known
    Sigma), assembles W and builds the ellipsoid. metric is the
    SigmaMetric the solution was computed under. The region's flags
    record vertex_mode, known_sigma and sigma2_approximate.
    """
    if known_sigma is None:
        C_hat = asymvar.empirical_C(dataset.design_stack(), solution.M, dataset.G)
    else:
        C_hat = None
    covariance = asymvar.assemble_W(estimates, solution, C_hat, Sigma=metric)
    region = confidence.build_region(solution.M, covariance.W, dataset.n, alpha)
    region.flags.update(
        vertex_mode=covariance.vertex_mode,
        known_sigma=covariance.known_sigma,
        sigma2_approximate=bool(estimates.sigma2_approximate),
    )
    return covariance, region


def analyze_dataset(dataset, alpha=0.05, ridge_jitter=0.0, known_sigma=None):
    """Full pass from raw dataset to confidence region.

    Returns an Analysis bundle. Degeneracy, rank, conditioning and
    convergence problems propagate as their specific exception types so
    callers can count or surface them. One SigmaMetric serves the solve
    and the covariance assembly.
    """
    estimates, solution, metric = estimate_dataset(dataset, ridge_jitter, known_sigma)
    covariance, region = infer(
        dataset, estimates, solution, metric, alpha, known_sigma)
    return Analysis(
        estimates=estimates,
        solution=solution,
        covariance=covariance,
        region=region,
        sigma_used=metric.Sigma,
    )
