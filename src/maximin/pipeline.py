"""Analysis of one grouped dataset, behind the CLI's estimate and region.

One pass is: fit per-group least squares, solve the maximin weight
program under the pooled (or supplied) metric, assemble the plug-in
covariance (which differentiates the maximin map at the solution) and
build the confidence ellipsoid. Supplying known_sigma switches every
step onto the exact metric and drops the metric-fluctuation term of the
covariance. Labelled rows in memory enter through
GroupedDataset.from_rows. The simulator runs the same kernels on a
stack of datasets.
"""

from dataclasses import dataclass

from . import asymvar, confidence, geometry, linmodel, magging


@dataclass(frozen=True)
class Analysis:
    """Everything one full pass over a dataset produces."""

    estimates: object
    solution: object
    covariance: object
    region: object


def estimate_dataset(dataset, ridge_jitter=0.0, known_sigma=None):
    """Fit and solve the maximin program; no covariance assembly.

    Returns (estimates, solution, metric), metric being the SigmaMetric
    the program was solved under: the pooled estimate, or known_sigma.
    A known_sigma goes through SigmaMetric.ensure before the fit, the
    one check of its shape and entries.
    """
    known = None if known_sigma is None else geometry.SigmaMetric.ensure(
        known_sigma, dataset.p)
    estimates = linmodel.fit(dataset, ridge_jitter)
    metric = geometry.SigmaMetric(estimates.Sigma_hat) if known is None else known
    return estimates, magging.maximin_point(estimates.Bhat, metric), metric


def analyze_dataset(dataset, alpha=0.05, ridge_jitter=0.0, known_sigma=None):
    """Full pass from raw dataset to confidence region.

    Fits and solves (estimate_dataset), estimates the metric-fluctuation
    term C_hat (skipped under a known Sigma), assembles W under the
    metric of the solve and builds the ellipsoid, whose flags record
    vertex_mode, known_sigma and sigma2_approximate. Returns an Analysis
    bundle. Degeneracy, rank, conditioning and convergence problems
    propagate as their specific exception types so callers can count or
    surface them.
    """
    estimates, solution, metric = estimate_dataset(dataset, ridge_jitter, known_sigma)
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
    return Analysis(
        estimates=estimates,
        solution=solution,
        covariance=covariance,
        region=region,
    )
