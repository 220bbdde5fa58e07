"""Acceptance battery: twelve pre-registered checks with pinned tolerances.

Every test prints one PASS or FAIL line (the terminal summary repeats
them all). The master seed is fixed in advance of any run; when a band
is missed the failure is reported as is, never retuned.
"""

import concurrent.futures
from dataclasses import replace

import numpy as np

from conftest import record_criterion
from maximin.asymvar import assemble_W
from maximin.linmodel import GroupEstimates, generate, fit
from maximin.magging import maximin_point
from maximin.relaxation import (
    contains_relaxed,
    covering_region,
    group_confidence_boxes,
)
from maximin.selfcheck import (
    chi2_round_trip_error,
    finite_difference_errors,
    gaussian_population_C,
    oracle_gap,
    separated_instances,
)
from maximin.simulate import (
    _derive_seed,
    cell_seed,
    grid_to_csv,
    run_cell,
    run_grid,
    scenario_presets,
    true_maximin,
)
from reference import maximin_norm_gap

MASTER_SEED = 7
JOBS = 8


def _cell(table, p, n, replicates, alpha=0.05):
    spec = scenario_presets(table, p, n)
    spec = replace(spec, seed=cell_seed(MASTER_SEED, table, p, n))
    return run_cell(spec, replicates, alpha, jobs=JOBS)


def _finish(number, name, ok, detail):
    line = record_criterion(number, name, ok, detail)
    print(line)
    assert ok, line


def test_criterion_01_basis_coverage_large_sample():
    report = _cell(1, 3, 2000, 1000)
    ok = 0.92 <= report.coverage <= 0.97
    _finish(1, "basis scenario, p=3 n=2000",
            ok, f"coverage={report.coverage:.4f} target [0.92, 0.97]")


def test_criterion_02_basis_coverage_tiny_sample():
    report = _cell(1, 3, 5, 1000)
    ok = 0.64 <= report.coverage <= 0.76
    _finish(2, "basis scenario, p=3 n=5",
            ok, f"coverage={report.coverage:.4f} target [0.64, 0.76]")


def test_criterion_03_coverage_monotone_in_sample_size():
    reports = [_cell(1, 5, n, 500) for n in (100, 500, 2000)]
    cov = [r.coverage for r in reports]
    hw = [r.binomial_halfwidth for r in reports]
    monotone = all(cov[i + 1] + hw[i + 1] >= cov[i] for i in range(2))
    ok = monotone and cov[-1] >= 0.92
    _finish(3, "coverage rises with n at p=5",
            ok, "coverage=" + "/".join(f"{c:.4f}" for c in cov)
            + f" monotone={monotone} final>=0.92")


def test_criterion_04_identical_groups_conservative():
    report = _cell(3, 5, 500, 500)
    ok = report.coverage >= 0.97
    _finish(4, "identical coefficients, p=5 n=500",
            ok, f"coverage={report.coverage:.4f} target >= 0.97")


def test_criterion_05_jittered_scenario_coverage_and_wide_fits():
    report = _cell(4, 5, 2000, 500)
    in_band = 0.91 <= report.coverage <= 0.97
    fits_ok = True
    for rep in range(5):
        spec = scenario_presets(4, 10, 5)
        spec = replace(spec, seed=_derive_seed(MASTER_SEED, "c5-fit", rep))
        dataset, _ = generate(spec)
        estimates = fit(dataset, ridge_jitter=spec.ridge_jitter)
        solution = maximin_point(estimates.Bhat, estimates.Sigma_hat)
        fits_ok = fits_ok and bool(np.all(np.isfinite(solution.M)))
    ok = in_band and fits_ok
    _finish(5, "jittered scenario, p=5 n=2000 plus p=10 n=5 fits",
            ok, f"coverage={report.coverage:.4f} target [0.91, 0.97]"
            f" wide_fits_ok={fits_ok}")


def test_criterion_06_top_eigenvalue_band():
    report = _cell(5, 3, 2000, 500)
    eig = report.mean_max_eigenvalue
    ok = 0.37 <= eig <= 0.57
    _finish(6, "mean top eigenvalue, p=3 n=2000",
            ok, f"mean_max_eig={eig:.4f} target [0.37, 0.57]"
            f" (coverage={report.coverage:.4f})")


def _c7_block(seeds):
    spec0 = scenario_presets(1, 3, 2000)
    out = []
    for seed in seeds:
        dataset, _ = generate(replace(spec0, seed=seed))
        estimates = fit(dataset)
        out.append(maximin_point(estimates.Bhat, estimates.Sigma_hat).M)
    return out


def test_criterion_07_population_covariance_matches_monte_carlo():
    p = 3
    n = 2000
    reps = 2000
    B0 = np.eye(p)
    Sigma0 = np.eye(p)
    M0 = np.full(p, 1.0 / p)
    sol0 = maximin_point(B0, Sigma0)
    population = GroupEstimates(
        Bhat=B0,
        Sigma_hat=Sigma0,
        Sigma_g_hat=np.stack((Sigma0,) * p),
        sigma2_hat=1.0,
        ridge_jitter_used=0.0,
        n=n,
    )
    C0 = gaussian_population_C(Sigma0, M0, p)
    W_pop = assemble_W(population, sol0, C0, Sigma=Sigma0).W

    base = cell_seed(MASTER_SEED, 1, 3, n)
    seeds = [_derive_seed(base, "c7", rep) for rep in range(reps)]
    blocks = [seeds[k::JOBS] for k in range(JOBS)]
    points = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=JOBS) as pool:
        for part in pool.map(_c7_block, blocks):
            points.extend(part)
    devs = np.sqrt(n) * (np.array(points) - M0)
    sample = np.cov(devs, rowvar=False)
    rel = np.linalg.norm(sample - W_pop) / np.linalg.norm(W_pop)
    ok = rel <= 0.15
    _finish(7, "population covariance vs simulation",
            ok, f"relative Frobenius error={rel:.4f} target <= 0.15")


def test_criterion_08_differentials_match_finite_differences():
    instances = separated_instances(200, seed=MASTER_SEED)
    rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED, 42)))
    checked, failed, worst = finite_difference_errors(instances, rng)
    ok = failed == 0
    _finish(8, "differentials vs finite differences",
            ok, f"{checked} checks, {failed} over tolerance,"
            f" worst relative error={worst:.2e} target <= 1e-4")


def test_criterion_09_solver_agrees_with_oracle():
    rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED, 9)))
    worst_gap, worst_kkt = oracle_gap(rng, 1000, p_range=(1, 5), G_range=(1, 6))
    ok = worst_gap <= 1e-6 and worst_kkt <= 1e-8
    _finish(9, "active-set solver vs enumeration oracle",
            ok, f"worst metric gap={worst_gap:.2e} (<= 1e-6),"
            f" worst KKT residual={worst_kkt:.2e} (<= 1e-8)")


def test_criterion_10_relaxation_bound_and_membership():
    rng = np.random.default_rng(np.random.SeedSequence((MASTER_SEED, 10)))
    instances = {}  # (p, G) -> the (B, B2, Sigma0) of that shape, in draw order
    for _ in range(10_000):
        p = int(rng.integers(1, 5))
        G = int(rng.integers(1, 6))
        B = rng.standard_normal((p, G))
        scale = float(10.0 ** rng.uniform(-3.0, 0.5))
        B2 = B + scale * rng.standard_normal((p, G))
        A = rng.standard_normal((p, p))
        Sigma0 = A @ A.T + 0.5 * np.eye(p)
        instances.setdefault((p, G), []).append((B, B2, Sigma0))
    violations = 0
    for stack in instances.values():
        gap, bound = maximin_norm_gap(*map(np.array, zip(*stack)))
        violations += int(np.count_nonzero(gap > bound + 1e-8))

    spec0 = scenario_presets(1, 2, 100)
    base = cell_seed(MASTER_SEED, 1, 2, 100)
    M0 = true_maximin(spec0)
    hits = 0
    for rep in range(500):
        spec = replace(spec0, seed=_derive_seed(base, "c10", rep))
        dataset, _ = generate(spec)
        estimates = fit(dataset)
        boxes = group_confidence_boxes(estimates, alpha=0.05)
        region = covering_region(boxes, estimates.Sigma_hat, target_eps=0.25)
        hits += bool(contains_relaxed(region, M0))
    rate = hits / 500.0
    ok = violations == 0 and rate >= 0.95
    _finish(10, "norm-gap bound and relaxed-region membership",
            ok, f"violations={violations}/10000 (target 0),"
            f" membership={rate:.4f} (target >= 0.95)")


def test_criterion_11_chi_square_round_trip():
    worst = chi2_round_trip_error(range(1, 51))
    ok = worst <= 1e-8
    _finish(11, "chi-square quantile round trip",
            ok, f"worst CDF error={worst:.2e} target <= 1e-8")


def test_criterion_12_grid_output_reproducible():
    def run(parallelism):
        results = run_grid(
            [1], [2, 3], [50, 100], 50,
            alpha=0.05, master_seed=MASTER_SEED, parallelism=parallelism,
        )
        return grid_to_csv(results).encode("utf-8")

    first = run(1)
    second = run(1)
    parallel = run(8)
    ok = first == second == parallel
    _finish(12, "grid CSV byte reproducibility",
            ok, f"serial repeat match={first == second},"
            f" 8-worker match={first == parallel}")
