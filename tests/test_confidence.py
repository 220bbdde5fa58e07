"""Quantile inversion and the ellipsoidal region built from W."""

import json

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from maximin.confidence import (
    build_region,
    chi2_cdf,
    chi2_quantile,
    contains,
    max_eigenvalue,
)
from maximin.errors import ConditioningError, DimensionError
from maximin.linmodel import GroupedDataset, ScenarioSpec, generate
from maximin.pipeline import analyze_dataset
from reference import quadratic_form


def test_quantile_agrees_with_independent_implementation():
    for dof in range(1, 31):
        for prob in (0.5, 0.9, 0.95, 0.99, 0.999):
            mine = chi2_quantile(dof, prob)
            ref = scipy.stats.chi2.ppf(prob, dof)
            assert abs(mine - ref) <= 1e-9 * max(ref, 1.0)


def test_quantile_round_trip_is_tight():
    for dof in (1, 2, 3, 5, 17, 50):
        for prob in (0.5, 0.9, 0.95, 0.99):
            assert abs(chi2_cdf(dof, chi2_quantile(dof, prob)) - prob) <= 1e-10


def test_quantile_and_cdf_match_scipy_special():
    # the series, the continued fraction and the root search, from the far
    # lower to the far upper tail and up to 10^4 degrees of freedom
    probs = [1e-12, 0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-12]
    probs += [1.0 - 0.05 / G for G in range(1, 51)]
    for dof in [*range(1, 201), 500, 1000, 10**4]:
        for prob in probs:
            ref = 2.0 * float(scipy.special.gammaincinv(dof / 2.0, prob))
            assert abs(chi2_quantile(dof, prob) - ref) <= 1e-13 * ref, (dof, prob)
            cdf = float(scipy.special.gammainc(dof / 2.0, ref / 2.0))
            assert abs(chi2_cdf(dof, ref) - cdf) <= 1e-14, (dof, prob)


def test_cdf_at_infinity_and_nan():
    assert chi2_cdf(3, float("inf")) == 1.0
    assert np.isnan(chi2_cdf(3, float("nan")))


def test_quantile_validation():
    with pytest.raises(ValueError):
        chi2_quantile(0, 0.5)
    with pytest.raises(ValueError):
        chi2_quantile(3, 0.0)
    with pytest.raises(ValueError):
        chi2_quantile(3, 1.0)
    with pytest.raises(ValueError):
        chi2_cdf(0, 1.0)
    assert chi2_cdf(3, 0.0) == 0.0
    assert chi2_cdf(3, -1.0) == 0.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    dof=st.integers(1, 40),
    lo=st.floats(0.01, 0.98),
    step=st.floats(0.001, 0.019),
)
def test_quantile_is_monotone_in_probability(dof, lo, step):
    assert chi2_quantile(dof, lo) < chi2_quantile(dof, lo + step)


def test_region_geometry_fields():
    W = np.diag([4.0, 1.0])
    center = np.array([1.0, -1.0])
    region = build_region(center, W, n=100, alpha=0.05)
    tau = chi2_quantile(2, 0.95)
    assert region.radius2 == pytest.approx(tau / 100)
    assert region.tau == pytest.approx(tau)
    assert region.level == 0.95
    assert (region.n_used, region.p_used) == (100, 2)
    # eigenvalues describe W / n, sorted descending
    assert np.allclose(region.eigenvalues, [0.04, 0.01])
    assert np.allclose(region.semi_axes(), np.sqrt(tau * np.array([0.04, 0.01])))
    assert contains(region, center) is True
    assert quadratic_form(region, center) == 0.0
    assert max_eigenvalue(W) == pytest.approx(4.0)
    assert json.dumps(region.to_dict())


def test_region_membership_boundary():
    region = build_region(np.zeros(2), np.eye(2), n=4, alpha=0.05)
    r = np.sqrt(region.radius2)
    # exactly-on-edge points round either way; step in by one part in 1e9
    just_inside = np.array([r * (1.0 - 1e-9), 0.0])
    assert contains(region, just_inside)
    assert quadratic_form(region, just_inside) == pytest.approx(region.radius2, rel=1e-6)
    assert not contains(region, np.array([1.001 * r, 0.0]))


def test_region_flags_come_from_the_analysis():
    # b_1 is the point of the segment [b_1, b_2] nearest the origin, so
    # the maximin point is the vertex b_1 alone
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 2))))
    groups = []
    for b in ((1.0, 0.0), (2.0, 1.0)):
        X = rng.standard_normal((50, 2))
        groups.append((X, X @ np.array(b) + 0.1 * rng.standard_normal(50)))
    dataset = GroupedDataset(tuple(groups))
    pooled = analyze_dataset(dataset)
    assert pooled.solution.active == (0,)
    assert pooled.region.flags == {
        "vertex_mode": True, "known_sigma": False, "sigma2_approximate": False}
    known = analyze_dataset(dataset, known_sigma=np.eye(2))
    assert known.region.flags["known_sigma"] is True
    assert known.region.flags["vertex_mode"] is True
    assert build_region(np.zeros(2), np.eye(2), n=10, alpha=0.1).flags == {}


def test_the_analysis_region_is_centred_on_the_solution():
    ds, _ = generate(ScenarioSpec(p=3, G=3, n=200, seed=23))
    analysis = analyze_dataset(ds)
    assert analysis.region.level == 0.95
    assert np.array_equal(analysis.region.center, analysis.solution.M)
    assert analysis.covariance.W.shape == (3, 3)
    assert analyze_dataset(ds, alpha=0.01).region.radius2 > analysis.region.radius2


def test_a_known_sigma_is_checked_and_drops_the_fluctuation_term():
    ds, _ = generate(ScenarioSpec(p=2, G=2, n=150, seed=24))
    known = analyze_dataset(ds, known_sigma=np.eye(2))
    assert known.region.flags["known_sigma"] is True
    assert np.array_equal(known.covariance.term_V, np.zeros((2, 2)))
    with pytest.raises(DimensionError, match="known_sigma must be 2 x 2"):
        analyze_dataset(ds, known_sigma=np.eye(3))
    with pytest.raises(ValueError, match="known_sigma contains NaN or infinite entries"):
        analyze_dataset(ds, known_sigma=[[1.0, np.nan], [np.nan, 1.0]])


def test_region_rejects_bad_covariances():
    with pytest.raises(ConditioningError) as info:
        build_region(np.zeros(2), np.zeros((2, 2)), n=10, alpha=0.05)
    assert info.value.eigenvalues is not None
    with pytest.raises(ConditioningError):
        build_region(np.zeros(2), np.diag([1.0, 1e13]), n=10, alpha=0.05)
    for W in (np.diag([1.0, np.inf]), np.array([[1.0, np.nan], [np.nan, 1.0]])):
        with pytest.raises(ConditioningError):
            build_region(np.zeros(2), W, n=10, alpha=0.05)
    with pytest.raises(ValueError):
        build_region(np.zeros(2), np.eye(2), n=0, alpha=0.05)
    with pytest.raises(ValueError):
        build_region(np.zeros(2), np.eye(2), n=10, alpha=1.5)


def test_region_covers_at_the_nominal_rate_for_exact_gaussians():
    # when sqrt(n) (M_hat - M0) is exactly N(0, W), coverage is exact
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 1))))
    W = np.array([[2.0, 0.7, 0.0], [0.7, 1.0, -0.2], [0.0, -0.2, 0.5]])
    L = np.linalg.cholesky(W)
    n = 50
    M0 = np.array([1.0, 2.0, 3.0])
    hits = 0
    draws = 5000
    for _ in range(draws):
        M_hat = M0 + (L @ rng.standard_normal(3)) / np.sqrt(n)
        region = build_region(M_hat, W, n=n, alpha=0.05)
        hits += contains(region, M0)
    assert abs(hits / draws - 0.95) <= 0.012

