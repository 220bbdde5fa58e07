"""Metric primitives, projections, and the closed-form differentials."""

import numpy as np
import pytest

from maximin.errors import DefinitenessError, DegenerateGeometryError, RankError
from maximin.geometry import Face, SigmaMetric
from maximin.magging import maximin_point
from maximin.selfcheck import separated_instances


@pytest.fixture(scope="module")
def corpus():
    return separated_instances(20, seed=123)


def test_metric_validation():
    with pytest.raises(DefinitenessError):
        SigmaMetric(np.ones((2, 3)))
    with pytest.raises(DefinitenessError):
        SigmaMetric(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(DefinitenessError):
        SigmaMetric(np.diag([1.0, -1.0]))
    stack = np.stack([np.eye(2), np.diag([1.0, -1.0]), [[1.0, 0.5], [0.0, 1.0]]])
    with pytest.raises(DefinitenessError, match="not symmetric"):
        SigmaMetric(stack)
    with pytest.raises(DefinitenessError, match="not positive definite"):
        SigmaMetric(stack[:2])


def test_metric_operations():
    Sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    metric = SigmaMetric(Sigma)
    x = np.array([1.0, -2.0])
    y = np.array([0.5, 3.0])
    assert metric.inner(x, y) == pytest.approx(float(x @ Sigma @ y))
    assert metric.norm(x) == pytest.approx(float(np.sqrt(x @ Sigma @ x)))
    assert np.allclose(metric.solve(Sigma @ x), x)
    assert np.allclose(metric.inverse(), np.linalg.inv(Sigma))
    assert SigmaMetric.ensure(metric) is metric
    assert isinstance(SigmaMetric.ensure(Sigma), SigmaMetric)


def test_affine_project_single_point():
    metric = SigmaMetric(np.eye(2))
    pts = np.array([[1.0, 2.0]])
    out = Face(pts.T, metric).project(np.array([5.0, 5.0]))
    assert np.array_equal(out, pts[0])


def test_affine_project_idempotent_and_orthogonal():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((9, 1))))
    for _ in range(25):
        p = int(rng.integers(2, 5))
        k = int(rng.integers(2, p + 2))
        pts = rng.standard_normal((k, p))
        A = rng.standard_normal((p, p))
        metric = SigmaMetric(A @ A.T + 0.5 * np.eye(p))
        x = rng.standard_normal(p)
        face = Face(pts.T, metric)
        proj = face.project(x)
        again = face.project(proj)
        assert np.allclose(proj, again, atol=1e-9)
        # residual is Sigma-orthogonal to every difference of points
        for i in range(1, k):
            d = pts[i] - pts[0]
            assert abs(metric.inner(x - proj, d)) < 1e-8


def test_affine_project_handles_duplicate_points():
    metric = SigmaMetric(np.eye(2))
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    proj = Face(pts.T, metric).project(np.array([0.5, 2.0]))
    assert np.allclose(proj, [0.5, 0.0])


def test_complement_project_kills_difference_directions():
    B = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    Pi = Face(B, SigmaMetric(np.eye(3))).complement
    assert np.allclose(Pi @ np.array([1.0, 0.0, 0.0]), 0.0)
    assert np.allclose(Pi @ np.array([0.0, 1.0, 0.0]), 0.0)
    e3 = np.array([0.0, 0.0, 1.0])
    assert np.allclose(Pi @ e3, e3)


def test_complement_project_single_column_is_identity():
    metric = SigmaMetric(np.eye(2))
    v = np.array([3.0, -1.0])
    assert np.array_equal(Face(np.array([[1.0], [2.0]]), metric).complement @ v, v)


def test_jacobian_rejects_degenerate_configurations():
    metric = SigmaMetric(np.eye(2))
    with pytest.raises(DegenerateGeometryError):
        Face(np.array([[1.0], [0.0]]), metric).jacobians(np.array([1.0, 0.0]))
    # collinear columns: each lies in the affine hull of the other two
    B = np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 0.0]])
    with pytest.raises(DegenerateGeometryError, match="active column 0"):
        Face(B, metric).jacobians(np.zeros(2))


def test_jacobian_matches_finite_differences(corpus):
    h = 1e-6
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((9, 2))))
    for B, Sigma, sol in corpus:
        jacobians = Face(B[:, list(sol.active)], Sigma).jacobians(sol.M)
        for J, g in zip(jacobians, sol.active):
            E = rng.standard_normal(B.shape[0])
            E /= np.linalg.norm(E)
            Bp, Bm = B.copy(), B.copy()
            Bp[:, g] += h * E
            Bm[:, g] -= h * E
            fd = (maximin_point(Bp, Sigma).M - maximin_point(Bm, Sigma).M) / (2 * h)
            err = np.linalg.norm(fd - J @ E)
            assert err <= 1e-4 * max(np.linalg.norm(fd), 1e-8)


def test_inactive_columns_do_not_move_the_solution(corpus):
    h = 1e-6
    for B, Sigma, sol in corpus:
        inactive = [g for g in range(B.shape[1]) if g not in sol.active]
        if not inactive:
            continue
        Bp = B.copy()
        Bp[:, inactive[0]] += h
        moved = maximin_point(Bp, Sigma).M
        assert np.linalg.norm(moved - sol.M) <= 1e-9


def test_metric_derivative_matches_finite_differences(corpus):
    h = 1e-6
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((9, 3))))
    for B, Sigma, sol in corpus:
        Z = rng.standard_normal(Sigma.shape)
        Delta = (Z + Z.T) / 2.0
        Delta /= np.linalg.norm(Delta)
        sub = B[:, list(sol.active)]
        dv = Face(sub, Sigma).dsigma(sol.M, Delta)
        fd = (
            maximin_point(B, Sigma + h * Delta).M
            - maximin_point(B, Sigma - h * Delta).M
        ) / (2 * h)
        assert np.linalg.norm(fd - dv) <= 1e-4 * max(np.linalg.norm(fd), 1e-8)


def test_metric_derivative_validation():
    metric = SigmaMetric(np.eye(2))
    M = np.array([0.5, 0.5])
    single = np.array([[1.0], [0.0]])
    assert np.array_equal(Face(single, metric).dsigma(single[:, 0], np.eye(2)), np.zeros(2))
    face = Face(np.eye(2), metric)
    with pytest.raises(RankError):
        face.dsigma(M, np.eye(3))
    with pytest.raises(ValueError):
        face.dsigma(M, np.array([[0.0, 1.0], [0.0, 0.0]]))
    # duplicated columns make the difference matrix rank deficient
    bad = np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(RankError):
        Face(bad, metric).dsigma(np.zeros(2), np.eye(2))

