"""Simplex QP solver and the maximin points it produces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maximin.errors import BudgetError, DefinitenessError
from maximin.magging import brute_force_oracle, maximin_point
from reference import explained_variance


def test_symmetric_basis_splits_weight_evenly():
    sol = maximin_point(np.eye(3), np.eye(3))
    assert np.allclose(sol.M, np.full(3, 1.0 / 3.0))
    assert np.allclose(sol.alpha, np.full(3, 1.0 / 3.0))
    assert sol.active == (0, 1, 2)
    assert abs(sol.objective - 1.0 / 3.0) < 1e-12
    assert sol.kkt_residual <= 1e-10


def test_single_group_is_returned_whole():
    B = np.array([[2.0], [1.0]])
    sol = maximin_point(B, np.eye(2))
    assert np.array_equal(sol.M, B[:, 0])
    assert sol.alpha.tolist() == [1.0]
    assert sol.active == (0,)


def test_opposite_points_cancel_to_zero():
    B = np.array([[1.0, -1.0], [0.0, 0.0]])
    sol = maximin_point(B, np.eye(2))
    assert np.allclose(sol.M, 0.0, atol=1e-12)
    assert np.allclose(sol.alpha, [0.5, 0.5])


def test_dominating_vertex_wins_alone():
    B = np.array([[0.1, 5.0, 3.0], [0.0, 1.0, -4.0]])
    sol = maximin_point(B, np.eye(2))
    assert sol.active == (0,)
    assert np.allclose(sol.M, B[:, 0])
    assert abs(sol.objective - 0.01) < 1e-12


def test_duplicate_columns_stay_solvable():
    B = np.array([[1.0, 1.0], [0.5, 0.5]])
    sol = maximin_point(B, np.eye(2))
    assert np.allclose(sol.M, B[:, 0])
    assert abs(sol.alpha.sum() - 1.0) < 1e-12


def test_metric_changes_the_answer():
    B = np.array([[1.0, 0.0], [0.0, 1.0]])
    lopsided = np.diag([100.0, 1.0])
    sol = maximin_point(B, lopsided)
    # the first coordinate is expensive, so weight shifts to e2
    assert sol.alpha[1] > 0.9
    ref = brute_force_oracle(B, lopsided)
    assert np.allclose(sol.M, ref, atol=1e-10)


def test_matches_exhaustive_oracle_on_random_instances():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((3, 17))))
    for _ in range(200):
        p = int(rng.integers(1, 6))
        G = int(rng.integers(1, 7))
        B = rng.standard_normal((p, G))
        A = rng.standard_normal((p, p))
        Sigma = A @ A.T + 0.5 * np.eye(p)
        sol = maximin_point(B, Sigma)
        ref = brute_force_oracle(B, Sigma)
        d = sol.M - ref
        assert float(np.sqrt(d @ Sigma @ d)) <= 1e-6
        assert sol.kkt_residual <= 1e-8


def test_sigma_validation():
    B = np.eye(2)
    with pytest.raises(DefinitenessError):
        maximin_point(B, np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(DefinitenessError):
        maximin_point(B, -np.eye(2))
    with pytest.raises(DefinitenessError):
        maximin_point(B, np.eye(3))


def test_explained_variance_formula():
    b = np.array([1.0, 0.0])
    b_g = np.array([0.5, 2.0])
    Sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    expected = 2.0 * b @ Sigma @ b_g - b @ Sigma @ b
    assert explained_variance(b, b_g, Sigma) == pytest.approx(expected)


def test_maximin_point_maximizes_worst_explained_variance():
    # the defining property, checked against every hull grid point
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((3, 23))))
    B = rng.standard_normal((2, 3)) + 1.0
    Sigma = np.eye(2)
    sol = maximin_point(B, Sigma)
    best = min(explained_variance(sol.M, B[:, g], Sigma) for g in range(3))
    grid = np.linspace(0.0, 1.0, 21)
    for a in grid:
        for b in grid:
            if a + b > 1.0:
                continue
            m = B @ np.array([a, b, 1.0 - a - b])
            worst = min(explained_variance(m, B[:, g], Sigma) for g in range(3))
            assert worst <= best + 1e-9


def test_brute_force_budget():
    with pytest.raises(BudgetError):
        brute_force_oracle(np.ones((2, 16)), np.eye(2))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_weights_form_a_convex_combination(data):
    p = data.draw(st.integers(1, 4))
    G = data.draw(st.integers(1, 5))
    entries = st.floats(-5.0, 5.0, allow_nan=False)
    rows = st.lists(entries, min_size=p, max_size=p)
    B = np.array(data.draw(st.lists(rows, min_size=G, max_size=G))).T
    sol = maximin_point(B, np.eye(p))
    assert sol.alpha.min() >= -1e-12
    assert abs(sol.alpha.sum() - 1.0) <= 1e-9
    assert np.allclose(B @ sol.alpha, sol.M, atol=1e-9)
    # no column can beat the hull minimum
    assert sol.objective <= min(float(c @ c) for c in B.T) + 1e-9
