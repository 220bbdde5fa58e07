"""Simplex QP solver and the maximin points it produces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maximin.errors import BudgetError, ConvergenceError, DefinitenessError, DimensionError
from maximin.linmodel import GroupedDataset
from maximin.magging import maximin_point, sigma_gram, stacked_maximin
from maximin.pipeline import estimate_dataset
from maximin.selfcheck import brute_force_oracle
from reference import explained_variance


def test_symmetric_basis_splits_weight_evenly():
    sol = maximin_point(np.eye(3), np.eye(3))
    assert np.allclose(sol.M, np.full(3, 1.0 / 3.0))
    assert np.allclose(sol.alpha, np.full(3, 1.0 / 3.0))
    assert sol.active == (0, 1, 2)
    assert abs(sol.objective - 1.0 / 3.0) < 1e-12
    assert sol.kkt_residual <= 1e-10


def test_a_representable_gram_does_not_overflow():
    # b_1^T b_1 = 1.69e308 is below the float maximum, but the sum of the
    # entry and its transpose is not: halve before adding
    B = np.array([[1.2e154, 1.2e154], [0.5e154, -0.5e154]])
    H = sigma_gram(B, np.eye(2))
    assert np.isfinite(H).all()
    diagonal, off = 1.2e154 ** 2 + 0.5e154 ** 2, 1.2e154 ** 2 - 0.5e154 ** 2
    assert H[0, 1] == H[1, 0]
    assert np.allclose(H, [[diagonal, off], [off, diagonal]], rtol=1e-15, atol=0.0)


def test_a_gram_whose_trace_overflows_keeps_its_weights():
    # Noise-only responses times 4e154 (G = 8, n = 50, p = 2): every
    # H_gg is finite, but their sum is not. The QP's tolerance is formed
    # without the sum, so the weights are those of the same data at scale
    # 1 (0.383 on g1, 0.498 on g6, 0.119 on g7), not the vertex [1, 0, ...].
    rng = np.random.default_rng(1)
    draws = [(rng.standard_normal((50, 2)), rng.standard_normal(50)) for _ in range(8)]
    solutions = []
    for scale in (1.0, 4e154):
        dataset = GroupedDataset(tuple((X, y * scale) for X, y in draws))
        estimates, solution, _ = estimate_dataset(dataset)
        solutions.append(solution)
    H = sigma_gram(estimates.Bhat, estimates.Sigma_hat)
    with np.errstate(over="ignore"):
        assert np.isfinite(H).all() and np.isinf(np.trace(H))
    small, large = solutions
    assert large.active == small.active == (0, 5, 6)
    assert np.allclose(large.alpha, small.alpha, rtol=0.0, atol=1e-12)
    assert large.kkt_residual <= 1e-10 * np.diagonal(H).max()


def test_a_full_face_that_overflows_is_refused_quietly():
    # 2 H_22 overflows on the full face, which the trial forms, but on no
    # face the loop forms ({0}, then {0, 1}). The trial refuses it without
    # a warning, and the loop stops on the edge {0, 1}.
    B = np.array([[1e150, -1e150, 1e154], [0.0, 1e149, 3e153]])
    H = sigma_gram(B, np.eye(2))
    with np.errstate(over="ignore"):
        assert np.isfinite(H).all() and np.isinf(2.0 * H[2, 2])
    solution = maximin_point(B, np.eye(2))
    assert solution.active == (0, 1) and solution.iterations == 2
    t = 2.0 / 4.01  # the edge's closest point to the origin
    assert np.allclose(solution.alpha, [1.0 - t, t, 0.0], rtol=1e-12, atol=0.0)


def test_a_loop_face_that_overflows_is_refused_without_a_warning():
    # The same columns with b_3's second entry negated: the loop grows the
    # edge {0, 1} by column 2, and 2 H_22 overflows on that face. The face
    # is formed without a warning (which this suite's filterwarnings would
    # raise), and its solve refuses the program three solves in, far
    # from the cap, with an error that names the overflowing column.
    B = np.array([[1e150, -1e150, 1e154], [0.0, 1e149, -3e153]])
    with pytest.raises(ConvergenceError, match=r"^2 B\^T Sigma B overflowed in group column 3;"):
        maximin_point(B, np.eye(2))
    assert stacked_maximin(B[None], np.eye(2)[None]).iterations.tolist() == [3]


def test_a_vertex_whose_neighbour_gradient_overflows_is_optimal():
    # H is about [[8.9e307, 9e307], [9e307, 1e308]]: finite and positive
    # semidefinite, with 2 H_00 finite and the gradient 2 H_10 at vertex 0
    # beyond the largest float. Vertex 0 is optimal, its gap 2 (H_10 -
    # H_00) > 0; the inf off the support must not make lam 0 * inf = NaN,
    # or the loop cycles to its cap. No overflow warning either.
    B = np.linalg.cholesky(np.array([[8.9e307, 9e307], [9e307, 1e308]])).T
    sol = maximin_point(B, np.eye(2))
    assert sol.alpha.tolist() == [1.0, 0.0]
    assert sol.active == (0,)
    assert sol.kkt_residual == 0.0
    assert sol.unique_weights
    assert sol.iterations == 0


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


def test_weights_are_not_unique_where_an_off_support_column_has_no_gap():
    # M = 0 = (b1 + b2) / 4 + b3 / 2 = (b3 + b4) / 2: the inactive b4 lies
    # on the supporting hyperplane, and its multiplier gap is zero
    B = np.array([[-1.0, 1.0, 0.0, 0.0], [1.0, 1.0, -1.0, 1.0]])
    sol = maximin_point(B, np.eye(2))
    assert sol.active == (0, 1, 2) and np.allclose(sol.M, 0.0, atol=1e-12)
    assert not sol.unique_weights
    # a vertex whose other columns keep clear gaps has unique weights
    assert maximin_point(np.array([[0.1, 5.0, 3.0], [0.0, 1.0, -4.0]]), np.eye(2)).unique_weights


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
    with pytest.raises(DimensionError, match=r"known_sigma must be 2 x 2, got \(3, 3\)"):
        maximin_point(B, np.eye(3))


def test_a_gram_that_is_not_finite_names_its_column():
    # columns 2 and 3 both overflow b_g^T Sigma b_g; the first is named
    for B, cause in ((np.array([[1.0, np.nan], [0.0, 1.0]]), "is not finite"),
                     (np.array([[1.0, 1e200, 1e160], [0.0, 1.0, 1.0]]), "overflowed")):
        with pytest.raises(ConvergenceError, match=rf"^B\^T Sigma B {cause} in group column 2;"):
            maximin_point(B, np.eye(2))


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
