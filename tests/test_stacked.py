"""Differential tests: the stacked kernels against their loop references."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from maximin import magging
from maximin.errors import ConvergenceError, SingularFitError
from maximin.geometry import SigmaMetric
from maximin.linmodel import GroupedDataset, ScenarioSpec, fit, fit_stack, generate
from maximin.magging import _residual, maximin_point, stacked_maximin, stacked_simplex_qp
from maximin.relaxation import (
    CoveringRegion,
    GroupBoxes,
    contains_relaxed,
    covering_region,
    group_confidence_boxes,
)
from maximin.selfcheck import brute_force_oracle


def _programs(seed, R, p, G, shifted, duplicates):
    """R hull programs (H, c, B, Sigma, m): item r has linear term
    -2 B^T Sigma m when shifted[r], and column 0 copied into the last
    column when duplicates[r]."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 71))))
    out = []
    for r in range(R):
        B = rng.standard_normal((p, G)) + rng.uniform(0.0, 2.0)
        if duplicates[r] and G > 1:
            B[:, -1] = B[:, 0]
        A = rng.standard_normal((p, p))
        Sigma = A @ A.T + 0.5 * np.eye(p)
        m = rng.standard_normal(p) if shifted[r] else np.zeros(p)
        H = B.T @ Sigma @ B
        out.append(((H + H.T) / 2.0, -2.0 * (B.T @ (Sigma @ m)), B, Sigma, m))
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    G=st.integers(1, 8),
    p=st.integers(1, 5),
    flags=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    linear=st.booleans(),
)
def test_stacked_qp_matches_the_active_set_loop_and_the_oracle(G, p, flags, seed, linear):
    shifted = [s and linear for s, _ in flags]
    programs = _programs(seed, len(flags), p, G, shifted, [d for _, d in flags])
    H = np.stack([h for h, *_ in programs])
    c = np.stack([cv for _, cv, *_ in programs]) if linear else None
    gamma, support, iterations = stacked_simplex_qp(H, c)
    assert iterations.max() <= 100 * G
    assert gamma.shape == (len(flags), G) and support.shape == (len(flags), G)
    for r, (H_r, c_r, B, Sigma, m) in enumerate(programs):
        g = gamma[r]
        assert g.min() >= 0.0
        assert abs(g.sum() - 1.0) <= 1e-12
        assert not np.any(g[~support[r]])
        scale = max(1.0, float(np.abs(H_r).max()), float(np.abs(c_r).max()))
        free = [int(j) for j in np.flatnonzero(support[r])]
        assert _residual(H_r, c_r, g, free)[0] <= 1e-8 * scale
        # The oracle's minimum-norm point of the shifted columns is B g - m,
        # and the objective is its squared norm less m^T Sigma m.
        z = brute_force_oracle(B - m[:, None], Sigma)
        d = B @ g - m - z
        assert float(np.sqrt(d @ Sigma @ d)) <= 1e-6
        obj = float(g @ H_r @ g + c_r @ g)
        assert obj <= float(z @ Sigma @ z - m @ Sigma @ m) + 1e-9 * scale


def test_exactly_duplicated_columns_do_not_raise():
    B = np.array([[1.0, 1.0, 1.0, -0.5], [0.5, 0.5, 0.5, 2.0]])
    H = np.stack([B.T @ B, np.ones((4, 4))])
    gamma, support, iterations = stacked_simplex_qp(H)
    assert np.allclose(gamma.sum(axis=1), 1.0)
    M = B @ gamma[0]
    assert np.allclose(M, brute_force_oracle(B, np.eye(2)), atol=1e-12)
    # the first program grows its best vertex, column 0, by column 3 and
    # stops; every vertex of the second is optimal
    assert iterations.tolist() == [1, 0]


def _assert_refused_alone(B, Sigma, messages):
    """stacked_maximin refuses the rows messages names, with those
    ConvergenceError messages and NaN weights and points, and gives every
    other row the bits of its stack of one; maximin_point raises each
    refused row's error."""
    got = stacked_maximin(B, Sigma)
    assert [None if e is None else (type(e), str(e)) for e in got.errors] == [
        (ConvergenceError, messages[r]) if r in messages else None for r in range(len(B))]
    for r in range(len(B)):
        if r in messages:
            assert np.isnan(got.gamma[r]).all() and np.isnan(got.M[r]).all()
            with pytest.raises(ConvergenceError, match=f"^{re.escape(messages[r])}$"):
                maximin_point(B[r], Sigma[r])
            continue
        alone = stacked_maximin(B[r:r + 1], Sigma[r:r + 1])
        assert alone.errors == (None,)
        for field, stacked, single in zip(got._fields, got[:-1], alone[:-1]):
            assert stacked[r].tobytes() == single[0].tobytes(), field


@pytest.mark.parametrize("G", [4, 8])
def test_a_program_whose_gram_is_not_finite_is_refused_alone(G):
    # the refused rows are left out of the solve
    programs = _programs(3, 5, 3, G, [False] * 5, [False] * 5)
    B = np.stack([b for _, _, b, _, _ in programs])
    Sigma = np.stack([S for *_, S, _ in programs])
    B[1, 0, 2] = np.nan
    B[3, :, 1] *= 1e160
    _assert_refused_alone(B, Sigma, {
        1: "B^T Sigma B is not finite in group column 3; the simplex QP has no finite solution",
        3: "B^T Sigma B overflowed in group column 2; the simplex QP has no finite solution",
    })


@pytest.mark.parametrize("p, G", [(2, 5), (3, 4), (2, 8)])
def test_each_stacked_row_keeps_the_bits_of_its_stack_of_one(p, G):
    # Standard-normal columns under Sigma = I: many of these hulls hold
    # the origin, where M = 0 and several faces tie up to rounding, and a
    # row still ends on the face, weights and point it gets alone.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((9, p, G))))
    B = rng.standard_normal((500, p, G))
    _assert_refused_alone(B, np.broadcast_to(np.eye(p), (500, p, p)), {})


def _cycle_at_4I(monkeypatch):
    """Make the G = 8 active-set loop cycle to its cap on H = 4 I: it grows
    the working set {0} by column 1, whose face solution then steps
    straight back to {0}."""
    face_solutions = magging._face_solutions

    def cycling(H, c, k):
        x = face_solutions(H, c, k)
        for r in range(len(H)):
            if np.array_equal(H[r], 4.0 * np.eye(8)):
                x[r, :2] = [1.0, 0.0] if k[r] == 0 else [1.5, -0.5]
        return x

    monkeypatch.setattr(magging, "_face_solutions", cycling)


def test_a_capped_program_is_refused_alone(monkeypatch):
    # One G = 8 program cycles to the cap. Its row alone is refused; the
    # hull test raises the error.
    _cycle_at_4I(monkeypatch)
    programs = _programs(5, 3, 8, 8, [False] * 3, [False] * 3)
    B = np.stack([b for _, _, b, _, _ in programs])
    Sigma = np.stack([S for *_, S, _ in programs])
    B[1], Sigma[1] = 2.0 * np.eye(8), np.eye(8)
    message = "simplex QP did not converge within 800 iterations"
    _assert_refused_alone(B, Sigma, {1: message})
    # the one center B[1], as one length-1 axis per entry in (g, j) order
    region = CoveringRegion(axes=tuple(B[1].T.reshape(-1, 1)), radii=np.ones(1),
                            shells=np.zeros(1), Sigma0=np.eye(8), level=0.95, spacing=1.0)
    with pytest.raises(ConvergenceError, match=f"^{message}$"):
        contains_relaxed(region, np.zeros(8))


def test_the_covering_build_raises_its_first_capped_center(monkeypatch):
    # Entry (0, 1) takes the values -h, 0 and h, exactly, so of the three
    # lattice centers 2 I + t e_0 e_1^T only the middle one, 2 I, cycles.
    _cycle_at_4I(monkeypatch)
    eps = 0.5
    h = 2.0 * eps / math.sqrt(8)
    halfwidths = np.zeros((8, 8))
    halfwidths[0, 1] = 1.5 * h
    boxes = GroupBoxes(centers=2.0 * np.eye(8), scatters=None, sigma2=1.0, threshold=1.0,
                       level_per_box=0.99, alpha=0.05, n=10, halfwidths=halfwidths)
    with pytest.raises(ConvergenceError,
                       match="^simplex QP did not converge within 800 iterations$"):
        covering_region(boxes, np.eye(8), target_eps=eps)
    monkeypatch.undo()
    region = covering_region(boxes, np.eye(8), target_eps=eps)
    assert region.axes[8].tolist() == [-h, 0.0, h]
    assert region.pieces == 3 and np.isfinite(region.shells).all()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    p=st.integers(1, 5),
    G=st.integers(1, 6),
    n=st.integers(1, 14),
    seed=st.integers(0, 2**32 - 1),
    jitter=st.sampled_from([0.0, 0.05]),
)
def test_batched_fit_matches_the_group_loop(p, G, n, seed, jitter):
    rule = "shared-plus-noise" if p >= 2 else "identical"
    dataset, _ = generate(ScenarioSpec(p=p, G=G, n=n, coefficient_rule=rule, seed=seed))
    try:
        expected = reference.fit(dataset, jitter)
    except SingularFitError as err:
        with pytest.raises(SingularFitError) as info:
            fit(dataset, jitter)
        assert str(info.value) == str(err) and info.value.group == err.group
        return
    got = fit(dataset, jitter)
    # Compare where the per-group problems are well conditioned; the
    # loop and the batch round differently.
    if n >= 2 * p + 2 or jitter > 0:
        for a, b in (
            (expected.Bhat, got.Bhat),
            (expected.Sigma_hat, got.Sigma_hat),
            (expected.Sigma_g_hat, got.Sigma_g_hat),
        ):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)
        y2 = np.mean([y @ y / n for _, y in dataset.groups])
        assert abs(got.sigma2_hat - expected.sigma2_hat) <= 1e-12 * max(expected.sigma2_hat, y2)
    assert got.sigma2_approximate == expected.sigma2_approximate


@pytest.mark.parametrize("fault", ["duplicate", "zero"])
def test_singular_group_raises_like_the_loop(fault):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 72))))
    groups = []
    for g in range(4):
        X = rng.standard_normal((10, 3))
        if g >= 2:
            # groups 3 and 4 both fail; the first must be named
            if fault == "duplicate":
                X[:, 2] = X[:, 0]
            else:
                X[:, 1] = 0.0
        groups.append((X, rng.standard_normal(10)))
    dataset = GroupedDataset(tuple(groups), labels=("a", "b", "c", "d"))
    with pytest.raises(SingularFitError) as expected:
        reference.fit(dataset)
    with pytest.raises(SingularFitError) as got:
        fit(dataset)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    assert got.value.group == expected.value.group == "c"


def test_fit_stack_flags_only_the_failing_datasets():
    # the middle dataset has a zero column, so its Cholesky fails and
    # the batched factorisation falls back to one item at a time
    datasets = [generate(ScenarioSpec(p=3, G=2, n=8, seed=s))[0] for s in (1, 2, 3)]
    X = np.stack([d.X for d in datasets])
    y = np.stack([d.y for d in datasets])
    X[1, 1, :, 2] = 0.0
    fitted = fit_stack(X, y)
    assert fitted.ok.tolist() == [True, False, True]
    assert fitted.pivots_ok[1].tolist() == [True, False]
    assert np.isnan(fitted.coef[1]).all() and np.isnan(fitted.sigma2[1])
    for r in (0, 2):
        alone = fit(datasets[r])
        assert fitted.Bhat[r].tobytes() == alone.Bhat.tobytes()
        assert float(fitted.sigma2[r]) == alone.sigma2_hat


def test_contains_relaxed_matches_the_piece_loop():
    estimates = fit(generate(ScenarioSpec(p=3, G=3, n=400, seed=12))[0])
    boxes = group_confidence_boxes(estimates, alpha=0.05)
    region = covering_region(boxes, np.eye(3), target_eps=0.15)
    assert region.pieces > 64  # several chunks
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 73))))
    center = np.full(3, 1.0 / 3.0)
    queries = [center + rng.uniform(-0.4, 0.4, size=3) for _ in range(40)]
    queries += [center * s for s in np.linspace(0.0, 2.0, 9)]
    inside = 0
    for M in queries:
        got = contains_relaxed(region, M)
        assert got == reference.contains_relaxed(region, M)
        inside += got
    assert 0 < inside < len(queries)


def test_stacked_solves_pass_column_right_hand_sides(monkeypatch):
    # NumPy 1.x reads a right-hand side with one axis fewer than its stack
    # of matrices as a stack of vectors, so every stacked solve passes b
    # with an explicit column axis.
    solve = np.linalg.solve

    def strict(a, b):
        assert a.ndim == 2 or b.ndim == a.ndim, (a.shape, b.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", strict)
    B = np.array([[1.0, 1.0, 0.0], [0.5, 0.5, 1.0]])
    wide = np.stack([h for h, *_ in _programs(4, 2, 8, 8, [False] * 2, [False] * 2)])
    for linear in (None, np.ones((2, 3))):
        stacked_simplex_qp(np.stack([B.T @ B, np.eye(3)]), linear)
        stacked_simplex_qp(wide, None if linear is None else np.ones((2, 8)))
    dataset, _ = generate(ScenarioSpec(p=3, G=3, n=20, seed=1))
    fit(dataset)


def test_a_stack_of_one_keeps_the_single_matrix_arithmetic():
    # The single-dataset outputs (simulate's grid bytes, estimate and
    # region JSON) keep their bits only if the stacked kernels repeat
    # the single-matrix calls: M = B @ alpha on the fitted layout and
    # Sigma^{-1} from the Cholesky factor, symmetrised.
    for seed in range(8):
        dataset, _ = generate(ScenarioSpec(p=3, G=3, n=100, seed=seed))
        estimates = fit(dataset)
        metric = SigmaMetric(estimates.Sigma_hat)
        solution = maximin_point(estimates.Bhat, metric)
        assert solution.M.tobytes() == (estimates.Bhat @ solution.alpha).tobytes()
        factor = scipy.linalg.cho_factor(estimates.Sigma_hat, lower=True)
        inverse = scipy.linalg.cho_solve(factor, np.eye(3))
        assert metric.inverse().tobytes() == ((inverse + inverse.T) / 2.0).tobytes()
        stack = SigmaMetric(np.stack([estimates.Sigma_hat, 2.0 * np.eye(3)]))
        assert stack.inverse()[0].tobytes() == metric.inverse().tobytes()
