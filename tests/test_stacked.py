"""Differential tests: the stacked kernels against their loop references."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from maximin.errors import SingularFitError
from maximin.geometry import SigmaMetric
from maximin.linmodel import GroupedDataset, ScenarioSpec, fit, fit_stack, generate
from maximin.magging import (
    ENUMERATION_MAX_G,
    _residual,
    _simplex_qp,
    brute_force_oracle,
    maximin_point,
    stacked_simplex_qp,
)
from maximin.relaxation import contains_relaxed, covering_region, group_confidence_boxes


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
    gamma, support, iterations = stacked_simplex_qp(H, p, c)
    assert gamma.shape == (len(flags), G) and support.shape == (len(flags), G)
    for r, (H_r, c_r, B, Sigma, m) in enumerate(programs):
        g = gamma[r]
        assert g.min() >= 0.0
        assert abs(g.sum() - 1.0) <= 1e-12
        assert not np.any(g[~support[r]])
        scale = max(1.0, float(np.abs(H_r).max()), float(np.abs(c_r).max()))
        free = [int(j) for j in np.flatnonzero(support[r])]
        assert _residual(H_r, c_r, g, free)[0] <= 1e-8 * scale
        loop, _, loop_iterations = _simplex_qp(H_r, c_r)
        obj = float(g @ H_r @ g + c_r @ g)
        assert obj <= float(loop @ H_r @ loop + c_r @ loop) + 1e-9 * scale
        if G > ENUMERATION_MAX_G:
            assert np.array_equal(g, loop) and iterations[r] == loop_iterations
        # The oracle's minimum-norm point of the shifted columns is B g - m.
        d = B @ g - m - brute_force_oracle(B - m[:, None], Sigma)
        assert float(np.sqrt(d @ Sigma @ d)) <= 1e-6


def test_exactly_duplicated_columns_do_not_raise():
    B = np.array([[1.0, 1.0, 1.0, -0.5], [0.5, 0.5, 0.5, 2.0]])
    H = np.stack([B.T @ B, np.ones((4, 4))])
    gamma, support, iterations = stacked_simplex_qp(H, 2)
    assert np.allclose(gamma.sum(axis=1), 1.0)
    M = B @ gamma[0]
    assert np.allclose(M, brute_force_oracle(B, np.eye(2)), atol=1e-12)
    # every face of at most p + 1 = 3 of the 4 columns was solved
    assert iterations.tolist() == [14, 14]


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
    for linear in (None, np.ones((2, 3))):
        stacked_simplex_qp(np.stack([B.T @ B, np.eye(3)]), 2, linear)
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
