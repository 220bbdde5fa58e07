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
from maximin.geometry import SigmaMetric, matvec
from maximin.linmodel import GroupedDataset, ScenarioSpec, fit, fit_stack, generate
from maximin.magging import (
    maximin_point,
    sigma_gram,
    stacked_maximin,
    stacked_simplex_qp,
)
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
        assert reference.kkt_residual(H_r, c_r, g, free) <= 1e-8 * scale
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
    # the first program's full face (G = 4 > p + 1) is singular, so it
    # refuses the trial's solve, then grows its best vertex, column 0, by
    # column 3 and stops; every vertex of the second is optimal
    assert iterations.tolist() == [2, 0]


def _none_accepted(H, c, tol):
    """A full-face trial that accepts no program: the loop alone."""
    return np.zeros(len(H), dtype=bool), np.zeros(H.shape[:2])


_KINDS = ("interior", "edge", "vertex", "duplicate", "collinear")


def _mixed_programs(seed, p, G, kinds, linear):
    """B (R, p, G), Sigma (R, p, p) and targets m (R, p), one program per
    kind: interior puts the origin (c = None) or m (linear) inside the
    hull with positive weights, edge offsets standard-normal columns,
    vertex spreads the columns along a ray from the one nearest the
    target, duplicate copies column 0 of an interior program into the
    last column, and collinear puts every column on one line."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 74))))
    Bs, Sigmas, ms = [], [], []
    for kind in kinds:
        B = rng.standard_normal((p, G))
        inside = B @ rng.dirichlet(np.ones(G))
        m = inside if linear else np.zeros(p)
        if kind in ("interior", "duplicate") and not linear:
            B -= inside[:, None]
        if kind == "duplicate" and G > 1:
            B[:, -1] = B[:, 0]
        elif kind == "edge":
            B += rng.uniform(0.5, 2.0)
        elif kind == "vertex":
            v = rng.standard_normal(p)
            B = np.outer(v, 1.0 + rng.uniform(0.0, 2.0, G)) + 0.01 * B
            B[:, 0] = v
            m = 0.5 * v if linear else m
        elif kind == "collinear":
            B = np.outer(rng.standard_normal(p), rng.standard_normal(G)) + rng.standard_normal((p, 1))
        A = rng.standard_normal((p, p))
        Bs.append(B)
        Sigmas.append(A @ A.T + 0.5 * np.eye(p))
        ms.append(m)
    return np.array(Bs), np.array(Sigmas), np.array(ms)


def _solved(B, Sigma, m, linear):
    """gamma, support, iterations and M of the programs: stacked_maximin
    for c = None, the hull-distance QP for linear."""
    if not linear:
        got = stacked_maximin(B, Sigma)
        return got.gamma, got.support, got.iterations, got.M
    c = -2.0 * matvec(B.swapaxes(1, 2), matvec(Sigma, m))
    gamma, support, iterations = stacked_simplex_qp(sigma_gram(B, Sigma), c)
    return gamma, support, iterations, matvec(B, gamma)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    G=st.integers(1, 12),
    p=st.integers(1, 12),
    kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    linear=st.booleans(),
)
def test_the_full_face_trial_keeps_the_loop_bits(G, p, kinds, seed, linear):
    # Whatever the trial accepts, the loop reaches on the same face with
    # the same bits. A G > p + 1 full face is singular in exact
    # arithmetic, and neither the trial nor the loop ever stands on it.
    B, Sigma, m = _mixed_programs(seed, p, G, kinds, linear)
    full_face, trials = magging._full_face, []

    def counted(H, c, tol):
        trials.append(len(H))
        return full_face(H, c, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(magging, "_full_face", counted)
        gamma, support, iterations, M = _solved(B, Sigma, m, linear)
    # one trial at most, on the programs not optimal at their best vertex
    assert len(trials) <= (G > 1) and all(0 < t <= len(kinds) for t in trials)
    if G > p + 1:
        assert not support.all(axis=1).any()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(magging, "_full_face", _none_accepted)
        loop = _solved(B, Sigma, m, linear)
    for field, got, expected in zip(("gamma", "support", "M"), (gamma, support, M),
                                    (loop[0], loop[1], loop[3])):
        assert got.tobytes() == expected.tobytes(), field
    assert (iterations <= loop[2]).all()
    for r in range(len(kinds)):
        alone = _solved(B[r:r + 1], Sigma[r:r + 1], m[r:r + 1], linear)
        for got, single in zip((gamma, support, iterations, M), alone):
            assert got[r].tobytes() == single[0].tobytes()


def test_an_interior_program_takes_one_face_solve(monkeypatch):
    # p = G = 12, columns near the basis vectors: the maximin point has
    # every weight positive. The trial's face solve is the only one. With
    # the trial refusing it, the loop grows the best vertex by one column
    # a solve, G - 1 of them, after the refused trial's solve.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((12, 75))))
    B = (np.eye(12) + 0.05 * rng.standard_normal((12, 12)))[None]
    Sigma = np.eye(12)[None]
    got = stacked_maximin(B, Sigma)
    assert got.iterations.tolist() == [1] and got.support.all()
    assert (got.gamma > 0.0).all()
    monkeypatch.setattr(magging, "_full_face", _none_accepted)
    loop = stacked_maximin(B, Sigma)
    assert loop.iterations.tolist() == [12]
    for field, stacked, single in zip(got._fields, got[:-1], loop[:-1]):
        if field != "iterations":
            assert stacked.tobytes() == single.tobytes(), field


def test_the_trial_solves_no_system_alone():
    # Hull distances from interior points m of 66 programs at p = G = 6.
    # Two programs have two zero columns, so their full faces are singular
    # and the trial's batched solve gives them NaN; their best vertices are
    # not optimal, so they do take the trial. The other 64 accept it, and
    # the loop then takes the two to their points m.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 76))))
    B = np.eye(6) + 0.05 * rng.standard_normal((66, 6, 6))
    B[[5, 40], :, 4:] = 0.0
    a = rng.dirichlet(np.ones(6), size=66)
    a[[5, 40], 4:] = 0.0
    a /= a.sum(axis=1, keepdims=True)
    c = -2.0 * matvec(B.swapaxes(1, 2), matvec(B, a))
    gamma, support, iterations = stacked_simplex_qp(sigma_gram(B, np.eye(6)), c)
    refused = [5, 40]
    assert (iterations[refused] > 1).all()
    assert np.allclose(matvec(B[refused], gamma[refused]), matvec(B[refused], a[refused]),
                       rtol=0.0, atol=1e-12)
    live = np.setdiff1d(np.arange(66), refused)
    assert iterations[live].tolist() == [1] * 64 and support[live].all()


def test_a_face_mask_is_solved_in_column_order():
    # Faces that are not prefixes of the columns: each weight off the face
    # is 0, and the face's weights solve its compacted bordered system
    # [[2 H_FF, 1], [1^T, 0]] [x_F; lam] = [-c_F; 1]. One (1, G) full
    # mask gives the bytes of the (R, G) one.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((8, 77))))
    R, G = 300, 8
    H = sigma_gram(np.eye(G) + 0.3 * rng.standard_normal((R, G, G)), np.eye(G))
    c = rng.standard_normal((R, G))
    face = rng.random((R, G)) < 0.5
    prefix = (face == (np.arange(G) < face.sum(axis=1, keepdims=True))).all(axis=1)
    H, c, face = H[~prefix], c[~prefix], face[~prefix]
    assert len(face) > 200
    for linear in (None, c):
        x = magging._face_solutions(H, linear, face)
        assert (x[~face] == 0.0).all()
        for r, on in enumerate(face):
            k = int(on.sum())
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k], kkt[k, k] = 2.0 * H[r][np.ix_(on, on)], 0.0
            rhs = np.append(np.zeros(k) if linear is None else -linear[r, on], 1.0)
            expected = np.linalg.solve(kkt, rhs)[:k]
            assert np.abs(x[r, on] - expected).max() <= 1e-12 * np.abs(expected).max()
        full = np.ones((len(H), G), dtype=bool)
        assert (magging._face_solutions(H, linear, full[:1]).tobytes()
                == magging._face_solutions(H, linear, full).tobytes())


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

    def cycling(H, c, face):
        x = face_solutions(H, c, face)
        sizes = np.broadcast_to(face, x.shape).sum(axis=1)
        for r in range(len(H)):
            if np.array_equal(H[r], 4.0 * np.eye(8)):
                x[r, :2] = [1.0, 0.0] if sizes[r] == 1 else [1.5, -0.5]
        return x

    monkeypatch.setattr(magging, "_face_solutions", cycling)


def test_the_trial_solve_leaves_the_loop_its_cap(monkeypatch):
    # The cycling program refuses the trial (its full face reads
    # [1.5, -0.5, ...]). That solve is counted in iterations but not
    # against the cap, so the loop still makes its 100 G solves.
    _cycle_at_4I(monkeypatch)
    gamma, _, iterations = stacked_simplex_qp(4.0 * np.eye(8)[None])
    assert np.isnan(gamma).all() and iterations.tolist() == [801]


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


def _assert_membership_matches_the_piece_loop(region, queries):
    inside = 0
    for M in queries:
        got = contains_relaxed(region, M)
        assert got == reference.contains_relaxed(region, M)
        inside += got
    assert 0 < inside < len(queries)


def test_contains_relaxed_matches_the_piece_loop():
    estimates = fit(generate(ScenarioSpec(p=3, G=3, n=400, seed=12))[0])
    boxes = group_confidence_boxes(estimates, alpha=0.05)
    region = covering_region(boxes, np.eye(3), target_eps=0.15)
    assert region.pieces > 64  # several chunks
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 73))))
    center = np.full(3, 1.0 / 3.0)
    queries = [center + rng.uniform(-0.4, 0.4, size=3) for _ in range(40)]
    queries += [center * s for s in np.linspace(0.0, 2.0, 9)]
    _assert_membership_matches_the_piece_loop(region, queries)
    # Under I, and under a non-identity metric scaled so that distances
    # exceed 1: far outside; on the shell band but turned away from the
    # hulls, where the first piece's hyperplane rules out the rest; and
    # along a ray from the maximin point, at right angles to it, that
    # leaves the hulls while its norm stays in the band, so the screen
    # keeps some pieces and hits follow misses.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 74))))
    A = rng.standard_normal((3, 3))
    for Sigma, eps in ((np.eye(3), 0.15), (100.0 * (A @ A.T + 0.5 * np.eye(3)), 3.0)):
        region = covering_region(boxes, Sigma, target_eps=eps)
        metric = SigmaMetric(Sigma)
        M0 = maximin_point(estimates.Bhat, metric).M
        unit = M0 / metric.norm(M0)
        queries = [10.0 * M0, -10.0 * M0]
        queries += [-s * unit for s in np.quantile(region.shells, [0.1, 0.5, 0.9])]
        d = rng.standard_normal(3)
        d -= (d @ Sigma @ unit) * unit
        d /= metric.norm(d)
        queries += [M0 + t * eps * d for t in np.linspace(0.0, 10.0, 41)]
        _assert_membership_matches_the_piece_loop(region, queries)


def test_stacked_solves_pass_column_right_hand_sides(monkeypatch):
    # The solve gufunc reads every right-hand side as a (..., m, k) stack
    # of matrices, and NumPy 1.x reads one with one axis fewer than its
    # stack of matrices as a stack of vectors, so every stacked solve,
    # through stacked_linalg or np.linalg.solve, passes b with an explicit
    # column axis.
    solve, stacked_linalg, kernels = np.linalg.solve, magging.stacked_linalg, []

    def strict(a, b):
        assert a.ndim == 2 or b.ndim == a.ndim, (a.shape, b.shape)
        return solve(a, b)

    def strict_gufunc(kernel, a, *rest):
        kernels.append(kernel)
        if kernel == "solve":
            b, = rest
            assert b.ndim == a.ndim and b.shape[-2] == a.shape[-1], (a.shape, b.shape)
        return stacked_linalg(kernel, a, *rest)

    monkeypatch.setattr(np.linalg, "solve", strict)
    monkeypatch.setattr(magging, "stacked_linalg", strict_gufunc)
    B = np.array([[1.0, 1.0, 0.0], [0.5, 0.5, 1.0]])
    wide = np.stack([h for h, *_ in _programs(4, 2, 8, 8, [False] * 2, [False] * 2)])
    for linear in (None, np.ones((2, 3))):
        stacked_simplex_qp(np.stack([B.T @ B, np.eye(3)]), linear)
        stacked_simplex_qp(wide, None if linear is None else np.ones((2, 8)))
    assert "solve" in kernels
    dataset, _ = generate(ScenarioSpec(p=3, G=3, n=20, seed=1))
    fit(dataset)


def test_a_stack_of_one_keeps_the_single_matrix_arithmetic():
    # The single-dataset outputs (simulate's grid bytes, estimate and
    # region JSON) keep their bits only if the stacked kernels repeat
    # the single-matrix calls: M = B @ alpha on the fitted layout and
    # Sigma^{-1} = L^{-T} L^{-1} from the inverse of the Cholesky factor,
    # symmetrised. That inverse is as accurate as SciPy's cho_solve.
    for seed in range(8):
        dataset, _ = generate(ScenarioSpec(p=3, G=3, n=100, seed=seed))
        estimates = fit(dataset)
        metric = SigmaMetric(estimates.Sigma_hat)
        solution = maximin_point(estimates.Bhat, metric)
        assert solution.M.tobytes() == (estimates.Bhat @ solution.alpha).tobytes()
        Linv = np.linalg.inv(np.linalg.cholesky(estimates.Sigma_hat))
        inverse = Linv.T @ Linv
        assert metric.inverse().tobytes() == ((inverse + inverse.T) / 2.0).tobytes()
        stack = SigmaMetric(np.stack([estimates.Sigma_hat, 2.0 * np.eye(3)]))
        assert stack.inverse()[0].tobytes() == metric.inverse().tobytes()
        factor = scipy.linalg.cho_factor(estimates.Sigma_hat, lower=True)
        exact = scipy.linalg.cho_solve(factor, np.eye(3))
        bound = 1e-13 * np.linalg.cond(estimates.Sigma_hat) * np.abs(exact).max()
        assert np.abs(metric.inverse() - exact).max() <= bound
