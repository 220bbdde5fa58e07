"""Metric primitives, projections, and the closed-form differentials."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from maximin import geometry
from maximin.errors import DefinitenessError, DimensionError
from maximin.geometry import Face, SigmaMetric, stacked_linalg
from maximin.magging import maximin_point
from maximin.selfcheck import finite_difference_errors, separated_instances


@pytest.fixture(scope="module")
def corpus():
    return separated_instances(20, seed=123)


ASYMMETRIC = np.array([[1.0, 0.5], [0.0, 1.0]])
INDEFINITE = np.diag([1.0, -1.0])
# a rank-2 Gram A A^T that Cholesky factors in rounding
_A = np.random.default_rng(3).standard_normal((2, 3, 2))[1]
SINGULAR = _A @ _A.T


def test_metric_validation():
    with pytest.raises(DimensionError, match="^Sigma must be square$"):
        SigmaMetric(np.ones((2, 3)))
    with pytest.raises(DefinitenessError, match="^Sigma is not symmetric$"):
        SigmaMetric(ASYMMETRIC)
    for matrix in (INDEFINITE, SINGULAR):
        with pytest.raises(DefinitenessError, match="^Sigma is not positive definite$"):
            SigmaMetric(matrix)


def test_a_metric_stack_keeps_each_refusal_at_its_index():
    # a stack raises nothing; each matrix that fails a check has its error
    # and a NaN factor, and the others keep the factor they have alone
    matrices = [np.eye(3), block_diag(INDEFINITE, 1.0), block_diag(ASYMMETRIC, 1.0),
                SINGULAR, 2.0 * np.eye(3)]
    stack = SigmaMetric(np.stack(matrices))
    assert [None if e is None else (type(e), str(e)) for e in stack.errors] == [
        None,
        (DefinitenessError, "Sigma is not positive definite"),
        (DefinitenessError, "Sigma is not symmetric"),
        (DefinitenessError, "Sigma is not positive definite"),
        None,
    ]
    assert np.isnan(stack.L[1:4]).all()
    for i in (1, 2, 3):
        with pytest.raises(DefinitenessError, match=f"^{stack.errors[i]}$"):
            SigmaMetric(matrices[i])
    for i in (0, 4):
        assert stack.L[i].tobytes() == SigmaMetric(matrices[i]).L.tobytes()
    assert list(stack[2:].errors) == list(stack.errors[2:])
    assert stack[[0, 4]].errors.tolist() == [None, None]


def test_metric_operations():
    Sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    metric = SigmaMetric(Sigma)
    x = np.array([1.0, -2.0])
    y = np.array([0.5, 3.0])
    assert metric.inner(x, y) == pytest.approx(float(x @ Sigma @ y))
    assert metric.norm(x) == pytest.approx(float(np.sqrt(x @ Sigma @ x)))
    assert np.allclose(metric.inverse(), np.linalg.inv(Sigma))
    assert SigmaMetric.ensure(metric) is metric
    assert isinstance(SigmaMetric.ensure(Sigma), SigmaMetric)


def _project(face, x):
    """Sigma-orthogonal projection of x onto the face's affine hull,
    x - Pi (x - b_1)."""
    return x - face.complement @ (x - face.B[:, 0])


def test_affine_project_single_point():
    metric = SigmaMetric(np.eye(2))
    pts = np.array([[1.0, 2.0]])
    out = _project(Face(pts.T, metric), np.array([5.0, 5.0]))
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
        proj = _project(face, x)
        again = _project(face, proj)
        assert np.allclose(proj, again, atol=1e-9)
        # residual is Sigma-orthogonal to every difference of points
        for i in range(1, k):
            d = pts[i] - pts[0]
            assert abs(metric.inner(x - proj, d)) < 1e-8


def test_affine_project_handles_duplicate_points():
    metric = SigmaMetric(np.eye(2))
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    proj = _project(Face(pts.T, metric), np.array([0.5, 2.0]))
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
    # a refused face gives NaN Jacobians; it raises nothing
    metric = SigmaMetric(np.eye(2))
    # collinear columns: each lies in the affine hull of the other two
    face = Face(np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 0.0]]), metric)
    assert face.degenerate.all() and np.argmax(face.degenerate) == 0
    assert np.isnan(face.jacobians(np.zeros(2))).all()


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


def test_a_lone_vertex_has_the_identity_jacobian():
    # M = b_1 at an isolated vertex: it moves with its column, so J_1 = I,
    # in a stack or alone, and forward differences of the QP agree
    B = np.array([[1.0, 3.0], [0.0, 1.0]])
    solution = maximin_point(B, np.eye(2))
    assert solution.active == (0,)
    J = Face(B[:, :1], SigmaMetric(np.eye(2))).jacobians(solution.M)
    assert J.shape == (1, 2, 2) and np.array_equal(J[0], np.eye(2))
    stack = Face(np.stack([B[:, :1]] * 3), SigmaMetric(np.stack([np.eye(2)] * 3)))
    assert np.array_equal(stack.jacobians(np.stack([solution.M] * 3)),
                          np.broadcast_to(np.eye(2), (3, 1, 2, 2)))
    h = 1e-6
    for d in np.eye(2):
        moved = B.copy()
        moved[:, 0] += h * d
        fd = (maximin_point(moved, np.eye(2)).M - solution.M) / h
        assert np.abs(fd - J[0] @ d).max() <= 1e-8
    checked, failed, _ = finite_difference_errors(
        [(B, np.eye(2), solution)], np.random.default_rng(0))
    assert (checked, failed) == (2, 0)


def test_a_refused_face_fails_the_finite_difference_check():
    # the QP's answer widened to a collinear face: its NaN Jacobians and
    # NaN metric response count as failed checks
    B = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    solution = replace(maximin_point(B, np.eye(2)), active=(0, 1, 2))
    face = Face(B, SigmaMetric(np.eye(2)))
    assert face.degenerate.all() and not face.full_rank
    checked, failed, _ = finite_difference_errors(
        [(B, np.eye(2), solution)], np.random.default_rng(0))
    assert (checked, failed) == (4, 4)


def test_metric_derivative_validation():
    metric = SigmaMetric(np.eye(2))
    M = np.array([0.5, 0.5])
    single = np.array([[1.0], [0.0]])
    assert np.array_equal(Face(single, metric).dsigma(single[:, 0], np.eye(2)), np.zeros(2))
    face = Face(np.eye(2), metric)
    with pytest.raises(DimensionError, match="^Delta must be 2 x 2$"):
        face.dsigma(M, np.eye(3))
    with pytest.raises(ValueError):
        face.dsigma(M, np.array([[0.0, 1.0], [0.0, 0.0]]))
    # duplicated columns make the difference matrix rank deficient: the
    # response is NaN, and full_rank says why
    bad = Face(np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]), metric)
    assert not bad.full_rank
    assert np.isnan(bad.dsigma(np.zeros(2), np.eye(2))).all()


def test_a_singular_stack_is_screened_in_one_batch(monkeypatch):
    # rows 3 and 7 are exactly singular; one batched gufunc call fills
    # them with NaN without raising, and no row is solved alone. Every
    # other row keeps the bits of numpy.linalg.solve on it alone.
    rng = np.random.default_rng(11)
    A = rng.standard_normal((10, 4, 4))
    A[3, 2] = 0.0
    A[7, :, 1] = 0.0
    b = rng.standard_normal((10, 4, 1))
    solve, calls = geometry._umath_linalg.solve, []

    def counted(a, rhs):
        calls.append(a.shape)
        return solve(a, rhs)

    monkeypatch.setattr(geometry, "_umath_linalg", SimpleNamespace(solve=counted))
    with np.errstate(all="raise"):
        x = stacked_linalg("solve", A, b)
    assert calls == [(10, 4, 4)]
    for r in range(10):
        if r in (3, 7):
            assert np.isnan(x[r]).all()
        else:
            assert x[r].tobytes() == np.linalg.solve(A[r], b[r]).tobytes()


_SINGULAR_KINDS = ("none", "zero row", "zero column", "repeated row", "repeated column", "row sum")


@st.composite
def _stacks_with_singular_items(draw):
    """A (R, p, p) stack of small integers, each item made exactly
    singular in its own way or left alone, then columns scaled by
    1e-300, 1 or 1e300, which keeps zero and repeated rows exact."""
    p = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(_SINGULAR_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(-3, 4, (len(kinds), p, p)).astype(float)
    for item, kind in zip(A, kinds):
        i, j = rng.integers(p, size=2)
        if kind == "zero row":
            item[i] = 0.0
        elif kind == "zero column":
            item[:, i] = 0.0
        elif kind == "repeated row":
            item[i] = item[j]
        elif kind == "repeated column":
            item[:, i] = item[:, j]
        elif kind == "row sum":
            item[i] = item[j] + item[(j + 1) % p]
    return A * 10.0 ** rng.choice([-300, 0, 300], size=p)


_SYMMETRIC_KINDS = ("full rank", "rank deficient", "indefinite", "nan", "inf", "-inf")


@st.composite
def _symmetric_stacks_with_failing_items(draw):
    """A (R, p, p) stack of Grams A A^T of small integers, each of full
    or deficient rank, or made indefinite by a negative diagonal entry,
    or given a symmetric pair of NaN or infinite entries, then each item
    scaled by 1e-300, 1 or 1e300."""
    p = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(_SYMMETRIC_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S = np.empty((len(kinds), p, p))
    for item, kind in zip(S, kinds):
        A = rng.integers(-3, 4, (p, rng.integers(p) if kind == "rank deficient" else p))
        item[...] = A @ A.T
        i, j = rng.integers(p, size=2)
        if kind == "indefinite":
            item[i, i] = -item[i, i] - 1.0
        elif kind in ("nan", "inf", "-inf"):
            item[i, j] = item[j, i] = float(kind)
    return S * 10.0 ** rng.choice([-300, 0, 300], size=(len(kinds), 1, 1))


def _assert_numpy_linalg_item_by_item(kernel, gufunc, *arrays):
    """stacked_linalg(gufunc) over the stack is NaN on exactly the items
    for which the numpy.linalg kernel, given that item alone, raises,
    and bitwise equal to the kernel's result on every other item."""
    out = stacked_linalg(gufunc, *arrays)
    assert len(out) == len(arrays[0])
    for i in range(len(out)):
        try:
            alone = kernel(*(a[i] for a in arrays))
        except np.linalg.LinAlgError:
            assert np.isnan(out[i]).all()
        else:
            assert (out[i].shape, out[i].tobytes()) == (alone.shape, alone.tobytes())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(A=_stacks_with_singular_items())
def test_the_lu_screen_is_exactly_what_solve_and_inv_factor(A):
    # the screen is the LU factorisation inside the solve and inv
    # gufuncs: NaN on exactly the items numpy.linalg refuses alone
    b = np.ones(A.shape[:-1] + (2,))
    b[..., 1] = np.arange(A.shape[-1])
    _assert_numpy_linalg_item_by_item(np.linalg.solve, "solve", A, b)
    _assert_numpy_linalg_item_by_item(np.linalg.inv, "inv", A)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(S=_symmetric_stacks_with_failing_items())
def test_stacked_cholesky_is_numpy_linalg_item_by_item(S):
    _assert_numpy_linalg_item_by_item(np.linalg.cholesky, "cholesky_lo", S)
