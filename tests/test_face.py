"""Differential tests: the Face kernel against the per-column references."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference as ref
from maximin.asymvar import assemble_W
from maximin.errors import DegenerateGeometryError, RankError
from maximin.geometry import Face, SigmaMetric
from maximin.linmodel import GroupEstimates
from maximin.selfcheck import gaussian_population_C, separated_instances

_RTOL = 1e-10


def _close(a, b):
    return np.linalg.norm(a - b) <= _RTOL * max(np.linalg.norm(b), 1e-300)


def _estimates(B, Sigma, sigma2):
    return GroupEstimates(Bhat=B, Sigma_hat=Sigma, Sigma_g_hat=np.stack((Sigma,) * B.shape[1]),
                          sigma2_hat=sigma2, ridge_jitter_used=0.0, n=10**9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), sigma2=st.floats(0.1, 10.0))
def test_face_matches_reference_on_separated_instances(seed, sigma2):
    [(B, Sigma, sol)] = separated_instances(1, seed=seed, p_range=(2, 6),
                                            G_range=(2, 7))
    sub = B[:, list(sol.active)]
    metric = SigmaMetric(Sigma)
    face = Face(sub, metric)
    for i, J in enumerate(face.jacobians(sol.M)):
        assert _close(J, ref.dmagging_dB(sub, metric, i, sol.M))
    assert _close(face.complement, ref.complement_projector(sub, metric))
    x = B @ np.linspace(1.0, 2.0, B.shape[1])
    assert _close(x - face.complement @ (x - sub[:, 0]), ref.affine_project(x, sub.T, metric))
    C = gaussian_population_C(Sigma, sol.M, B.shape[1])
    assert _close(face.term_V(C), ref.sigma_term_V(sub, metric, C))
    W = assemble_W(_estimates(B, Sigma, sigma2), sol, C, Sigma=metric).W
    assert _close(W, ref.face_W(sub, metric, sol.M, sigma2, C))


def test_weight_ratio_identity_on_the_face():
    # |w_g| / |u_g| = alpha_g when M lies on the face
    for B, Sigma, sol in separated_instances(10, seed=5):
        face = Face(B[:, list(sol.active)], Sigma)
        _, unorm = face._residuals
        for i, g in enumerate(sol.active):
            w = sol.M - ref.affine_project(
                sol.M, np.delete(face.B, i, axis=1).T, Sigma)
            assert SigmaMetric(Sigma).norm(w) / unorm[i] == pytest.approx(
                sol.alpha[g], rel=1e-9)


def _refuses(fn, *args):
    """Whether a reference call refuses the face, by raising."""
    try:
        fn(*args)
    except (DegenerateGeometryError, RankError):
        return True
    return False


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 5),
    extra=st.integers(0, 2),
    offset=st.sampled_from([0.0, 1e-15, 1e-13, 1e-3, 1e-1]),
)
def test_degenerate_faces_are_refused_like_the_reference(seed, p, extra, offset):
    # One column placed on the affine hull of others, nudged by offset.
    # For the exact placements, extra > 0 can push k past p + 1, where D
    # cannot have full rank. Nudged columns keep k <= p + 1: a nudged
    # column among the others of a wide face makes their Gram so badly
    # conditioned that the reference's own residuals lose the 1e-10 scale.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, p + 2)) + (extra if offset < 1e-12 else 0)
    B = rng.standard_normal((p, k))
    A = rng.standard_normal((p, p))
    metric = SigmaMetric(A @ A.T + 0.5 * np.eye(p))
    j = int(rng.integers(k))
    others = [h for h in range(k) if h != j]
    lam = rng.dirichlet(np.ones(min(len(others), 2)))
    pick = rng.choice(others, size=lam.size, replace=False)
    B[:, j] = B[:, pick] @ lam + offset * rng.standard_normal(p)
    M = B.mean(axis=1)
    # The reference projects through a Gram whose conditioning is squared;
    # compare only where its own residuals are unambiguous.
    for g in range(k):
        b = B[:, g]
        r = metric.norm(b - ref.affine_project(b, np.delete(B, g, 1).T, metric))
        assume(r < 1e-12 or r > 1e-8)
    # the face refuses with NaN, and its masks name the reference's
    # refusals: every degenerate column, so np.argmax gives the first
    face = Face(B, metric)
    refused = [_refuses(ref.dmagging_dB, B, metric, g, M) for g in range(k)]
    assert face.degenerate.tolist() == refused
    assert np.isnan(face.jacobians(M)).all() == any(refused)
    if k <= p + 1:
        C = np.eye(p)
        assert (not face.full_rank) == _refuses(ref.sigma_term_V, B, metric, C)
        assert np.isnan(face.term_V(C)).all() == (not face.full_rank)


def test_a_stack_of_faces_equals_its_faces_one_by_one():
    # Faces of equal (p, k) stacked along a leading axis give each face's
    # own results, bit for bit, and masks mark the faces that fail. A face
    # refused in the stack or alone gives NaN and the same masks.
    instances = [inst for inst in separated_instances(40, seed=8, p_range=(3, 3),
                                                     G_range=(3, 4))
                 if len(inst[2].active) == 2][:5]
    assert len(instances) == 5
    B = np.stack([b[:, list(sol.active)] for b, _, sol in instances])
    Sigma = np.stack([s for _, s, _ in instances])
    M = np.stack([sol.M for _, _, sol in instances])
    C = np.stack([gaussian_population_C(s, sol.M, 3) for _, s, sol in instances])
    Delta = np.diag([1.0, -0.5, 2.0])
    B[-1, :, 1] = B[-1, :, 0]  # a face of one repeated point
    face = Face(B, SigmaMetric(Sigma))
    assert face.full_rank.tolist() == face.separated.tolist() == [True] * 4 + [False]
    J, V, dM = face.jacobians(M), face.term_V(C), face.dsigma(M, Delta)
    assert np.isnan(J[4]).all() and np.isnan(V[4]).all() and np.isnan(dM[4]).all()
    for i in range(5):
        single = Face(B[i], SigmaMetric(Sigma[i]))
        assert J[i].tobytes() == single.jacobians(M[i]).tobytes()
        assert V[i].tobytes() == single.term_V(C[i]).tobytes()
        assert dM[i].tobytes() == single.dsigma(M[i], Delta).tobytes()
        assert face.complement[i].tobytes() == single.complement.tobytes()
        assert single.degenerate.tolist() == face.degenerate[i].tolist()
        assert single.full_rank == face.full_rank[i]
    assert np.argmax(face.degenerate[4]) == 0


def test_a_stack_of_wide_faces_is_refused_without_raising():
    # k - 1 > p: every column lies in the affine hull of the others, in
    # a stack or alone
    rng = np.random.default_rng(4)
    B = rng.standard_normal((3, 2, 4))
    metric = SigmaMetric(np.stack((np.eye(2),) * 3))
    face = Face(B, metric)
    assert face.degenerate.all() and not face.full_rank.any()
    assert np.isnan(face.jacobians(B.mean(axis=2))).all()
    assert np.isnan(face.term_V(np.stack((np.eye(2),) * 3))).all()
    alone = Face(B[0], metric[0])
    assert alone.degenerate.all() and not alone.full_rank
    assert np.isnan(alone.jacobians(B[0].mean(axis=1))).all()
    assert np.isnan(alone.term_V(np.eye(2))).all()
