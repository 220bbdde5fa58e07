"""Covariance assembly: fourth-moment term, tie handling, vertex fallback."""

from types import SimpleNamespace

import numpy as np
import pytest

from maximin.asymvar import assemble_W, covariance_stack, empirical_C
from maximin.errors import DegenerateGeometryError, DimensionError, RankError
from maximin.geometry import Face, SigmaMetric
from maximin.linmodel import GroupEstimates, ScenarioSpec, fit, generate
from maximin.magging import maximin_point
from maximin.pipeline import analyze_dataset
from maximin.selfcheck import gaussian_population_C
from reference import assemble_W as reference_assemble_W
from reference import face_W as reference_W
from reference import fourth_moment_reference


def test_empirical_C_matches_tensor_contraction():
    # both routes reduce the same fourth moments; they must agree exactly
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 1))))
    X = rng.standard_normal((200, 3))
    M = rng.standard_normal(3)
    C = empirical_C(X, M, G=4)
    T = fourth_moment_reference(X, G=4)
    contracted = np.einsum("ijkl,j,l->ik", T, M, M)
    assert np.allclose(C, contracted, atol=1e-12)


def test_empirical_C_needs_rows_and_reference_is_capped():
    # one row is its own mean: the covariance (divisor nG) is zero
    assert np.array_equal(empirical_C(np.ones((1, 2)), np.ones(2), G=1), np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        empirical_C(np.ones((0, 2)), np.ones(2), G=1)
    with pytest.raises(DimensionError):
        fourth_moment_reference(np.ones((10, 5)), G=1)


def _centred_C_long_double(X, M, G):
    """empirical_C's covariance formed in long double, centred by the mean."""
    X, M = X.astype(np.longdouble), M.astype(np.longdouble)
    V = X * (X @ M)[:, None]
    V -= V.mean(axis=0)
    return (V.T @ V) / (X.shape[0] * G)


@pytest.mark.parametrize("seed", range(3))
def test_empirical_C_stays_centred_on_offset_designs(seed):
    # Rows offset by 1e3: the centred forms lose nothing (about 3e-15
    # relative to a long-double reference), where the uncentred one-Gram
    # form (X^T diag(w^2) X / N - m m^T) / G cancels to 7e-11 .. 2e-9.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((26, seed))))
    G, N, p = 4, 2000, 5
    X = rng.standard_normal((N, p)) + 1e3
    M = rng.standard_normal(p) / 3
    expected = _centred_C_long_double(X, M, G)

    def error(C):
        return float(np.abs(C - expected).max() / np.abs(expected).max())

    assert error(empirical_C(X, M, G)) <= 1e-12
    w = X @ M
    m = X.T @ w / N
    assert error(((X.T * w ** 2) @ X / N - np.outer(m, m)) / G) > 1e-12


def test_empirical_C_rows_of_a_stack_are_stacks_of_one():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((26, 9))))
    X = rng.standard_normal((5, 300, 4)) + np.array([0.0, 1.0, 10.0, 1e3])
    M = rng.standard_normal((5, 4))
    C = empirical_C(X, M, 3)
    for r in range(5):
        assert C[r].tobytes() == empirical_C(X[r], M[r], 3).tobytes()


def test_population_C_closed_form():
    M = np.array([1.0, 0.0])
    C = gaussian_population_C(np.eye(2), M, G=2)
    expected = (np.outer(M, M) + np.eye(2)) / 2.0
    assert np.allclose(C, expected)


def test_empirical_C_converges_to_population():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 2))))
    Sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
    L = np.linalg.cholesky(Sigma)
    X = rng.standard_normal((200_000, 2)) @ L.T
    M = np.array([0.5, -1.0])
    C = empirical_C(X, M, G=3)
    C_pop = gaussian_population_C(Sigma, M, G=3)
    assert np.linalg.norm(C - C_pop) <= 0.05 * np.linalg.norm(C_pop)


def test_sigma_term_V_vanishes_for_single_column():
    V = Face(np.array([[1.0], [2.0]]), np.eye(2)).term_V(np.eye(2))
    assert np.array_equal(V, np.zeros((2, 2)))


def test_sigma_term_V_lives_in_the_difference_span():
    B = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    V = Face(B, np.eye(3)).term_V(np.eye(3))
    assert np.allclose(V, V.T)
    # directions orthogonal to b_2 - b_1 are annihilated on both sides
    for null in (np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])):
        assert np.allclose(V @ null, 0.0, atol=1e-12)
    d = B[:, 1] - B[:, 0]
    assert np.linalg.norm(V @ d) > 0.0


def _population_estimates(B, Sigma, sigma2=1.0, n=10**9, Sigma_g=None):
    """Estimates at the population: every group's gram is Sigma unless
    Sigma_g gives them."""
    class _Est:
        pass

    est = _Est()
    est.Bhat = B
    est.Sigma_hat = Sigma
    est.Sigma_g_hat = np.stack([Sigma] * B.shape[1]) if Sigma_g is None else Sigma_g
    est.sigma2_hat = sigma2
    est.n = n
    return est


def test_assembled_W_matches_hand_derived_symmetric_case():
    # three orthonormal groups under the identity metric have a closed
    # form: W = (4/9) I - (1/27) ones
    B = np.eye(3)
    Sigma = np.eye(3)
    sol = maximin_point(B, Sigma)
    C = gaussian_population_C(Sigma, sol.M, 3)
    cov = assemble_W(_population_estimates(B, Sigma), sol, C, Sigma=Sigma)
    expected = (4.0 / 9.0) * np.eye(3) - np.ones((3, 3)) / 27.0
    assert np.allclose(cov.W, expected, atol=1e-10)
    assert np.allclose(cov.W, cov.term_B + cov.term_V)
    assert cov.active_used == (0, 1, 2)
    assert not cov.vertex_mode
    assert not cov.known_sigma


def test_known_metric_drops_the_fluctuation_term():
    B = np.eye(3)
    Sigma = np.eye(3)
    sol = maximin_point(B, Sigma)
    cov = assemble_W(_population_estimates(B, Sigma), sol, None, Sigma=Sigma)
    assert cov.known_sigma
    assert np.array_equal(cov.term_V, np.zeros((3, 3)))
    assert np.allclose(cov.W, cov.term_B)


def test_isolated_vertex_falls_back_to_group_noise():
    B = np.array([[0.1, 5.0, 3.0], [0.0, 1.0, -4.0]])
    Sigma = np.eye(2)
    sol = maximin_point(B, Sigma)
    assert sol.active == (0,)
    est = _population_estimates(B, Sigma, sigma2=0.01, n=100_000,
                                Sigma_g=np.stack((Sigma,) * 3))
    C = np.eye(2) * 0.01
    cov = assemble_W(est, sol, C, Sigma=Sigma)
    assert cov.vertex_mode
    assert cov.active_used == (0,)
    assert np.allclose(cov.W, 0.01 * np.eye(2))
    assert np.array_equal(cov.term_V, np.zeros((2, 2)))


def _tied_vertex():
    # two statistically indistinguishable short columns and one far one
    B = np.array([[0.5, 0.5001, 5.0], [0.0, 0.001, 1.0]])
    Sigma = np.eye(2)
    sol = maximin_point(B, Sigma)
    est = _population_estimates(B, Sigma, sigma2=1.0, n=50, Sigma_g=np.stack((Sigma,) * 3))
    C = gaussian_population_C(Sigma, sol.M, 3)
    return est, sol, C


def test_tied_vertex_switches_to_the_cluster_jacobians():
    est, sol, C = _tied_vertex()
    assert len(sol.active) == 1
    cov = assemble_W(est, sol, C, Sigma=est.Sigma_hat)
    assert cov.vertex_mode
    assert set(cov.active_used) == {0, 1}
    # the near tie inflates the variance well past the fallback scale
    fallback = np.linalg.eigvalsh(1.0 * np.linalg.inv(est.Sigma_hat))[-1]
    assert np.linalg.eigvalsh(cov.W)[-1] > 10.0 * fallback


def test_tied_vertex_W_matches_the_per_column_reference():
    est, sol, C = _tied_vertex()
    metric = SigmaMetric(est.Sigma_hat)
    cov = assemble_W(est, sol, C, Sigma=metric)
    used = list(cov.active_used)
    expected = reference_W(est.Bhat[:, used], metric, sol.M, est.sigma2_hat, C)
    assert np.linalg.norm(cov.W - expected) <= 1e-10 * np.linalg.norm(expected)


def _tied(B, active, sigma2, n, Sigma_g):
    """The columns covariance_stack adds to one dataset's active set
    under the identity metric."""
    B = np.asarray(B, dtype=float)
    mask = np.isin(np.arange(B.shape[1]), active)
    M = B[:, mask].mean(axis=1)
    used = covariance_stack(B[None], mask[None], M[None], SigmaMetric(np.eye(2))[None],
                            np.array([sigma2]), n, Sigma_g[None], None)[3]
    return tuple(int(h) for h in np.flatnonzero(used[0] & ~mask))


def test_tied_neighbors_distance_gate():
    close = np.array([[0.5, 0.5001, 5.0], [0.0, 0.001, 1.0]])
    grams = np.stack((np.eye(2),) * 3)
    assert _tied(close, (0,), sigma2=1.0, n=50, Sigma_g=grams) == (1,)
    # a tie vanishes once the sample pins the columns down
    assert _tied(close, (0,), sigma2=1.0, n=10**9, Sigma_g=grams) == ()
    far = np.array([[0.5, 3.0], [0.0, 4.0]])
    assert _tied(far, (0,), sigma2=1.0, n=50, Sigma_g=grams[:2]) == ()


def test_tied_neighbors_edge_conditions():
    B = np.array([[0.5, 0.5001], [0.0, 0.001]])
    grams = np.stack((np.eye(2),) * 2)
    assert _tied(B, (0,), sigma2=0.0, n=50, Sigma_g=grams) == ()
    assert _tied(B, (0,), sigma2=1.0, n=0, Sigma_g=grams) == ()
    # only a vertex is enlarged by ties
    assert _tied(B, (0, 1), sigma2=1.0, n=50, Sigma_g=grams) == ()


def test_tied_neighbors_uses_per_group_scales_when_available():
    B = np.array([[0.5, 0.9], [0.0, 0.0]])
    # designs as strong as the pooled one say separated at this n
    assert _tied(B, (0,), sigma2=1.0, n=2000, Sigma_g=np.stack((np.eye(2),) * 2)) == ()
    # a weak group-1 design inflates its error scale and restores the tie
    weak = np.stack((np.eye(2) * 1e-3, np.eye(2) * 1e-3))
    assert _tied(B, (0,), sigma2=1.0, n=2000, Sigma_g=weak) == (1,)


def test_assembled_W_is_symmetric_psd_on_fitted_data():
    for seed in range(5):
        ds, _ = generate(ScenarioSpec(p=3, G=3, n=200, seed=seed))
        analysis = analyze_dataset(ds)
        W = analysis.covariance.W
        assert np.allclose(W, W.T)
        assert np.linalg.eigvalsh(W)[0] > 0.0


def test_monte_carlo_covariance_tracks_assembled_W():
    # light consistency check of the full plug-in chain at moderate n
    reps = 300
    n = 1500
    M0 = np.full(3, 1.0 / 3.0)
    samples = []
    for rep in range(reps):
        ds, _ = generate(ScenarioSpec(p=3, G=3, n=n, seed=10_000 + rep))
        est = fit(ds)
        sol = maximin_point(est.Bhat, est.Sigma_hat)
        samples.append(np.sqrt(n) * (sol.M - M0))
    S = np.array(samples)
    S = S - S.mean(axis=0)
    mc_cov = S.T @ S / reps
    B = np.eye(3)
    Sigma = np.eye(3)
    sol = maximin_point(B, Sigma)
    C = gaussian_population_C(Sigma, sol.M, 3)
    W_pop = assemble_W(_population_estimates(B, Sigma), sol, C, Sigma=Sigma).W
    rel = np.linalg.norm(mc_cov - W_pop) / np.linalg.norm(W_pop)
    assert rel <= 0.30


def _mixed_chunk():
    # One p = 2, G = 4 stack: an interior face, an isolated vertex, a
    # tie-enlarged vertex, a degenerate face (three collinear columns), a
    # face with k - 1 > p, and a column 1e-7 off the line of two columns
    # 1e6 apart, within the degeneracy bound of 1e-10 times the largest
    # column norm.
    identity = np.eye(2)
    rows = []
    for B in ([[1.0, 0.0, 3.0, 9.0], [0.0, 1.0, 3.0, 9.0]],
              [[0.1, 5.0, 3.0, 9.0], [0.0, 1.0, -4.0, 9.0]],
              [[0.5, 0.5001, 5.0, 9.0], [0.0, 0.001, 1.0, 9.0]]):
        sol = maximin_point(np.array(B), identity)
        rows.append((B, sol.active, sol.M))
    for B, active in (([[1.0, 1.0, 1.0, 9.0], [-1.0, 1.0, 0.0, 9.0]], (0, 1, 2)),
                      ([[1.0, 0.0, -1.0, 0.3], [0.0, 1.0, 0.2, -1.0]], (0, 1, 2, 3)),
                      ([[0.0, 1e6, 2e6, 9.0], [0.0, 0.0, 1e-7, 9.0]], (0, 1, 2))):
        rows.append((B, active, np.array(B)[:, list(active)].mean(axis=1)))
    B = np.array([np.array(b, dtype=float) for b, _, _ in rows])
    active = np.zeros((len(rows), 4), dtype=bool)
    for r, (_, cols, _) in enumerate(rows):
        active[r, list(cols)] = True
    M = np.array([m for _, _, m in rows])
    C = np.array([gaussian_population_C(identity, m, 4) for m in M])
    return B, active, M, C


def _oracle_kinds(B, active, M, C, known):
    """Check covariance_stack on the rows B (R, p, G), in one stack and
    each alone, against the oracle under Sigma = I, bit for bit; returns
    each row's kind: its error's class name, the used-set size of a
    vertex or "face"."""
    R, p, G = B.shape
    metric = SigmaMetric(np.stack((np.eye(p),) * R))
    sigma2, n, Sigma_g = np.ones(R), 50, np.stack((np.eye(p),) * G)
    C_hat = None if known else C
    stack = covariance_stack(B, active, M, metric, sigma2, n,
                             np.stack((Sigma_g,) * R), C_hat)
    kinds = []
    for r in range(R):
        alone = covariance_stack(B[r:r + 1], active[r:r + 1], M[r:r + 1], metric[r:r + 1],
                                 sigma2[r:r + 1], n, Sigma_g[None],
                                 None if known else C[r:r + 1])
        est = GroupEstimates(Bhat=B[r], Sigma_hat=np.eye(p), Sigma_g_hat=Sigma_g,
                             sigma2_hat=1.0, ridge_jitter_used=0.0, n=n)
        sol = SimpleNamespace(active=tuple(np.flatnonzero(active[r])), M=M[r])
        try:
            expected = reference_assemble_W(est, sol, None if known else C[r], np.eye(p))
        except (DegenerateGeometryError, RankError) as err:
            kinds.append(type(err).__name__)
            for got in (stack, alone):
                i = r if got is stack else 0
                W, errors = got[0], got[5]
                assert (type(errors[i]), str(errors[i])) == (type(err), str(err))
                assert np.isnan(W[i]).all()
            continue
        kinds.append(len(expected.active_used) if expected.vertex_mode else "face")
        for got in (stack, alone):
            i = r if got is stack else 0
            W, term_B, term_V, used, vertex, errors = got
            assert errors[i] is None
            for value, want in ((W, expected.W), (term_B, expected.term_B),
                                (term_V, expected.term_V)):
                assert value[i].tobytes() == want.tobytes()
            assert tuple(np.flatnonzero(used[i])) == expected.active_used
            assert vertex[i] == expected.vertex_mode
    return kinds


@pytest.mark.parametrize("known", [False, True])
def test_covariance_stack_rows_equal_the_oracle_and_each_row_alone(known):
    assert _oracle_kinds(*_mixed_chunk(), known) == [
        "face", 1, 2] + ["DegenerateGeometryError"] * 3


@pytest.mark.parametrize("known", [False, True])
def test_a_rank_deficient_face_off_the_degeneracy_bound_is_a_rank_error(known):
    # The differences' singular values are about 1, 1.4e-7 and 7e-14, so
    # D is rank deficient, yet every column lies 1e-7 or more off the
    # others' hull, which each leave-one-out face's pseudo-inverse cuts
    # to a line: the bound is 1e-10 times the largest column norm, 1.
    B = np.array([[0.0, 0.0, 1e-7, -1.0], [0.0, 0.0, 1e-13, 0.0], [1e-7, 0.0, 0.0, 0.0]])
    M = B.mean(axis=1)
    C = gaussian_population_C(np.eye(3), M, 4)
    kinds = _oracle_kinds(B[None], np.ones((1, 4), dtype=bool), M[None], C[None], known)
    assert kinds == ["face" if known else "RankError"]
