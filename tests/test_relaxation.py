"""Lipschitz bound, per-group boxes, lattice covering, membership."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maximin import relaxation
from maximin.confidence import chi2_quantile
from maximin.errors import BudgetError, DimensionError, SingularFitError
from maximin.geometry import SigmaMetric
from maximin.linmodel import GroupedDataset, ScenarioSpec, fit, generate
from maximin.magging import maximin_point, stacked_simplex_qp
from maximin.relaxation import (
    GroupBoxes,
    _norms,
    _rounded_weights,
    _separations,
    _weighted_points,
    contains_relaxed,
    covering_region,
    group_confidence_boxes,
)
from maximin.selfcheck import brute_force_oracle
from maximin.simulate import scenario_presets, true_maximin
from reference import boxes_contain, covering_pieces, hull_distance, maximin_norm_gap


def test_norm_gap_trivial_pairs():
    B = np.array([[1.0, 0.0], [0.0, 1.0]])
    gap, bound = maximin_norm_gap(B, B, np.eye(2))
    assert gap == 0.0 and bound == 0.0

    shifted = B.copy()
    shifted[:, 1] += np.array([0.3, 0.0])
    gap, bound = maximin_norm_gap(B, shifted, np.eye(2))
    assert bound == pytest.approx(0.3)
    assert gap <= bound + 1e-8


def test_norm_gap_respects_the_bound_on_random_pairs():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((8, 1))))
    for _ in range(300):
        p = int(rng.integers(1, 5))
        G = int(rng.integers(1, 6))
        B = rng.standard_normal((p, G))
        Bp = B + rng.standard_normal((p, G))
        A = rng.standard_normal((p, p))
        Sigma = A @ A.T + 0.5 * np.eye(p)
        gap, bound = maximin_norm_gap(B, Bp, Sigma)
        assert gap <= bound + 1e-8


def _fitted(seed=0, p=2, n=80):
    ds, B0 = generate(ScenarioSpec(p=p, G=p, n=n, seed=seed))
    return fit(ds), B0


def test_boxes_split_the_level_evenly():
    est, _ = _fitted()
    boxes = group_confidence_boxes(est, alpha=0.05)
    assert boxes.threshold == chi2_quantile(est.p, 1.0 - 0.05 / est.G)
    assert boxes.alpha == 0.05
    assert boxes.halfwidths.shape == (est.p, est.G)
    assert boxes_contain(boxes, est.Bhat)
    with pytest.raises(ValueError):
        group_confidence_boxes(est, alpha=0.0)


def test_boxes_refuse_a_singular_raw_scatter():
    # a jittered fit with n < p passes, but n (S_g - jitter Id) is singular
    ds, _ = generate(ScenarioSpec(p=3, G=2, n=2, seed=1, ridge_jitter=1e-4))
    with pytest.raises(SingularFitError, match="group column 1: raw design scatter"
                       " is not positive definite; no confidence box exists"):
        group_confidence_boxes(fit(ds, 1e-4), alpha=0.05)
    # the second group's third column repeats its second
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((8, 2))))
    X = rng.standard_normal((2, 6, 3))
    X[1, :, 2] = X[1, :, 1]
    est = fit(GroupedDataset(tuple(zip(X, rng.standard_normal((2, 6))))), 1e-4)
    with pytest.raises(SingularFitError, match="group column 2: ") as info:
        group_confidence_boxes(est, alpha=0.05)
    assert info.value.group == 2


def test_boxes_shrink_to_points_as_noise_vanishes():
    ds, B0 = generate(ScenarioSpec(p=2, G=2, n=80, noise_sd=1e-9, seed=1))
    est = fit(ds)
    boxes = group_confidence_boxes(est, alpha=0.05)
    assert boxes_contain(boxes, est.Bhat)
    assert np.max(boxes.halfwidths) < 1e-6
    off = est.Bhat.copy()
    off[:, 0] += 1e-3
    assert not boxes_contain(boxes, off)


def test_boxes_contain_truth_at_the_joint_rate():
    hits = 0
    reps = 200
    for seed in range(reps):
        est, B0 = _fitted(seed=seed)
        if boxes_contain(group_confidence_boxes(est, alpha=0.05), B0):
            hits += 1
    # union bound makes the joint event conservative at level 0.95
    assert hits / reps >= 0.93


def test_covering_lattice_reaches_every_box_point():
    est, _ = _fitted()
    boxes = group_confidence_boxes(est, alpha=0.05)
    eps = 0.35
    region = covering_region(boxes, np.eye(2), target_eps=eps)
    assert region.pieces >= 1
    assert np.all(region.radii == eps)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((8, 2))))
    for _ in range(200):
        # any point of the bounding boxes, corners included
        P = boxes.centers + boxes.halfwidths * rng.uniform(-1, 1, boxes.centers.shape)
        dists = np.array(
            [
                max(
                    np.linalg.norm(P[:, g] - region.centers[k][:, g])
                    for g in range(boxes.G)
                )
                for k in range(region.pieces)
            ]
        )
        assert dists.min() <= eps + 1e-9


def test_covering_budget_is_enforced():
    est, _ = _fitted()
    boxes = group_confidence_boxes(est, alpha=0.05)
    with pytest.raises(BudgetError, match="^covering needs more than 1000000 centers at"
                       " eps=0.0001; increase target_eps$"):
        covering_region(boxes, np.eye(2), target_eps=1e-4)
    with pytest.raises(ValueError, match="^target_eps must be > 0$"):
        covering_region(boxes, np.eye(2), target_eps=0.0)
    with pytest.raises(ValueError, match="^target_eps must be > 0$"):
        covering_region(boxes, np.eye(2), target_eps=float("nan"))


def _lattice_boxes(centers, counts, Sigma, eps):
    """GroupBoxes around centers (p, G) whose covering lattice at eps puts
    counts[j, g] values on the axis of entry (j, g)."""
    p = centers.shape[0]
    h = 2.0 * eps / (math.sqrt(p) * math.sqrt(float(np.linalg.eigvalsh(Sigma)[-1])))
    halfwidths = h * (np.asarray(counts) - 0.5) / 2.0
    return GroupBoxes(centers=centers, scatters=None, sigma2=1.0, threshold=1.0,
                      alpha=0.05, halfwidths=halfwidths)


def _assert_covering_bits(centers, counts, Sigma):
    """covering_region's shells and centers at eps = 0.02 are bitwise those
    of reference.covering_pieces, the center-by-center loop."""
    boxes = _lattice_boxes(centers, counts, Sigma, 0.02)
    region = covering_region(boxes, Sigma, target_eps=0.02)
    centers, shells = covering_pieces(boxes, Sigma, 0.02)
    assert region.pieces == shells.size == np.prod(counts)
    assert np.array_equal(region.shells.view(np.uint64), shells.view(np.uint64))
    assert region.centers.tobytes() == centers.tobytes()


def _metric(rng, p, random_sigma):
    A = rng.standard_normal((p, p))
    return A @ A.T + 0.5 * np.eye(p) if random_sigma else np.eye(p)


@pytest.mark.parametrize("counts", [
    [[20], [20]],                                       # G = 1
    [[9, 8], [9, 8]],                                   # G = 2, 5184 pieces: two chunks
    [[5, 5, 1], [5, 4, 1]],                             # G = 3
    [[3, 3, 2, 1, 1, 1], [3, 3, 1, 1, 1, 1]],           # G = 6
    [[3, 3, 2, 1, 1, 1, 1], [3, 2, 1, 1, 1, 1, 1]],     # G = 7
    [[3, 3, 2, 1, 1, 1, 1, 1], [3, 2, 1, 1, 1, 1, 1, 1]],
])
@pytest.mark.parametrize("random_sigma", [False, True])
def test_covering_shells_are_the_per_center_bits(counts, random_sigma):
    # every center's columns lie in the positive orthant
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((8, 6, len(counts[0])))))
    p, G = np.shape(counts)
    Sigma = _metric(rng, p, random_sigma)
    _assert_covering_bits(rng.uniform(0.5, 2.0, (p, G)), counts, Sigma)


@pytest.mark.parametrize("counts", [
    [[3, 3, 2, 1], [3, 2, 1, 1]],                       # G = 4, 108 pieces
    [[3, 3, 1, 1, 1, 1], [3, 3, 2, 1, 1, 1]],           # G = 6, 162 pieces
])
@pytest.mark.parametrize("random_sigma", [False, True])
def test_covering_shells_are_the_per_center_bits_where_hulls_hold_the_origin(
        counts, random_sigma):
    # centred columns: every center's hull holds the origin, where M = 0
    # and several faces tie up to rounding
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((8, 8, len(counts[0])))))
    p, G = np.shape(counts)
    Sigma = _metric(rng, p, random_sigma)
    centers = rng.uniform(-1.0, 1.0, (p, G))
    _assert_covering_bits(centers - centers.mean(axis=1, keepdims=True), counts, Sigma)


def _traced_build(boxes, eps):
    """covering_region(boxes, I, eps) and its tracemalloc peak in bytes,
    after a one-center build has made the solver's working-set layouts."""
    Sigma = np.eye(boxes.p)
    covering_region(boxes, Sigma, target_eps=100.0)
    tracemalloc.start()
    try:
        region = covering_region(boxes, Sigma, target_eps=eps)
        return region, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_covering_build_holds_one_chunk_not_the_lattice():
    # 7^6 = 117,649 centers at p = 3, G = 2. Expanding them, as a meshgrid
    # and its stack, took a 13.3 MB tracemalloc peak; the chunked build
    # peaks at 2.5 MB (0.9 MB of shells, 0.2 MB of 8-bit weights, one
    # 4096-center chunk's QP arrays), measured on NumPy 2.4. The bound
    # leaves 3.2x of that.
    boxes = _lattice_boxes(np.ones((3, 2)) + np.arange(2), np.full((3, 2), 7), np.eye(3), 0.1)
    region, peak = _traced_build(boxes, 0.1)
    K = region.pieces
    assert K == 7 ** 6
    assert peak < 8e6 < 4 * K * 3 * 2 * 8
    assert region.weights.dtype == np.uint8 and region.weights.nbytes == K * 2
    assert (region.weights.max(axis=1) == 255).all()
    assert region.radii.strides == (0,)
    assert "centers" not in region.__dict__
    assert region.centers.shape == (K, 3, 2)
    assert "centers" in region.__dict__


def _seven_to_the_sixth():
    """The 117,649-center region at p = 3, G = 2, after a one-center
    query has made the solver's working-set layouts."""
    boxes = _lattice_boxes(np.ones((3, 2)) + np.arange(2), np.full((3, 2), 7), np.eye(3), 0.1)
    contains_relaxed(covering_region(boxes, np.eye(3), target_eps=100.0), np.ones(3))
    return covering_region(boxes, np.eye(3), target_eps=0.1)


def test_a_covering_query_forms_only_the_pieces_it_tests():
    # The same 117,649 centers: a query near the boundary, which makes
    # 13 stacked solves before its hit.
    # Reading its pieces through region.centers expanded the whole
    # lattice, a 9.7 MB tracemalloc peak; testing the shells over all K
    # pieces at once peaked at 2.0 MB. Tested in blocks of 4096 lattice
    # indices, it peaks at 0.23 MB, measured on NumPy 2.4: less than one
    # float array over all K pieces.
    region = _seven_to_the_sixth()
    K = region.pieces
    tracemalloc.start()
    try:
        assert contains_relaxed(region, np.ones(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K == 7 ** 6
    assert peak < 6e5 < K * 8
    assert "centers" not in region.__dict__


def test_the_weight_bounds_leave_no_program_where_a_piece_decides(monkeypatch):
    # Programs solved, counted at the stacked QP on the 117,649 centers.
    # M = (1.5, -1, 1.5) passes 3,430 shells; solving them all took 54
    # stacked solves, and the first passing piece's hyperplane, after one
    # solve, ruled out the other 3,429. The stored weights' lower bound
    # rules out all 3,430.
    # The maximin point of the first center lies on that center's hull
    # up to the 8-bit rounding of its weights, well within its radius:
    # the upper bound returns True.
    # The boundary query (1, 1, 1) takes the QP: 13 stacked solves of 588
    # programs, each chunk screened by the latest miss's hyperplane.
    region = _seven_to_the_sixth()
    programs = []

    def counted(H, c=None):
        programs.append(H.shape[0])
        return stacked_simplex_qp(H, c)

    monkeypatch.setattr(relaxation, "stacked_simplex_qp", counted)
    assert not contains_relaxed(region, np.array([1.5, -1.0, 1.5]))
    assert programs == []
    first = np.array([axis[0] for axis in region.axes]).reshape(2, 3).T
    assert contains_relaxed(region, maximin_point(first, np.eye(3)).M)
    assert programs == []
    assert contains_relaxed(region, np.ones(3))
    assert len(programs) == 13 and sum(programs) == 588


def test_re_aimed_screens_match_the_closed_form_segment_distances(monkeypatch):
    # At G = 2 under I each hull is a segment, so whether M is within
    # radius of some piece has a closed form over all 117,649 pieces.
    # Queries: the boundary query (1, 1, 1), and on each of 14 rays from
    # it the last point inside and the first outside of a 12-step
    # bisection of the region's boundary. Just inside, few pieces hit, so
    # a screen that dropped a piece within its radius would answer False,
    # as one that kept only pieces within half their radius did for some.
    # Most queries make several stacked solves, each after the latest
    # miss has re-aimed the screen. Answers within 1e-7 of a threshold
    # are skipped.
    region = _seven_to_the_sixth()
    a, b = region.centers[:, :, 0], region.centers[:, :, 1]
    d = b - a
    radii = region.radii + 1e-9

    def gaps(M):
        t = np.clip(np.einsum("kj,kj->k", M - a, d) / np.einsum("kj,kj->k", d, d), 0.0, 1.0)
        shell_gap = np.abs(np.linalg.norm(M) - region.shells) - radii
        return shell_gap, np.linalg.norm(a + t[:, None] * d - M, axis=1) - radii

    def inside(M):
        shell_gap, hull_gap = gaps(M)
        return bool(((shell_gap <= 0.0) & (hull_gap <= 0.0)).any())

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((8, 11))))
    queries = [np.ones(3)]
    for ray in rng.standard_normal((14, 3)):
        ray /= np.linalg.norm(ray)
        lo, hi = 0.0, 1.0
        assert inside(1.0 + lo * ray) and not inside(1.0 + hi * ray)
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if inside(1.0 + mid * ray) else (lo, mid)
        queries += [1.0 + lo * ray, 1.0 + hi * ray]
    programs = []

    def counted(H, c=None):
        programs.append(H.shape[0])
        return stacked_simplex_qp(H, c)

    monkeypatch.setattr(relaxation, "stacked_simplex_qp", counted)
    solves, answers = [], []
    for M in queries:
        programs.clear()
        got = contains_relaxed(region, M)
        solves.append(len(programs))
        shell_gap, hull_gap = gaps(M)
        passing = shell_gap <= 0.0
        if min(np.abs(shell_gap).min(), np.abs(hull_gap[passing]).min(initial=1.0)) < 1e-7:
            continue
        assert got == (passing & (hull_gap <= 0.0)).any()
        answers.append(got)
    assert len(answers) >= 25 and 0 < sum(answers) < len(answers)
    assert max(solves) >= 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=st.integers(1, 4), G=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       nearest=st.booleans())
def test_the_screen_never_exceeds_the_hull_distance(p, G, seed, nearest):
    # u is random, or the direction from M to its nearest hull point,
    # where the bound is the distance itself
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((8, 9, seed))))
    B = rng.standard_normal((p, G)) + rng.uniform(-2.0, 2.0)
    metric = SigmaMetric(_metric(rng, p, True))
    M = 2.0 * rng.standard_normal(p)
    u = brute_force_oracle(B - M[:, None], metric.Sigma) if nearest else rng.standard_normal(p)
    distance = hull_distance(B, metric, M)
    if metric.norm(u) > 0.0:
        bound = _separations(metric.Sigma, M, u, B[None])[0] / metric.norm(u)
        assert bound <= distance + 1e-12 * (1.0 + np.abs(B).max() + np.abs(M).max())


def test_each_weight_bound_decides_up_to_the_radius(monkeypatch):
    # One piece at eps = 0.1 under I, its shell band passed by every
    # query. Its hull is the segment (1, 0)-(2, 0), whose maximin point is
    # the vertex (1, 0): above the vertex the upper bound is the hull
    # distance, and the lower bound along (1, 0) is 0, so a miss takes
    # the QP. Or its hull is the segment (1, -1)-(1, 1), with maximin
    # point (1, 0): at height 0.5 the upper bound exceeds 0.5 and the
    # lower bound is the hull distance, so only a hit takes the QP.
    programs = []

    def counted(H, c=None):
        programs.append(H.shape[0])
        return stacked_simplex_qp(H, c)

    monkeypatch.setattr(relaxation, "stacked_simplex_qp", counted)
    for columns, weights, M, inside, solved in (
            ([[1.0, 2.0], [0.0, 0.0]], [255, 0], [1.0, 0.099], True, []),
            ([[1.0, 2.0], [0.0, 0.0]], [255, 0], [1.0, 0.101], False, [1]),
            ([[1.0, 1.0], [-1.0, 1.0]], [255, 255], [0.901, 0.5], True, [1]),
            ([[1.0, 1.0], [-1.0, 1.0]], [255, 255], [0.899, 0.5], False, [])):
        boxes = _lattice_boxes(np.array(columns), np.ones((2, 2), dtype=int), np.eye(2), 0.1)
        region = covering_region(boxes, np.eye(2), target_eps=0.1)
        assert region.weights.tolist() == [weights]
        programs.clear()
        assert contains_relaxed(region, np.array(M)) == inside
        assert programs == solved


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=st.integers(1, 4), G=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       source=st.sampled_from(["simplex", "rounded", "maximin"]))
def test_the_weight_bounds_enclose_the_hull_distance(p, G, seed, source):
    # Random simplex weights, their 8-bit rounding as covering_region
    # stores it, or the rounded maximin weights weight a point P of the
    # hull: |M - P| bounds the distance from above, and the screen along
    # u = P from below.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((8, 10, seed))))
    B = rng.standard_normal((p, G)) + rng.uniform(-2.0, 2.0)
    metric = SigmaMetric(_metric(rng, p, True))
    M = 2.0 * rng.standard_normal(p)
    gamma = rng.dirichlet(np.full(G, 0.5))[None]
    if source == "maximin":
        gamma = maximin_point(B, metric).alpha[None]
    weights = gamma if source == "simplex" else _rounded_weights(gamma)
    P = _weighted_points(B[None], weights)
    distance = hull_distance(B, metric, M)
    tol = 1e-12 * (1.0 + np.abs(B).max() + np.abs(M).max())
    assert distance <= _norms(metric.Sigma, M - P)[0] + tol
    scale = _norms(metric.Sigma, P)[0]
    if scale > 0.0:
        assert _separations(metric.Sigma, M, P, B[None])[0] / scale <= distance + tol


def test_covering_build_at_p_5_G_6_stays_in_its_memory_bound():
    # 2^10 = 1024 centers at p = 5, G = 6 in one chunk, where the
    # active-set loop holds one bordered 7 x 7 system per center: a 0.9 MB
    # tracemalloc peak (NumPy 2.4). The bound leaves 2x of that.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((8, 7))))
    counts = np.ones((5, 6), dtype=int)
    counts[:2, :5] = 2
    boxes = _lattice_boxes(rng.uniform(0.5, 2.0, (5, 6)), counts, np.eye(5), 0.1)
    region, peak = _traced_build(boxes, 0.1)
    assert region.pieces == 1024
    assert peak < 2e6


def test_membership_holds_at_each_center_point():
    est, _ = _fitted()
    boxes = group_confidence_boxes(est, alpha=0.05)
    region = covering_region(boxes, np.eye(2), target_eps=0.3)
    for k in range(region.pieces):
        Mk = maximin_point(region.centers[k], np.eye(2)).M
        assert contains_relaxed(region, Mk)
    far = np.full(2, region.shells.max() + 10.0)
    assert not contains_relaxed(region, far)


def test_a_malformed_query_is_refused():
    # A NaN query answered False, an infinite one False with overflow
    # warnings, and one of the wrong length failed inside a matmul.
    est, _ = _fitted()
    region = covering_region(group_confidence_boxes(est, alpha=0.05), np.eye(2), target_eps=0.3)
    for wrong in (np.ones(3), np.ones((1, 2)), 1.0):
        with pytest.raises(DimensionError, match=r"M must have shape \(2,\)"):
            contains_relaxed(region, wrong)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="M must be finite"):
            contains_relaxed(region, np.array([1.0, bad]))
    assert not contains_relaxed(region, np.array([5.0, 5.0]))


def test_membership_is_monotone_in_the_radii():
    est, _ = _fitted(seed=3)
    boxes = group_confidence_boxes(est, alpha=0.05)
    region = covering_region(boxes, np.eye(2), target_eps=0.25)
    wider = replace(region, radii=region.radii * 2.0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((8, 3))))
    for _ in range(60):
        M = rng.uniform(-1.5, 1.5, size=2)
        if contains_relaxed(region, M):
            assert contains_relaxed(wider, M)


def test_membership_matches_a_direct_two_column_scan():
    # for G = 2 the inflated hull is a segment; distance is analytic
    est, _ = _fitted(seed=4)
    boxes = group_confidence_boxes(est, alpha=0.05)
    region = covering_region(boxes, np.eye(2), target_eps=0.3)

    def direct(M):
        nm = np.linalg.norm(M)
        for k in range(region.pieces):
            eps = region.radii[k]
            if abs(nm - region.shells[k]) > eps + 1e-9:
                continue
            a, b = region.centers[k][:, 0], region.centers[k][:, 1]
            d = b - a
            t = np.clip(float((M - a) @ d) / max(float(d @ d), 1e-30), 0.0, 1.0)
            if np.linalg.norm(M - (a + t * d)) <= eps + 1e-9:
                return True
        return False

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((8, 4))))
    for _ in range(150):
        M = rng.uniform(-1.5, 1.5, size=2)
        assert contains_relaxed(region, M) == direct(M)


def test_true_point_is_covered_whenever_the_boxes_hold():
    spec0 = scenario_presets(1, 2, 100)
    M0 = true_maximin(spec0)
    covered_given_boxes = 0
    boxes_hold = 0
    for seed in range(120):
        ds, B0 = generate(replace(spec0, seed=seed))
        est = fit(ds)
        boxes = group_confidence_boxes(est, alpha=0.05)
        region = covering_region(boxes, np.eye(2), target_eps=0.25)
        if boxes_contain(boxes, B0):
            boxes_hold += 1
            covered_given_boxes += contains_relaxed(region, M0)
    assert boxes_hold > 100
    # validity is inherited: no misses among replicates with good boxes
    assert covered_given_boxes == boxes_hold
