"""Lipschitz bound, per-group boxes, lattice covering, membership."""

import json
from dataclasses import replace

import numpy as np
import pytest

from maximin.errors import BudgetError
from maximin.linmodel import ScenarioSpec, fit, generate
from maximin.magging import maximin_point
from maximin.relaxation import (
    contains_relaxed,
    covering_region,
    group_confidence_boxes,
    maximin_norm_gap,
)
from maximin.simulate import scenario_presets, true_maximin


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
    assert boxes.level_per_box == pytest.approx(1.0 - 0.05 / est.G)
    assert boxes.alpha == 0.05
    assert boxes.halfwidths.shape == (est.p, est.G)
    assert boxes.contains_truth(est.Bhat)
    with pytest.raises(ValueError):
        group_confidence_boxes(est, alpha=0.0)


def test_boxes_shrink_to_points_as_noise_vanishes():
    ds, B0 = generate(ScenarioSpec(p=2, G=2, n=80, noise_sd=1e-9, seed=1))
    est = fit(ds)
    boxes = group_confidence_boxes(est, alpha=0.05)
    assert boxes.contains_truth(est.Bhat)
    assert np.max(boxes.halfwidths) < 1e-6
    off = est.Bhat.copy()
    off[:, 0] += 1e-3
    assert not boxes.contains_truth(off)


def test_boxes_contain_truth_at_the_joint_rate():
    hits = 0
    reps = 200
    for seed in range(reps):
        est, B0 = _fitted(seed=seed)
        if group_confidence_boxes(est, alpha=0.05).contains_truth(B0):
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
    with pytest.raises(BudgetError):
        covering_region(boxes, np.eye(2), target_eps=1e-4)
    with pytest.raises(ValueError):
        covering_region(boxes, np.eye(2), target_eps=0.0)


def test_membership_holds_at_each_center_point():
    est, _ = _fitted()
    boxes = group_confidence_boxes(est, alpha=0.05)
    region = covering_region(boxes, np.eye(2), target_eps=0.3)
    for k in range(region.pieces):
        Mk = maximin_point(region.centers[k], np.eye(2)).M
        assert contains_relaxed(region, Mk)
    far = np.full(2, region.shells.max() + 10.0)
    assert not contains_relaxed(region, far)


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


def test_region_export_is_json_ready():
    est, _ = _fitted(seed=5)
    boxes = group_confidence_boxes(est, alpha=0.05)
    region = covering_region(boxes, np.eye(2), target_eps=0.35)
    payload = region.to_dict()
    assert payload["pieces"] == region.pieces
    assert json.dumps(payload)


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
        if boxes.contains_truth(B0):
            boxes_hold += 1
            covered_given_boxes += contains_relaxed(region, M0)
    assert boxes_hold > 100
    # validity is inherited: no misses among replicates with good boxes
    assert covered_given_boxes == boxes_hold
