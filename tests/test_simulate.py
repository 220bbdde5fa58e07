"""Coverage harness: presets, determinism, aggregation, emitters."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from maximin.linmodel import ScenarioSpec, fit, generate
from maximin.magging import brute_force_oracle
from maximin.simulate import (
    CSV_HEADER,
    cell_seed,
    grid_json_text,
    grid_to_csv,
    run_cell,
    run_grid,
    scenario_presets,
    true_maximin,
)


def test_presets_follow_the_generating_rules():
    s1 = scenario_presets(1, 3, 50)
    assert (s1.p, s1.G, s1.coefficient_rule) == (3, 3, "basis-vectors")
    s2 = scenario_presets(2, 4, 50)
    assert (s2.G, s2.coefficient_rule) == (4, "shared-plus-noise")
    s3 = scenario_presets(3, 10, 50)
    assert (s3.G, s3.coefficient_rule) == (8, "identical")
    for table in (4, 5):
        s = scenario_presets(table, 5, 50)
        assert s.ridge_jitter == 1e-4
        assert s.coefficient_rule == "basis-vectors"
    with pytest.raises(ValueError):
        scenario_presets(6, 3, 50)


def test_jittered_preset_fits_past_n_below_p():
    spec = scenario_presets(4, 10, 5)
    ds, _ = generate(spec)
    est = fit(ds, ridge_jitter=spec.ridge_jitter)
    assert np.all(np.isfinite(est.Bhat))
    assert est.sigma2_approximate


def test_reference_points_match_the_exhaustive_oracle():
    s1 = scenario_presets(1, 3, 50)
    assert np.allclose(true_maximin(s1), np.full(3, 1.0 / 3.0))
    assert np.allclose(
        true_maximin(s1), brute_force_oracle(np.eye(3), np.eye(3)), atol=1e-10
    )
    s3 = scenario_presets(3, 5, 50)
    M = true_maximin(s3)
    assert np.allclose(M, np.eye(5)[:, 0])


def test_shared_noise_rule_redraws_per_replicate():
    spec = scenario_presets(2, 3, 30)
    _, B_a = generate(replace(spec, seed=1))
    _, B_b = generate(replace(spec, seed=2))
    assert not np.array_equal(B_a[1], B_b[1])
    assert np.array_equal(B_a[0], np.ones(3))


def test_cell_seed_is_content_addressed():
    a = cell_seed(7, 1, 3, 100)
    assert a == cell_seed(7, 1, 3, 100)
    assert a != cell_seed(7, 1, 3, 200)
    assert a != cell_seed(8, 1, 3, 100)
    assert 0 <= a < 2**64


def test_run_cell_is_deterministic_and_worker_invariant():
    spec = replace(scenario_presets(1, 2, 40), seed=99)
    r1 = run_cell(spec, 30, 0.05, jobs=1)
    r2 = run_cell(spec, 30, 0.05, jobs=1)
    r4 = run_cell(spec, 30, 0.05, jobs=4)
    for other in (r2, r4):
        assert other.covered == r1.covered
        assert other.coverage == r1.coverage
        assert other.vertex_count == r1.vertex_count
        assert other.degenerate_count == r1.degenerate_count
        assert other.mean_max_eigenvalue == r1.mean_max_eigenvalue


def test_report_invariants():
    spec = replace(scenario_presets(1, 2, 40), seed=5)
    rep = run_cell(spec, 25, 0.05)
    tested = 25 - rep.degenerate_count
    assert 0 <= rep.covered <= 25
    assert rep.coverage == rep.covered / tested
    assert rep.exclusion_policy == "degenerate-excluded"
    z = 1.959963984540054
    expect = z * math.sqrt(rep.coverage * (1 - rep.coverage) / tested)
    assert rep.binomial_halfwidth == pytest.approx(expect, rel=1e-9)
    assert rep.wall_time > 0.0


def test_empty_cell_is_marked_undefined():
    spec = replace(scenario_presets(1, 2, 40), seed=5)
    rep = run_cell(spec, 0, 0.05)
    assert math.isnan(rep.coverage)
    assert math.isnan(rep.mean_max_eigenvalue)
    assert rep.replicates == 0


def test_degenerate_replicates_are_counted_not_raised():
    # n < p without jitter makes every fit singular
    spec = ScenarioSpec(p=3, G=2, n=2, coefficient_rule="identical", seed=1)
    rep = run_cell(spec, 8, 0.05)
    assert rep.degenerate_count == 8
    assert rep.covered == 0
    assert math.isnan(rep.coverage)
    assert rep.coverage_all == 0.0


def test_run_cell_validation():
    spec = scenario_presets(1, 2, 40)
    with pytest.raises(ValueError):
        run_cell(spec, -1, 0.05)
    with pytest.raises(ValueError):
        run_cell(spec, 5, 1.0)


def test_grid_layout_and_progress():
    lines = []
    results = run_grid(
        [1], [2], [30, 60], replicates=10, master_seed=3, progress=lines.append
    )
    assert [(t, p, n) for t, p, n, _ in results] == [(1, 2, 30), (1, 2, 60)]
    assert len(lines) == 2
    assert "coverage=" in lines[0]


def test_grid_csv_and_json_emitters():
    results = run_grid([1], [2], [30], replicates=10, master_seed=3)
    csv_text = grid_to_csv(results)
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("1,2,30,10,")

    payload = json.loads(grid_json_text(results))
    assert payload["schema_version"] == 1
    cell = payload["cells"][0]
    assert (cell["table"], cell["p"], cell["n"]) == (1, 2, 30)
    assert cell["exclusion_policy"] == "degenerate-excluded"
    assert 0.0 <= cell["coverage"] <= 1.0


def test_grid_bytes_are_reproducible():
    a = grid_to_csv(run_grid([1], [2], [30], replicates=12, master_seed=3))
    b = grid_to_csv(run_grid([1], [2], [30], replicates=12, master_seed=3))
    c = grid_to_csv(run_grid([1], [2], [30], replicates=12, master_seed=4))
    assert a == b
    assert a != c


def test_identical_groups_cell_runs_clean():
    # duplicated coefficients force vertex solutions; the cell must
    # aggregate them rather than error out
    spec = replace(scenario_presets(3, 3, 120), seed=2)
    rep = run_cell(spec, 15, 0.05)
    assert rep.degenerate_count == 0
    assert rep.vertex_count > 0
    assert 0.9 <= rep.coverage <= 1.0


def test_shared_noise_cell_runs_clean():
    spec = replace(scenario_presets(2, 2, 60), seed=2)
    rep = run_cell(spec, 15, 0.05)
    assert rep.degenerate_count == 0
    assert 0.0 <= rep.coverage <= 1.0
