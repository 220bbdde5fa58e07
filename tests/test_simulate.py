"""Coverage harness: presets, determinism, aggregation, emitters."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import reference
from maximin import simulate
from maximin.linmodel import ScenarioSpec, fit, generate, generate_stack, true_coefficients
from maximin.errors import DefinitenessError
from maximin.magging import ENUMERATION_MAX_G, brute_force_oracle, program_bytes
from maximin.simulate import (
    CSV_HEADER,
    _derive_seed,
    _kkt_certifies,
    _verify_true_maximin,
    cell_seed,
    grid_json_text,
    grid_to_csv,
    run_cell,
    run_grid,
    scenario_presets,
    true_maximin,
)

# (table, p, n, replicates): an interior cell, a tie-heavy cell, a cell
# with degenerate replicates (p >= n leaves no residual, so W = 0) and
# vertices, and a cell past the face-enumeration switch (G = 8 > 6).
ENGINE_CELLS = [(1, 3, 100, 60), (3, 5, 500, 40), (1, 3, 3, 40), (1, 8, 50, 12)]


def _items(spec, replicates):
    return [(rep, _derive_seed(spec.seed, rep)) for rep in range(replicates)]


def _engine_cell(table, p, n, replicates):
    spec = replace(scenario_presets(table, p, n), seed=cell_seed(7, table, p, n))
    return spec, true_maximin(spec), _items(spec, replicates)


def _bits(rows):
    return [(rep, c, float(e).hex(), d, v) for rep, c, e, d, v in rows]


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


@pytest.mark.parametrize("table", [1, 2, 3, 4, 5])
def test_generated_stack_is_bitwise_generate(table):
    spec = scenario_presets(table, 4, 9)
    seeds = [3, 2**64 - 1, _derive_seed(1, 2)]
    X, y = generate_stack(spec, seeds)
    for r, seed in enumerate(seeds):
        dataset, B0 = generate(replace(spec, seed=seed))
        assert X[r].tobytes() == dataset.X.tobytes()
        assert y[r].tobytes() == dataset.y.tobytes()
        assert np.array_equal(B0, true_coefficients(replace(spec, seed=seed)))


@pytest.mark.parametrize("cell", ENGINE_CELLS)
def test_engine_rows_match_the_replicate_loop(cell):
    spec, M0, items = _engine_cell(*cell)
    got = simulate._run_block(spec, 0.05, M0, items)
    expected = reference.run_block(spec, 0.05, M0, items)
    assert _bits(got) == _bits(expected)


def test_engine_cells_cover_every_path():
    def rows(cell):
        spec, M0, items = _engine_cell(*cell)
        return simulate._run_block(spec, 0.05, M0, items)

    ties, small = rows(ENGINE_CELLS[1]), rows(ENGINE_CELLS[2])
    assert sum(r[4] for r in ties) > len(ties) // 2
    assert 0 < sum(r[3] for r in small) < len(small)
    assert sum(r[4] for r in small) > 0


@pytest.mark.parametrize("cell", ENGINE_CELLS)
def test_rows_do_not_depend_on_the_chunk_size(cell, monkeypatch):
    spec, M0, items = _engine_cell(*cell)
    per_replicate = simulate._replicate_bytes(spec)
    runs = []
    for size in (1, 7, len(items)):
        monkeypatch.setattr(simulate, "CHUNK_BYTES", size * per_replicate)
        runs.append(_bits(simulate._run_block(spec, 0.05, M0, items)))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("table", [1, 3, 4])
@pytest.mark.parametrize("p", [3, 6, 8])
@pytest.mark.parametrize("n", [3, 10, 500])
def test_a_chunk_keeps_its_designs_and_qp_systems_in_the_budget(table, p, n):
    # At small n the enumerated QP's face systems outweigh the designs.
    spec = scenario_presets(table, p, n)
    design, systems = 8 * spec.G * spec.n * spec.p, program_bytes(spec.G, spec.p)
    if spec.G > ENUMERATION_MAX_G:
        assert systems == 0
    else:  # one bordered (K + 1)^2 system for each face of at most K columns
        K = min(spec.G, p + 1)
        faces = sum(math.comb(spec.G, k) for k in range(1, K + 1))
        assert systems == 8 * faces * (K + 1) ** 2
    size = max(1, simulate.CHUNK_BYTES // simulate._replicate_bytes(spec))
    assert size == 1 or size * max(design, systems) <= simulate.CHUNK_BYTES


def test_a_failed_metric_check_sends_the_chunk_cold(monkeypatch):
    spec, M0, items = _engine_cell(*ENGINE_CELLS[0])
    expected = _bits(simulate._run_block(spec, 0.05, M0, items))

    def refuse(Sigma):
        raise DefinitenessError("refused")

    # the per-replicate path builds its metric through maximin.geometry
    monkeypatch.setattr(simulate, "SigmaMetric", refuse)
    X, y = generate_stack(spec, [seed for _, seed in items])
    assert not simulate._stacked_pass(X, y, spec.ridge_jitter, 0.05, M0)[2].any()
    assert _bits(simulate._run_block(spec, 0.05, M0, items)) == expected


@pytest.mark.parametrize("cell", ENGINE_CELLS)
def test_stacked_rows_equal_the_per_replicate_analysis(cell):
    # A replicate the stacked pass finishes gets the same bits from the
    # per-replicate path, so where a chunk goes cold does not matter.
    spec, M0, items = _engine_cell(*cell)
    X, y = generate_stack(spec, [seed for _, seed in items])
    covered, eig, hot = simulate._stacked_pass(X, y, spec.ridge_jitter, 0.05, M0)
    for i in np.flatnonzero(hot):
        alone = simulate._analyze_one(X[i], y[i], spec.ridge_jitter, 0.05, M0)
        assert (int(covered[i]), float(eig[i]).hex()) == (alone[0], alone[1].hex())
        assert alone[2:] == (False, False)


@pytest.mark.parametrize("table", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_preset_reference_point_is_certified(table, p):
    spec = scenario_presets(table, p, 50)
    _verify_true_maximin(spec)
    if spec.coefficient_rule == "shared-plus-noise":
        return
    B, M0 = true_coefficients(spec), true_maximin(spec)
    assert _kkt_certifies(B, M0)
    step = np.zeros(p)
    step[0] = 1e-4
    assert not _kkt_certifies(B, M0 + step)
    if spec.coefficient_rule == "basis-vectors" and spec.G > 1:
        # still in the hull, but not its minimum-norm point
        assert not _kkt_certifies(B, 0.9 * M0 + 0.1 * B[:, 0])
