"""Coverage harness: presets, determinism, aggregation, emitters."""

import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import maximin
import reference
from maximin import simulate
from maximin.asymvar import covariance_stack, empirical_C
from maximin.confidence import (
    contains,
    covers,
    max_eigenvalue,
    precision_matrix,
    region_radius2,
    spectrum,
)
from maximin.errors import ConvergenceError, DefinitenessError
from maximin.geometry import SigmaMetric
from maximin.linmodel import (
    COEFFICIENT_RULES,
    GroupedDataset,
    ScenarioSpec,
    fit,
    fit_stack,
    generate,
    generate_stack,
    true_coefficients,
)
from maximin.magging import active_mask, maximin_point, stacked_maximin
from maximin.pipeline import analyze_dataset
from maximin.selfcheck import brute_force_oracle
from maximin.simulate import (
    CSV_HEADER,
    _derive_seed,
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
# vertices, and a cell of G = 8 groups.
ENGINE_CELLS = [(1, 3, 100, 60), (3, 5, 500, 40), (1, 3, 3, 40), (1, 8, 50, 12)]


def _items(spec, replicates):
    return [(rep, _derive_seed(spec.seed, rep)) for rep in range(replicates)]


def _engine_cell(table, p, n, replicates):
    spec = replace(scenario_presets(table, p, n), seed=cell_seed(7, table, p, n))
    return spec, true_maximin(spec), _items(spec, replicates)


def _block(spec, M0, items):
    """simulate._run_block over the seeds of items: (covered, eig, vertex)."""
    return simulate._run_block(spec, 0.05, M0, [seed for _, seed in items])


def _oracle(spec, M0, items):
    """reference.run_block's rows as _run_block's arrays, in which a
    degenerate replicate is the one with a NaN eigenvalue."""
    rows = reference.run_block(spec, 0.05, M0, items)
    assert [row[0] for row in rows] == [rep for rep, _ in items]
    assert all(degenerate == math.isnan(eig) for _, _, eig, degenerate, _ in rows)
    return (np.array([row[1] for row in rows], dtype=bool),
            np.array([row[2] for row in rows], dtype=float),
            np.array([row[4] for row in rows], dtype=bool))


def _bits(covered, eig, vertex):
    assert covered.dtype == vertex.dtype == bool and eig.dtype == float
    return (tuple(covered.tolist()), tuple(float(e).hex() for e in eig),
            tuple(vertex.tolist()))


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


def _csv_row(report):
    """The report as a grid CSV, floats by repr."""
    return grid_to_csv([(1, 2, 40, report)])


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_gone(pids, timeout=30.0):
    deadline = time.monotonic() + timeout
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.01)
    return not any(map(_alive, pids))


def test_kept_workers_do_not_outlive_the_interpreter():
    # no __main__ guard: the default start method forks, so the script
    # is not re-imported by its workers
    script = textwrap.dedent("""
        from dataclasses import replace
        from maximin import simulate
        spec = replace(simulate.scenario_presets(1, 2, 40), seed=99)
        simulate.run_cell(spec, 6, 0.05, jobs=2)
        print(*simulate._pool._processes)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(maximin.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    pids = [int(pid) for pid in result.stdout.split()]
    assert len(pids) == 2
    assert not any(map(_alive, pids))


def test_a_killed_worker_breaks_one_call_and_the_next_forks_a_fresh_pool():
    spec = replace(scenario_presets(1, 2, 40), seed=99)
    expected = _csv_row(run_cell(spec, 6, 0.05, jobs=1))
    run_cell(spec, 6, 0.05, jobs=2)
    pids = list(simulate._pool._processes)
    os.kill(pids[0], signal.SIGKILL)
    assert _wait_gone(pids)  # the pool has seen its worker die and joined both
    with pytest.raises(BrokenProcessPool):
        run_cell(spec, 6, 0.05, jobs=2)
    assert simulate._pool is None
    assert _csv_row(run_cell(spec, 6, 0.05, jobs=2)) == expected
    assert not set(simulate._pool._processes) & set(pids)


def test_the_pool_is_kept_while_jobs_stays_and_replaced_when_it_changes():
    spec = replace(scenario_presets(1, 2, 40), seed=99)
    expected = _csv_row(run_cell(spec, 7, 0.05, jobs=1))
    simulate._drop_pool()
    pools = []
    for jobs in (2, 2, 3, 2):
        assert _csv_row(run_cell(spec, 7, 0.05, jobs=jobs)) == expected
        pools.append((simulate._pool, sorted(simulate._pool._processes)))
    (first, workers), second, (third, workers3), (fourth, _) = pools
    assert second == (first, workers)  # the same pool and the same two workers
    assert third is not first and len(workers3) == 3
    assert fourth is not third
    assert not any(map(_alive, workers + workers3))  # a replaced pool joined its workers


def test_the_pool_has_no_more_workers_than_replicates():
    spec = replace(scenario_presets(1, 2, 40), seed=99)
    expected = _csv_row(run_cell(spec, 3, 0.05, jobs=1))
    simulate._drop_pool()
    for _ in range(2):
        assert _csv_row(run_cell(spec, 3, 0.05, jobs=8)) == expected
        assert len(simulate._pool._processes) == 3
    pool = simulate._pool
    run_cell(spec, 3, 0.05, jobs=3)  # the same three workers
    assert simulate._pool is pool


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


@pytest.mark.parametrize("table", [1, 3, 4, 5])
def test_a_cell_of_one_row_datasets_completes(table):
    # p = 1 gives G = 1 here, so n = 1 is a single row per dataset
    rep = run_cell(scenario_presets(table, 1, 1), 5, 0.05)
    assert rep.replicates == 5
    assert rep.covered + rep.degenerate_count <= 5


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
    # the reference seeds a fresh SeedSequence stream per group stream
    spec = scenario_presets(table, 4, 9)
    seeds = [3, 2**64 - 1, _derive_seed(1, 2)]
    X, y = generate_stack(spec, seeds)
    X_ref, y_ref = reference.generate_stack(spec, seeds)
    assert X.tobytes() == X_ref.tobytes()
    assert y.tobytes() == y_ref.tobytes()
    for r, seed in enumerate(seeds):
        dataset, B0 = generate(replace(spec, seed=seed))
        assert X[r].tobytes() == dataset.X.tobytes()
        assert y[r].tobytes() == dataset.y.tobytes()
        B_ref = reference.true_coefficients(replace(spec, seed=seed))
        assert B0.tobytes() == B_ref.tobytes()


@pytest.mark.parametrize("rule", COEFFICIENT_RULES)
@pytest.mark.parametrize("R, G, n, p", [
    (291, 3, 100, 3), (26, 4, 500, 5), (3, 12, 500, 12), (5, 6, 10, 6), (7, 8, 30, 8),
    (4, 2, 200, 2), (6, 6, 1, 8)])
def test_batched_responses_are_the_per_group_gemv_bits(rule, R, G, n, p):
    # (6, 6, 1, 8): a contiguous copy of B^T would round differently at n = 1
    spec = ScenarioSpec(p=p, G=G, n=n, coefficient_rule=rule)
    seeds = [_derive_seed(R, G, n, p, r) for r in range(R)]
    X, y = generate_stack(spec, seeds)
    X_ref, y_ref = reference.generate_stack(spec, seeds)
    assert X.tobytes() == X_ref.tobytes()
    assert y.tobytes() == y_ref.tobytes()


@pytest.mark.parametrize("cell", ENGINE_CELLS)
def test_engine_rows_match_the_replicate_loop(cell):
    spec, M0, items = _engine_cell(*cell)
    assert _bits(*_block(spec, M0, items)) == _bits(*_oracle(spec, M0, items))


def test_engine_cells_cover_every_path():
    (_, _, ties), (_, eig, vertex) = (_block(*_engine_cell(*ENGINE_CELLS[i])) for i in (1, 2))
    assert ties.sum() > ties.size // 2
    assert 0 < np.isnan(eig).sum() < eig.size
    assert vertex.sum() > 0


@pytest.mark.parametrize("cell", ENGINE_CELLS)
def test_every_stacked_kernel_takes_an_empty_stack(cell):
    # a design chunk whose rows are all refused goes on through both
    # halves as a stack of none, with no warning from any kernel
    spec, M0, _ = _engine_cell(*cell)
    G, n, p = spec.G, spec.n, spec.p
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fitted = fit_stack(np.empty((0, G, n, p)), np.empty((0, G, n)), spec.ridge_jitter)
        metric = SigmaMetric(fitted.Sigma_hat)
        solution = stacked_maximin(fitted.Bhat, metric.Sigma)
        C_hat = empirical_C(np.empty((0, G * n, p)), solution.M, G)
        W, term_B, term_V, used, vertex, errors = covariance_stack(
            fitted.Bhat, active_mask(solution.gamma), solution.M, metric, fitted.sigma2, n,
            fitted.S, C_hat)
        vals, vecs, ok = spectrum(W)
        covered = covers(precision_matrix(vals, vecs), solution.M, M0,
                         region_radius2(p, n, 0.05))
        assert W.shape == term_V.shape == (0, p, p) and used.shape == (0, G)
        assert covered.shape == ok.shape == vertex.shape == max_eigenvalue(W).shape == (0,)
        assert metric.errors.shape == (0,) and solution.errors == errors == ()
        part = simulate._front_pass(np.empty((0, G, n, p)), np.empty((0, G, n)),
                                    spec.ridge_jitter, 0)
        assert all(len(a) == 0 for a in part[:-1]) and part.metric.Sigma.shape == (0, p, p)
        block = np.zeros(0, dtype=bool), np.zeros(0), np.zeros(0, dtype=bool)
        simulate._back_pass([part, part], 1, n, 0.05, M0, *block)
        assert _bits(*simulate._run_block(spec, 0.05, M0, [])) == ((), (), ())


@pytest.mark.parametrize("cell", ENGINE_CELLS)
def test_rows_do_not_depend_on_the_chunk_size(cell, monkeypatch):
    # every design chunk size crossed with every back batch size: whole
    # chunks per batch, and a chunk in batch-sized slices
    spec, M0, items = _engine_cell(*cell)
    sizes = (1, 7, len(items))
    runs = set()
    for front in sizes:
        for batch in sizes:
            monkeypatch.setattr(simulate, "_chunk_sizes", lambda spec: (front, batch))
            runs.add(_bits(*_block(spec, M0, items)))
    assert len(runs) == 1


@pytest.mark.parametrize("table", [1, 3, 4])
@pytest.mark.parametrize("p", [3, 6, 8])
@pytest.mark.parametrize("n", [3, 10, 500])
def test_a_chunk_keeps_its_designs_and_qp_systems_in_the_budget(table, p, n):
    # A replicate counts its design, its scatters S (G p^2) and its
    # bordered (G + 1)^2 QP system in a design chunk; a back batch counts
    # about six G p^2 arrays a replicate (the Jacobians and their
    # products), more than the design at small n.
    spec = scenario_presets(table, p, n)
    G = spec.G
    design, scatters, system = 8 * G * n * p, 8 * G * p * p, 8 * (G + 1) ** 2
    assert simulate._replicate_bytes(spec) >= design + scatters + system
    assert simulate._batch_bytes(spec) >= 6 * scatters
    front, batch = simulate._chunk_sizes(spec)
    assert front == 1 or front * simulate._replicate_bytes(spec) <= simulate.CHUNK_BYTES
    assert batch == 1 or batch * simulate._batch_bytes(spec) <= simulate.CHUNK_BYTES


def test_a_back_batch_stays_in_the_budget(monkeypatch):
    # p = G = 20, n = 60: seven replicates a design chunk and, by the
    # count, four a back batch. Each back pass, with the front arrays it
    # holds, stays within CHUNK_BYTES: at most 1.25 MB, 0.54 MB of it
    # held, measured with NumPy 2.4. A back half without a budget of its
    # own takes the whole block: 9.3 MB for these 40 replicates, and
    # 1,500 took the peak RSS from 71 MB to 397 MB.
    spec = replace(scenario_presets(1, 20, 60), seed=cell_seed(7, 1, 20, 60))
    front, batch = simulate._chunk_sizes(spec)
    assert 1 < batch < front
    back_pass, used = simulate._back_pass, []

    def measured(parts, *args):
        held = sum(a.nbytes for part in parts for a in part[:-1])
        held += sum(part.metric.Sigma.nbytes + part.metric.L.nbytes for part in parts)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        back_pass(parts, *args)
        used.append(held + tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(simulate, "_back_pass", measured)
    items = _items(spec, 40)
    tracemalloc.start()
    try:
        _, eig, _ = _block(spec, true_maximin(spec), items)
    finally:
        tracemalloc.stop()
    assert len(used) == 6 and max(used) <= simulate.CHUNK_BYTES
    assert not np.isnan(eig).any()


def test_a_small_n_block_stays_in_the_budget():
    # table 4 at p = 6, n = 3: the design is 864 bytes, and counting it
    # alone put 2,427 replicates in a chunk (a 29.5 MB tracemalloc peak
    # over 2,500). Counting the per-replicate arrays too, a chunk holds
    # 507 and the block peaks at about 4.4 MB (NumPy 2.4): the two to
    # three budgets a chunk's pass holds at large n as well.
    spec = replace(scenario_presets(4, 6, 3), seed=cell_seed(7, 4, 6, 3))
    items = _items(spec, 1200)
    _block(spec, true_maximin(spec), items[:2])
    tracemalloc.start()
    try:
        _block(spec, true_maximin(spec), items)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * simulate.CHUNK_BYTES


@pytest.mark.parametrize("stage", ["SigmaMetric", "stacked_maximin"])
def test_a_refused_row_comes_out_degenerate(stage, monkeypatch):
    # a row the metric check or the QP refuses drops out of the pass as a
    # degenerate row; every other row keeps its bits
    spec, M0, items = _engine_cell(*ENGINE_CELLS[0])
    X, y = generate_stack(spec, [seed for _, seed in items])
    assert fit_stack(X, y, spec.ridge_jitter).ok.all()  # row i of a stack is replicate i
    assert len(items) * simulate._replicate_bytes(spec) <= simulate.CHUNK_BYTES  # one chunk
    expected = _bits(*_block(spec, M0, items))
    kernel = getattr(simulate, stage)
    error = DefinitenessError if stage == "SigmaMetric" else ConvergenceError

    def refusing(rows):
        def refuse(*args):
            out = kernel(*args)
            errors = list(out.errors)
            for r in rows:
                errors[r] = error("refused")
            if stage == "SigmaMetric":
                out.errors[:] = errors
                return out
            return out._replace(errors=tuple(errors))
        return refuse

    R = len(items)
    refused = _bits(np.zeros(R, dtype=bool), np.full(R, np.nan), np.zeros(R, dtype=bool))
    assert expected[1][3] != refused[1][3]
    monkeypatch.setattr(simulate, stage, refusing([3]))
    assert _bits(*_block(spec, M0, items)) == tuple(
        e[:3] + r[3:4] + e[4:] for e, r in zip(expected, refused))
    monkeypatch.setattr(simulate, stage, refusing(range(R)))
    assert _bits(*_block(spec, M0, items)) == refused


@pytest.mark.parametrize("cell", ENGINE_CELLS)
def test_stacked_rows_equal_the_per_replicate_analysis(cell):
    # Every row of a chunk, vertices, ties and degenerate replicates
    # included, has the bits of the library's single-dataset analysis.
    spec, M0, items = _engine_cell(*cell)
    X, y = generate_stack(spec, [seed for _, seed in items])
    for i, (covered, eig, vertex) in enumerate(zip(*_block(spec, M0, items))):
        dataset = GroupedDataset(tuple(zip(X[i], y[i])))
        try:
            analysis = analyze_dataset(dataset, alpha=0.05, ridge_jitter=spec.ridge_jitter)
        except reference.REPLICATE_ERRORS:
            assert (bool(covered), np.isnan(eig), bool(vertex)) == (False, True, False)
            continue
        W = analysis.covariance.W
        assert (bool(covered), float(eig).hex(), bool(vertex)) == (
            bool(contains(analysis.region, M0)), max_eigenvalue(W).hex(),
            analysis.covariance.vertex_mode)


def _mixed_signs(B):
    """Whether a shared-plus-noise draw's z has both signs, which makes
    e_1 its maximin point."""
    return B[1].min() < 0.0 < B[1].max()


def _assert_certified(spec):
    """The simplex QP under the identity metric lands on true_maximin(spec)
    with a KKT residual of at most 1e-8."""
    solution = maximin_point(true_coefficients(spec), np.eye(spec.p))
    assert np.abs(solution.M - true_maximin(spec)).max() <= 1e-8
    assert solution.kkt_residual <= 1e-8


@st.composite
def _scenarios(draw):
    """Every coefficient rule at every (p, G) it allows, up to 16 each;
    shared-plus-noise takes G >= 2, so a mixed-sign z can occur."""
    rule = draw(st.sampled_from(COEFFICIENT_RULES))
    low = 2 if rule == "shared-plus-noise" else 1
    p = draw(st.integers(low, 16))
    G = draw(st.integers(low, p if rule == "basis-vectors" else 16))
    seed = draw(st.integers(0, 2**64 - 1))
    return ScenarioSpec(p=p, G=G, n=50, coefficient_rule=rule, seed=seed)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=_scenarios())
@example(spec=ScenarioSpec(p=16, G=16, n=50))
@example(spec=ScenarioSpec(p=3, G=16, n=50, coefficient_rule="identical"))
@example(spec=ScenarioSpec(p=2, G=16, n=50, coefficient_rule="shared-plus-noise"))
def test_reference_point_is_the_certified_maximin_point(spec):
    # run_cell scores every replicate against true_maximin without
    # solving for it; this is the certificate, at any G
    if spec.coefficient_rule == "shared-plus-noise":
        assume(_mixed_signs(true_coefficients(spec)))
    _assert_certified(spec)


@pytest.mark.parametrize("table", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_preset_reference_point_is_certified(table, p):
    spec = scenario_presets(table, p, 50)
    if spec.coefficient_rule == "shared-plus-noise":
        spec = next(replace(spec, seed=seed) for seed in range(64)
                    if _mixed_signs(true_coefficients(replace(spec, seed=seed))))
    _assert_certified(spec)
