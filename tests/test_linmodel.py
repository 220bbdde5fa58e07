"""Data model, synthetic generation, least-squares fitting, CSV input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from maximin import geometry
from maximin.errors import CsvFormatError, DimensionError, SingularFitError
from maximin.linmodel import (
    GroupedDataset,
    ScenarioSpec,
    _philox_keys,
    _reset,
    fit,
    fit_stack,
    generate,
    generate_stack,
    load_group_csvs,
    load_grouped_csv,
    load_matrix_csv,
    true_coefficients,
)
from maximin.pipeline import analyze_dataset
from maximin.simulate import scenario_presets


def test_dataset_shapes_and_default_labels():
    X = np.ones((4, 2))
    y = np.zeros(4)
    ds = GroupedDataset(((X, y), (X, y)))
    assert (ds.n, ds.p, ds.G) == (4, 2, 2)
    assert ds.labels == ("g1", "g2")
    assert ds.design_stack().shape == (8, 2)


def test_dataset_holds_one_read_only_stack():
    ds, _ = generate(ScenarioSpec(p=3, G=2, n=5, seed=4))
    assert ds.X.shape == (2, 5, 3) and ds.y.shape == (2, 5)
    assert np.shares_memory(ds.design_stack(), ds.X)
    for X, y in ds.groups:
        assert np.shares_memory(X, ds.X) and np.shares_memory(y, ds.y)
    for stack in (ds.X, ds.y, ds.groups[0][0], ds.design_stack()):
        with pytest.raises(ValueError, match="read-only"):
            stack[0] = 0.0


def test_dataset_rejects_mismatched_group_shapes():
    X = np.ones((4, 2))
    with pytest.raises(DimensionError):
        GroupedDataset(((X, np.zeros(4)), (np.ones((3, 2)), np.zeros(3))))
    with pytest.raises(DimensionError, match="^all groups must share the predictor count p$"):
        GroupedDataset(((X, np.zeros(4)), (np.ones((4, 3)), np.zeros(4))))
    for empty in (np.ones((0, 2)), np.ones((4, 0))):
        with pytest.raises(DimensionError, match="^need n >= 1 and p >= 1$"):
            GroupedDataset(((empty, np.zeros(len(empty))),) * 2)


def test_dataset_rejects_flat_design():
    with pytest.raises(DimensionError):
        GroupedDataset(((np.ones(4), np.zeros(4)),))


def test_dataset_rejects_label_count_mismatch():
    X = np.ones((2, 2))
    with pytest.raises(DimensionError):
        GroupedDataset(((X, np.zeros(2)),), labels=("a", "b"))


def test_dataset_needs_at_least_one_group():
    with pytest.raises(DimensionError):
        GroupedDataset(())


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(p=3, G=3, n=10, coefficient_rule="nope")
    for p, G, n in ((0, 1, 10), (2, 0, 10), (2, 2, 0)):
        with pytest.raises(DimensionError, match="^p, G and n must all be >= 1$"):
            ScenarioSpec(p=p, G=G, n=n)
    # basis-vectors runs out of coordinates past G = p
    with pytest.raises(DimensionError):
        ScenarioSpec(p=2, G=3, n=10)
    with pytest.raises(DimensionError):
        ScenarioSpec(p=1, G=2, n=10, coefficient_rule="shared-plus-noise")
    for noise_sd in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_sd must be finite and > 0"):
            ScenarioSpec(p=2, G=2, n=10, noise_sd=noise_sd)
    with pytest.raises(ValueError):
        ScenarioSpec(p=2, G=2, n=10, seed=-1)
    for jitter in (-1e-6, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="ridge_jitter must be finite and >= 0"):
            ScenarioSpec(p=2, G=2, n=10, ridge_jitter=jitter)


def test_coefficient_rules():
    assert np.array_equal(true_coefficients(ScenarioSpec(p=3, G=3, n=5)), np.eye(3))

    B = true_coefficients(ScenarioSpec(p=3, G=2, n=5, coefficient_rule="identical"))
    assert np.array_equal(B, np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))

    spec = ScenarioSpec(p=3, G=4, n=5, coefficient_rule="shared-plus-noise", seed=3)
    B = true_coefficients(spec)
    assert np.array_equal(B[0], np.ones(4))
    assert np.array_equal(B[2], np.zeros(4))
    assert np.array_equal(B, true_coefficients(spec))
    other = ScenarioSpec(p=3, G=4, n=5, coefficient_rule="shared-plus-noise", seed=4)
    assert not np.array_equal(B[1], true_coefficients(other)[1])


def test_generate_is_seed_deterministic():
    spec = ScenarioSpec(p=3, G=2, n=8, seed=11)
    d1, B1 = generate(spec)
    d2, B2 = generate(spec)
    assert np.array_equal(B1, B2)
    for (Xa, ya), (Xb, yb) in zip(d1.groups, d2.groups):
        assert np.array_equal(Xa, Xb)
        assert np.array_equal(ya, yb)
    d3, _ = generate(ScenarioSpec(p=3, G=2, n=8, seed=12))
    assert not np.array_equal(d1.groups[0][0], d3.groups[0][0])


def test_fit_recovers_noiseless_coefficients():
    spec = ScenarioSpec(p=4, G=3, n=60, noise_sd=1e-12, seed=5)
    ds, B0 = generate(spec)
    est = fit(ds)
    assert np.allclose(est.Bhat, B0, atol=1e-8)
    assert est.sigma2_hat < 1e-20
    assert not est.sigma2_approximate


def test_fit_estimates_noise_and_pooled_metric():
    ds, _ = generate(ScenarioSpec(p=3, G=3, n=4000, seed=1))
    est = fit(ds)
    assert abs(est.sigma2_hat - 1.0) < 0.05
    assert np.allclose(est.Sigma_hat, np.eye(3), atol=0.05)
    assert est.Sigma_g_hat.shape == (3, 3, 3)


def test_fit_singular_scatter_names_the_group():
    ds, _ = generate(ScenarioSpec(p=5, G=2, n=3, seed=0))
    with pytest.raises(SingularFitError) as info:
        fit(ds)
    assert info.value.group == "g1"


def test_an_all_degenerate_stack_is_factored_in_one_call(monkeypatch):
    # Table 1 at p = 8, n = 4: every group scatter has rank 4 < p. The
    # whole (R, G, p, p) stack goes through one Cholesky call, not one
    # call per scatter. Every verdict is false, and each factor is
    # numpy.linalg's for its scatter alone: NaN where that raises.
    X, y = generate_stack(scenario_presets(1, 8, 4), np.arange(20))
    stacked_linalg, calls = geometry.stacked_linalg, []

    def counted(kernel, *arrays):
        calls.append((kernel, arrays[0].shape))
        return stacked_linalg(kernel, *arrays)

    monkeypatch.setattr(geometry, "stacked_linalg", counted)
    fitted = fit_stack(X, y)
    assert calls == [("cholesky_lo", (20, 8, 8, 8))]
    assert not fitted.pivots_ok.any()
    assert np.isnan(fitted.coef).all() and np.isnan(fitted.sigma2).all()
    for S, L in zip(fitted.S.reshape(-1, 8, 8), fitted.pivots.reshape(-1, 8, 8)):
        try:
            alone = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            assert np.isnan(L).all()
        else:
            assert L.tobytes() == alone.tobytes()


def test_fit_ridge_handles_n_below_p():
    ds, _ = generate(ScenarioSpec(p=5, G=2, n=3, seed=0, ridge_jitter=1e-4))
    est = fit(ds, ridge_jitter=1e-4)
    assert est.sigma2_approximate
    assert np.all(np.isfinite(est.Bhat))
    assert est.ridge_jitter_used == 1e-4


def test_fit_rejects_negative_jitter():
    ds, _ = generate(ScenarioSpec(p=2, G=2, n=10, seed=0))
    for jitter in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="ridge_jitter must be finite and >= 0"):
            fit(ds, ridge_jitter=jitter)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    p=st.integers(1, 4),
    G=st.integers(1, 4),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_generated_shapes_match_the_spec_fields(p, G, n, seed):
    spec = ScenarioSpec(p=p, G=min(G, p), n=n, seed=seed)
    ds, B0 = generate(spec)
    assert B0.shape == (p, min(G, p))
    assert (ds.n, ds.p, ds.G) == (n, p, min(G, p))
    assert all(np.isfinite(y).all() for _, y in ds.groups)


# Mutation-checked: both properties below fail when _philox_keys drops
# one mixing round, the reset one when _reset keeps the old buffer_pos.
# Seeds: the word-count edges of a 64-bit integer, then any.
SEEDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)
KEYS = st.tuples(SEEDS, st.integers(0, 2), st.integers(0, 2**31))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(keys=st.lists(KEYS, min_size=1, max_size=6))
def test_philox_keys_are_the_seed_sequence_keys(keys):
    expected = [np.random.SeedSequence(key).generate_state(2, np.uint64) for key in keys]
    assert np.array_equal(_philox_keys(keys), expected)
    # generate_stack hashes the coefficient stream (seed, 0) as (seed, 0, 0)
    seeds = [(seed, 0) for seed, _, _ in keys]
    expected = [np.random.SeedSequence(key).generate_state(2, np.uint64) for key in seeds]
    assert np.array_equal(_philox_keys([key + (0,) for key in seeds]), expected)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(key=KEYS, before=st.integers(1, 9), half=st.integers(0, 4))
def test_a_reset_generator_draws_the_fresh_stream(key, before, half):
    rng = np.random.Generator(np.random.Philox(key=0))
    rng.standard_normal(before)
    rng.integers(2**32, dtype=np.uint32)  # caches the other 32-bit half
    _reset(rng, _philox_keys([key])[0].tolist())
    fresh = reference.stream(*key)
    for length in (2 * half + 1, 2 * half + 2):
        assert rng.standard_normal(length).tobytes() == fresh.standard_normal(length).tobytes()
    words = rng.integers(2**32, dtype=np.uint32, size=3)
    assert words.tobytes() == fresh.integers(2**32, dtype=np.uint32, size=3).tobytes()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_64_bits_are_refused(seed):
    with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
        ScenarioSpec(p=2, G=2, n=5, seed=seed)
    with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
        generate_stack(ScenarioSpec(p=2, G=2, n=5), [3, seed])


def _write(path, text):
    path.write_text(text, encoding="utf-8")


def test_grouped_csv_round_trip(tmp_path):
    f = tmp_path / "data.csv"
    _write(
        f,
        "group,x1,x2,y\n"
        "a,1,0,1.5\n"
        "a,0,1,0.5\n"
        "b,1,1,2.0\n"
        "b,2,0,3.0\n",
    )
    ds = load_grouped_csv(str(f))
    assert ds.labels == ("a", "b")
    assert (ds.n, ds.p, ds.G) == (2, 2, 2)
    assert np.array_equal(ds.groups[0][0], [[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(ds.groups[1][1], [2.0, 3.0])


def test_grouped_csv_header_problems(tmp_path):
    f = tmp_path / "bad.csv"
    _write(f, "x1,y\n1,2\n")
    with pytest.raises(CsvFormatError):
        load_grouped_csv(str(f))
    _write(f, "group,x1\na,1\n")
    with pytest.raises(CsvFormatError):
        load_grouped_csv(str(f))
    _write(f, "group,y\na,1\n")
    with pytest.raises(CsvFormatError):
        load_grouped_csv(str(f))
    _write(f, "")
    with pytest.raises(CsvFormatError):
        load_grouped_csv(str(f))
    _write(f, "group,x1,x1,y\na,1,2,3\n")
    with pytest.raises(CsvFormatError, match="column 'x1' appears more than once") as info:
        load_grouped_csv(str(f))
    assert info.value.line == 1


def test_grouped_csv_cell_errors_carry_location(tmp_path):
    f = tmp_path / "bad.csv"
    _write(f, "group,x1,y\na,1,1\na,one,2\n")
    with pytest.raises(CsvFormatError) as info:
        load_grouped_csv(str(f))
    assert info.value.line == 3
    assert info.value.column == "x1"

    _write(f, "group,x1,y\na,1\n")
    with pytest.raises(CsvFormatError) as info:
        load_grouped_csv(str(f))
    assert info.value.line == 2


def test_grouped_csv_rejects_unequal_group_sizes(tmp_path):
    f = tmp_path / "bad.csv"
    _write(f, "group,x1,y\na,1,1\na,2,2\nb,3,3\n")
    with pytest.raises(CsvFormatError):
        load_grouped_csv(str(f))


def _grouped_file(folder, groups):
    f = folder / "data.csv"
    _write(f, "group,x1,y\n" + "".join(
        f"{label},{x},{y}\n" for label, rows in groups for x, y in rows))
    return load_grouped_csv(str(f))


def _group_files(folder, groups):
    paths = []
    for k, (label, rows) in enumerate(groups):
        (folder / f"d{k}").mkdir()
        f = folder / f"d{k}" / f"{label}.csv"
        _write(f, "x1,y\n" + "".join(f"{x},{y}\n" for x, y in rows))
        paths.append(str(f))
    return load_group_csvs(paths)


def _estimator_rows(folder, groups):
    rows = [(label, x, y) for label, part in groups for x, y in part]
    labels = np.array([label for label, _, _ in rows], dtype=object)
    X = np.array([[x] for _, x, _ in rows], dtype=float)
    y = np.array([y for _, _, y in rows], dtype=float)
    return GroupedDataset.from_rows(X, y, labels)


@pytest.mark.parametrize("load, error", [
    (_grouped_file, CsvFormatError),
    (_group_files, CsvFormatError),
    (_estimator_rows, DimensionError),
])
def test_every_entry_point_refuses_uneven_or_repeated_groups(tmp_path, load, error):
    folder = tmp_path / "unequal"
    folder.mkdir()
    with pytest.raises(error) as info:
        load(folder, [("a", [(1, 1), (2, 2)]), ("b", [(3, 3)])])
    prefix = f"{folder / 'data.csv'}: " if load is _grouped_file else ""
    assert str(info.value) == prefix + "groups must have equal sizes, got a=2, b=1"
    if load is _grouped_file:
        return  # one group column cannot hold two groups under one label
    folder = tmp_path / "repeated"
    folder.mkdir()
    # row labels 1 and "1" are distinct keys but one group name
    with pytest.raises(error, match="group label '1' appears more than once"):
        load(folder, [(1, [(1, 1), (2, 2)]), ("1", [(3, 3), (4, 5)])])


def test_a_repeated_label_names_both_groups():
    X, y = np.eye(2), np.ones(2)
    with pytest.raises(DimensionError, match="group label 'b' appears more than once") as info:
        GroupedDataset(((X, y),) * 3, labels=("b", "a", "b"))
    assert info.value.groups == (0, 2)


# label pools by array kind; the object pool holds 1 next to "1"
LABEL_POOLS = {
    "int": [3, 1, 10, 2],
    "str": ["b", "a", "1", "a b"],
    "object": [1, "1", "b", 2],
}


@st.composite
def labelled_rows(draw):
    """(X, y, labels): rows of G drawn labels, n each, interleaved in a
    drawn order; at times one row more or less, so that the group
    sizes differ, or one label short of the rows."""
    kind = draw(st.sampled_from(sorted(LABEL_POOLS)))
    pool = draw(st.lists(st.sampled_from(LABEL_POOLS[kind]), min_size=1, max_size=4,
                         unique=True))
    n = draw(st.integers(1, 20))
    keys = [label for label in pool for _ in range(n)]
    change = draw(st.sampled_from(["none", "none", "extra", "missing", "short"]))
    if change == "extra":
        keys.append(draw(st.sampled_from(pool)))
    elif change == "missing" and len(keys) > 1:
        keys.pop(draw(st.integers(0, len(keys) - 1)))
    keys = draw(st.permutations(keys))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((len(keys), draw(st.integers(1, 3))))
    y = rng.standard_normal(len(keys))
    labels = np.array(keys, dtype=object if kind == "object" else None)
    return X, y, labels[:-1] if change == "short" else labels


def _split_outcome(split, X, y, labels):
    try:
        dataset = split(X, y, labels)
    except (DimensionError, ValueError) as err:
        return type(err)
    return (dataset.labels, dataset.X.shape, dataset.X.view(np.uint64).tolist(),
            dataset.y.view(np.uint64).tolist())


def _mask_split(X, y, labels):
    names, parts = reference.split_groups(X, y, labels)
    return GroupedDataset(tuple(parts), labels=names)


# Mutation-checked: fails when from_rows sorts the rows without
# kind="stable", names groups in sorted order, or keys them by str(label).
@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=labelled_rows())
def test_from_rows_matches_the_mask_split(case):
    X, y, labels = case
    assert _split_outcome(GroupedDataset.from_rows, X, y, labels) == _split_outcome(
        _mask_split, X, y, labels)


def test_from_rows_refuses_what_it_cannot_split():
    X, y = np.ones((4, 2)), np.ones(4)
    labels = np.array(["a", "a", "b", "b"])
    with pytest.raises(DimensionError, match="X must be 2-dimensional, got ndim=1"):
        GroupedDataset.from_rows(np.ones(4), y, labels)
    for empty in (np.ones((0, 2)), np.ones((4, 0))):
        with pytest.raises(DimensionError, match="^X must be nonempty$"):
            GroupedDataset.from_rows(empty, y, labels)
    with pytest.raises(ValueError, match="X contains NaN or infinite entries") as info:
        GroupedDataset.from_rows(X * np.nan, y, labels)
    assert type(info.value) is ValueError
    with pytest.raises(DimensionError, match="^y must be 1-dimensional, got ndim=2$"):
        GroupedDataset.from_rows(X, np.ones((4, 1)), labels)
    with pytest.raises(ValueError, match="^y contains NaN or infinite entries$") as info:
        GroupedDataset.from_rows(X, np.array([1.0, np.inf, 1.0, 1.0]), labels)
    assert type(info.value) is ValueError
    with pytest.raises(DimensionError, match="y has 3 entries but X has 4 rows"):
        GroupedDataset.from_rows(X, np.ones(3), labels)
    with pytest.raises(DimensionError, match="groups must be 1-dimensional"):
        GroupedDataset.from_rows(X, y, np.ones((2, 2)))
    with pytest.raises(DimensionError, match="groups must have equal sizes, got a=3, b=1"):
        GroupedDataset.from_rows(X, y, np.array(["a", "a", "a", "b"]))


def test_from_rows_names_int_labels_in_order_of_first_appearance():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    y = np.array([1.0, 0.5, 2.0, 3.0])
    dataset = GroupedDataset.from_rows(X, y, np.array([7, 7, 3, 3]))
    assert dataset.labels == ("7", "3")
    assert np.array_equal(dataset.X, X.reshape(2, 2, 2))


def test_labelled_rows_reach_the_pipeline_through_from_rows():
    ds, _ = generate(ScenarioSpec(p=3, G=3, n=120, seed=21))
    labels = np.repeat(["g1", "g2", "g3"], ds.n)
    rows = GroupedDataset.from_rows(ds.design_stack(), ds.y.reshape(-1), labels)
    analysis, expected = analyze_dataset(rows), analyze_dataset(ds)
    assert rows.labels == ("g1", "g2", "g3")
    assert np.array_equal(analysis.solution.M, expected.solution.M)
    assert np.array_equal(analysis.solution.alpha, expected.solution.alpha)
    assert np.array_equal(analysis.region.precision, expected.region.precision)
    assert [rows.labels[g] for g in analysis.solution.active] == [
        f"g{g + 1}" for g in expected.solution.active]


def test_per_group_csv_files(tmp_path):
    fa = tmp_path / "north.csv"
    fb = tmp_path / "south.csv"
    _write(fa, "x1,x2,y\n1,0,1\n0,1,2\n")
    _write(fb, "x1,x2,y\n1,1,3\n2,0,1\n")
    ds = load_group_csvs([str(fa), str(fb)])
    assert ds.labels == ("north", "south")
    assert (ds.n, ds.p, ds.G) == (2, 2, 2)


def test_per_group_csv_rejects_mixed_headers(tmp_path):
    fa = tmp_path / "a.csv"
    fb = tmp_path / "b.csv"
    _write(fa, "x1,y\n1,1\n")
    _write(fb, "x2,y\n1,1\n")
    with pytest.raises(CsvFormatError):
        load_group_csvs([str(fa), str(fb)])
    # a group column contradicts the one-file-per-group layout
    _write(fb, "group,x1,y\na,1,1\n")
    with pytest.raises(CsvFormatError):
        load_group_csvs([str(fa), str(fb)])
    _write(fb, "x1,y\n1,1\n2,2\n")
    with pytest.raises(CsvFormatError):
        load_group_csvs([str(fa), str(fb)])
    _write(fb, "x1,y,y\n1,1,1\n")
    with pytest.raises(CsvFormatError, match="column 'y' appears more than once"):
        load_group_csvs([str(fa), str(fb)])


def test_blank_rows_are_skipped_in_every_csv(tmp_path):
    # empty lines, lines of spaces and rows of empty cells, before the
    # header and between data rows; line numbers still count them
    f = tmp_path / "data.csv"
    _write(f, "\n  \ngroup,x1,y\na,1,1\n   \nb,2,2\n,,\na,3,3\nb,4,oops\n")
    with pytest.raises(CsvFormatError) as info:
        load_grouped_csv(str(f))
    assert (info.value.line, info.value.column) == (9, "y")
    _write(f, "\n  \ngroup,x1,y\na,1,1\n   \nb,2,2\n,,\na,3,3\nb,4,4\n \n")
    ds = load_grouped_csv(str(f))
    assert ds.labels == ("a", "b")
    assert np.array_equal(ds.groups[1][0], [[2.0], [4.0]])

    g = tmp_path / "north.csv"
    _write(g, "x1,y\n1,2\n\t\n2,3\n")
    assert load_group_csvs([str(g)]).n == 2

    m = tmp_path / "sigma.csv"
    _write(m, "  \n2,1\n \n1,2\n\n")
    assert np.array_equal(load_matrix_csv(str(m)), [[2.0, 1.0], [1.0, 2.0]])
    # one column: a line of spaces is still a blank row, not a cell
    _write(m, "3\n   \n")
    assert np.array_equal(load_matrix_csv(str(m)), [[3.0]])
    _write(m, "\n \n")
    with pytest.raises(CsvFormatError, match="empty file"):
        load_matrix_csv(str(m))

