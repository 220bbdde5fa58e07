"""Data model, synthetic generation, least-squares fitting, CSV input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maximin.errors import CsvFormatError, DimensionError, SingularFitError
from maximin.estimator import MaximinEstimator
from maximin.linmodel import (
    GroupedDataset,
    ScenarioSpec,
    fit,
    generate,
    load_group_csvs,
    load_grouped_csv,
    load_matrix_csv,
    true_coefficients,
)


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
    return MaximinEstimator().fit(X, y, labels)


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

