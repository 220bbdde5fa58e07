"""CSV ingest: the loaders held against the all-Python reader in
``reference`` on generated texts, and np.loadtxt's decline rules."""

import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from maximin.errors import CsvFormatError
from maximin.linmodel import (
    GroupedDataset,
    _data_layout,
    _loadtxt_rows,
    load_group_csvs,
    load_grouped_csv,
    load_matrix_csv,
)

# Generated CSV texts. A clean text keeps to what np.loadtxt reads: repr
# floats, padded or not, empty lines and rows of the header's width. The
# others mix in every form only csv.reader and float() read, or that no
# reader accepts.
NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    ["-0.0", "0", "+2", "-.5", "1e5", "1E-320", "00012"])
ODD_CELLS = st.sampled_from(
    ["1_000", "\uff11\uff12", "\u0663", "inf", "-Infinity", "nan", "1e999", "", " ",
     "#1", "0x10", "1 2", "'1'", "1,5", "\x0c"])
PADS = st.sampled_from(["", " ", "\t", "\xa0", "\x0b", "\u3000"])
LABELS = st.sampled_from(["a", "b", "a b", " a", "b ", "1", "#c", "\u00e9", "a,b"])
BLANKS = st.sampled_from(["", "  ", ",,", "\t", " , "])


@st.composite
def _cell(draw, clean):
    cell = draw(NUMBERS)
    if draw(st.booleans()):
        cell = draw(PADS) + cell + draw(PADS)
    if not clean and draw(st.integers(0, 4)) == 0:
        cell = draw(ODD_CELLS)
    if not clean and draw(st.integers(0, 5)) == 0:
        cell = f'"{cell}"'
    return cell


@st.composite
def _text(draw, clean, names, labels, n):
    """One file: the header names (None for a matrix), then n rows for
    each label in a drawn order, with blank lines drawn in between."""
    width = len(names) if names else draw(st.integers(1, 3))
    key = names.index("group") if names and "group" in names else None
    order = draw(st.permutations([label for label in labels for _ in range(n)]))
    lines = []
    for label in order:
        cells = [draw(_cell(clean)) for _ in range(width)]
        if key is not None and label is not None:
            quote = "," in label or not clean and draw(st.integers(0, 3)) == 0
            cells[key] = f'"{label}"' if quote else label
        if not clean and draw(st.integers(0, 6)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        lines.append(",".join(cells))
    if names:
        quoted = [f'"{name}"' if not clean and draw(st.integers(0, 9)) == 0 else name
                  for name in names]
        lines.insert(0, ",".join(quoted))
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(BLANKS) if not clean else ""
        lines.insert(draw(st.integers(0, len(lines))), blank)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"])) if not clean else "\n"
    return end.join(lines) + (end if draw(st.booleans()) else "")


@st.composite
def _header(draw, clean, grouped):
    names = [f"x{j + 1}" for j in range(draw(st.integers(1, 3)))] + ["y"]
    if grouped:
        names.append("group")
    names = draw(st.permutations(names))
    if not clean and draw(st.integers(0, 3)) == 0:
        names = names + [draw(st.sampled_from(["group", "y", "x1", "x9"]))]
    if not clean and draw(st.integers(0, 5)) == 0:
        names = names[1:]
    return names


@st.composite
def csv_inputs(draw):
    """(kind, [text, ...]) for one loader: grouped, split or matrix."""
    kind = draw(st.sampled_from(["grouped", "split", "matrix"]))
    clean = draw(st.booleans())
    n = draw(st.integers(1, 4))
    if kind == "matrix":
        return kind, [draw(_text(clean, None, [None], n))]
    if kind == "split":
        names = draw(_header(clean, grouped=False))
        sizes = [n, n if clean or draw(st.booleans()) else n + 1]
        return kind, [draw(_text(clean, names, [None], size)) for size in sizes]
    names = draw(_header(clean, grouped=True))
    labels = draw(st.lists(LABELS.filter(lambda label: not clean or "," not in label),
                           min_size=1, max_size=3, unique=True))
    return kind, [draw(_text(clean, names, labels, n))]


LOADERS = {
    "grouped": lambda paths: load_grouped_csv(paths[0]),
    "split": load_group_csvs,
    "matrix": lambda paths: load_matrix_csv(paths[0]),
}
ORACLES = {
    "grouped": lambda paths: reference.load_grouped_csv(paths[0]),
    "split": reference.load_group_csvs,
    "matrix": lambda paths: reference.load_matrix_csv(paths[0]),
}


def _outcome(load, paths):
    """What load returns, its floats as bits, or the error it raises."""
    try:
        loaded = load(paths)
    except CsvFormatError as err:
        return "error", str(err), err.line, err.column
    if isinstance(loaded, np.ndarray):
        return "matrix", loaded.shape, loaded.view(np.uint64).tolist()
    return ("dataset", loaded.labels, loaded.X.shape,
            loaded.X.view(np.uint64).tolist(), loaded.y.view(np.uint64).tolist())


# Mutation-checked: fails when _read_table stops declining quotes or
# GroupedDataset.from_rows drops the first-appearance order of labels. A
# _loadtxt_rows without its finite test or its no-data check fails the
# decline table below and test_csv_errors, not this property. A ragged
# row (the decline table's ``a,1,2,3`` and ``b,1``) is declined by
# np.loadtxt itself, whose dtype has one field per cell of the header;
# a read with usecols, which accepts extra fields, fails the decline
# table and test_csv_errors. from_rows without its stable row order
# fails the from_rows property in test_linmodel.
@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=csv_inputs())
def test_loaders_match_the_csv_reader_oracle(case):
    kind, texts = case
    with tempfile.TemporaryDirectory() as folder:
        paths = [os.path.join(folder, name) for name in ("north.csv", "south.csv")[:len(texts)]]
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        assert _outcome(LOADERS[kind], paths) == _outcome(ORACLES[kind], paths)


@pytest.mark.parametrize("kind, texts", [
    ("grouped", ["group,x1,y\na,1,2\n\nb,3,-0.5\n"]),
    ("split", ["y,x1\n2,1\n", "y,x1\n4,3\n"]),
    ("matrix", ["1,0\n0,1\n"]),
])
def test_a_clean_file_takes_one_loadtxt_call(tmp_path, monkeypatch, kind, texts):
    # A structured read that declines would lose only speed: the
    # csv.reader path gives the same values.
    paths = [str(tmp_path / f"g{i}.csv") for i in range(len(texts))]
    for path, text in zip(paths, texts):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    calls, loadtxt = [], np.loadtxt

    def counted(fname, *args, **kwargs):
        calls.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    monkeypatch.setattr(csv, "reader", lambda *args, **kwargs: pytest.fail("csv.reader ran"))
    LOADERS[kind](paths)
    assert calls == paths


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_is_read_once():
    read, write = os.pipe()
    os.write(write, b"group,x1,y\na,1,2\nb,2,3\n")
    os.close(write)
    try:
        dataset = load_grouped_csv(f"/dev/fd/{read}")
    finally:
        os.close(read)
    assert dataset.labels == ("a", "b")
    assert dataset.y.tolist() == [[2.0], [3.0]]


@pytest.mark.parametrize("text, parsed", [
    ("group,x1,y\na, 1\t,2\n\nb,3,-0.0\n", True),
    ("\ngroup,x1,y\nb,1,2\na,3,4", True),
    ("group,x1,y\na,1_000,2\n", False),
    ("group,x1,y\na,\uff11,2\n", False),
    ("group,x1,y\na,inf,2\n", False),
    ("group,x1,y\na,1,2\n  \n", False),
    ("group,x1,y\na,1,2,3\n", False),
    ("group,x1,y\na,1,2\nb,1\n", False),
    ("group,x1,y\n\n", False),
])
def test_loadtxt_reads_plain_rows_and_declines_the_rest(tmp_path, text, parsed):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")

    def layout(header, line):
        return _data_layout(str(path), header, line, grouped=True)

    read = _loadtxt_rows(str(path), text, layout, header=True)
    assert (read is not None) == parsed
    if parsed:
        _, table, keys = read
        dataset = GroupedDataset.from_rows(table[:, :-1], table[:, -1], keys)
        expected = reference.load_grouped_csv(str(path))
        assert dataset.labels == expected.labels
        assert np.array_equal(dataset.X, expected.X) and np.array_equal(dataset.y, expected.y)
