"""CSV ingest: the loaders held against the all-Python reader in
``reference`` on generated texts, and np.loadtxt's decline rules."""

import csv
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import test_csv_errors
from maximin import linmodel
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


def _match_oracle(case):
    kind, texts = case
    with tempfile.TemporaryDirectory() as folder:
        paths = [os.path.join(folder, name) for name in ("north.csv", "south.csv")[:len(texts)]]
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        assert _outcome(LOADERS[kind], paths) == _outcome(ORACLES[kind], paths)


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
    _match_oracle(case)


# Reads of a few bytes put read edges inside cells, CRLFs and UTF-8
# sequences. Mutation-checked: fails when the scan stops after its first
# read. A scan that takes a CR ending one read for a lone CR only sends
# clean files to csv.reader, which the CRLF test below catches.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=csv_inputs(), chunk=st.integers(1, 7))
def test_loaders_match_the_oracle_in_reads_of_a_few_bytes(case, chunk):
    with mock.patch.object(linmodel, "_CHUNK", chunk):
        _match_oracle(case)


@pytest.mark.parametrize("loader, files, message, line, column", test_csv_errors.ERROR_TABLE)
def test_pinned_csv_errors_in_reads_of_a_few_bytes(
        tmp_path, capsys, monkeypatch, loader, files, message, line, column):
    monkeypatch.setattr(linmodel, "_CHUNK", 3)
    test_csv_errors.test_pinned_csv_error(tmp_path, capsys, loader, files, message, line, column)


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
    # the clean path never holds the file's text
    monkeypatch.setattr(linmodel, "_read_text", lambda path: pytest.fail("_read_text ran"))
    LOADERS[kind](paths)
    assert calls == paths


def _spy(monkeypatch, module, name):
    """The arguments of every call of module.name, which still runs."""
    calls, function = [], getattr(module, name)

    def spied(*args, **kwargs):
        calls.append(args[0])
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, spied)
    return calls


CRLF = b"group,x1,y\r\na,1,2\r\nb,3,4\r\n\r\na,-0.5,6\r\nb,7,8e-3"


def test_a_crlf_split_across_reads_takes_loadtxt(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(CRLF)
    expected = _outcome(ORACLES["grouped"], [str(path)])
    assert expected[0] == "dataset"
    calls = _spy(monkeypatch, np, "loadtxt")
    monkeypatch.setattr(linmodel, "_read_text", lambda path: pytest.fail("_read_text ran"))
    # every read size splits some CRLF, the first at 11 bytes
    for chunk in range(1, len(CRLF) + 1):
        monkeypatch.setattr(linmodel, "_CHUNK", chunk)
        assert _outcome(LOADERS["grouped"], [str(path)]) == expected, chunk
    assert calls == [str(path)] * len(CRLF)


FIRST_READ = b"group,x1,y\na,1,2\nb,3,4\n"


@pytest.mark.parametrize("first, rest", [
    (FIRST_READ, b'"a",5,6\nb,7,8\n'),  # a quote
    (FIRST_READ, b"a,5,6\x00\nb,7,8\n"),  # a NUL
    (FIRST_READ, b"a,5,6\rb,7,8\n"),  # a lone CR
    (FIRST_READ, b"a,5,6\nb,7,8\r"),  # a lone CR that ends the file
    (FIRST_READ, b"\ra,5,6\nb,7,8\n"),  # a lone CR after a LF that ends a read
    (b"group,x1,y\na,1,2\r", b"b,3,4\n"),  # a CR that ends a read, not a line
    (FIRST_READ, b"a,5,\xff\nb,7,8\n"),  # a byte that is not UTF-8, which np.loadtxt meets
])
def test_what_only_a_later_read_holds_sends_the_file_to_csv_reader(
        tmp_path, monkeypatch, first, rest):
    path = tmp_path / "data.csv"
    path.write_bytes(first + rest)
    expected = _outcome(ORACLES["grouped"], [str(path)])
    monkeypatch.setattr(linmodel, "_CHUNK", len(first))
    texts = _spy(monkeypatch, linmodel, "_read_text")
    assert _outcome(LOADERS["grouped"], [str(path)]) == expected
    assert texts == [str(path)]


def test_a_grouped_file_loads_in_a_bounded_multiple_of_its_arrays(tmp_path):
    # 2 * 10^4 repr-float rows in shuffled group order. The structured
    # np.loadtxt read (floats and one label object a row), the label
    # strings and the group stack it is gathered into peak at 3.4 times
    # the returned arrays; holding the file's text as well, or gathering
    # the rows and stacking them again, peaked at 5.9 times.
    G, n, p = 5, 4000, 5
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((G * n, p)), rng.standard_normal(G * n)
    labels = rng.permutation(np.repeat([f"g{g + 1}" for g in range(G)], n))
    path = str(tmp_path / "data.csv")
    with open(path, "w", encoding="utf-8") as out:
        out.write("group," + ",".join(f"x{j + 1}" for j in range(p)) + ",y\n")
        for label, row, value in zip(labels, X.tolist(), y.tolist()):
            out.write(",".join([label, *map(repr, row), repr(value)]) + "\n")
    load_grouped_csv(path)  # first-call allocations (imports, caches) aside
    tracemalloc.start()
    try:
        dataset = load_grouped_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dataset.X.shape == (G, n, p)
    assert peak <= 4.0 * (dataset.X.nbytes + dataset.y.nbytes)


def test_per_group_files_load_in_the_stacks_and_one_file_read(tmp_path):
    # four files of 1.4 MB (12000 repr-float rows). Each file's columns
    # are copied into stacks sized from the first file and freed before
    # the next file is read, so the peak is the stacks and one file's
    # read: 3.4 MB here. Holding every file's table and stacking them
    # afterwards peaked at 4.6 MB, twice the returned arrays.
    G, n, p = 4, 12000, 5
    rng = np.random.default_rng(0)
    paths = [str(tmp_path / f"g{g + 1}.csv") for g in range(G)]
    for path in paths:
        X, y = rng.standard_normal((n, p)), rng.standard_normal(n)
        with open(path, "w", encoding="utf-8") as out:
            out.write(",".join(f"x{j + 1}" for j in range(p)) + ",y\n")
            for row, value in zip(X.tolist(), y.tolist()):
                out.write(",".join([*map(repr, row), repr(value)]) + "\n")
    load_group_csvs(paths)  # first-call allocations (imports, caches) aside
    tracemalloc.start()
    try:
        linmodel._load_table(paths[0], grouped=False)
        one_read = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        dataset = load_group_csvs(paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dataset.X.shape == (G, n, p)
    assert peak <= dataset.X.nbytes + dataset.y.nbytes + one_read + 2**16


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

    read = _loadtxt_rows(str(path), layout, header=True)
    assert (read is not None) == parsed
    if parsed:
        _, columns, keys = read
        dataset = GroupedDataset.from_rows(np.stack(columns[:-1], axis=-1), columns[-1], keys)
        expected = reference.load_grouped_csv(str(path))
        assert dataset.labels == expected.labels
        assert np.array_equal(dataset.X, expected.X) and np.array_equal(dataset.y, expected.y)
