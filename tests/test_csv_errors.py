"""Every CsvFormatError message of the CSV loaders and `maximin`, pinned.

The table uses the public loaders and the CLI only, so it runs against
any version of the readers behind them.
"""

import pytest

from maximin.cli import EXIT_PARSE, main
from maximin.errors import CsvFormatError
from maximin.linmodel import load_group_csvs, load_grouped_csv, load_matrix_csv

GOOD_DATA = "group,x1,x2,y\na,1,0,1\na,0,1,2\nb,1,1,3\nb,2,0,1\n"
NORTH = ("north.csv", "x1,y\n1,2\n2,3\n")

# Every message the three loaders raise, and so every message `maximin`
# prints with exit 2. A row is (loader, files, message, line, column):
# files are (relative path, text or bytes), {k} in the message is the
# path of files[k]. "grouped" rows read files[0] with load_grouped_csv
# and `estimate FILE`, "split" rows all files with load_group_csvs and
# `estimate FILE...`, "matrix" rows files[0] with load_matrix_csv and
# `region DATA --known-sigma FILE`.
ERROR_TABLE = [
    # empty files
    ("grouped", [("data.csv", "")], "{0}: empty file", 1, None),
    ("grouped", [("data.csv", "\n  \n,,\n\t\n")], "{0}: empty file", 1, None),
    ("matrix", [("sigma.csv", "\n \n")], "{0}: empty file", 1, None),
    # header problems
    ("grouped", [("data.csv", "x1,y\n1,2\n")],
     "{0}: header must contain a 'group' column", 1, None),
    ("grouped", [("data.csv", "group,x1\na,1\n")],
     "{0}: header must contain a 'y' column", 1, None),
    ("grouped", [("data.csv", "group,y\na,1\n")],
     "{0}: no predictor columns found", 1, None),
    ("grouped", [("data.csv", "\n \ngroup,x1,x1,y\na,1,2,3\n")],
     "{0}: column 'x1' appears more than once", 3, None),
    ("grouped", [("data.csv", "group,x1,group,y\na,1,2,3\n")],
     "{0}: column 'group' appears more than once", 1, None),
    ("split", [NORTH, ("south.csv", "group,x1,y\na,1,1\n")],
     "{1}: per-group files must not contain a 'group' column", 1, None),
    ("split", [NORTH, ("south.csv", "x1,y,y\n1,1,1\n")],
     "{1}: column 'y' appears more than once", 1, None),
    ("split", [NORTH, ("south.csv", "x2,y\n1,1\n2,2\n")],
     "{1}: predictor columns ['x2'] differ from ['x1']", 1, None),
    # no data rows
    ("grouped", [("data.csv", "group,x1,y\n")], "{0}: no data rows", 2, None),
    ("grouped", [("data.csv", "\ngroup,x1,y\n\n , \n")], "{0}: no data rows", 3, None),
    ("split", [NORTH, ("south.csv", "x1,y")], "{1}: no data rows", 2, None),
    # wrong field count
    ("grouped", [("data.csv", "group,x1,y\na,1\n")],
     "{0}: line 2: expected 3 fields, got 2", 2, None),
    ("grouped", [("data.csv", "group,x1,y\na,1,1\n\nb,2,2,2\n")],
     "{0}: line 4: expected 3 fields, got 4", 4, None),
    ("matrix", [("sigma.csv", "1,0\n0\n")], "{0}: line 2: expected 2 fields, got 1", 2, None),
    # unparseable cells
    ("grouped", [("data.csv", "group,x1,y\na,1,1\na,one,2\n")],
     "{0}: line 3, column 'x1': cannot parse 'one' as a number", 3, "x1"),
    ("grouped", [("data.csv", "group,x1,y\r\na,1,1\r\na,1,oops\r\n")],
     "{0}: line 3, column 'y': cannot parse 'oops' as a number", 3, "y"),
    ("grouped", [("data.csv", 'group,x1,y\na,"1",1\na,"#2",2\n')],
     "{0}: line 3, column 'x1': cannot parse '#2' as a number", 3, "x1"),
    ("grouped", [("data.csv", "group,x1,y\na, ,1\n")],
     "{0}: line 2, column 'x1': cannot parse ' ' as a number", 2, "x1"),
    ("matrix", [("sigma.csv", "1,zz\n0,1\n")],
     "{0}: line 1, column 2: cannot parse 'zz' as a number", 1, 2),
    ("matrix", [("sigma.csv", '{"a": 1}')],
     "{0}: line 1, column 1: cannot parse '{{\"a\": 1}}' as a number", 1, 1),
    # non-finite cells
    ("grouped", [("data.csv", "group,x1,x2,y\na,1,2,3\na,nan,0.1,0.2\n")],
     "{0}: line 3, column 'x1': 'nan' is not a finite number", 3, "x1"),
    ("grouped", [("data.csv", "group,x1,x2,y\na,1,2,3\na,0.1,-Infinity,0.2\n")],
     "{0}: line 3, column 'x2': '-Infinity' is not a finite number", 3, "x2"),
    ("grouped", [("data.csv", "group,x1,x2,y\na,1,2,1e999\n")],
     "{0}: line 2, column 'y': '1e999' is not a finite number", 2, "y"),
    ("split", [NORTH, ("south.csv", "x1,y\n1,2\n2,inf\n")],
     "{1}: line 3, column 'y': 'inf' is not a finite number", 3, "y"),
    ("matrix", [("sigma.csv", "1,nan\nnan,1\n")],
     "{0}: line 1, column 2: 'nan' is not a finite number", 1, 2),
    # bytes that are not UTF-8
    ("grouped", [("data.csv", b"group,x1,y\na,1,1\na,\xff,2\n")],
     "{0}: not UTF-8 text (byte 0xff: invalid start byte)", None, None),
    ("split", [NORTH, ("south.csv", b"x1,y\n1,\xc3(\n")],
     "{1}: not UTF-8 text (byte 0xc3: invalid continuation byte)", None, None),
    ("matrix", [("sigma.csv", b"1,0\n0,\xff\n")],
     "{0}: not UTF-8 text (byte 0xff: invalid start byte)", None, None),
    # group structure
    ("grouped", [("data.csv", "group,x1,y\na,1,1\na,2,2\nb,3,3\n")],
     "{0}: groups must have equal sizes, got a=2, b=1", None, None),
    ("split", [NORTH, ("south.csv", "x1,y\n1,1\n")],
     "groups must have equal sizes, got north=2, south=1", None, None),
    ("split", [("a/g.csv", "x1,y\n1,2\n2,3\n"), ("b/g.csv", "x1,y\n3,1\n4,5\n")],
     "{0} and {1}: group label 'g' appears more than once", None, None),
    # csv.reader's limit on a field (the quote sends the file to it)
    ("grouped", [("data.csv", 'group,x1,y\n"a",1,' + "1" * 200_000 + "\n")],
     "{0}: line 2: field larger than field limit (131072)", 2, None),
]

LOADERS = {
    "grouped": lambda paths: load_grouped_csv(paths[0]),
    "split": load_group_csvs,
    "matrix": lambda paths: load_matrix_csv(paths[0]),
}


def _write_files(folder, files):
    paths = []
    for name, content in files:
        path = folder / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8", newline="")
        paths.append(str(path))
    return paths


def _cli_args(loader, paths, folder):
    if loader == "matrix":
        (data,) = _write_files(folder, [("ok.csv", GOOD_DATA)])
        return ["region", data, "--known-sigma", paths[0]]
    return ["estimate", *paths]


@pytest.mark.parametrize("loader, files, message, line, column", ERROR_TABLE)
def test_pinned_csv_error(tmp_path, capsys, loader, files, message, line, column):
    paths = _write_files(tmp_path, files)
    expected = message.format(*paths)
    with pytest.raises(CsvFormatError) as info:
        LOADERS[loader](paths)
    assert (str(info.value), info.value.line, info.value.column) == (expected, line, column)

    assert main(_cli_args(loader, paths, tmp_path)) == EXIT_PARSE
    where = "" if line is None else f" (line {line}" + (
        f", column {column})" if column else ")")
    assert capsys.readouterr().err == f"maximin: CSV error{where}: {expected}\n"
