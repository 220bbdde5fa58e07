"""Command line surface: payloads, formats, exit codes."""

import json

import numpy as np
import pytest

from maximin import pipeline, selfcheck
from maximin.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_CONDITIONING,
    EXIT_CONVERGENCE,
    EXIT_DEFINITENESS,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RANK,
    EXIT_SINGULAR,
    EXIT_USAGE,
    _unique_weights,
    build_parser,
    main,
)
from maximin.errors import ConvergenceError, RankError
from maximin.linmodel import ScenarioSpec, generate


def _write_grouped_csv(path, spec):
    ds, _ = generate(spec)
    lines = ["group," + ",".join(f"x{j + 1}" for j in range(ds.p)) + ",y"]
    for label, (X, y) in zip(ds.labels, ds.groups):
        for i in range(ds.n):
            cells = [label] + [repr(float(v)) for v in X[i]] + [repr(float(y[i]))]
            lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ds


@pytest.fixture()
def data_csv(tmp_path):
    path = tmp_path / "groups.csv"
    _write_grouped_csv(path, ScenarioSpec(p=2, G=2, n=40, seed=31))
    return path


def test_estimate_json_payload(data_csv, capsys):
    assert main(["estimate", str(data_csv)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "estimate"
    assert payload["groups"] == ["g1", "g2"]
    assert len(payload["M"]) == 2
    assert abs(sum(payload["weights"]) - 1.0) < 1e-9
    assert set(payload["active"]).issubset({"g1", "g2"})
    assert payload["diagnostics"]["kkt_residual"] <= 1e-8


def test_unique_weights_needs_independent_active_columns():
    assert _unique_weights(np.eye(3), (0, 1, 2))
    # collinear active columns: many weight vectors give the same point
    assert not _unique_weights(np.array([[1.0, -1.0], [0.0, 0.0]]), (0, 1))
    assert not _unique_weights(np.eye(2), ())


def test_estimate_survives_a_failing_inference_step(tmp_path, capsys):
    # the active column lies in the affine hull of the others, so the
    # differential behind the region fails; the point estimate must not
    path = tmp_path / "hull.csv"
    spec = ScenarioSpec(p=2, G=6, n=4, coefficient_rule="shared-plus-noise", seed=9)
    ds = _write_grouped_csv(path, spec)
    assert main(["estimate", str(path)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["active"] == [ds.labels[2]]
    assert payload["diagnostics"]["known_sigma"] is False
    assert main(["region", str(path)]) != EXIT_OK
    capsys.readouterr()


def test_estimate_out_file_holds_the_stdout_json(data_csv, tmp_path, capsys):
    assert main(["estimate", str(data_csv)]) == EXIT_OK
    printed = capsys.readouterr().out
    out = tmp_path / "result.json"
    assert main(["estimate", str(data_csv), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed


def test_estimate_accepts_per_group_files(tmp_path, capsys):
    ds, _ = generate(ScenarioSpec(p=2, G=2, n=12, seed=32))
    paths = []
    for label, (X, y) in zip(("north", "south"), ds.groups):
        f = tmp_path / f"{label}.csv"
        rows = ["x1,x2,y"] + [
            f"{float(X[i, 0])!r},{float(X[i, 1])!r},{float(y[i])!r}"
            for i in range(ds.n)
        ]
        f.write_text("\n".join(rows) + "\n", encoding="utf-8")
        paths.append(str(f))
    assert main(["estimate", *paths]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["groups"] == ["north", "south"]


def test_per_group_files_with_one_name_exit_two(tmp_path, capsys):
    ds, _ = generate(ScenarioSpec(p=2, G=2, n=12, seed=32))
    paths = []
    for folder, (X, y) in zip(("a", "b"), ds.groups):
        (tmp_path / folder).mkdir()
        f = tmp_path / folder / "g.csv"
        f.write_text("x1,x2,y\n" + "".join(
            f"{float(X[i, 0])!r},{float(X[i, 1])!r},{float(y[i])!r}\n" for i in range(ds.n)),
            encoding="utf-8")
        paths.append(str(f))
    assert main(["estimate", *paths]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"maximin: CSV error: {paths[0]} and {paths[1]}:"
                            " group label 'g' appears more than once\n")
    # a third file with a fresh name does not hide the collision
    third = tmp_path / "h.csv"
    third.write_text((tmp_path / "a" / "g.csv").read_text(encoding="utf-8"), encoding="utf-8")
    assert main(["estimate", str(third), *paths]) == EXIT_PARSE
    assert f"{paths[0]} and {paths[1]}: group label 'g'" in capsys.readouterr().err


def test_region_json_payload(data_csv, capsys):
    assert main(["region", str(data_csv), "--alpha", "0.1"]) == EXIT_OK
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    region = payload["region"]
    assert region["level"] == pytest.approx(0.9)
    assert len(region["center"]) == 2
    assert len(payload["W"]) == 2
    assert "semi-axes" in captured.err
    W = np.array(payload["W"])
    assert np.allclose(W, np.array(payload["term_B"]) + np.array(payload["term_V"]))


def test_region_known_sigma_drops_fluctuation_term(data_csv, tmp_path, capsys):
    sigma_csv = tmp_path / "sigma.csv"
    sigma_csv.write_text("1.0,0.0\n0.0,1.0\n", encoding="utf-8")
    assert main(["region", str(data_csv), "--known-sigma", str(sigma_csv)]) == EXIT_OK
    plain = capsys.readouterr().out
    payload = json.loads(plain)
    assert np.allclose(np.array(payload["term_V"]), 0.0)
    assert payload["estimate"]["diagnostics"]["known_sigma"]

    # a line of only spaces is skipped like an empty one
    sigma_csv.write_text("1,0\n   \n0,1\n\n", encoding="utf-8")
    assert main(["region", str(data_csv), "--known-sigma", str(sigma_csv)]) == EXIT_OK
    assert capsys.readouterr().out == plain


def test_simulate_csv_grid(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--tables", "1",
            "--p-values", "2",
            "--n-values", "30,60",
            "--replicates", "8",
            "--seed", "3",
        ]
    )
    assert code == EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0].startswith("table,p,n,replicates,coverage")
    assert len(lines) == 3
    assert "coverage=" in captured.err


def test_simulate_bytes_match_across_worker_counts(tmp_path):
    out1 = tmp_path / "a.csv"
    out8 = tmp_path / "b.csv"
    args = [
        "simulate",
        "--tables", "1",
        "--p-values", "2,3",
        "--n-values", "30",
        "--replicates", "10",
        "--seed", "7",
    ]
    assert main([*args, "--jobs", "1", "--out", str(out1)]) == EXIT_OK
    assert main([*args, "--jobs", "8", "--out", str(out8)]) == EXIT_OK
    assert out1.read_bytes() == out8.read_bytes()


def test_simulate_json_format(capsys):
    code = main(
        [
            "simulate",
            "--tables", "1",
            "--p-values", "2",
            "--n-values", "30",
            "--replicates", "5",
            "--seed", "3",
            "--format", "json",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["cells"][0]["replicates"] == 5


def test_simulate_beyond_the_oracle_budget(capsys):
    # G = 20 groups exceed the exhaustive oracle's G <= 15 budget; the
    # analytic reference is certified by its KKT conditions instead
    code = main(
        [
            "simulate",
            "--tables", "1",
            "--p-values", "20",
            "--n-values", "50",
            "--replicates", "2",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1].startswith("1,20,50,2,")


def test_simulate_defaults_live_in_the_parser():
    args = build_parser().parse_args(["simulate"])
    assert (args.tables, args.p_values, args.n_values) == ([1], [3], [100])
    assert (args.replicates, args.alpha, args.seed, args.jobs) == (100, 0.05, 0, 1)
    assert args.format == "csv"
    assert build_parser().parse_args(["check"]).seed == 0
    assert build_parser().parse_args(["simulate", "--n-values", "30,,60"]).n_values == [30, 60]


def test_simulate_work_budget(capsys):
    code = main(
        [
            "simulate",
            "--tables", "1",
            "--p-values", "2,3",
            "--n-values", "10,20",
            "--replicates", "3000000",
        ]
    )
    assert code == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


def test_usage_errors(data_csv, capsys):
    assert main([]) == EXIT_USAGE
    assert main(["estimate"]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE
    assert main(["region", str(data_csv), "--alpha", "2.0"]) == EXIT_USAGE
    for jitter in ("-1", "nan", "inf"):
        assert main(["estimate", str(data_csv), "--jitter", jitter]) == EXIT_USAGE
        assert main(["region", str(data_csv), "--jitter", jitter]) == EXIT_USAGE
        assert "--jitter must be finite and >= 0" in capsys.readouterr().err
    assert main(["simulate", "--tables", "1,x"]) == EXIT_USAGE
    assert "comma-separated list of integers" in capsys.readouterr().err
    # one form per input: no output format on estimate, no config file
    assert main(["estimate", str(data_csv), "--format", "csv"]) == EXIT_USAGE
    assert main(["simulate", "--config", "grid.json"]) == EXIT_USAGE
    assert main(["estimate", "/nonexistent/file.csv"]) == EXIT_USAGE
    capsys.readouterr()
    for command in ("simulate", "check"):
        assert main([command, "--seed", "-1"]) == EXIT_USAGE
        assert "argument --seed: expected a non-negative integer, got '-1'" in (
            capsys.readouterr().err)


@pytest.mark.parametrize("where", ["input", "known-sigma", "out"])
def test_directory_paths_exit_one(data_csv, tmp_path, capsys, where):
    args = {
        "input": ["estimate", str(tmp_path)],
        "known-sigma": ["region", str(data_csv), "--known-sigma", str(tmp_path)],
        "out": ["estimate", str(data_csv), "--out", str(tmp_path)],
    }[where]
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("maximin: ")
    assert "directory" in err


def test_parse_failures_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("group,x1,y\na,1,1\na,oops,2\n", encoding="utf-8")
    assert main(["estimate", str(bad)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 3" in err
    assert "x1" in err
    assert str(bad) in err

    # a repeated header name is refused, whichever column it repeats
    for header, column in (("group,x1,x1,y", "x1"), ("group,x1,y,y", "y"),
                           ("group,x1,group,y", "group")):
        bad.write_text(f"{header}\na,1,2,3\nb,2,1,3\n", encoding="utf-8")
        assert main(["estimate", str(bad)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"column {column!r} appears more than once" in err
        assert str(bad) in err

    matrix = tmp_path / "sigma.csv"
    matrix.write_text("1,zz\n0,1\n", encoding="utf-8")
    data = tmp_path / "ok.csv"
    _write_grouped_csv(data, ScenarioSpec(p=2, G=2, n=10, seed=33))
    assert main(["region", str(data), "--known-sigma", str(matrix)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "(line 1, column 2)" in err
    assert str(matrix) in err

    matrix.write_text("1,0\n0\n", encoding="utf-8")
    assert main(["region", str(data), "--known-sigma", str(matrix)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "(line 2)" in err
    assert str(matrix) in err

    # cells that parse as floats but are not finite carry their location too
    for cell in ("nan", "inf", "-Infinity", "1e999"):
        bad.write_text(f"group,x1,x2,y\na,1,2,3\na,{cell},0.1,0.2\n", encoding="utf-8")
        assert main(["estimate", str(bad)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "(line 3, column x1)" in err
        assert "not a finite number" in err

    north, south = tmp_path / "north.csv", tmp_path / "south.csv"
    north.write_text("x1,y\n1,2\n2,3\n", encoding="utf-8")
    south.write_text("x1,y\n1,2\n2,inf\n", encoding="utf-8")
    assert main(["estimate", str(north), str(south)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "(line 3, column y)" in err
    assert str(south) in err

    for text in ("1,0\n0,inf\n", "1,nan\nnan,1\n"):
        matrix.write_text(text, encoding="utf-8")
        assert main(["region", str(data), "--known-sigma", str(matrix)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "column 2)" in err
        assert "not a finite number" in err
        assert str(matrix) in err

    # text that is not a CSV grid of numbers, and a file of blank lines
    for text, message in (('{"a": 1}', "cannot parse"), ("[[1, 0], [0, 1]]", "cannot parse"),
                          ("\n  \n\n", "empty file")):
        matrix.write_text(text, encoding="utf-8")
        assert main(["region", str(data), "--known-sigma", str(matrix)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert message in err
        assert str(matrix) in err

    # bytes that are not UTF-8, in a data file and in a known-sigma CSV
    bad.write_bytes(b"group,x1,y\na,1,1\na,\xff,2\n")
    assert main(["estimate", str(bad)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "not UTF-8" in err
    matrix.write_bytes(b"1,0\n0,\xff\n")
    assert main(["region", str(data), "--known-sigma", str(matrix)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert str(matrix) in err
    assert "not UTF-8" in err


def test_singular_fit_exits_three(tmp_path, capsys):
    # two rows per group cannot identify three coefficients
    bad = tmp_path / "thin.csv"
    _write_grouped_csv(bad, ScenarioSpec(p=3, G=2, n=2, seed=34))
    assert main(["estimate", str(bad)]) == EXIT_SINGULAR
    assert "singular" in capsys.readouterr().err


def test_degenerate_covariance_exits_four(tmp_path, capsys):
    # an exactly linear response makes the residual variance vanish and
    # the assembled covariance loses rank
    f = tmp_path / "noiseless.csv"
    f.write_text(
        "group,x1,y\n"
        "a,1,2\n"
        "a,2,4\n"
        "b,1,2\n"
        "b,3,6\n",
        encoding="utf-8",
    )
    assert main(["region", str(f)]) == EXIT_CONDITIONING
    assert "conditioning" in capsys.readouterr().err


def test_degenerate_geometry_exits_six(tmp_path, capsys):
    # the lone active column lies in the affine hull of the others
    path = tmp_path / "hull.csv"
    spec = ScenarioSpec(p=2, G=6, n=4, coefficient_rule="shared-plus-noise", seed=9)
    _write_grouped_csv(path, spec)
    assert main(["region", str(path)]) == EXIT_DEGENERATE
    assert "degenerate geometry" in capsys.readouterr().err


def test_indefinite_known_sigma_exits_nine(data_csv, tmp_path, capsys):
    sigma = tmp_path / "sigma.csv"
    for text, message in (("1,2\n2,1\n", "not positive definite"),
                          ("1,0.5\n0,1\n", "not symmetric")):
        sigma.write_text(text, encoding="utf-8")
        assert main(["region", str(data_csv), "--known-sigma", str(sigma)]) == EXIT_DEFINITENESS
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [
    (RankError("active-column differences are rank deficient"), EXIT_RANK),
    (ConvergenceError("simplex QP did not converge"), EXIT_CONVERGENCE),
])
def test_solver_errors_have_their_own_exit_codes(data_csv, monkeypatch, capsys,
                                                 error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(pipeline, "analyze_dataset", fail)
    assert main(["region", str(data_csv)]) == code
    assert str(error) in capsys.readouterr().err


def test_known_sigma_of_the_wrong_shape_is_a_usage_error(data_csv, tmp_path, capsys):
    sigma = tmp_path / "sigma.csv"
    for text, message in (
        ("1,0,0\n0,1,0\n0,0,1\n", "known_sigma must be 2 x 2, got (3, 3)"),
        ("1,0,0\n0,1,0\n", "known_sigma must be 2 x 2, got (2, 3)"),
    ):
        sigma.write_text(text, encoding="utf-8")
        for command in ("estimate", "region"):
            assert main([command, str(data_csv), "--known-sigma", str(sigma)]) == EXIT_USAGE
            assert capsys.readouterr().err == f"maximin: {message}\n"


def test_check_battery_passes(capsys):
    assert main(["check", "--seed", "0"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "PASS  magging matches exhaustive oracle",
        "PASS  chi-squared quantile round trip",
        "PASS  maximin derivative matches finite differences",
        "PASS  population covariance closed form",
        "PASS  simulation is seed-deterministic",
        "PASS  noiseless fit recovers coefficients",
    ]


def test_failing_check_has_its_own_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(selfcheck, "battery", lambda seed: iter([("broken", False)]))
    assert main(["check"]) == EXIT_CHECK_FAILED
    assert capsys.readouterr().out == "FAIL  broken\n"
