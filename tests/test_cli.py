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


def test_estimate_csv_format_and_out_file(data_csv, tmp_path, capsys):
    out = tmp_path / "result.csv"
    assert main(["estimate", str(data_csv), "--format", "csv", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "key,value"
    assert any(line.startswith("M[0],") for line in lines)
    assert any(line.startswith("objective,") for line in lines)


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
    sigma_json = tmp_path / "sigma.json"
    sigma_json.write_text("[[1.0, 0.0], [0.0, 1.0]]", encoding="utf-8")
    assert main(["region", str(data_csv), "--known-sigma", str(sigma_json)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert np.allclose(np.array(payload["term_V"]), 0.0)
    assert payload["estimate"]["diagnostics"]["known_sigma"]

    sigma_csv = tmp_path / "sigma.csv"
    # a line of only spaces is skipped like an empty one
    sigma_csv.write_text("1,0\n   \n0,1\n", encoding="utf-8")
    assert main(["region", str(data_csv), "--known-sigma", str(sigma_csv)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert np.allclose(np.array(payload["term_V"]), 0.0)


def test_region_csv_format(data_csv, capsys):
    assert main(["region", str(data_csv), "--format", "csv"]) == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "key,value"
    assert any(line.startswith("radius2,") for line in out)


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


def test_simulate_config_file_with_flag_overrides(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(
        json.dumps(
            {
                "tables": [1],
                "p_values": [2],
                "n_values": [30],
                "replicates": 3,
                "seed": 5,
            }
        ),
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(config), "--replicates", "6"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1].split(",")[3] == "6"


def test_simulate_seed_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("MAXIMIN_CI_SEED", "11")
    args = ["simulate", "--tables", "1", "--p-values", "2", "--n-values", "30",
            "--replicates", "4"]
    assert main(args) == EXIT_OK
    via_env = capsys.readouterr().out
    monkeypatch.delenv("MAXIMIN_CI_SEED")
    assert main([*args, "--seed", "11"]) == EXIT_OK
    assert capsys.readouterr().out == via_env

    monkeypatch.setenv("MAXIMIN_CI_SEED", "not-a-number")
    assert main(args) == EXIT_USAGE


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
    assert main(["estimate", str(data_csv), "--jitter", "-1"]) == EXIT_USAGE
    assert main(["simulate", "--tables", "1,x"]) == EXIT_USAGE
    assert main(["estimate", "/nonexistent/file.csv"]) == EXIT_USAGE
    capsys.readouterr()


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
    assert "(line 3, column y)" in capsys.readouterr().err

    matrix.write_text("1,0\n0,inf\n", encoding="utf-8")
    assert main(["region", str(data), "--known-sigma", str(matrix)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "(line 2, column 2)" in err
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
    sigma = tmp_path / "sigma.json"
    for text, message in (("[[1, 2], [2, 1]]", "not positive definite"),
                          ("[[1, 0.5], [0, 1]]", "not symmetric")):
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


def test_malformed_known_sigma_json_is_a_usage_error(data_csv, tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    sigma.write_text('{"a": 1}', encoding="utf-8")
    assert main(["region", str(data_csv), "--known-sigma", str(sigma)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("maximin: ")

    # the wrong shape for the data, or a non-finite entry
    for text, message in (
        ("[[1, 0, 0], [0, 1, 0], [0, 0, 1]]", "known_sigma must be 2 x 2, got (3, 3)"),
        ("[[1, NaN], [NaN, 1]]", "known_sigma contains NaN or infinite entries"),
    ):
        sigma.write_text(text, encoding="utf-8")
        for command in ("estimate", "region"):
            assert main([command, str(data_csv), "--known-sigma", str(sigma)]) == EXIT_USAGE
            assert capsys.readouterr().err == f"maximin: {message}\n"


@pytest.mark.parametrize("config", ["[1, 2]", '{"tables": 5}', '{"seed": "x"}'])
def test_malformed_simulate_config_is_a_usage_error(tmp_path, capsys, config):
    path = tmp_path / "grid.json"
    path.write_text(config, encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--replicates", "1"]) == EXIT_USAGE
    assert "maximin: error: --config" in capsys.readouterr().err


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
