"""Command line entry points.

Commands:
    estimate   maximin point and weights from CSV data
    region     confidence ellipsoid from CSV data
    simulate   Monte-Carlo coverage grids
    check      self-test battery over the invariant corpus

Exit codes: 0 success, 1 usage, 2 CSV parse failure (with line and
column when known), 3 singular per-group fit (naming the group),
4 ill-conditioned covariance (with eigenvalue diagnostics), 5 budget
or size limits exceeded, 6 degenerate geometry (the maximin map is not
differentiable at the solution), 7 rank-deficient active face, 8 solver
did not converge, 9 a covariance that must be positive definite is not,
10 a self-check of ``check`` failed.
"""

import argparse
import json
import operator
import os
import sys

import numpy as np

from . import pipeline, simulate
from .confidence import max_eigenvalue
from .errors import (
    BudgetError,
    ConditioningError,
    ConvergenceError,
    CsvFormatError,
    DefinitenessError,
    DegenerateGeometryError,
    EstimationError,
    RankError,
    SingularFitError,
)
from .linmodel import _parse_cell, _read_rows, load_group_csvs, load_grouped_csv
from .validation import as_spd_matrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_CONDITIONING = 4
EXIT_BUDGET = 5
EXIT_DEGENERATE = 6
EXIT_RANK = 7
EXIT_CONVERGENCE = 8
EXIT_DEFINITENESS = 9
EXIT_CHECK_FAILED = 10

SEED_ENV_VAR = "MAXIMIN_CI_SEED"

# Guard against accidentally enormous simulation requests.
GRID_WORK_BUDGET = 10**7

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser():
    parser = _Parser(prog="maximin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("inputs", nargs="+", help="CSV file(s); a single file"
                       " needs a 'group' column, multiple files are one group each")
        p.add_argument("--jitter", type=float, default=0.0,
                       help="ridge jitter added to covariance diagonals")
        p.add_argument("--known-sigma", metavar="PATH", default=None,
                       help="file with the exact design covariance (JSON or CSV)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="output file; stdout when omitted")

    p_est = sub.add_parser("estimate", help="maximin point from CSV data")
    add_common(p_est)

    p_reg = sub.add_parser("region", help="confidence ellipsoid from CSV data")
    add_common(p_reg)
    p_reg.add_argument("--alpha", type=float, default=0.05)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo coverage grid")
    p_sim.add_argument("--config", metavar="PATH", default=None,
                       help="JSON grid config; flags below override its fields")
    p_sim.add_argument("--tables", default=None,
                       help="comma-separated table ids, e.g. 1,3")
    p_sim.add_argument("--p-values", default=None, help="comma-separated p grid")
    p_sim.add_argument("--n-values", default=None, help="comma-separated n grid")
    p_sim.add_argument("--replicates", type=int, default=None)
    p_sim.add_argument("--alpha", type=float, default=None)
    p_sim.add_argument("--seed", type=int, default=None,
                       help=f"master seed; falls back to ${SEED_ENV_VAR}, then 0")
    p_sim.add_argument("--jobs", type=int, default=None)
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--out", metavar="PATH", default=None)

    p_chk = sub.add_parser("check", help="run the self-test battery")
    p_chk.add_argument("--seed", type=int, default=None)
    return parser


def _resolve_seed(explicit, parser):
    if explicit is not None:
        return explicit
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        parser.error(f"${SEED_ENV_VAR} must be an integer, got {env!r}")


def _matrix_row(row, line_no, width):
    if len(row) != width:
        raise CsvFormatError(
            f"line {line_no}: expected {width} fields, got {len(row)}", line=line_no
        )
    return [_parse_cell(cell, line_no, column) for column, cell in enumerate(row, 1)]


def _load_matrix(path, p):
    """Known-sigma file (JSON 2-d array or bare CSV grid) as a finite p x p matrix."""
    if not path.endswith(".json"):
        rows = [(line_no, row) for line_no, row in enumerate(_read_rows(path), 1)
                if any(cell.strip() for cell in row)]
        try:
            matrix = [_matrix_row(row, line_no, len(rows[0][1]))
                      for line_no, row in rows]
        except CsvFormatError as err:
            raise CsvFormatError(f"{path}: {err}", err.line, err.column) from None
    else:
        with open(path, encoding="utf-8") as handle:
            matrix = json.load(handle)
    try:
        matrix = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: expected a JSON array of numbers") from None
    return as_spd_matrix(matrix, p)


def _load_dataset(inputs):
    if len(inputs) == 1:
        return load_grouped_csv(inputs[0])
    return load_group_csvs(inputs)


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _flat_csv(pairs):
    lines = ["key,value"]
    for key, value in pairs:
        lines.append(f"{key},{value!r}" if isinstance(value, str) else f"{key},{value}")
    return "\n".join(lines) + "\n"


def _unique_weights(Bhat, active):
    """Whether the active columns are linearly independent.

    Only then are the weights, not just the maximin point, unique.
    """
    if not active:
        return False
    s = np.linalg.svd(Bhat[:, list(active)], compute_uv=False)
    return bool(np.sum(s > 1e-12 * s[0]) == len(active))


def _estimate_payload(dataset, est, sol, known_sigma):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "estimate",
        "groups": list(dataset.labels),
        "n_per_group": dataset.n,
        "p": dataset.p,
        "M": sol.M.tolist(),
        "weights": sol.alpha.tolist(),
        "active": [dataset.labels[g] for g in sol.active],
        "Bhat": {
            dataset.labels[g]: est.Bhat[:, g].tolist() for g in range(dataset.G)
        },
        "Sigma_hat": est.Sigma_hat.tolist(),
        "sigma2_hat": est.sigma2_hat,
        "ridge_jitter": est.ridge_jitter_used,
        "diagnostics": {
            "objective": sol.objective,
            "kkt_residual": sol.kkt_residual,
            "unique_weights": _unique_weights(est.Bhat, sol.active),
            "vertex_mode": len(sol.active) == 1,
            "sigma2_approximate": est.sigma2_approximate,
            "known_sigma": known_sigma,
        },
    }


def cmd_estimate(args, parser):
    if args.jitter < 0:
        parser.error("--jitter must be >= 0")
    dataset = _load_dataset(args.inputs)
    known = _load_matrix(args.known_sigma, dataset.p) if args.known_sigma else None
    estimates, solution, _ = pipeline.estimate_dataset(
        dataset, ridge_jitter=args.jitter, known_sigma=known
    )
    payload = _estimate_payload(dataset, estimates, solution, known is not None)
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    else:
        pairs = [("M[%d]" % i, v) for i, v in enumerate(payload["M"])]
        pairs += [
            (f"weight[{label}]", w)
            for label, w in zip(payload["groups"], payload["weights"])
        ]
        pairs += [("objective", payload["diagnostics"]["objective"])]
        _emit(_flat_csv(pairs), args.out)
    return EXIT_OK


def cmd_region(args, parser):
    if not 0.0 < args.alpha < 1.0:
        parser.error("--alpha must lie strictly inside (0, 1)")
    if args.jitter < 0:
        parser.error("--jitter must be >= 0")
    dataset = _load_dataset(args.inputs)
    known = _load_matrix(args.known_sigma, dataset.p) if args.known_sigma else None
    analysis = pipeline.analyze_dataset(
        dataset, alpha=args.alpha, ridge_jitter=args.jitter, known_sigma=known
    )
    region = analysis.region
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "region",
        "region": region.to_dict(),
        "W": analysis.covariance.W.tolist(),
        "term_B": analysis.covariance.term_B.tolist(),
        "term_V": analysis.covariance.term_V.tolist(),
        "estimate": _estimate_payload(
            dataset, analysis.estimates, analysis.solution, known is not None
        ),
    }
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    else:
        pairs = [("center[%d]" % i, v) for i, v in enumerate(region.center.tolist())]
        pairs += [
            ("semi_axis[%d]" % i, v) for i, v in enumerate(region.semi_axes().tolist())
        ]
        pairs += [("radius2", region.radius2), ("level", region.level)]
        _emit(_flat_csv(pairs), args.out)
    axes = ", ".join(f"{v:.6g}" for v in region.semi_axes())
    print(
        f"confidence level {region.level:g}, n={region.n_used},"
        f" semi-axes [{axes}],"
        f" max eigenvalue {max_eigenvalue(analysis.covariance.W):.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def _parse_int_list(text, name, parser):
    """A comma-separated flag value as integers; None when the flag is absent."""
    if text is None:
        return None
    try:
        return [int(part) for part in str(text).split(",") if part != ""]
    except ValueError:
        parser.error(f"{name} must be a comma-separated list of integers")


def _int_list(value):
    """A --config list of integers."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return [operator.index(v) for v in value]


def _optional_int(value):
    return None if value is None else operator.index(value)


def cmd_simulate(args, parser):
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            parser.error("--config must hold a JSON object")

    def setting(flag, key, default, convert):
        """The flag when given, else the --config field (or default) through convert."""
        if flag is not None:
            return flag
        value = config.get(key, default)
        try:
            return convert(value)
        except (TypeError, ValueError):
            parser.error(f"--config field {key!r} is malformed: {value!r}")

    tables = setting(_parse_int_list(args.tables, "--tables", parser),
                     "tables", [1], _int_list)
    p_values = setting(_parse_int_list(args.p_values, "--p-values", parser),
                       "p_values", [3], _int_list)
    n_values = setting(_parse_int_list(args.n_values, "--n-values", parser),
                       "n_values", [100], _int_list)
    replicates = setting(args.replicates, "replicates", 100, int)
    alpha = setting(args.alpha, "alpha", 0.05, float)
    seed = _resolve_seed(setting(args.seed, "seed", None, _optional_int), parser)
    jobs = setting(args.jobs, "parallelism", 1, int)
    if not 0.0 < alpha < 1.0:
        parser.error("--alpha must lie strictly inside (0, 1)")
    if replicates < 0:
        parser.error("--replicates must be >= 0")
    if jobs < 1:
        parser.error("--jobs must be >= 1")
    cells = len(tables) * len(p_values) * len(n_values)
    if cells * max(replicates, 1) > GRID_WORK_BUDGET:
        raise BudgetError(
            f"grid asks for {cells} cells x {replicates} replicates,"
            f" beyond the {GRID_WORK_BUDGET} work budget"
        )
    results = simulate.run_grid(
        tables, p_values, n_values, replicates, alpha=alpha,
        master_seed=seed, parallelism=jobs,
        progress=lambda line: print(line, file=sys.stderr),
    )
    if args.format == "csv":
        _emit(simulate.grid_to_csv(results), args.out)
    else:
        _emit(simulate.grid_json_text(results), args.out)
    return EXIT_OK


def cmd_check(args, parser):
    from .selfcheck import battery

    seed = _resolve_seed(args.seed, parser)
    failures = 0
    for name, passed in battery(seed):
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        if not passed:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _csv_message(err):
    where = ""
    if err.line is not None:
        where = f" (line {err.line}"
        where += f", column {err.column})" if err.column else ")"
    return f"CSV error{where}: {err}"


def _conditioning_message(err):
    eigs = ""
    if err.eigenvalues is not None:
        eigs = " eigenvalues=" + ",".join(f"{v:.3e}" for v in err.eigenvalues)
    return f"conditioning: {err}{eigs}"


# Exit code and stderr message for each failure with its own code. main
# looks an error's classes up in method resolution order; anything else
# it catches is a usage error.
_FAILURES = {
    CsvFormatError: (EXIT_PARSE, _csv_message),
    SingularFitError: (EXIT_SINGULAR, "singular fit: {}".format),
    ConditioningError: (EXIT_CONDITIONING, _conditioning_message),
    BudgetError: (EXIT_BUDGET, "budget: {}".format),
    DegenerateGeometryError: (EXIT_DEGENERATE, "degenerate geometry: {}".format),
    RankError: (EXIT_RANK, "rank: {}".format),
    ConvergenceError: (EXIT_CONVERGENCE, "convergence: {}".format),
    DefinitenessError: (EXIT_DEFINITENESS, "definiteness: {}".format),
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "estimate":
            return cmd_estimate(args, parser)
        if args.command == "region":
            return cmd_region(args, parser)
        if args.command == "simulate":
            return cmd_simulate(args, parser)
        return cmd_check(args, parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (EstimationError, OSError, ValueError) as err:
        code, message = next(
            (_FAILURES[cls] for cls in type(err).__mro__ if cls in _FAILURES),
            (EXIT_USAGE, str),
        )
        print(f"maximin: {message(err)}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
