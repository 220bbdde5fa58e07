"""Command line entry points.

Commands:
    estimate   maximin point and weights from CSV data, as JSON
    region     confidence ellipsoid from CSV data, as JSON
    simulate   Monte-Carlo coverage grids, as CSV or JSON
    check      self-test battery over the invariant corpus

Every setting is a flag with its default in the parser. Every input
file is CSV: one grouped file with a ``group`` column or one file per
group, and for ``--known-sigma`` a headerless grid of the p x p matrix.

Exit codes: 0 success, 1 usage, 2 CSV parse failure in a data or
known-sigma file (naming the file, and the line and column when known),
groups of unequal size, or two per-group files with the same name,
3 a group scatter that is singular, numerically rank-deficient or not
finite (naming the group), 4 ill-conditioned covariance (with
eigenvalue diagnostics), 5 budget or size limits exceeded, 6 degenerate
geometry (the maximin map is not differentiable at the solution),
7 rank-deficient active face, 8 solver did not converge (or B^T Sigma B
overflowed), 9 a covariance that must be positive definite is not,
10 a self-check of ``check`` failed. JSON output is strict: a non-finite
number is written as null.
"""

import argparse
import math
import sys

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
from .linmodel import load_group_csvs, load_grouped_csv, load_matrix_csv

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

# Guard against accidentally enormous simulation requests.
GRID_WORK_BUDGET = 10**7

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_list(text):
    """A comma-separated flag value as a list of integers."""
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}") from None


def _seed(text):
    """A --seed flag value as a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _seed64(text):
    """A --seed flag value as an integer in [0, 2**64), the seeds a
    ScenarioSpec takes; simulate hashes its master seed, so any fits."""
    seed = _seed(text)
    if seed >= 2**64:
        raise argparse.ArgumentTypeError(f"expected an integer below 2**64, got {text!r}")
    return seed


def build_parser():
    parser = _Parser(prog="maximin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("inputs", nargs="+", help="CSV file(s); a single file"
                       " needs a 'group' column, multiple files are one group each")
        p.add_argument("--jitter", type=float, default=0.0,
                       help="ridge jitter added to covariance diagonals")
        p.add_argument("--known-sigma", metavar="PATH", default=None,
                       help="headerless CSV grid holding the exact design covariance")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="output file; stdout when omitted")

    p_est = sub.add_parser("estimate", help="maximin point from CSV data")
    add_common(p_est)

    p_reg = sub.add_parser("region", help="confidence ellipsoid from CSV data")
    add_common(p_reg)
    p_reg.add_argument("--alpha", type=float, default=0.05)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo coverage grid")
    p_sim.add_argument("--tables", type=_int_list, default=[1],
                       help="comma-separated table ids, e.g. 1,3")
    p_sim.add_argument("--p-values", type=_int_list, default=[3],
                       help="comma-separated p grid")
    p_sim.add_argument("--n-values", type=_int_list, default=[100],
                       help="comma-separated n grid")
    p_sim.add_argument("--replicates", type=int, default=100)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--seed", type=_seed, default=0, help="master seed")
    p_sim.add_argument("--jobs", type=int, default=1)
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--out", metavar="PATH", default=None)

    p_chk = sub.add_parser("check", help="run the self-test battery")
    p_chk.add_argument("--seed", type=_seed64, default=0)
    return parser


def _load_inputs(args, parser):
    """The dataset and the known Sigma (or None) that estimate and region read."""
    if not 0 <= args.jitter < math.inf:
        parser.error("--jitter must be finite and >= 0")
    if len(args.inputs) == 1:
        dataset = load_grouped_csv(args.inputs[0])
    else:
        dataset = load_group_csvs(args.inputs)
    known = load_matrix_csv(args.known_sigma) if args.known_sigma else None
    return dataset, known


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


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
            "unique_weights": sol.unique_weights,
            "vertex_mode": len(sol.active) == 1,
            "sigma2_approximate": est.sigma2_approximate,
            "known_sigma": known_sigma,
        },
    }


def cmd_estimate(args, parser):
    dataset, known = _load_inputs(args, parser)
    estimates, solution, _ = pipeline.estimate_dataset(
        dataset, ridge_jitter=args.jitter, known_sigma=known
    )
    payload = _estimate_payload(dataset, estimates, solution, known is not None)
    _emit(simulate.json_text(payload), args.out)
    return EXIT_OK


def cmd_region(args, parser):
    if not 0.0 < args.alpha < 1.0:
        parser.error("--alpha must lie strictly inside (0, 1)")
    dataset, known = _load_inputs(args, parser)
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
    _emit(simulate.json_text(payload), args.out)
    axes = ", ".join(f"{v:.6g}" for v in region.semi_axes())
    print(
        f"confidence level {region.level:g}, n={region.n_used},"
        f" semi-axes [{axes}],"
        f" max eigenvalue {max_eigenvalue(analysis.covariance.W):.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_simulate(args, parser):
    if not 0.0 < args.alpha < 1.0:
        parser.error("--alpha must lie strictly inside (0, 1)")
    if args.replicates < 0:
        parser.error("--replicates must be >= 0")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    cells = len(args.tables) * len(args.p_values) * len(args.n_values)
    if cells * max(args.replicates, 1) > GRID_WORK_BUDGET:
        raise BudgetError(
            f"grid asks for {cells} cells x {args.replicates} replicates,"
            f" beyond the {GRID_WORK_BUDGET} work budget"
        )
    results = simulate.run_grid(
        args.tables, args.p_values, args.n_values, args.replicates,
        alpha=args.alpha, master_seed=args.seed, parallelism=args.jobs,
        progress=lambda line: print(line, file=sys.stderr),
    )
    if args.format == "csv":
        _emit(simulate.grid_to_csv(results), args.out)
    else:
        _emit(simulate.grid_json_text(results), args.out)
    return EXIT_OK


def cmd_check(args, parser):
    from .selfcheck import battery

    failures = 0
    for name, passed in battery(args.seed):
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
