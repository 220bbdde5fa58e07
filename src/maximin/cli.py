"""Command line entry points.

Commands:
    estimate   maximin point and weights from CSV data
    region     confidence ellipsoid from CSV data
    simulate   Monte-Carlo coverage grids
    check      self-test battery over the invariant corpus

Exit codes: 0 success, 1 usage, 2 CSV parse failure (with line and
column when known), 3 singular per-group fit (naming the group),
4 ill-conditioned covariance (with eigenvalue diagnostics), 5 budget
or size limits exceeded.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import pipeline, simulate
from .confidence import chi2_cdf, chi2_quantile, contains, max_eigenvalue
from .errors import (
    BudgetError,
    ConditioningError,
    CsvFormatError,
    EstimationError,
    SingularFitError,
)
from .linmodel import load_group_csvs, load_grouped_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SINGULAR = 3
EXIT_CONDITIONING = 4
EXIT_BUDGET = 5

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


def _load_matrix(path):
    """Known-sigma file: JSON 2-d array, or a bare CSV grid of numbers."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".json"):
        data = json.loads(text)
        return np.asarray(data, dtype=float)
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError:
            raise CsvFormatError(
                f"{path}: line {line_no}: matrix entries must be numbers",
                line=line_no,
            ) from None
    return np.asarray(rows, dtype=float)


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
    if args.jitter < 0:
        parser.error("--jitter must be >= 0")
    dataset = _load_dataset(args.inputs)
    known = _load_matrix(args.known_sigma) if args.known_sigma else None
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
    known = _load_matrix(args.known_sigma) if args.known_sigma else None
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
        f" max eigenvalue {max_eigenvalue(analysis.covariance):.6g}",
        file=sys.stderr,
    )
    return EXIT_OK


def _parse_int_list(text, name, parser):
    try:
        return [int(part) for part in str(text).split(",") if part != ""]
    except ValueError:
        parser.error(f"{name} must be a comma-separated list of integers")


def cmd_simulate(args, parser):
    config = {}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            config = json.load(handle)
    tables = (
        _parse_int_list(args.tables, "--tables", parser)
        if args.tables is not None
        else config.get("tables", [1])
    )
    p_values = (
        _parse_int_list(args.p_values, "--p-values", parser)
        if args.p_values is not None
        else config.get("p_values", [3])
    )
    n_values = (
        _parse_int_list(args.n_values, "--n-values", parser)
        if args.n_values is not None
        else config.get("n_values", [100])
    )
    replicates = (
        args.replicates if args.replicates is not None
        else int(config.get("replicates", 100))
    )
    alpha = args.alpha if args.alpha is not None else float(config.get("alpha", 0.05))
    seed = args.seed if args.seed is not None else config.get("seed")
    seed = _resolve_seed(seed, parser)
    jobs = args.jobs if args.jobs is not None else int(config.get("parallelism", 1))
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


def _check_battery(seed):
    """Yield (name, passed) pairs for the self-test corpus."""
    from .linmodel import ScenarioSpec, fit, generate
    from .magging import brute_force_oracle, maximin_point

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 99))))

    def qp_matches_oracle():
        for _ in range(50):
            p = int(rng.integers(2, 5))
            G = int(rng.integers(2, 6))
            B = rng.standard_normal((p, G))
            A = rng.standard_normal((p, p))
            Sigma = A @ A.T + 0.5 * np.eye(p)
            sol = maximin_point(B, Sigma)
            M_ref = brute_force_oracle(B, Sigma)
            d = sol.M - M_ref
            if np.sqrt(d @ Sigma @ d) > 1e-6:
                return False
        return True

    def chi2_round_trip():
        for dof in range(1, 11):
            for prob in (0.5, 0.9, 0.95, 0.99):
                if abs(chi2_cdf(dof, chi2_quantile(dof, prob)) - prob) > 1e-8:
                    return False
        return True

    def derivative_spot_check():
        from .geometry import dmagging_dB

        h = 1e-6
        count = 0
        while count < 10:
            p = int(rng.integers(2, 4))
            G = int(rng.integers(2, 5))
            B = rng.standard_normal((p, G)) + 2.0
            Sigma = np.eye(p)
            sol = maximin_point(B, Sigma)
            if len(sol.active) < 2 or min(sol.alpha[list(sol.active)]) < 0.05:
                continue
            sub = B[:, list(sol.active)]
            J = dmagging_dB(sub, Sigma, 0, sol.M)
            E = rng.standard_normal(p)
            E /= np.linalg.norm(E)
            Bp, Bm = B.copy(), B.copy()
            Bp[:, sol.active[0]] += h * E
            Bm[:, sol.active[0]] -= h * E
            fd = (maximin_point(Bp, Sigma).M - maximin_point(Bm, Sigma).M) / (2 * h)
            if np.linalg.norm(fd - J @ E) > 1e-4 * max(np.linalg.norm(fd), 1e-8):
                return False
            count += 1
        return True

    def population_reference():
        # Symmetric three-group configuration has a closed covariance form.
        from .asymvar import assemble_W, gaussian_population_C
        from .geometry import magging_differential

        B = np.eye(3)
        Sigma = np.eye(3)
        sol = maximin_point(B, Sigma)
        diff = magging_differential(B, Sigma, sol)
        C = gaussian_population_C(Sigma, sol.M, 3)

        class _Est:
            Bhat = B
            Sigma_hat = Sigma
            sigma2_hat = 1.0

        W = assemble_W(_Est(), sol, diff, C, Sigma=Sigma).W
        expected = (4.0 / 9.0) * np.eye(3) - np.ones((3, 3)) / 27.0
        return bool(np.allclose(W, expected, atol=1e-10))

    def simulation_determinism():
        spec = ScenarioSpec(p=2, G=2, n=40, seed=seed)
        r1 = simulate.run_cell(spec, 20, 0.05)
        r2 = simulate.run_cell(spec, 20, 0.05)
        return (
            r1.covered == r2.covered
            and r1.mean_max_eigenvalue == r2.mean_max_eigenvalue
        )

    def fit_round_trip():
        spec = ScenarioSpec(p=3, G=3, n=200, noise_sd=1e-12, seed=seed)
        dataset, B0 = generate(spec)
        est = fit(dataset)
        return bool(np.allclose(est.Bhat, B0, atol=1e-8))

    yield "magging matches exhaustive oracle", qp_matches_oracle()
    yield "chi-squared quantile round trip", chi2_round_trip()
    yield "maximin derivative matches finite differences", derivative_spot_check()
    yield "population covariance closed form", population_reference()
    yield "simulation is seed-deterministic", simulation_determinism()
    yield "noiseless fit recovers coefficients", fit_round_trip()


def cmd_check(args, parser):
    seed = _resolve_seed(args.seed, parser)
    failures = 0
    for name, passed in _check_battery(seed):
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        if not passed:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_USAGE


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
    except CsvFormatError as err:
        where = ""
        if err.line is not None:
            where = f" (line {err.line}"
            where += f", column {err.column})" if err.column else ")"
        print(f"maximin: CSV error{where}: {err}", file=sys.stderr)
        return EXIT_PARSE
    except SingularFitError as err:
        print(f"maximin: singular fit: {err}", file=sys.stderr)
        return EXIT_SINGULAR
    except ConditioningError as err:
        eigs = ""
        if err.eigenvalues is not None:
            eigs = " eigenvalues=" + ",".join(f"{v:.3e}" for v in err.eigenvalues)
        print(f"maximin: conditioning: {err}{eigs}", file=sys.stderr)
        return EXIT_CONDITIONING
    except BudgetError as err:
        print(f"maximin: budget: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except FileNotFoundError as err:
        print(f"maximin: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (EstimationError, ValueError, json.JSONDecodeError) as err:
        print(f"maximin: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
