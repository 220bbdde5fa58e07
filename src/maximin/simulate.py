"""Monte-Carlo coverage harness.

Each grid cell fixes a scenario preset, a dimension p and a sample size
n, then repeats generate / fit / solve / cover over many replicates.
Seeding is hierarchical and content-addressed: the cell seed is a hash
of (master seed, table, p, n) and every replicate derives its own
64-bit seed from (cell seed, replicate index). Workers therefore
produce identical per-replicate results regardless of how replicates
are distributed, and reports aggregate in replicate order, so output
bytes do not depend on the worker count.

Replicates whose analysis raises a semantic error (singular fit,
degenerate geometry, ill-conditioned covariance, no convergence) are
counted as degenerate and excluded from the coverage denominator; the
report also carries the all-replicates ratio so both conventions are
visible.
"""

import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import confidence, pipeline
from .errors import (
    ConditioningError,
    ConvergenceError,
    DefinitenessError,
    DegenerateGeometryError,
    RankError,
    SingularFitError,
)
from .linmodel import ScenarioSpec, generate, true_coefficients
from .magging import ACTIVITY_THRESHOLD, _simplex_qp

_REPLICATE_ERRORS = (
    SingularFitError,
    DefinitenessError,
    ConvergenceError,
    DegenerateGeometryError,
    RankError,
    ConditioningError,
)

TABLE_IDS = (1, 2, 3, 4, 5)

CSV_HEADER = "table,p,n,replicates,coverage,halfwidth,degenerate_count,mean_max_eig"


@dataclass(frozen=True)
class CoverageReport:
    """Aggregate of one simulation cell."""

    scenario: ScenarioSpec
    replicates: int
    covered: int
    coverage: float
    binomial_halfwidth: float
    degenerate_count: int
    mean_max_eigenvalue: float
    wall_time: float
    coverage_all: float
    vertex_count: int
    exclusion_policy: str = "degenerate-excluded"


def scenario_presets(table, p, n):
    """The generating rule behind each reference table.

    1: one basis vector per group (G = p), plain least squares.
    2: b_g = e_1 + z_g e_2 with fresh standard-normal z per replicate.
    3: identical coefficients e_1 with G = floor(0.8 p).
    4: the basis rule with ridge jitter 1e-4 (n <= p allowed).
    5: same runs as 4; the summary of interest is the top eigenvalue.
    """
    table = int(table)
    if table not in TABLE_IDS:
        raise ValueError(f"unsupported table id {table}; expected one of 1..5")
    if table == 1:
        return ScenarioSpec(p=p, G=p, n=n, coefficient_rule="basis-vectors")
    if table == 2:
        return ScenarioSpec(p=p, G=p, n=n, coefficient_rule="shared-plus-noise")
    if table == 3:
        G = max(1, int(math.floor(0.8 * p)))
        return ScenarioSpec(p=p, G=G, n=n, coefficient_rule="identical")
    return ScenarioSpec(
        p=p, G=p, n=n, coefficient_rule="basis-vectors", ridge_jitter=1e-4
    )


def true_maximin(spec):
    """Analytic maximin effect of a scenario under the identity metric.

    The mean of e_1 .. e_G for basis vectors, e_1 for the other rules.
    """
    p, G = spec.p, spec.G
    if spec.coefficient_rule == "basis-vectors":
        M = np.zeros(p)
        M[:G] = 1.0 / G
        return M
    M = np.zeros(p)
    M[0] = 1.0
    return M


_verified_rules = set()


def _kkt_certifies(B, M):
    """Whether M is the minimum-norm point of the hull of B's columns.

    Checks the KKT conditions of the simplex QP under the identity
    metric, to within tol = 1e-8: M = B alpha with alpha on the simplex,
    and <b_g - M, M> >= -tol for every column, with equality on the
    support of alpha. The QP is convex, so they are necessary and
    sufficient.
    """
    tol = 1e-8
    alpha, _, _ = _simplex_qp(B.T @ B, -2.0 * (B.T @ M))
    gaps = B.T @ M - M @ M
    support = alpha > ACTIVITY_THRESHOLD
    return bool(
        np.linalg.norm(B @ alpha - M) <= tol
        and gaps.min() >= -tol
        and np.all(np.abs(gaps[support]) <= tol)
    )


def _verify_true_maximin(spec):
    """One-time cross-check of the analytic reference point.

    The simplex-QP KKT conditions must certify it, at any G.
    For the shared-plus-noise rule the check uses a canonical draw with
    mixed signs; same-signed draws have a different maximin point, and
    scoring against e_1 on them is a deliberate reporting convention.
    """
    key = (spec.coefficient_rule, spec.p, spec.G)
    if key in _verified_rules:
        return
    if spec.coefficient_rule == "shared-plus-noise":
        canonical = None
        for seed in range(64):
            B = true_coefficients(replace(spec, seed=seed))
            z = B[1, :]
            if z.min() < 0.0 < z.max():
                canonical = B
                break
        if canonical is None:
            raise AssertionError("no mixed-sign canonical draw found")
        B = canonical
    else:
        B = true_coefficients(spec)
    M0 = true_maximin(spec)
    if not _kkt_certifies(B, M0):
        raise AssertionError(
            f"analytic maximin reference fails its cross-check for {key}"
        )
    _verified_rules.add(key)


def _derive_seed(*parts):
    text = ":".join(str(part) for part in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def cell_seed(master_seed, table, p, n):
    """Content-addressed seed for one grid cell."""
    return _derive_seed(master_seed, table, p, n)


def _run_one(spec, alpha, M0):
    dataset, _ = generate(spec)
    analysis = pipeline.analyze_dataset(
        dataset, alpha=alpha, ridge_jitter=spec.ridge_jitter
    )
    covered = confidence.contains(analysis.region, M0)
    eig = confidence.max_eigenvalue(analysis.covariance.W)
    return covered, eig, analysis.covariance.vertex_mode


def _run_block(spec, alpha, M0, items):
    """Worker: replicate indices with their seeds -> per-replicate rows."""
    out = []
    for rep, seed in items:
        rep_spec = replace(spec, seed=seed)
        try:
            covered, eig, vertex = _run_one(rep_spec, alpha, M0)
            out.append((rep, int(covered), eig, False, vertex))
        except _REPLICATE_ERRORS:
            out.append((rep, 0, float("nan"), True, False))
    return out


def run_cell(spec, replicates, alpha, jobs=1):
    """Monte-Carlo coverage for one scenario cell.

    Parameters
    ----------
    spec : ScenarioSpec
        Cell scenario; its seed acts as the cell seed.
    replicates : int
    alpha : float
    jobs : int
        Worker processes; results are identical for any value.

    Returns
    -------
    CoverageReport
    """
    if replicates < 0:
        raise ValueError("replicates must be >= 0")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    start = time.perf_counter()
    M0 = true_maximin(spec)
    _verify_true_maximin(spec)
    items = [(rep, _derive_seed(spec.seed, rep)) for rep in range(replicates)]
    rows = []
    if jobs <= 1 or replicates <= 1:
        rows = _run_block(spec, alpha, M0, items)
    else:
        workers = min(jobs, max(1, replicates))
        chunk = math.ceil(len(items) / workers)
        blocks = [items[i : i + chunk] for i in range(0, len(items), chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_block, spec, alpha, M0, block) for block in blocks
            ]
            for future in futures:
                rows.extend(future.result())
    rows.sort(key=lambda r: r[0])
    covered = sum(r[1] for r in rows if not r[3])
    degenerate = sum(1 for r in rows if r[3])
    vertex = sum(1 for r in rows if r[4])
    eigs = np.array([r[2] for r in rows if not r[3]], dtype=float)
    tested = replicates - degenerate
    coverage = covered / tested if tested else float("nan")
    coverage_all = covered / replicates if replicates else float("nan")
    if tested:
        z = math.sqrt(confidence.chi2_quantile(1, 0.95))
        halfwidth = z * math.sqrt(max(coverage * (1.0 - coverage), 0.0) / tested)
    else:
        halfwidth = float("nan")
    mean_eig = float(eigs.mean()) if eigs.size else float("nan")
    return CoverageReport(
        scenario=spec,
        replicates=replicates,
        covered=covered,
        coverage=coverage,
        binomial_halfwidth=halfwidth,
        degenerate_count=degenerate,
        mean_max_eigenvalue=mean_eig,
        wall_time=time.perf_counter() - start,
        coverage_all=coverage_all,
        vertex_count=vertex,
    )


def run_grid(tables, p_values, n_values, replicates, alpha=0.05,
             master_seed=0, parallelism=1, progress=None):
    """Run a full table x p x n grid of cells.

    Returns a list of (table, p, n, CoverageReport) in deterministic
    grid order. ``progress`` may be a callable taking one line of text.
    """
    results = []
    for table in tables:
        for p in p_values:
            for n in n_values:
                spec = scenario_presets(table, p, n)
                spec = replace(spec, seed=cell_seed(master_seed, table, p, n))
                report = run_cell(spec, replicates, alpha, jobs=parallelism)
                results.append((int(table), int(p), int(n), report))
                if progress is not None:
                    progress(
                        f"table={table} p={p} n={n}"
                        f" coverage={report.coverage:.4f}"
                        f" degenerate={report.degenerate_count}"
                    )
    return results


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def grid_to_csv(results):
    """Plot-ready CSV, one row per cell; bytes are seed-deterministic."""
    lines = [CSV_HEADER]
    for table, p, n, rep in results:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    table,
                    p,
                    n,
                    rep.replicates,
                    rep.coverage,
                    rep.binomial_halfwidth,
                    rep.degenerate_count,
                    rep.mean_max_eigenvalue,
                )
            )
        )
    return "\n".join(lines) + "\n"


def grid_to_json(results):
    cells = []
    for table, p, n, rep in results:
        cells.append(
            {
                "table": table,
                "p": p,
                "n": n,
                "replicates": rep.replicates,
                "covered": rep.covered,
                "coverage": rep.coverage,
                "coverage_all_replicates": rep.coverage_all,
                "halfwidth": rep.binomial_halfwidth,
                "degenerate_count": rep.degenerate_count,
                "vertex_count": rep.vertex_count,
                "mean_max_eig": rep.mean_max_eigenvalue,
                "exclusion_policy": rep.exclusion_policy,
                "wall_time": rep.wall_time,
            }
        )
    return {"schema_version": 1, "cells": cells}


def grid_json_text(results):
    return json.dumps(grid_to_json(results), indent=2, sort_keys=True) + "\n"
