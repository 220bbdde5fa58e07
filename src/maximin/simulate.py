"""Monte-Carlo coverage harness.

Each grid cell fixes a scenario preset, a dimension p and a sample size
n, then repeats generate / fit / solve / cover over many replicates.
Seeding is hierarchical and content-addressed: the cell seed is a hash
of (master seed, table, p, n) and every replicate derives its own
64-bit seed from (cell seed, replicate index). Workers therefore
produce identical per-replicate results regardless of how replicates
are distributed, and reports aggregate in replicate order, so output
bytes do not depend on the worker count.

Each worker runs its replicates in chunks through a block engine.
The chunk's datasets are drawn into one (R, G, n, p) design stack by
linmodel.generate_stack, bitwise equal to generate, and go through one
stacked pass of the kernels the single-dataset path is built from:
fit_stack, the SigmaMetric check, stacked_maximin, then, batched over
the replicates whose active sets have the same size k, Face,
empirical_C, face_covariance and spectrum. This module holds no
factorisation of its own; a single dataset is a stack of one to those
kernels, so a replicate gets the same bits from either path and the
rows do not depend on the chunk size.

The stacked pass finishes only interior replicates. The others take
the cold path, the full per-replicate pipeline.analyze_dataset on the
replicate's slice of the stack: a fit that fails the pivot check or
has non-finite input, a vertex (ties included), a face with k - 1 > p,
rank-deficient differences or a leave-one-out residual below 1e-10,
and a W that fails the conditioning test. A chunk goes down the cold
path whole when a pooled metric fails the symmetry or Cholesky check
(a mean of positive definite Grams, so this is not expected) or its
active-set QP (G > 6) raises ConvergenceError.

A chunk holds as many replicates as fit into CHUNK_BYTES. A replicate
counts its design, or the bordered KKT systems of its enumerated QP
(magging.program_bytes) when those are larger, as at G = 6 and small
n. The stacked pass holds a few such arrays of the chunk at once (the
stack, empirical_C's forms, the fit's residuals, the QP's systems), so
its extra memory stays at a small multiple of the budget whatever the
cell; past a few dozen small replicates a larger chunk gains little, as
the per-stream seeding in generate_stack dominates.

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

from . import pipeline
from .asymvar import empirical_C, face_covariance
from .confidence import (
    chi2_quantile,
    contains,
    covers,
    max_eigenvalue,
    precision_matrix,
    region_radius2,
    spectrum,
)
from .errors import (
    ConditioningError,
    ConvergenceError,
    DefinitenessError,
    DegenerateGeometryError,
    RankError,
    SingularFitError,
)
from .geometry import Face, SigmaMetric
from .linmodel import (
    GroupedDataset,
    ScenarioSpec,
    fit_stack,
    generate_stack,
    true_coefficients,
)
from .magging import active_mask, maximin_point, program_bytes, stacked_maximin

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

# A chunk holds as many replicates as fit into this many bytes, at least
# one; a replicate counts its (G, n, p) design or, when larger, the face
# systems of its enumerated QP (G <= 6). The stacked pass holds two to
# three times the budget at its peak. Peak RSS over the replicate-by-
# replicate loop, one BLAS thread: 2 MiB adds 5.9 MB at p = G = 3,
# n = 100, 4.5 MB at p = G = 6, n = 10 and 2.2 MB at p = G = 12,
# n = 500. 1 MiB added 3.2, 2.2 and 0.0 MB, but at p = G = 12 it holds
# one 576 KB replicate a chunk, and that cell ran 13% slower.
CHUNK_BYTES = 1 << 21


@dataclass(frozen=True)
class CoverageReport:
    """Aggregate of one simulation cell."""

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

    Solves the maximin program under the identity metric and checks,
    to within tol = 1e-8, that its point equals M and that the KKT gap
    conditions hold at M: <b_g - M, M> >= -tol for every column, with
    equality on the solution's support. The QP is convex, so they are
    necessary and sufficient.
    """
    tol = 1e-8
    solution = maximin_point(B, np.eye(B.shape[0]))
    gaps = B.T @ M - M @ M
    return bool(
        np.linalg.norm(solution.M - M) <= tol
        and gaps.min() >= -tol
        and np.all(np.abs(gaps[list(solution.active)]) <= tol)
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


def _run_block(spec, alpha, M0, items):
    """Worker: replicate indices with their seeds -> per-replicate rows.

    Rows are (replicate, covered, top eigenvalue, degenerate, vertex),
    in the order of items; the block runs in chunks of CHUNK_BYTES.
    """
    size = max(1, CHUNK_BYTES // _replicate_bytes(spec))
    rows = []
    for start in range(0, len(items), size):
        rows.extend(_run_chunk(spec, alpha, M0, items[start:start + size]))
    return rows


def _replicate_bytes(spec):
    """What one replicate adds to a chunk: its design or its QP's systems."""
    return max(8 * spec.G * spec.n * spec.p, program_bytes(spec.G, spec.p))


def _run_chunk(spec, alpha, M0, items):
    """Rows of one chunk: the stacked pass, then the cold path."""
    X, y = generate_stack(spec, [seed for _, seed in items])
    covered, eig, hot = _stacked_pass(X, y, spec.ridge_jitter, alpha, M0)
    rows = []
    for i, (rep, _) in enumerate(items):
        if hot[i]:
            rows.append((rep, int(covered[i]), float(eig[i]), False, False))
        else:
            rows.append((rep,) + _analyze_one(X[i], y[i], spec.ridge_jitter, alpha, M0))
    return rows


def _analyze_one(X, y, ridge_jitter, alpha, M0):
    """(covered, top eigenvalue, degenerate, vertex) from the full analysis."""
    dataset = GroupedDataset(tuple(zip(X, y)))
    try:
        analysis = pipeline.analyze_dataset(
            dataset, alpha=alpha, ridge_jitter=ridge_jitter)
    except _REPLICATE_ERRORS:
        return 0, float("nan"), True, False
    covariance = analysis.covariance
    return (int(contains(analysis.region, M0)), max_eigenvalue(covariance.W),
            False, covariance.vertex_mode)


def _stacked_pass(X, y, ridge_jitter, alpha, M0):
    """Coverage and top eigenvalue of the replicates the stack can carry.

    X (R, G, n, p) and y (R, G, n) hold a chunk of datasets. They go
    through the stacked kernels: fit, metric check, QP, then, batched
    over replicates whose active sets have the same size k, the Face,
    W and the region. Returns (covered, eig, hot), each of length R;
    hot is False for every replicate this pass does not finish: a
    failed fit, a vertex (ties included), k - 1 > p, a rank-deficient
    or unseparated face, or a W that fails the conditioning test, and
    the whole chunk when a metric fails its check or the QP's
    active-set loop raises ConvergenceError. Those take the
    per-replicate path.
    """
    R, G, n, p = X.shape
    covered = np.zeros(R, dtype=bool)
    eig = np.full(R, np.nan)
    hot = np.zeros(R, dtype=bool)
    fitted = fit_stack(X, y, ridge_jitter)
    live = np.flatnonzero(fitted.ok)
    if not live.size:
        return covered, eig, hot
    try:
        metric = SigmaMetric(fitted.Sigma_hat[live])
        solution = stacked_maximin(fitted.Bhat[live], metric.Sigma)
    except (DefinitenessError, ConvergenceError):
        return covered, eig, hot
    active = active_mask(solution.gamma)
    k = active.sum(axis=1)
    radius2 = region_radius2(p, n, alpha)
    for size in np.unique(k[(k >= 2) & (k - 1 <= p)]):
        pick = np.flatnonzero(k == size)
        cols = np.nonzero(active[pick])[1].reshape(pick.size, size)
        B = np.take_along_axis(fitted.Bhat[live[pick]], cols[:, None, :], axis=2)
        face = Face(B, SigmaMetric(metric.Sigma[pick]))
        ok = face.full_rank & face.separated
        if not ok.any():
            continue
        if not ok.all():
            pick, B = pick[ok], B[ok]
            face = Face(B, SigmaMetric(metric.Sigma[pick]))
        reps = live[pick]
        M = solution.M[pick]
        designs = X if reps.size == R else X[reps]  # no copy when all are hot
        C_hat = empirical_C(designs.reshape(reps.size, G * n, p), M, G)
        W = face_covariance(
            face, M, fitted.sigma2[reps], face.metric.inverse(), C_hat)[0]
        finite = np.flatnonzero(np.isfinite(W).all(axis=(1, 2)))
        vals, vecs, ok = spectrum(W[finite])
        keep = finite[ok]
        reps = reps[keep]
        covered[reps] = covers(precision_matrix(vals[ok], vecs[ok]), M[keep], M0, radius2)
        eig[reps] = max_eigenvalue(W[keep])
        hot[reps] = True
    return covered, eig, hot


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
        z = math.sqrt(chi2_quantile(1, 0.95))
        halfwidth = z * math.sqrt(max(coverage * (1.0 - coverage), 0.0) / tested)
    else:
        halfwidth = float("nan")
    mean_eig = float(eigs.mean()) if eigs.size else float("nan")
    return CoverageReport(
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
