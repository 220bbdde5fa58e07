"""Monte-Carlo coverage harness.

Each grid cell fixes a scenario preset, a dimension p and a sample size
n, then repeats generate / fit / solve / cover over many replicates.
Seeding is hierarchical and content-addressed: the cell seed is a hash
of (master seed, table, p, n) and every replicate derives its own
64-bit seed from (cell seed, replicate index). Workers therefore
produce identical per-replicate results regardless of how replicates
are distributed, and reports aggregate in replicate order, so output
bytes do not depend on the worker count. Each replicate's region is
scored against the cell's analytic maximin point, true_maximin(spec);
the test suite certifies that closed form by the simplex QP's KKT
conditions for every coefficient rule, so a run does not re-solve it.

Each worker runs its replicates through a block engine in two halves,
built from the kernels of the single-dataset path. The front half
takes one design chunk at a time: its datasets are drawn into one
(R, G, n, p) design stack by linmodel.generate_stack, bitwise equal to
generate, and go through fit_stack, the SigmaMetric check,
stacked_maximin and empirical_C. Of each live row it keeps only arrays
in p and G: Bhat, the active set, M, the metric, sigma2, the per-group
grams and C_hat. The back half takes a batch of those rows at once:
asymvar.covariance_stack (vertices and ties included), spectrum and
the region test. Its arrays do not grow with n, so where designs are
large a batch spans several chunks, and its per-call cost is paid once
a batch. A single dataset is a stack of one to every kernel, so a
replicate gets the same bits from either path and the rows depend on
neither the chunk nor the batch size.

Each kernel keeps its refusals as values, one per row, and a refused
row drops out of the rest of the pass: a fit that fails the pivot check
or has non-finite input, a pooled metric that fails the symmetry or
Cholesky check (not expected of a mean of positive definite Grams), a
QP whose B^T Sigma B is not finite or that hits its iteration cap, and
a face covariance_stack refuses. Such a replicate, and one whose W
fails the conditioning test, is degenerate: it is excluded from the
coverage denominator, and the report also carries the all-replicates
ratio so both conventions are visible. A chunk left with no live rows
goes on as an empty stack, which every kernel takes.

A design chunk holds as many replicates as fit into CHUNK_BYTES, where
a replicate counts its design, its per-group grams and its QP system
(_replicate_bytes). The front half holds a few design-sized arrays of
the chunk at once (the stack, empirical_C's forms, the fit's
residuals), so its peak stays at two to three budgets. A back batch
holds as many replicates as fit into CHUNK_BYTES by its own count, six
G p^2 arrays and a few p^2 ones a replicate (_batch_bytes): whole
chunks where a chunk is smaller than a batch, else one chunk in
batch-sized slices (figures at CHUNK_BYTES). Past a few dozen small
replicates a larger chunk gains little, as generate_stack's per-stream
normal draws dominate and do not shrink with it (a chunk pays one key
hash, and each stream one generator reset); at large G the QP's
lockstep loop pays its Python cost once a chunk.

With jobs > 1 the blocks go to a process pool that the module keeps
across run_cell calls, and so across the cells of a grid: its
min(jobs, replicates) workers are forked, by the default start method,
on the first call that asks for them, and the pool is replaced when a
call needs another worker count or after it broke (BrokenProcessPool,
which that call still raises). Forking and joining a pool costs about
as much as a small cell's work. The kept workers run the package as it
was when they were forked; the interpreter's exit joins them.
"""

import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .asymvar import covariance_stack, empirical_C
from .confidence import (
    chi2_quantile,
    covers,
    max_eigenvalue,
    precision_matrix,
    region_radius2,
    spectrum,
)
from .geometry import SigmaMetric, concatenate_metrics
from .linmodel import ScenarioSpec, fit_stack, generate_stack
from .magging import active_mask, stacked_maximin

TABLE_IDS = (1, 2, 3, 4, 5)

CSV_HEADER = "table,p,n,replicates,coverage,halfwidth,degenerate_count,mean_max_eig"

# A design chunk and a back batch each hold as many replicates as fit
# into this many bytes by their own per-replicate counts, at least one.
# At large n the front half holds two to three times the budget at its
# peak. Peak RSS over the replicate-by-replicate loop, one BLAS thread:
# 2 MiB adds 4.8 MB at p = G = 3, n = 100 (2,000 replicates) and 1.4 MB
# at p = G = 12, n = 500 (300). 1 MiB held one 576 KB replicate a chunk
# at p = G = 12, and that cell ran 13% slower. At small n the arrays in
# p and G outweigh the design; counting them, 2 MiB adds 4.1 MB at
# p = G = 6, n = 10 and 4.6 MB for table 4 at p = 6, n = 3 (2,500
# replicates; 10.4 and 28.2 MB when a replicate counted its design
# alone), and 2.9 MB at p = G = 20, n = 60 (1,500; 5.3 MB).
CHUNK_BYTES = 1 << 21

# The worker pool run_cell keeps across calls, and its worker count.
_pool = None
_pool_workers = 0


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
    For shared-plus-noise that is the maximin point of draws whose z has
    mixed signs; same-signed draws have another, and scoring against
    e_1 on them is a deliberate reporting convention.
    """
    p, G = spec.p, spec.G
    if spec.coefficient_rule == "basis-vectors":
        M = np.zeros(p)
        M[:G] = 1.0 / G
        return M
    M = np.zeros(p)
    M[0] = 1.0
    return M


def _derive_seed(*parts):
    text = ":".join(str(part) for part in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def cell_seed(master_seed, table, p, n):
    """Content-addressed seed for one grid cell."""
    return _derive_seed(master_seed, table, p, n)


def _run_block(spec, alpha, M0, seeds):
    """Worker: replicate seeds -> (covered, eig, vertex), arrays in seed order.

    covered and vertex are boolean, eig holds each W's top eigenvalue;
    a degenerate replicate has NaN there and is neither covered nor a
    vertex. The block's design chunks go through the front half one at
    a time, and the back half takes as many whole chunks at once as fit
    into its batch, or one chunk in batch-sized slices (_chunk_sizes).
    """
    R = len(seeds)
    covered, eig, vertex = np.zeros(R, dtype=bool), np.full(R, np.nan), np.zeros(R, dtype=bool)
    front, batch = _chunk_sizes(spec)
    step = max(1, batch // front) * front
    for start in range(0, R, step):
        parts = []
        for first in range(start, min(start + step, R), front):
            # X, y stay bound until the next chunk is drawn: freeing them
            # first made p = G = 12, n = 500 about 6% slower (NumPy 2.4)
            X, y = generate_stack(spec, seeds[first:first + front])
            parts.append(_front_pass(X, y, spec.ridge_jitter, first))
        _back_pass(parts, batch, spec.n, alpha, M0, covered, eig, vertex)
    return covered, eig, vertex


def _chunk_sizes(spec):
    """(front, batch): the replicates of a design chunk and of a back
    batch, each as many as fit into CHUNK_BYTES by its own per-replicate
    count, at least one."""
    return (max(1, CHUNK_BYTES // _replicate_bytes(spec)),
            max(1, CHUNK_BYTES // _batch_bytes(spec)))


def _replicate_bytes(spec):
    """What one replicate adds to a design chunk: its (G, n, p) design
    and the front half's arrays in p and G."""
    G, p = spec.G, spec.p
    return 8 * (G * spec.n * p + G * p * p + 4 * p * p + (G + 1) ** 2)


def _batch_bytes(spec):
    """What one replicate adds to a back batch: the front's arrays it
    holds and covariance_stack's, spectrum's and the region test's."""
    G, p = spec.G, spec.p
    return 8 * (6 * G * p * p + 16 * p * p + 64 * p)


class _Front(NamedTuple):
    """The live rows of a design chunk, as indices into its block, with
    the arrays of theirs the back half reads."""

    rows: np.ndarray
    Bhat: np.ndarray
    active: np.ndarray
    M: np.ndarray
    sigma2: np.ndarray
    S: np.ndarray
    C_hat: np.ndarray
    metric: SigmaMetric


def _front_pass(X, y, ridge_jitter, first):
    """fit_stack, the SigmaMetric check, stacked_maximin and empirical_C
    over the datasets X (R, G, n, p), y (R, G, n), which are rows first,
    first + 1, ... of their block. A refused row drops out here, and a
    chunk with no live rows is a stack of none."""
    R, G, n, p = X.shape
    fitted = fit_stack(X, y, ridge_jitter)
    live = np.flatnonzero(fitted.ok)
    metric = SigmaMetric(fitted.Sigma_hat[live])
    solution = stacked_maximin(fitted.Bhat[live], metric.Sigma)
    solved = np.equal(metric.errors, None) & np.equal(solution.errors, None)
    live, metric, M = live[solved], metric[solved], solution.M[solved]
    active = active_mask(solution.gamma[solved])
    designs = X if live.size == R else X[live]  # no copy when every row is live
    C_hat = empirical_C(designs.reshape(live.size, G * n, p), M, G)
    return _Front(first + live, fitted.Bhat[live], active, M, fitted.sigma2[live],
                  fitted.S[live], C_hat, metric)


def _back_pass(parts, batch, n, alpha, M0, covered, eig, vertex):
    """covariance_stack, spectrum and the region test over the live rows
    of the front parts, batch rows at a time, written into the block's
    covered, eig and vertex at those rows; a row whose W fails the
    spectrum stays degenerate."""
    rows, Bhat, active, M, sigma2, S, C_hat = (
        np.concatenate(arrays) for arrays in zip(*(part[:-1] for part in parts)))
    metric = concatenate_metrics([part.metric for part in parts])
    for s in (slice(i, i + batch) for i in range(0, rows.size, batch)):
        W, _, _, _, vertex_mode, _ = covariance_stack(
            Bhat[s], active[s], M[s], metric[s], sigma2[s], n, S[s], C_hat[s])
        vals, vecs, ok = spectrum(W)
        reps = rows[s][ok]
        covered[reps] = covers(precision_matrix(vals[ok], vecs[ok]), M[s][ok], M0,
                               region_radius2(M0.size, n, alpha))
        eig[reps] = max_eigenvalue(W[ok])
        vertex[reps] = vertex_mode[ok]


def run_cell(spec, replicates, alpha, jobs=1):
    """Monte-Carlo coverage for one scenario cell.

    Parameters
    ----------
    spec : ScenarioSpec
        Cell scenario; its seed acts as the cell seed.
    replicates : int
    alpha : float
    jobs : int
        Worker processes, at most one per replicate; results are
        identical for any value. For jobs > 1 the workers are forked on
        first use and kept across calls (they run the package as it was
        when forked); the pool is replaced when a call needs another
        worker count or after a BrokenProcessPool, which the call that
        meets it raises.

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
    seeds = [_derive_seed(spec.seed, rep) for rep in range(replicates)]
    if jobs <= 1 or replicates <= 1:
        blocks = [_run_block(spec, alpha, M0, seeds)]
    else:
        workers = min(jobs, replicates)
        chunk = math.ceil(replicates / workers)
        pool = _kept_pool(workers)
        try:
            futures = [pool.submit(_run_block, spec, alpha, M0, seeds[i:i + chunk])
                       for i in range(0, replicates, chunk)]
            blocks = [future.result() for future in futures]
        except BrokenProcessPool:
            _drop_pool()  # the next call forks a fresh pool
            raise
    # the blocks hold consecutive replicates, so they join in replicate order
    covered, eig, vertex = (np.concatenate(arrays) for arrays in zip(*blocks))
    eigs = eig[~np.isnan(eig)]
    # Python numbers: the CSV writes repr(float), which a NumPy scalar changes
    covered, vertex, tested = int(covered.sum()), int(vertex.sum()), eigs.size
    degenerate = replicates - tested
    coverage = covered / tested if tested else float("nan")
    coverage_all = covered / replicates if replicates else float("nan")
    if tested:
        z = math.sqrt(chi2_quantile(1, 0.95))
        halfwidth = z * math.sqrt(max(coverage * (1.0 - coverage), 0.0) / tested)
    else:
        halfwidth = float("nan")
    mean_eig = float(eigs.mean()) if tested else float("nan")
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


def _kept_pool(workers):
    """The pool of workers processes kept across run_cell calls, made on
    the first call and replaced when the worker count changes."""
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != workers:
        _drop_pool()
    if _pool is None:
        _pool, _pool_workers = ProcessPoolExecutor(max_workers=workers), workers
    return _pool


def _drop_pool():
    """Shut the kept pool down, joining its workers; the next call makes one."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown()


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
    return json_text(grid_to_json(results))


def json_text(payload):
    """payload as indented, key-sorted strict JSON: a non-finite float
    is written as null."""
    return json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value
