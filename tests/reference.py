"""Reference implementations that only the tests use.

The pseudo-inverse bodies below are the straightforward per-column
evaluations the Face kernel in ``maximin.geometry`` replaced: every
Jacobian refactorises the Gram of the remaining columns from scratch.
fit, hull_distance and contains_relaxed are the group-by-group and
piece-by-piece loops the batched versions in ``maximin.linmodel`` and
``maximin.relaxation`` replaced, covering_pieces is the meshgrid
lattice and center-by-center shell loop that covering_region's chunked
build replaced, and run_block is the replicate-by-replicate loop the
block engine in ``maximin.simulate`` replaced; it assembles W with
tied_neighbors and assemble_W, the per-dataset choice of face that
``maximin.asymvar.covariance_stack`` made stacked.
tied_neighbors is the plain NumPy vertex distance, with no Face.
true_coefficients and generate_stack draw every stream from a fresh
SeedSequence-seeded Philox, as ``maximin.linmodel`` did before it
hashed all keys of a stack in one vectorised pass, and form each
group's responses by its own gemv, as it did before one batched matmul.
load_grouped_csv, load_group_csvs and load_matrix_csv read every row
with csv.reader and every cell with float(), as ``maximin.linmodel``
did before it parsed plain files with np.loadtxt. split_groups is the
one-mask-per-label split of labelled rows that GroupedDataset.from_rows
replaced with one stable sort. They stay here as the oracles for the
differential tests.
kkt_residual is the program-by-program KKT residual, with list
comprehensions, that maximin_point's stacked certificate replaced.
explained_variance states the objective the maximin point is defined
by, for the defining-property test. maximin_norm_gap, boxes_contain and
quadratic_form measure what the tests check of the package: the
Lipschitz bound behind the covering region, whether the true
coefficients lie in their per-group boxes, and a point's quadratic form
in a confidence region.
"""

import csv
import math
import os
from dataclasses import replace

import numpy as np
import scipy.linalg

from maximin.asymvar import (
    TIE_PROBE_LEVEL,
    AsymptoticCovariance,
    empirical_C,
    face_covariance,
)
from maximin.confidence import build_region, chi2_quantile, contains
from maximin.errors import (
    ConditioningError,
    ConvergenceError,
    CsvFormatError,
    DefinitenessError,
    DegenerateGeometryError,
    DimensionError,
    RankError,
    SingularFitError,
)
from maximin.geometry import Face, SigmaMetric, symmetric
from maximin.geometry import quadratic_form as _quadratic_form
from maximin.linmodel import GroupedDataset, GroupEstimates, generate
from maximin.magging import maximin_point, stacked_maximin
from maximin.pipeline import estimate_dataset
from maximin.selfcheck import brute_force_oracle

_RANK_RTOL = 1e-12
_DEGENERACY_RTOL = 1e-10


def affine_project(x, points, metric):
    """Sigma-orthogonal projection of x onto the affine hull of the points."""
    metric = SigmaMetric.ensure(metric)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.asarray(x, dtype=float)
    base = pts[0]
    if pts.shape[0] == 1:
        return base.copy()
    D = (pts[1:] - base).T
    gram = D.T @ metric.Sigma @ D
    coef = np.linalg.pinv(gram, rcond=_RANK_RTOL, hermitian=True)
    return base + D @ (coef @ (D.T @ (metric.Sigma @ (x - base))))


def complement_projector(B, metric):
    """Matrix of the Sigma-orthogonal projector onto span(b_g - b_1)^perp."""
    metric = SigmaMetric.ensure(metric)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    p = B.shape[0]
    if B.shape[1] <= 1:
        return np.eye(p)
    D = B[:, 1:] - B[:, :1]
    gram = D.T @ metric.Sigma @ D
    coef = np.linalg.pinv(gram, rcond=_RANK_RTOL, hermitian=True)
    return np.eye(p) - D @ coef @ D.T @ metric.Sigma


def dmagging_dB(B_active, Sigma, g, M):
    """Jacobian of the maximin point with respect to active column g."""
    metric = SigmaMetric.ensure(Sigma)
    B = np.atleast_2d(np.asarray(B_active, dtype=float))
    Gp = B.shape[1]
    if Gp < 2:
        raise DegenerateGeometryError("vertex solution")
    M = np.asarray(M, dtype=float)
    others = np.delete(B, g, axis=1).T
    u = B[:, g] - affine_project(B[:, g], others, metric)
    nu = metric.norm(u)
    # relative to the largest column's Sigma-norm, as in Face.degenerate
    if nu <= _DEGENERACY_RTOL * max(metric.norm(b) for b in B.T):
        raise DegenerateGeometryError(
            f"active column {g} lies in the affine hull of the others"
        )
    w = M - affine_project(M, others, metric)
    proj = complement_projector(B, metric)
    term1 = -np.outer(u, metric.Sigma @ M) / nu**2
    term2 = (metric.norm(w) / nu) * proj
    return term1 + term2


def sigma_term_V(B_active, Sigma, C_hat):
    """D (D^T Sigma D)^{-1} D^T C_hat D (D^T Sigma D)^{-1} D^T."""
    metric = SigmaMetric.ensure(Sigma)
    B = np.atleast_2d(np.asarray(B_active, dtype=float))
    p, Gp = B.shape
    if Gp == 1:
        return np.zeros((p, p))
    C_hat = np.asarray(C_hat, dtype=float)
    D = B[:, 1:] - B[:, :1]
    s = np.linalg.svd(D, compute_uv=False)
    if s[-1] <= _RANK_RTOL * s[0]:
        raise RankError("active-column differences are rank deficient")
    gram = D.T @ metric.Sigma @ D
    P = D @ np.linalg.solve(gram, D.T)
    V = P @ C_hat @ P
    return (V + V.T) / 2.0


def face_W(B_used, Sigma, M, sigma2, C_hat):
    """W on a face from the per-column Jacobians, summed one at a time."""
    metric = SigmaMetric.ensure(Sigma)
    sigma_inv = metric.inverse()
    sigma_inv = (sigma_inv + sigma_inv.T) / 2.0
    term_B = np.zeros((metric.p, metric.p))
    for g in range(B_used.shape[1]):
        J = dmagging_dB(B_used, metric, g, M)
        term_B += J @ sigma_inv @ J.T
    term_B = sigma2 * (term_B + term_B.T) / 2.0
    W = term_B + sigma_term_V(B_used, metric, C_hat)
    return (W + W.T) / 2.0


def tied_neighbors(Bhat, active, Sigma, sigma2, n, Sigma_g):
    """Inactive columns within the tie bound of the single active column
    w of a vertex solution, for one dataset: |b_h - b_w|_Sigma^2 <=
    (s_h^2 + s_w^2) chi2_p(TIE_PROBE_LEVEL) / p with s_g^2 = sigma^2
    tr(Sigma Sigma_g^{-1}) / n (see maximin.asymvar._tie_mask)."""
    Sigma = SigmaMetric.ensure(Sigma).Sigma
    B = np.atleast_2d(np.asarray(Bhat, dtype=float))
    p = B.shape[0]
    n = int(n)
    sigma2 = float(sigma2)
    if n <= 0 or sigma2 <= 0.0:
        return ()
    (w,) = active
    scales = np.array([sigma2 * np.trace(np.linalg.solve(S, Sigma)) / n for S in Sigma_g])
    quant = chi2_quantile(p, TIE_PROBE_LEVEL) / p
    D = B - B[:, [w]]
    tied = np.einsum("pg,pg->g", D, Sigma @ D) <= (scales + scales[w]) * quant
    tied[w] = False
    return tuple(int(h) for h in np.flatnonzero(tied))


def assemble_W(estimates, solution, C_hat, Sigma):
    """The plug-in covariance of one dataset, with the face chosen here:
    the active columns, a vertex and its ties, or sigma^2 Sigma^{-1} for
    an isolated vertex (see maximin.asymvar.covariance_stack)."""
    metric = SigmaMetric.ensure(Sigma)
    p = metric.p
    sigma2 = float(estimates.sigma2_hat)
    active = tuple(solution.active)
    Bhat = np.atleast_2d(np.asarray(estimates.Bhat, dtype=float))
    vertex = len(active) == 1
    tied = ()
    if vertex:
        tied = tied_neighbors(
            Bhat, active, metric, sigma2, estimates.n, estimates.Sigma_g_hat)
    used = tuple(sorted(set(active).union(tied))) if tied else active
    if len(used) == 1:
        term_B, term_V = sigma2 * metric.inverse(), np.zeros((p, p))
        W = symmetric(term_B + term_V)
    else:
        face = Face(Bhat[:, list(used)], metric)
        if face.degenerate.any():
            g = used[int(np.argmax(face.degenerate))]
            raise DegenerateGeometryError(
                f"group column {g + 1} lies in the affine hull of the other used columns")
        if C_hat is not None and not face.full_rank:
            raise RankError("active-column differences are rank deficient")
        W, term_B, term_V = face_covariance(
            face, solution.M, sigma2, metric.inverse(), C_hat)
    return AsymptoticCovariance(
        W=W, term_B=term_B, term_V=term_V, active_used=used,
        vertex_mode=vertex, known_sigma=C_hat is None)


def explained_variance(b, b_g, Sigma):
    """Variance a regression vector b explains in a group with truth b_g.

    Evaluates 2 b^T Sigma b_g - b^T Sigma b.
    """
    b = np.asarray(b, dtype=float)
    b_g = np.asarray(b_g, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    return float(2.0 * b @ Sigma @ b_g - b @ Sigma @ b)


def fourth_moment_reference(X, G):
    """Rank-4 empirical tensor c[i, j, k, l] (p <= 4).

    c[i, j, k, l] is the sample covariance of X_i X_j with X_k X_l over
    the rows, divided by G. Contracting with M in j and l reproduces
    empirical_C; the production path never builds this tensor.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    p = X.shape[1]
    if p > 4:
        raise DimensionError("reference tensor limited to p <= 4")
    prods = X[:, :, None] * X[:, None, :]
    flat = prods.reshape(X.shape[0], p * p)
    flat = flat - flat.mean(axis=0)
    cov = (flat.T @ flat) / X.shape[0]
    return cov.reshape(p, p, p, p) / G


def fit(dataset, ridge_jitter=0.0):
    """Per-group least squares, one Cholesky factor per group.

    The factor is NumPy's, as in fit_stack: on a scatter that is
    singular up to rounding, NumPy's and SciPy's LAPACK builds can
    disagree on whether it factors at all."""
    n, p, G = dataset.n, dataset.p, dataset.G
    Bhat = np.empty((p, G))
    Sigma_g = []
    rss = 0.0
    for g, (X, y) in enumerate(dataset.groups):
        S = (X.T @ X) / n + ridge_jitter * np.eye(p)
        try:
            if n < p and not ridge_jitter > 0:  # rank n < p: singular by shape
                raise np.linalg.LinAlgError
            factor = np.linalg.cholesky(S), True
        except np.linalg.LinAlgError:
            raise SingularFitError(
                f"group {dataset.labels[g]}: design scatter is singular;"
                " a positive ridge_jitter is required",
                group=dataset.labels[g],
            ) from None
        # the equilibrated pivots L_ii^2 / S_ii, as geometry.positive_definite
        pivots = np.diag(factor[0]) ** 2 / np.diag(S)
        if pivots.min() <= 1e-12 * pivots.max():
            raise SingularFitError(
                f"group {dataset.labels[g]}: design scatter is numerically"
                " rank-deficient",
                group=dataset.labels[g],
            )
        b = scipy.linalg.cho_solve(factor, (X.T @ y) / n)
        Bhat[:, g] = b
        Sigma_g.append(S)
        r = y - X @ b
        rss += float(r @ r)
    X_all = dataset.design_stack()
    Sigma_hat = (X_all.T @ X_all) / (n * G) + ridge_jitter * np.eye(p)
    approximate = p >= n
    dof = G * n if approximate else G * (n - p)
    return GroupEstimates(
        Bhat=Bhat,
        Sigma_hat=Sigma_hat,
        Sigma_g_hat=np.array(Sigma_g),
        sigma2_hat=rss / dof,
        ridge_jitter_used=float(ridge_jitter),
        n=n,
        sigma2_approximate=approximate,
    )


def kkt_residual(H, c, gamma, support):
    """KKT residual of one simplex QP at weights gamma: the multiplier
    spread on the support, and the violation off it."""
    grad = 2.0 * (H @ gamma) + c
    lam = float(gamma @ grad)
    res = 0.0
    if support:
        res = float(np.max(np.abs(grad[support] - lam)))
    rest = [g for g in range(len(gamma)) if g not in support]
    if rest:
        res = max(res, float(max(0.0, lam - np.min(grad[rest]))))
    return res


def hull_distance(B, metric, M):
    """Sigma-norm distance from M to the convex hull of B's columns: the
    norm of the exhaustive oracle's minimum-norm point of the columns
    shifted by M."""
    z = brute_force_oracle(B - M[:, None], metric.Sigma)
    return math.sqrt(max(float(z @ metric.Sigma @ z), 0.0))


def contains_relaxed(region, M, slack=1e-9):
    """Piece-by-piece membership: shell test, then one hull QP per piece."""
    metric = SigmaMetric(region.Sigma0)
    M = np.asarray(M, dtype=float)
    norm = metric.norm(M)
    for k in range(region.pieces):
        eps = region.radii[k]
        if abs(norm - region.shells[k]) > eps + slack:
            continue
        if hull_distance(region.centers[k], metric, M) <= eps + slack:
            return True
    return False


def covering_pieces(boxes, Sigma0, target_eps):
    """The lattice centers (K, p, G) of covering_region, expanded by one
    meshgrid, and their shells, one maximin_point call per center."""
    metric = SigmaMetric.ensure(Sigma0)
    p, G = boxes.p, boxes.G
    lam_max = float(np.linalg.eigvalsh(metric.Sigma)[-1])
    h = 2.0 * target_eps / (math.sqrt(p) * math.sqrt(lam_max))
    positions = []
    for g in range(G):
        for j in range(p):
            c, r = boxes.centers[j, g], boxes.halfwidths[j, g]
            count = max(1, math.ceil(2.0 * r / h))
            positions.append(np.array([c]) if count == 1
                             else c - r + h / 2.0 + h * np.arange(count))
    mesh = np.meshgrid(*positions, indexing="ij")
    flat = np.stack([m.reshape(-1) for m in mesh], axis=1)
    centers = flat.reshape(-1, G, p).transpose(0, 2, 1)
    shells = np.array([metric.norm(maximin_point(c, metric).M) for c in centers])
    return centers, shells


def maximin_norm_gap(B, B_prime, Sigma0):
    """Gaps in maximin norms against the column-shift bound.

    B and B_prime are (p, G) or a (..., p, G) stack of programs, Sigma0
    (p, p) or one positive definite metric per program. Returns (gap,
    bound) over the stack axes, with gap = | |M(B')| - |M(B)| | and bound
    the largest Sigma0-norm column difference. Each side is one
    stacked_maximin call. The gap never exceeds the bound (up to solver
    slack); the covering region relies on that inequality.
    """
    B = np.asarray(B, dtype=float)
    Bp = np.asarray(B_prime, dtype=float)
    *batch, p, G = B.shape
    metric = SigmaMetric(np.broadcast_to(Sigma0, (*batch, p, p)))
    _raise_first(metric.errors.flat)
    Sigma = metric.Sigma.reshape(-1, p, p)
    norms = []
    for C in (B, Bp):
        solution = stacked_maximin(C.reshape(-1, p, G), Sigma)
        _raise_first(solution.errors)
        norms.append(np.sqrt(np.maximum(_quadratic_form(Sigma, solution.M), 0.0)))
    D = (Bp - B).reshape(-1, p, G).swapaxes(-1, -2)  # (R, G, p) column differences
    shifts = np.maximum(_quadratic_form(Sigma[:, None], D), 0.0).max(axis=-1)
    return (np.abs(norms[1] - norms[0]).reshape(batch),
            np.sqrt(shifts).reshape(batch))


def _raise_first(errors):
    for error in errors:
        if error is not None:
            raise error


def boxes_contain(boxes, B0):
    """Whether every column of B0 lies in its group's ellipsoid in boxes."""
    B0 = np.atleast_2d(np.asarray(B0, dtype=float))
    for g in range(boxes.G):
        d = boxes.centers[:, g] - B0[:, g]
        if float(d @ boxes.scatters[g] @ d) / boxes.sigma2 > boxes.threshold:
            return False
    return True


def quadratic_form(region, M):
    """(center - M)^T precision (center - M) of a confidence region."""
    return float(_quadratic_form(region.precision, region.center - np.asarray(M, dtype=float)))


REPLICATE_ERRORS = (
    SingularFitError,
    DefinitenessError,
    ConvergenceError,
    DegenerateGeometryError,
    RankError,
    ConditioningError,
)


def run_block(spec, alpha, M0, items):
    """Rows (replicate, covered, top eigenvalue, degenerate, vertex), one
    replicate at a time: generate, estimate_dataset, empirical_C, the
    assemble_W above, build_region, contains, eigvalsh."""
    out = []
    for rep, seed in items:
        dataset, _ = generate(replace(spec, seed=seed))
        try:
            estimates, solution, metric = estimate_dataset(dataset, spec.ridge_jitter)
            C_hat = empirical_C(dataset.design_stack(), solution.M, dataset.G)
            covariance = assemble_W(estimates, solution, C_hat, metric)
            region = build_region(solution.M, covariance.W, dataset.n, alpha)
        except REPLICATE_ERRORS:
            out.append((rep, 0, float("nan"), True, False))
            continue
        W = covariance.W
        out.append((
            rep,
            int(contains(region, M0)),
            float(np.linalg.eigvalsh((W + W.T) / 2.0)[-1]),
            False,
            covariance.vertex_mode,
        ))
    return out


def stream(*key):
    """A fresh generator for a namespaced integer key, seeded through
    numpy's SeedSequence."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def true_coefficients(spec):
    """The p x G coefficients; the shared-plus-noise z from (seed, 0)."""
    p, G = spec.p, spec.G
    if spec.coefficient_rule == "basis-vectors":
        return np.eye(p)[:, :G].copy()
    B = np.zeros((p, G))
    B[0, :] = 1.0
    if spec.coefficient_rule == "shared-plus-noise":
        B[1, :] = stream(spec.seed, 0).standard_normal(G)
    return B


def generate_stack(spec, seeds):
    """(X, y) of shapes (R, G, n, p) and (R, G, n), one fresh stream per
    key: (seed, 1, g) for group g's design and (seed, 2, g) for its
    noise, and one gemv per group for its responses."""
    R, G, n, p = len(seeds), spec.G, spec.n, spec.p
    X = np.empty((R, G, n, p))
    y = np.empty((R, G, n))
    eps = np.empty(n)
    for r, seed in enumerate(seeds):
        B = true_coefficients(replace(spec, seed=seed))
        for g in range(G):
            stream(seed, 1, g).standard_normal(out=X[r, g])
            stream(seed, 2, g).standard_normal(out=eps)
            y[r, g] = X[r, g] @ B[:, g] + spec.noise_sd * eps
    return X, y


def _parse_cell(raw, line_no, column):
    try:
        value = float(raw)
    except ValueError:
        problem = f"cannot parse {raw!r} as a number"
    else:
        if math.isfinite(value):
            return value
        problem = f"{raw!r} is not a finite number"
    raise CsvFormatError(
        f"line {line_no}, column {column!r}: {problem}", line=line_no, column=column)


def _csv_rows(path):
    """The csv.reader rows of path and the index of the first non-blank one."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except UnicodeDecodeError as err:
        byte = err.object[err.start]
        raise CsvFormatError(
            f"{path}: not UTF-8 text (byte 0x{byte:02x}: {err.reason})") from None
    for start, row in enumerate(rows):
        if "".join(row).strip():
            return rows, start
    raise CsvFormatError(f"{path}: empty file", line=1)


def _parse_rows(path, rows, start, columns, names, key=None):
    """Rows from start on as float lists, bucketed by the key cell."""
    width = len(names)
    buckets = {}
    for line_no, row in enumerate(rows[start:], start + 1):
        if not "".join(row).strip():
            continue
        try:
            if len(row) != width:
                raise CsvFormatError(
                    f"line {line_no}: expected {width} fields, got {len(row)}",
                    line=line_no,
                )
            values = [_parse_cell(row[j], line_no, names[j]) for j in columns]
        except CsvFormatError as err:
            raise CsvFormatError(f"{path}: {err}", err.line, err.column) from None
        buckets.setdefault(None if key is None else row[key], []).append(values)
    return buckets


def _load_table(path, grouped):
    rows, start = _csv_rows(path)
    header = rows[start]
    line = start + 1
    repeated = next((c for i, c in enumerate(header) if c in header[:i]), None)
    if repeated is not None:
        raise CsvFormatError(
            f"{path}: column {repeated!r} appears more than once", line=line)
    if grouped and "group" not in header:
        raise CsvFormatError(f"{path}: header must contain a 'group' column", line=line)
    if not grouped and "group" in header:
        raise CsvFormatError(
            f"{path}: per-group files must not contain a 'group' column", line=line)
    if "y" not in header:
        raise CsvFormatError(f"{path}: header must contain a 'y' column", line=line)
    predictors = [c for c in header if c not in ("group", "y")]
    if not predictors:
        raise CsvFormatError(f"{path}: no predictor columns found", line=line)
    columns = [header.index(c) for c in predictors] + [header.index("y")]
    key = header.index("group") if grouped else None
    buckets = _parse_rows(path, rows, start + 1, columns, header, key)
    if not buckets:
        raise CsvFormatError(f"{path}: no data rows", line=line + 1)
    groups = {}
    for label, values in buckets.items():
        table = np.array(values, dtype=float)
        groups[label] = (table[:, :-1], table[:, -1])
    return predictors, groups


def load_grouped_csv(path):
    """One CSV holding every group, tagged by a ``group`` column."""
    _, groups = _load_table(path, grouped=True)
    try:
        return GroupedDataset(tuple(groups.values()), labels=tuple(groups))
    except DimensionError as err:
        raise CsvFormatError(f"{path}: {err}") from None


def load_group_csvs(paths):
    """One CSV per group, labelled by its file name without extension."""
    paths = list(paths)
    expected = None
    groups = []
    labels = []
    for path in paths:
        predictors, table = _load_table(path, grouped=False)
        if expected is None:
            expected = predictors
        elif predictors != expected:
            raise CsvFormatError(
                f"{path}: predictor columns {predictors} differ from {expected}",
                line=1,
            )
        groups.append(table[None])
        labels.append(os.path.splitext(os.path.basename(path))[0])
    try:
        return GroupedDataset(tuple(groups), labels=tuple(labels))
    except DimensionError as err:
        named = " and ".join(str(paths[g]) for g in err.groups)
        raise CsvFormatError(f"{named}: {err}" if named else str(err)) from None


def split_groups(X, y, groups):
    """Split rows by group label, in order of first appearance.

    Returns (labels, parts): the labels as strings and parts a list of
    (X_g, y_g), one boolean mask per label. GroupedDataset checks the
    group sizes and labels.
    """
    groups = np.asarray(groups)
    if groups.ndim != 1:
        raise DimensionError("groups must be 1-dimensional")
    if groups.shape[0] != X.shape[0]:
        raise DimensionError(
            f"groups has {groups.shape[0]} entries but X has {X.shape[0]} rows")
    order = list(dict.fromkeys(groups.tolist()))
    parts = [(X[groups == label], y[groups == label]) for label in order]
    return tuple(str(label) for label in order), parts


def load_matrix_csv(path):
    """A headerless CSV grid of finite numbers as a 2-d array."""
    rows, start = _csv_rows(path)
    width = len(rows[start])
    buckets = _parse_rows(path, rows, start, range(width), range(1, width + 1))
    return np.array(buckets[None], dtype=float)
