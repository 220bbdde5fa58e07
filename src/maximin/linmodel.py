"""Grouped linear-regression data: synthetic generation, fitting, CSV input.

The data model is Y_g = X_g b_g + eps_g for groups g = 1..G, each group
carrying its own n x p design and length-n response, with eps_g drawn
i.i.d. normal(0, sigma^2 Id). All groups share n and p, so the data
are one (G, n, p) design stack. Fitting yields
per-group least-squares coefficients (optionally with a ridge jitter on
the covariance diagonal), the pooled design covariance X^T X / (nG),
the (G, p, p) per-group covariances, and a pooled residual variance.

All randomness flows through counter-based Philox streams keyed by
(seed, purpose, group), so datasets are bit-reproducible for a given
seed and groups can be generated independently and in any order.
generate_stack draws many seeds' datasets into one (R, G, n, p) stack
and fit_stack fits such a stack in one batched pass; generate and fit
are their stacks of one.
"""

import csv
import math
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import CsvFormatError, DimensionError, SingularFitError
from .geometry import nan_where_singular

COEFFICIENT_RULES = ("basis-vectors", "shared-plus-noise", "identical")

# Relative pivot threshold for the factorization-based rank check.
_PIVOT_RTOL = 1e-12


def _stream(*key):
    """Independent generator for a namespaced integer key."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class GroupedDataset:
    """Per-group (X_g, y_g) pairs, stacked once into read-only arrays.

    groups holds (X_g, y_g) pairs, X_g of shape (n, p) and y_g of shape
    (n,); labels names the groups, g1, g2, ... by default. Groups of
    unequal size and repeated labels raise DimensionError. X (G, n, p)
    and y (G, n) are the stacks; groups then holds views of them.
    """

    groups: tuple
    labels: tuple = ()
    X: np.ndarray = field(init=False, repr=False, compare=False)
    y: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pairs = [(np.asarray(X, dtype=float), np.asarray(y, dtype=float))
                 for X, y in self.groups]
        if not pairs:
            raise DimensionError("need at least one group")
        labels = tuple(self.labels) or tuple(f"g{g + 1}" for g in range(len(pairs)))
        if len(labels) != len(pairs):
            raise DimensionError("labels must match the number of groups")
        for g, (X, y) in enumerate(pairs):
            if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
                raise DimensionError(
                    f"group {g + 1}: design must be 2-d with one response per row"
                )
        if len({len(y) for _, y in pairs}) > 1:
            detail = ", ".join(f"{k}={len(y)}" for k, (_, y) in zip(labels, pairs))
            raise DimensionError(f"groups must have equal sizes, got {detail}")
        if len({X.shape[1] for X, _ in pairs}) > 1:
            raise DimensionError("all groups must share the predictor count p")
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise DimensionError(f"group label {label!r} appears more than once",
                                     groups=(labels.index(label), i))
        X = np.stack([X for X, _ in pairs])
        y = np.stack([y for _, y in pairs])
        if X.shape[1] < 1 or X.shape[2] < 1:
            raise DimensionError("need n >= 1 and p >= 1")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "groups", tuple(zip(X, y)))
        object.__setattr__(self, "labels", labels)

    @property
    def G(self):
        return self.X.shape[0]

    @property
    def n(self):
        return self.X.shape[1]

    @property
    def p(self):
        return self.X.shape[2]

    def design_stack(self):
        """All designs stacked row-wise, an (nG) x p view of X."""
        return self.X.reshape(-1, self.p)


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for a synthetic grouped dataset.

    coefficient_rule fixes the true p x G coefficient matrix given
    (p, G, seed): "basis-vectors" takes b_g = e_g, "identical" takes
    b_g = e_1, and "shared-plus-noise" takes b_g = e_1 + z_g e_2 with
    z_g standard normal. Every design entry is an independent standard
    normal, the common-distribution scenario the asymptotics assume.
    """

    p: int
    G: int
    n: int
    coefficient_rule: str = "basis-vectors"
    noise_sd: float = 1.0
    seed: int = 0
    ridge_jitter: float = 0.0

    def __post_init__(self):
        if self.p < 1 or self.G < 1 or self.n < 1:
            raise DimensionError("p, G and n must all be >= 1")
        if self.coefficient_rule not in COEFFICIENT_RULES:
            raise ValueError(f"unknown coefficient_rule {self.coefficient_rule!r}")
        if not 0 < self.noise_sd < math.inf:
            raise ValueError("noise_sd must be finite and > 0")
        if not 0 <= self.ridge_jitter < math.inf:
            raise ValueError("ridge_jitter must be finite and >= 0")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.coefficient_rule == "basis-vectors" and self.G > self.p:
            raise DimensionError("basis-vectors needs G <= p")
        if self.coefficient_rule == "shared-plus-noise" and self.p < 2:
            raise DimensionError("shared-plus-noise needs p >= 2")


def true_coefficients(spec):
    """The p x G coefficient matrix a ScenarioSpec generates from."""
    p, G = spec.p, spec.G
    if spec.coefficient_rule == "basis-vectors":
        return np.eye(p)[:, :G].copy()
    if spec.coefficient_rule == "identical":
        B = np.zeros((p, G))
        B[0, :] = 1.0
        return B
    z = _stream(spec.seed, 0).standard_normal(G)
    B = np.zeros((p, G))
    B[0, :] = 1.0
    B[1, :] = z
    return B


def generate_stack(spec, seeds):
    """Draw the datasets of one scenario at several seeds, stacked.

    Returns (X, y), shapes (R, G, n, p) and (R, G, n) for R seeds.
    Replicate r is bitwise equal to the stacks of
    ``generate(replace(spec, seed=seeds[r]))``: each group's design and
    noise come from their own Philox streams keyed by (seed, purpose,
    group), drawn straight into the stack.
    """
    R, G, n, p = len(seeds), spec.G, spec.n, spec.p
    X = np.empty((R, G, n, p))
    y = np.empty((R, G, n))
    eps = np.empty(n)
    B0 = None if spec.coefficient_rule == "shared-plus-noise" else true_coefficients(spec)
    for r, seed in enumerate(seeds):
        B = B0 if B0 is not None else true_coefficients(replace(spec, seed=seed))
        for g in range(G):
            _stream(seed, 1, g).standard_normal(out=X[r, g])
            _stream(seed, 2, g).standard_normal(out=eps)
            y[r, g] = X[r, g] @ B[:, g] + spec.noise_sd * eps
    return X, y


def generate(spec):
    """Draw a synthetic grouped dataset.

    Parameters
    ----------
    spec : ScenarioSpec

    Returns
    -------
    (GroupedDataset, ndarray)
        The dataset and the true p x G coefficient matrix used.
    """
    X, y = generate_stack(spec, [spec.seed])
    return GroupedDataset(tuple(zip(X[0], y[0]))), true_coefficients(spec)


@dataclass(frozen=True)
class GroupEstimates:
    """Per-group fits plus pooled covariance and noise variance.

    Bhat stacks the fitted coefficient vectors as columns. Sigma_hat is
    the pooled design covariance X^T X / (nG) plus the jitter diagonal;
    Sigma_g_hat is the (G, p, p) stack of per-group analogues.
    sigma2_approximate is
    True when p >= n forced the residual variance onto G*n degrees of
    freedom instead of the unbiased G*(n - p).
    """

    Bhat: np.ndarray
    Sigma_hat: np.ndarray
    Sigma_g_hat: np.ndarray
    sigma2_hat: float
    ridge_jitter_used: float
    n: int
    sigma2_approximate: bool = False

    @property
    def p(self):
        return self.Bhat.shape[0]

    @property
    def G(self):
        return self.Bhat.shape[1]


class StackFit(NamedTuple):
    """Least-squares fits of a (..., G, n, p) stack of grouped data.

    coef (..., G, p) holds each group's coefficients, S (..., G, p, p)
    the scatters X_g^T X_g / n plus the jitter diagonal, rhs
    (..., G, p, 1) the moments X_g^T y_g / n, sigma2 (...) the pooled
    residual variances and pivots_ok (..., G) the per-group rank check.
    ok (...) marks the datasets whose every group passes it with finite
    input; coef and sigma2 are NaN for the others.
    """

    coef: np.ndarray
    S: np.ndarray
    rhs: np.ndarray
    sigma2: np.ndarray
    pivots_ok: np.ndarray
    ok: np.ndarray

    @property
    def Bhat(self):
        """The coefficient vectors as columns, (..., p, G)."""
        return self.coef.swapaxes(-1, -2)

    @property
    def Sigma_hat(self):
        """The pooled design covariances, (..., p, p)."""
        return self.S.mean(axis=-3)


def fit_stack(X, y, ridge_jitter=0.0):
    """Per-group least squares over a (..., G, n, p) stack of datasets.

    One batched pass: Grams, one Cholesky for the rank check (a pivot
    ratio at or below _PIVOT_RTOL fails it), one solve for the datasets
    that pass, and the residual variance on G (n - p) degrees of
    freedom, or G n when p >= n. Returns a StackFit.
    """
    G, n, p = X.shape[-3:]
    Xt = X.swapaxes(-1, -2)
    S = (Xt @ X) / n + ridge_jitter * np.eye(p)
    rhs = (Xt @ y[..., None]) / n
    with np.errstate(invalid="ignore"):
        pivots = np.diagonal(nan_where_singular(np.linalg.cholesky, S),
                             axis1=-2, axis2=-1) ** 2
        pivots_ok = pivots.min(axis=-1) > _PIVOT_RTOL * pivots.max(axis=-1)
    ok = pivots_ok.all(axis=-1) & np.isfinite(rhs).all(axis=(-3, -2, -1))
    coef = np.full(S.shape[:-1], np.nan)
    sigma2 = np.full(S.shape[:-3], np.nan)
    if ok.any():
        sel = Ellipsis if ok.all() else ok  # a view, not a copy, when all pass
        sol = np.linalg.solve(S[sel], rhs[sel])
        r = y[sel] - (X[sel] @ sol)[..., 0]
        dof = G * n if p >= n else G * (n - p)
        coef[sel] = sol[..., 0]
        sigma2[sel] = np.sum(r * r, axis=(-2, -1)) / dof
    return StackFit(coef, S, rhs, sigma2, pivots_ok, ok)


def fit(dataset, ridge_jitter=0.0):
    """Per-group least squares with an optional ridge jitter.

    Each coefficient vector solves (X_g^T X_g / n + jitter Id) b =
    X_g^T y_g / n. With jitter 0 a singular (or numerically rank-
    deficient) scatter raises SingularFitError naming the first such
    group. The dataset goes through fit_stack as a stack of one.
    Sigma_hat is the mean of the group scatters, X^T X / (nG) + jitter Id.

    Parameters
    ----------
    dataset : GroupedDataset
    ridge_jitter : float
        Finite nonnegative diagonal loading applied to all covariances.

    Returns
    -------
    GroupEstimates
    """
    if not 0 <= ridge_jitter < math.inf:
        raise ValueError("ridge_jitter must be finite and >= 0")
    fitted = fit_stack(dataset.X[None], dataset.y[None], ridge_jitter)
    if not fitted.ok[0]:
        _raise_first_failure(
            fitted.S[0], fitted.rhs[0], fitted.pivots_ok[0], dataset.labels)
    return GroupEstimates(
        Bhat=fitted.Bhat[0],
        Sigma_hat=fitted.Sigma_hat[0],
        Sigma_g_hat=fitted.S[0],
        sigma2_hat=float(fitted.sigma2[0]),
        ridge_jitter_used=float(ridge_jitter),
        n=dataset.n,
        sigma2_approximate=dataset.p >= dataset.n,
    )


def _raise_first_failure(S, rhs, ok, labels):
    """Raise what the first failing group of a fit raises.

    Runs the checks group by group, in order: a scatter that cannot be
    factored is singular, a pivot ratio at or below _PIVOT_RTOL is
    numerically rank-deficient, and non-finite input raises ValueError.
    ok is the batched pivot verdict: should every group pass the per-
    group checks, the first group ok fails is reported as rank-deficient.
    """
    for g, S_g in enumerate(S):
        try:
            factor = scipy.linalg.cho_factor(S_g, lower=True)
        except scipy.linalg.LinAlgError:
            raise SingularFitError(
                f"group {labels[g]}: design scatter is singular;"
                " a positive ridge_jitter is required",
                group=labels[g],
            ) from None
        pivots = np.abs(np.diag(factor[0])) ** 2
        if pivots.min() <= _PIVOT_RTOL * pivots.max():
            _rank_deficient(labels[g])
        np.asarray_chkfinite(rhs[g])
    _rank_deficient(labels[int(np.argmin(ok))])


def _rank_deficient(label):
    raise SingularFitError(
        f"group {label}: design scatter is numerically rank-deficient",
        group=label,
    )


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


def _read_table(path):
    """The CSV rows of path and the index of its first non-blank row.

    A blank row holds nothing but whitespace; an empty line is one.
    Bytes that are not UTF-8 and a file without a non-blank row raise
    CsvFormatError naming path.
    """
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
    """Parse rows[start:] into lists of floats, bucketed by a key cell.

    Every row must have len(names) fields. A row yields the numbers in
    its ``columns`` cells, in that order, and goes to the bucket named
    by its ``key`` cell (None for every row when key is None); buckets
    keep the order of first appearance. Blank rows are skipped; a row
    is tested for blankness only when it fails to parse, so the common
    path pays nothing for the test. Any other row with the wrong field
    count, or with a cell that is not a finite number, raises
    CsvFormatError naming path, the line and the cell's ``names`` entry.
    """
    width = len(names)
    buckets = {}
    for line_no, row in enumerate(rows[start:], start + 1):
        try:
            if len(row) != width:
                raise CsvFormatError(
                    f"line {line_no}: expected {width} fields, got {len(row)}",
                    line=line_no,
                )
            values = [_parse_cell(row[j], line_no, names[j]) for j in columns]
        except CsvFormatError as err:
            if not "".join(row).strip():
                continue
            raise CsvFormatError(f"{path}: {err}", err.line, err.column) from None
        label = None if key is None else row[key]
        bucket = buckets.get(label)
        if bucket is None:
            bucket = buckets[label] = []
        bucket.append(values)
    return buckets


def _load_table(path, grouped):
    """The predictor names and per-group (X, y) arrays of one data CSV.

    The first non-blank row is the header. Its names must be distinct,
    one must be ``y`` and at least one other must be a predictor. A
    grouped file needs a ``group`` column and a per-group file must not
    have one. Returns (predictors, {label: (X, y)}) with labels in order
    of first appearance; a per-group file's only label is None.
    """
    rows, start = _read_table(path)
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
    """Read one CSV holding every group, tagged by a ``group`` column.

    The header row is required. The response column must be named ``y``;
    every remaining non-group column is a predictor, in header order.
    """
    _, groups = _load_table(path, grouped=True)
    try:
        return GroupedDataset(tuple(groups.values()), labels=tuple(groups))
    except DimensionError as err:
        raise CsvFormatError(f"{path}: {err}") from None


def load_group_csvs(paths):
    """Read one CSV per group, labelled by its file name without extension.

    The files share one predictor header. Two files with one name (in
    different folders) are refused with a CsvFormatError naming both.
    """
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


def load_matrix_csv(path):
    """Read a headerless CSV grid of finite numbers as a 2-d array.

    The rows share the field count of the first non-blank one; blank
    rows are skipped and errors name path, line and column number, as
    for the data loaders. The CLI reads ``--known-sigma`` with it.
    """
    rows, start = _read_table(path)
    width = len(rows[start])
    buckets = _parse_rows(path, rows, start, range(width), range(1, width + 1))
    return np.array(buckets[None], dtype=float)
