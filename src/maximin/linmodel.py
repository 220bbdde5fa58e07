"""Grouped linear-regression data: synthetic generation, fitting, CSV input.

The data model is Y_g = X_g b_g + eps_g for groups g = 1..G, each group
carrying its own n x p design and length-n response, with eps_g drawn
i.i.d. normal(0, sigma^2 Id). All groups share n and p. Fitting yields
per-group least-squares coefficients (optionally with a ridge jitter on
the covariance diagonal), the pooled design covariance X^T X / (nG),
per-group covariances, and a pooled residual variance.

All randomness flows through counter-based Philox streams keyed by
(seed, purpose, group), so datasets are bit-reproducible for a given
seed and groups can be generated independently and in any order.
"""

import csv
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CsvFormatError, DimensionError, SingularFitError
from .validation import check_equal_sizes

COEFFICIENT_RULES = ("basis-vectors", "shared-plus-noise", "identical", "custom")
DESIGN_RULES = ("iid-normal", "per-group-scaled-normal")

# Relative pivot threshold for the factorization-based rank check.
_PIVOT_RTOL = 1e-12


def _stream(*key):
    """Independent generator for a namespaced integer key."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class GroupedDataset:
    """Per-group (design, response) pairs with shared dimensions.

    groups is a tuple of (X_g, y_g) arrays, X_g of shape (n, p) and y_g
    of shape (n,). labels names the groups; it defaults to g1, g2, ...
    """

    groups: tuple
    labels: tuple = ()

    def __post_init__(self):
        if len(self.groups) < 1:
            raise DimensionError("need at least one group")
        cleaned = []
        for g, pair in enumerate(self.groups):
            X, y = pair
            X = np.asarray(X, dtype=float)
            y = np.asarray(y, dtype=float)
            if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
                raise DimensionError(
                    f"group {g + 1}: design must be 2-d with one response per row"
                )
            cleaned.append((X, y))
        n, p = cleaned[0][0].shape
        if n < 1 or p < 1:
            raise DimensionError("need n >= 1 and p >= 1")
        for g, (X, _) in enumerate(cleaned):
            if X.shape != (n, p):
                raise DimensionError(
                    f"group {g + 1}: shape {X.shape} differs from {(n, p)};"
                    " all groups must share n and p"
                )
        object.__setattr__(self, "groups", tuple(cleaned))
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"g{g + 1}" for g in range(len(cleaned)))
            )
        elif len(self.labels) != len(cleaned):
            raise DimensionError("labels must match the number of groups")

    @property
    def G(self):
        return len(self.groups)

    @property
    def n(self):
        return self.groups[0][0].shape[0]

    @property
    def p(self):
        return self.groups[0][0].shape[1]

    def design_stack(self):
        """All designs stacked row-wise into an (nG) x p matrix."""
        return np.vstack([X for X, _ in self.groups])


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for a synthetic grouped dataset.

    coefficient_rule fixes the true p x G coefficient matrix given
    (p, G, seed): "basis-vectors" takes b_g = e_g, "identical" takes
    b_g = e_1, "shared-plus-noise" takes b_g = e_1 + z_g e_2 with z_g
    standard normal, and "custom" uses the coefficients field verbatim.
    design_rule "iid-normal" draws every design entry from one shared
    standard normal (the common-distribution scenario the asymptotics
    assume); "per-group-scaled-normal" gives each group its own scale.
    """

    p: int
    G: int
    n: int
    coefficient_rule: str = "basis-vectors"
    design_rule: str = "iid-normal"
    noise_sd: float = 1.0
    seed: int = 0
    ridge_jitter: float = 0.0
    coefficients: object = None

    def __post_init__(self):
        if self.p < 1 or self.G < 1 or self.n < 1:
            raise DimensionError("p, G and n must all be >= 1")
        if self.coefficient_rule not in COEFFICIENT_RULES:
            raise ValueError(f"unknown coefficient_rule {self.coefficient_rule!r}")
        if self.design_rule not in DESIGN_RULES:
            raise ValueError(f"unknown design_rule {self.design_rule!r}")
        if not self.noise_sd > 0:
            raise ValueError("noise_sd must be > 0")
        if self.ridge_jitter < 0:
            raise ValueError("ridge_jitter must be >= 0")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.coefficient_rule == "basis-vectors" and self.G > self.p:
            raise DimensionError("basis-vectors needs G <= p")
        if self.coefficient_rule == "shared-plus-noise" and self.p < 2:
            raise DimensionError("shared-plus-noise needs p >= 2")
        if self.coefficient_rule == "custom":
            B = np.asarray(self.coefficients, dtype=float)
            if B.shape != (self.p, self.G):
                raise DimensionError("custom coefficients must be p x G")
            object.__setattr__(self, "coefficients", B)


def true_coefficients(spec):
    """The p x G coefficient matrix a ScenarioSpec generates from."""
    p, G = spec.p, spec.G
    if spec.coefficient_rule == "basis-vectors":
        return np.eye(p)[:, :G].copy()
    if spec.coefficient_rule == "identical":
        B = np.zeros((p, G))
        B[0, :] = 1.0
        return B
    if spec.coefficient_rule == "shared-plus-noise":
        z = _stream(spec.seed, 0).standard_normal(G)
        B = np.zeros((p, G))
        B[0, :] = 1.0
        B[1, :] = z
        return B
    return spec.coefficients.copy()


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
    B0 = true_coefficients(spec)
    groups = []
    for g in range(spec.G):
        X = _stream(spec.seed, 1, g).standard_normal((spec.n, spec.p))
        if spec.design_rule == "per-group-scaled-normal":
            X = X * (1.0 + (g + 1) / (2.0 * spec.G))
        eps = _stream(spec.seed, 2, g).standard_normal(spec.n)
        y = X @ B0[:, g] + spec.noise_sd * eps
        groups.append((X, y))
    return GroupedDataset(tuple(groups)), B0


@dataclass(frozen=True)
class GroupEstimates:
    """Per-group fits plus pooled covariance and noise variance.

    Bhat stacks the fitted coefficient vectors as columns. Sigma_hat is
    the pooled design covariance X^T X / (nG) plus the jitter diagonal;
    Sigma_g_hat holds the per-group analogues. sigma2_approximate is
    True when p >= n forced the residual variance onto G*n degrees of
    freedom instead of the unbiased G*(n - p).
    """

    Bhat: np.ndarray
    Sigma_hat: np.ndarray
    Sigma_g_hat: tuple
    sigma2_hat: float
    ridge_jitter_used: float
    n: int
    sigma2_approximate: bool = False
    labels: tuple = ()

    @property
    def p(self):
        return self.Bhat.shape[0]

    @property
    def G(self):
        return self.Bhat.shape[1]


def fit(dataset, ridge_jitter=0.0):
    """Per-group least squares with an optional ridge jitter.

    Each coefficient vector solves (X_g^T X_g / n + jitter Id) b =
    X_g^T y_g / n. With jitter 0 a singular (or numerically rank-
    deficient) scatter raises SingularFitError naming the first such
    group. All groups go through one batched pass over the (G, n, p)
    stack: Grams, one Cholesky for the rank check, one solve. Sigma_hat
    is the mean of the group scatters, X^T X / (nG) + jitter Id.

    Parameters
    ----------
    dataset : GroupedDataset
    ridge_jitter : float
        Nonnegative diagonal loading applied to all covariances.

    Returns
    -------
    GroupEstimates
    """
    if ridge_jitter < 0:
        raise ValueError("ridge_jitter must be >= 0")
    n, p, G = dataset.n, dataset.p, dataset.G
    X = np.stack([X_g for X_g, _ in dataset.groups])
    y = np.stack([y_g for _, y_g in dataset.groups])
    Xt = X.transpose(0, 2, 1)
    S = (Xt @ X) / n + ridge_jitter * np.eye(p)
    rhs = (Xt @ y[:, :, None]) / n
    try:
        pivots = np.diagonal(np.linalg.cholesky(S), axis1=1, axis2=2) ** 2
        ok = pivots.min(axis=1) > _PIVOT_RTOL * pivots.max(axis=1)
    except np.linalg.LinAlgError:
        ok = np.zeros(G, dtype=bool)
    if not (ok.all() and np.isfinite(rhs).all()):
        _raise_first_failure(S, rhs, ok, dataset.labels)
    coef = np.linalg.solve(S, rhs)
    r = y - (X @ coef)[:, :, 0]
    rss = float(np.sum(r * r))
    approximate = p >= n
    dof = G * n if approximate else G * (n - p)
    sigma2 = rss / dof
    return GroupEstimates(
        Bhat=coef[:, :, 0].T,
        Sigma_hat=S.mean(axis=0),
        Sigma_g_hat=tuple(S),
        sigma2_hat=sigma2,
        ridge_jitter_used=float(ridge_jitter),
        n=n,
        sigma2_approximate=approximate,
        labels=dataset.labels,
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


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or not any(rows):
        raise CsvFormatError(f"{path}: empty file", line=1)
    return rows


def _parse_groups(rows, pred_idx, y_idx, g_idx=None):
    """Parse the data rows below the header into per-group columns.

    Returns {label: (X rows, y values)} in order of first appearance;
    the label is a row's g_idx cell, or None for every row when g_idx is
    None. Blank lines are skipped; a row with the wrong field count or a
    cell that is not a finite number raises CsvFormatError naming its line.
    """
    header = rows[0]
    buckets = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise CsvFormatError(
                f"line {line_no}: expected {len(header)} fields, got {len(row)}",
                line=line_no,
            )
        label = None if g_idx is None else row[g_idx]
        bucket = buckets.get(label)
        if bucket is None:
            bucket = buckets[label] = ([], [])
        bucket[0].append([_parse_cell(row[j], line_no, header[j]) for j in pred_idx])
        bucket[1].append(_parse_cell(row[y_idx], line_no, "y"))
    return buckets


def load_grouped_csv(path):
    """Read one CSV holding every group, tagged by a ``group`` column.

    The header row is required. The response column must be named ``y``;
    every remaining non-group column is a predictor, in header order.
    """
    rows = _read_rows(path)
    header = rows[0]
    if "group" not in header:
        raise CsvFormatError(f"{path}: header must contain a 'group' column", line=1)
    if "y" not in header:
        raise CsvFormatError(f"{path}: header must contain a 'y' column", line=1)
    g_idx = header.index("group")
    y_idx = header.index("y")
    predictors = [c for c in header if c not in ("group", "y")]
    if not predictors:
        raise CsvFormatError(f"{path}: no predictor columns found", line=1)
    pred_idx = [header.index(c) for c in predictors]
    buckets = _parse_groups(rows, pred_idx, y_idx, g_idx)
    if not buckets:
        raise CsvFormatError(f"{path}: no data rows", line=2)
    check_equal_sizes({label: len(y) for label, (_, y) in buckets.items()}, CsvFormatError)
    groups = tuple(
        (np.array(X, dtype=float), np.array(y, dtype=float)) for X, y in buckets.values()
    )
    return GroupedDataset(groups, labels=tuple(buckets))


def load_group_csvs(paths):
    """Read one CSV per group; files share the same predictor header."""
    expected = None
    groups = []
    labels = []
    for path in paths:
        rows = _read_rows(path)
        header = rows[0]
        if "group" in header:
            raise CsvFormatError(
                f"{path}: per-group files must not contain a 'group' column", line=1
            )
        if "y" not in header:
            raise CsvFormatError(f"{path}: header must contain a 'y' column", line=1)
        predictors = [c for c in header if c != "y"]
        if not predictors:
            raise CsvFormatError(f"{path}: no predictor columns found", line=1)
        if expected is None:
            expected = predictors
        elif predictors != expected:
            raise CsvFormatError(
                f"{path}: predictor columns {predictors} differ from {expected}",
                line=1,
            )
        y_idx = header.index("y")
        pred_idx = [header.index(c) for c in predictors]
        buckets = _parse_groups(rows, pred_idx, y_idx)
        if not buckets:
            raise CsvFormatError(f"{path}: no data rows", line=2)
        X_rows, y_vals = buckets[None]
        groups.append((np.array(X_rows), np.array(y_vals)))
        labels.append(os.path.splitext(os.path.basename(path))[0])
    sizes = {lab: g[0].shape[0] for lab, g in zip(labels, groups)}
    check_equal_sizes(sizes, CsvFormatError)
    return GroupedDataset(tuple(groups), labels=tuple(labels))
