"""Input validation helpers for array-facing entry points."""

import numpy as np

from .errors import DimensionError


def as_float_matrix(X, name="X"):
    """Coerce to a finite 2-d float array or raise."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={X.ndim}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise DimensionError(f"{name} must be nonempty")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    return X


def as_float_vector(v, name="y"):
    """Coerce to a finite 1-d float array or raise."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-dimensional, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    return v


def check_same_length(n_rows, v, name="y"):
    if v.shape[0] != n_rows:
        raise DimensionError(
            f"{name} has {v.shape[0]} entries but X has {n_rows} rows"
        )


def split_groups(X, y, groups):
    """Split rows by group label, in order of first appearance.

    Returns (labels, parts): the labels as strings and parts a list of
    (X_g, y_g). GroupedDataset checks the group sizes and labels.
    """
    groups = np.asarray(groups)
    if groups.ndim != 1:
        raise DimensionError("groups must be 1-dimensional")
    check_same_length(X.shape[0], groups, "groups")
    order = list(dict.fromkeys(groups.tolist()))
    parts = [(X[groups == label], y[groups == label]) for label in order]
    return tuple(str(label) for label in order), parts


def as_spd_matrix(S, p, name="known_sigma"):
    """Validate shape and finiteness of a user-supplied metric.

    Symmetry and definiteness are checked where the metric is factorised
    (``SigmaMetric``), which raises DefinitenessError.
    """
    S = np.asarray(S, dtype=float)
    if S.shape != (p, p):
        raise DimensionError(f"{name} must be {p} x {p}, got {S.shape}")
    if not np.all(np.isfinite(S)):
        raise ValueError(f"{name} contains NaN or infinite entries")
    return S
