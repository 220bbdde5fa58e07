"""Estimator-style front end over the functional core.

MaximinEstimator follows the fit/predict convention: construct with
hyperparameters only, call fit(X, y, groups) with row-wise data and a
group label per row, then read fitted attributes (trailing underscore)
or ask for a confidence region. get_params and set_params make the
class clone-friendly for pipeline tooling.
"""

import numpy as np

from . import pipeline
from .linmodel import GroupedDataset
from .validation import (
    as_float_matrix,
    as_float_vector,
    as_spd_matrix,
    check_same_length,
    split_groups,
)


class MaximinEstimator:
    """Maximin-effect regression over grouped data.

    Parameters
    ----------
    alpha : float
        Miscoverage level used by confidence_region.
    ridge_jitter : float
        Nonnegative diagonal loading for the per-group fits and the
        pooled covariance; 0 means plain least squares.
    known_sigma : array-like or None
        Exact design covariance, if available. Supplying it switches
        all geometry onto this metric and drops the metric-fluctuation
        part of the asymptotic covariance.

    Attributes
    ----------
    coef_ : ndarray
        The maximin point; predict uses it.
    weights_ : ndarray
        Convex combination weights over groups.
    active_ : tuple
        Labels of groups with weight above magging.ACTIVITY_THRESHOLD.
    estimates_ : GroupEstimates
    solution_ : MaggingSolution
    groups_ : tuple of group labels in fit order.
    """

    _parameter_names = ("alpha", "ridge_jitter", "known_sigma")

    def __init__(self, alpha=0.05, ridge_jitter=0.0, known_sigma=None):
        self.alpha = alpha
        self.ridge_jitter = ridge_jitter
        self.known_sigma = known_sigma

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._parameter_names}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self._parameter_names:
                raise ValueError(
                    f"unknown parameter {name!r}; valid parameters are"
                    f" {self._parameter_names}"
                )
            setattr(self, name, value)
        return self

    def fit(self, X, y, groups):
        """Fit per-group least squares and solve the maximin program.

        Parameters
        ----------
        X : array-like, shape (N, p)
        y : array-like, shape (N,)
        groups : array-like, shape (N,)
            Group label per row; groups must have equal sizes.
        """
        X = as_float_matrix(X)
        y = as_float_vector(y)
        check_same_length(X.shape[0], y)
        labels, parts = split_groups(X, y, groups)
        dataset = GroupedDataset(tuple(parts), labels=labels)
        sigma = self.known_sigma
        if sigma is not None:
            sigma = as_spd_matrix(sigma, dataset.p)
        estimates, solution, metric = pipeline.estimate_dataset(
            dataset, ridge_jitter=self.ridge_jitter, known_sigma=sigma
        )
        self._dataset = dataset
        self._known_sigma = sigma
        self._metric = metric
        self.groups_ = labels
        self.estimates_ = estimates
        self.solution_ = solution
        self.sigma_used_ = metric.Sigma
        self.coef_ = solution.M.copy()
        self.weights_ = solution.alpha.copy()
        self.active_ = tuple(labels[g] for g in solution.active)
        self.n_features_in_ = dataset.p
        return self

    def _check_fitted(self):
        if not hasattr(self, "coef_"):
            raise ValueError("this estimator is not fitted yet; call fit first")

    def predict(self, X):
        """Predicted responses X @ coef_."""
        self._check_fitted()
        X = as_float_matrix(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.n_features_in_}"
            )
        return X @ self.coef_

    def confidence_region(self, alpha=None):
        """Confidence ellipsoid for the true maximin effect.

        Runs the covariance assembly on the data, fit, solution and
        factorised metric from fit time; nothing is refit. alpha
        defaults to the constructor value.
        """
        self._check_fitted()
        level = self.alpha if alpha is None else alpha
        covariance, region = pipeline.infer(
            self._dataset,
            self.estimates_,
            self.solution_,
            self._metric,
            level,
            self._known_sigma,
        )
        self.covariance_ = covariance
        return region
