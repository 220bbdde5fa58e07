"""Row-oriented estimator front end."""

import numpy as np
import pytest

from maximin import linmodel
from maximin.errors import DimensionError
from maximin.estimator import MaximinEstimator
from maximin.linmodel import ScenarioSpec, generate
from maximin.pipeline import analyze_dataset


def _rows(spec):
    ds, B0 = generate(spec)
    X = ds.design_stack()
    y = np.concatenate([yg for _, yg in ds.groups])
    labels = np.repeat([f"g{i + 1}" for i in range(ds.G)], ds.n)
    return ds, X, y, labels


def test_fit_matches_the_functional_pipeline():
    ds, X, y, labels = _rows(ScenarioSpec(p=3, G=3, n=120, seed=21))
    est = MaximinEstimator().fit(X, y, labels)
    reference = analyze_dataset(ds)
    assert np.allclose(est.coef_, reference.solution.M)
    assert np.allclose(est.weights_, reference.solution.alpha)
    assert est.groups_ == ("g1", "g2", "g3")
    assert est.active_ == tuple(f"g{g + 1}" for g in reference.solution.active)
    assert est.n_features_in_ == 3


def test_group_order_follows_first_appearance():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    y = np.array([1.0, 0.5, 2.0, 3.0])
    est = MaximinEstimator().fit(X, y, np.array([7, 7, 3, 3]))
    assert est.groups_ == ("7", "3")


def test_predict_applies_the_coefficients():
    _, X, y, labels = _rows(ScenarioSpec(p=3, G=3, n=60, seed=22))
    est = MaximinEstimator().fit(X, y, labels)
    Xnew = np.eye(3)
    assert np.allclose(est.predict(Xnew), est.coef_)
    with pytest.raises(ValueError):
        est.predict(np.ones((2, 5)))


def test_predict_refuses_what_is_not_a_finite_matrix():
    # DimensionError is not a ValueError: each refusal keeps its own type
    _, X, y, labels = _rows(ScenarioSpec(p=3, G=3, n=60, seed=22))
    est = MaximinEstimator().fit(X, y, labels)
    with pytest.raises(DimensionError, match="X must be 2-dimensional, got ndim=1"):
        est.predict(np.ones(3))
    for bad in (np.nan, np.inf):
        Xnew = np.eye(3)
        Xnew[1, 2] = bad
        with pytest.raises(ValueError, match="X contains NaN or infinite entries") as info:
            est.predict(Xnew)
        assert type(info.value) is ValueError


def test_unfitted_estimator_refuses_to_predict():
    with pytest.raises(ValueError):
        MaximinEstimator().predict(np.ones((1, 2)))
    with pytest.raises(ValueError):
        MaximinEstimator().confidence_region()


def test_params_round_trip_and_cloning():
    est = MaximinEstimator(alpha=0.1, ridge_jitter=1e-5)
    params = est.get_params()
    assert params["alpha"] == 0.1
    clone = MaximinEstimator(**params)
    assert clone.get_params() == params
    est.set_params(alpha=0.2)
    assert est.alpha == 0.2
    with pytest.raises(ValueError):
        est.set_params(gamma=1.0)


def test_confidence_region_and_covariance_attribute():
    _, X, y, labels = _rows(ScenarioSpec(p=3, G=3, n=200, seed=23))
    est = MaximinEstimator().fit(X, y, labels)
    region = est.confidence_region()
    assert region.level == 0.95
    assert np.allclose(region.center, est.coef_)
    assert est.covariance_.W.shape == (3, 3)
    wider = est.confidence_region(alpha=0.01)
    assert wider.radius2 > region.radius2


def test_confidence_region_reuses_the_fit(monkeypatch):
    ds, X, y, labels = _rows(ScenarioSpec(p=3, G=3, n=200, seed=25))
    est = MaximinEstimator().fit(X, y, labels)
    expected = analyze_dataset(ds).region

    def refit(*args, **kwargs):
        raise AssertionError("confidence_region refit the data")

    monkeypatch.setattr(linmodel, "fit", refit)
    region = est.confidence_region()
    for field in ("center", "precision", "eigenvalues", "axes"):
        assert np.array_equal(getattr(region, field), getattr(expected, field))
    assert region.radius2 == expected.radius2
    assert region.flags == expected.flags


def test_known_metric_switch():
    _, X, y, labels = _rows(ScenarioSpec(p=2, G=2, n=150, seed=24))
    est = MaximinEstimator(known_sigma=np.eye(2)).fit(X, y, labels)
    region = est.confidence_region()
    assert region.flags["known_sigma"]
    assert np.array_equal(est.covariance_.term_V, np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        MaximinEstimator(known_sigma=np.eye(3)).fit(X, y, labels)
    with pytest.raises(ValueError, match="known_sigma contains NaN or infinite entries"):
        MaximinEstimator(known_sigma=[[1.0, np.nan], [np.nan, 1.0]]).fit(X, y, labels)


def test_input_validation():
    X = np.ones((4, 2))
    y = np.ones(4)
    g = np.array(["a", "a", "b", "b"])
    with pytest.raises(DimensionError):
        MaximinEstimator().fit(np.ones(4), y, g)
    with pytest.raises(ValueError):
        MaximinEstimator().fit(X * np.nan, y, g)
    with pytest.raises(DimensionError):
        MaximinEstimator().fit(X, np.ones(3), g)
    with pytest.raises(DimensionError):
        MaximinEstimator().fit(X, y, np.array(["a", "a", "a", "b"]))
    with pytest.raises(DimensionError):
        MaximinEstimator().fit(X, y, np.ones((2, 2)))
