"""Invariances of the full analysis: group labels, response scale, design basis.

Each property runs analyze_dataset on a generated dataset and on a
transformed copy, and compares the maximin point M and the covariance W
with what the transformation implies. Draws the analysis rejects as
degenerate are skipped; the transformed copy must then analyze too.
Rescaling the design's columns, X -> XA with A = diag(d) or Q diag(d)
of condition number up to 1e16 or 1e8, is checked on M and W from
estimate_dataset, empirical_C and assemble_W: the region's relative
eigenvalue-ratio test on W still refuses such scales.
"""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from maximin.asymvar import assemble_W, empirical_C
from maximin.errors import EstimationError
from maximin.linmodel import GroupedDataset, ScenarioSpec, generate
from maximin.pipeline import analyze_dataset, estimate_dataset

_RTOL = 1e-10
# X -> XA passes through A^{-1} twice; A's condition number is at most 4.
_RTOL_REPARAM = 1e-8

datasets = st.builds(
    lambda p, rule, n, seed: generate(
        ScenarioSpec(p=p, G=p, n=n, coefficient_rule=rule, seed=seed))[0],
    p=st.integers(2, 4),
    rule=st.sampled_from(["basis-vectors", "shared-plus-noise", "identical"]),
    n=st.integers(20, 200),
    seed=st.integers(0, 2**32 - 1),
)


def _analyze(dataset):
    try:
        return analyze_dataset(dataset)
    except EstimationError:
        reject()


def _rel(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(dataset=datasets, data=st.data())
def test_relabelling_groups_permutes_the_weights(dataset, data):
    base = _analyze(dataset)
    perm = data.draw(st.permutations(range(dataset.G)))
    relabelled = analyze_dataset(GroupedDataset(
        tuple(dataset.groups[g] for g in perm),
        labels=tuple(dataset.labels[g] for g in perm),
    ))
    assert _rel(relabelled.solution.alpha, base.solution.alpha[list(perm)]) <= _RTOL
    assert _rel(relabelled.solution.M, base.solution.M) <= _RTOL
    assert _rel(relabelled.covariance.W, base.covariance.W) <= _RTOL


@settings(max_examples=10, deadline=None, derandomize=True)
@given(dataset=datasets, c=st.builds(lambda e, sign: sign * 10.0**e,
                                      st.floats(-12.0, 12.0), st.sampled_from([1.0, -1.0])))
def test_scaling_the_response_scales_M_and_W(dataset, c):
    base = _analyze(dataset)
    scaled = analyze_dataset(GroupedDataset(
        tuple((X, c * y) for X, y in dataset.groups), labels=dataset.labels))
    assert _rel(scaled.solution.M, c * base.solution.M) <= _RTOL
    assert _rel(scaled.covariance.W, c**2 * base.covariance.W) <= _RTOL


@settings(max_examples=10, deadline=None, derandomize=True)
@given(dataset=datasets, seed=st.integers(0, 2**32 - 1))
def test_reparametrising_the_design_maps_the_ellipsoid(dataset, seed):
    base = _analyze(dataset)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((dataset.p, dataset.p)))
    A = Q * rng.uniform(0.5, 2.0, dataset.p)
    moved = analyze_dataset(GroupedDataset(
        tuple((X @ A, y) for X, y in dataset.groups), labels=dataset.labels))
    A_inv = np.linalg.inv(A)
    assert _rel(moved.solution.M, A_inv @ base.solution.M) <= _RTOL_REPARAM
    assert _rel(moved.covariance.W, A_inv @ base.covariance.W @ A_inv.T) <= _RTOL_REPARAM


def _covariance(dataset):
    """M and W of a dataset without the region's spectrum test."""
    estimates, solution, metric = estimate_dataset(dataset)
    C_hat = empirical_C(dataset.design_stack(), solution.M, dataset.G)
    return solution, assemble_W(estimates, solution, C_hat, Sigma=metric).W


@settings(max_examples=10, deadline=None, derandomize=True)
@given(dataset=datasets, rotate=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_rescaling_the_design_columns_rescales_M(dataset, rotate, seed):
    try:
        base, W = _covariance(dataset)
    except EstimationError:
        reject()
    rng = np.random.default_rng(seed)
    span = 4.0 if rotate else 8.0
    A = np.diag(10.0 ** rng.uniform(-span, span, dataset.p))
    if rotate:
        A = np.linalg.qr(rng.standard_normal(A.shape))[0] @ A
    scaled, W_scaled = _covariance(GroupedDataset(
        tuple((X @ A, y) for X, y in dataset.groups), labels=dataset.labels))
    assert _rel(A @ scaled.M, base.M) <= _RTOL
    assert np.max(np.abs(scaled.alpha - base.alpha)) <= _RTOL
    assert scaled.unique_weights == base.unique_weights
    scale = np.sqrt(np.outer(np.diag(W), np.diag(W)))
    assert np.max(np.abs(A @ W_scaled @ A.T - W) / scale) <= _RTOL
