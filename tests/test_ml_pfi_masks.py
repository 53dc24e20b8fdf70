"""Differential suite: permutation importance by leaf bitmasks against traversal.

A :class:`~repro.ml.gbdt.GradientBoostingRegressor` answers every shuffled
prediction of :func:`~repro.ml.permutation_importance.permutation_importance`
from per-tree leaf bitmasks (``predict_permuted``).  Wrapping the same model in an
object that exposes only ``predict`` sends it down the generic path, one
ensemble traversal per shuffle.  Both must agree bit for bit: on the importance
matrix, on the baseline score, and on every shuffled prediction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.gbdt import GradientBoostingRegressor
from repro.ml.permutation_importance import permutation_importance, shuffled_predictions
from repro.ml.tree import MASK_LEAVES


class _PredictOnly:
    """A model with nothing but ``predict``: the generic PFI path."""

    def __init__(self, model: GradientBoostingRegressor):
        self.predict = model.predict


def _mixed_data(n: int = 500, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """Integer, many-valued (quantile-binned) and interacting columns."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 8, n)
    b = rng.integers(0, 5, n)
    c = np.round(rng.normal(size=n), 3)
    d = rng.integers(0, 3, n)
    X = np.column_stack([a, b, c, d]).astype(float)
    y = 2.0 * a + b * c - 3.0 * (d == 1) + 0.3 * rng.standard_normal(n)
    return X, y


def _leaf_counts(model: GradientBoostingRegressor) -> list[int]:
    return [(tree._tree.feature < 0).sum() for tree in model._trees]


def _assert_paths_agree(model: GradientBoostingRegressor, X: np.ndarray, y: np.ndarray,
                        n_repeats: int = 3, seed: int = 5) -> None:
    masked = permutation_importance(model, X, y, n_repeats=n_repeats, random_state=seed)
    generic = permutation_importance(_PredictOnly(model), X, y, n_repeats=n_repeats,
                                     random_state=seed)
    assert np.array_equal(masked.importances, generic.importances)
    assert masked.baseline_score == generic.baseline_score

    rng = np.random.default_rng(seed)
    permutations = np.array([rng.permutation(len(y)) for _ in range(X.shape[1] * n_repeats)]
                            ).reshape(X.shape[1], n_repeats, len(y))
    predicted, shuffled = model.predict_permuted(X, permutations)
    assert np.array_equal(predicted, model.predict(X))
    expected = list(shuffled_predictions(model.predict, X, permutations))
    assert np.array_equal(shuffled, np.reshape(expected, shuffled.shape))


@pytest.mark.parametrize("depth", range(1, 9))
def test_depths_match_traversal(depth):
    X, y = _mixed_data()
    model = GradientBoostingRegressor(n_estimators=12, learning_rate=0.2, max_depth=depth,
                                      random_state=0).fit(X, y)
    leaves = _leaf_counts(model)
    # Depth 6 is the 64-leaf boundary; 7 and 8 grow trees past it, which predict
    # the shuffles by traversal, tree by tree, amid masked trees.
    if depth <= 6:
        assert max(leaves) <= MASK_LEAVES
    else:
        assert max(leaves) > MASK_LEAVES
    _assert_paths_agree(model, X, y)


@pytest.mark.parametrize("params", [{"subsample": 0.7, "random_state": 3},
                                    {"max_bins": 8, "random_state": 0}],
                         ids=["subsample", "max_bins_8"])
def test_stochastic_and_coarse_binned_ensembles(params):
    X, y = _mixed_data()
    model = GradientBoostingRegressor(n_estimators=15, max_depth=5, **params).fit(X, y)
    _assert_paths_agree(model, X, y)


def test_constant_target_single_leaf_trees():
    X, _ = _mixed_data()
    y = np.full(len(X), 1.25)
    model = GradientBoostingRegressor(n_estimators=5, max_depth=3, random_state=0).fit(X, y)
    assert _leaf_counts(model) == [1] * 5
    _assert_paths_agree(model, X, y)


def test_constant_feature_column():
    X, y = _mixed_data()
    X[:, 1] = 3.0
    model = GradientBoostingRegressor(n_estimators=10, max_depth=4, random_state=0).fit(X, y)
    _assert_paths_agree(model, X, y)


def test_rows_on_split_thresholds():
    # Thresholds sit halfway between training values, so integer features split at
    # k + 0.5; evaluating on those very values tests ``x <= threshold`` at equality.
    rng = np.random.default_rng(11)
    X = rng.integers(0, 6, size=(300, 3)).astype(float)
    y = X[:, 0] * X[:, 1] - X[:, 2] ** 2
    model = GradientBoostingRegressor(n_estimators=10, max_depth=4, random_state=0).fit(X, y)
    X_eval = X + rng.integers(0, 2, size=X.shape) * 0.5
    thresholds = np.concatenate([tree._tree.threshold for tree in model._trees])
    assert np.isin(X_eval, thresholds).any()
    _assert_paths_agree(model, X_eval, y)


@given(X=arrays(np.int64, st.tuples(st.integers(8, 40), st.integers(1, 5)),
                elements=st.integers(-3, 3)),
       depth=st.integers(1, 7), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_property_small_integer_matrices(X, depth, seed):
    X = X.astype(float)
    y = np.random.default_rng(seed).normal(size=len(X)) + X.sum(axis=1)
    model = GradientBoostingRegressor(n_estimators=6, learning_rate=0.3, max_depth=depth,
                                      random_state=seed).fit(X, y)
    _assert_paths_agree(model, X, y, n_repeats=2, seed=seed)
