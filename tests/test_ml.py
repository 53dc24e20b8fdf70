"""Tests of the ML substrate: regression tree, GBDT, metrics, encoding, PFI."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.encoding import encode_cache
from repro.ml.gbdt import GradientBoostingRegressor
from repro.ml.metrics import mae, r2_score, rmse
from repro.ml.permutation_importance import permutation_importance
from repro.ml.tree import DecisionTreeRegressor


def _make_regression(n=400, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 8, size=(n, 4)).astype(float)
    y = (3.0 * X[:, 0] + X[:, 1] ** 2 - 2.0 * X[:, 2] + noise * rng.standard_normal(n))
    return X, y


class TestMetrics:
    def test_r2_perfect_and_mean(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == pytest.approx(1.0)
        assert r2_score(y, np.full(3, y.mean())) == pytest.approx(0.0)

    def test_r2_constant_target(self):
        y = np.ones(5)
        assert r2_score(y, y) == 1.0
        assert r2_score(y, y + 1) == 0.0

    def test_rmse_and_mae(self):
        y = np.array([0.0, 0.0])
        p = np.array([3.0, 4.0])
        assert rmse(y, p) == pytest.approx(np.sqrt(12.5))
        assert mae(y, p) == pytest.approx(3.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            r2_score(np.ones(3), np.ones(4))

    def test_empty_input(self):
        with pytest.raises(ValueError):
            rmse(np.array([]), np.array([]))


class TestDecisionTree:
    def test_fits_simple_step_function(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        y = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        np.testing.assert_allclose(tree.predict(X), y)

    def test_constant_target_single_leaf(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.full(10, 3.0)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.node_count == 1
        np.testing.assert_allclose(tree.predict(X), 3.0)

    def test_depth_limit_respected(self):
        X, y = _make_regression()
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        # A depth-2 binary tree has at most 7 nodes.
        assert tree.node_count <= 7

    def test_deeper_trees_fit_better(self):
        X, y = _make_regression()
        shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=8).fit(X, y)
        assert r2_score(y, deep.predict(X)) > r2_score(y, shallow.predict(X))

    def test_min_samples_leaf(self):
        X, y = _make_regression(n=50)
        tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=25).fit(X, y)
        assert tree.node_count <= 3

    def test_feature_importances_identify_relevant_feature(self):
        rng = np.random.default_rng(0)
        X = rng.integers(0, 10, size=(300, 3)).astype(float)
        y = 5.0 * X[:, 1]  # only feature 1 matters
        tree = DecisionTreeRegressor(max_depth=5).fit(X, y)
        importances = tree.feature_importances_
        assert importances[1] > 0.95
        assert importances.sum() == pytest.approx(1.0)

    def test_input_validation(self):
        tree = DecisionTreeRegressor()
        with pytest.raises(ValueError):
            tree.fit(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            tree.fit(np.ones(3), np.ones(3))
        with pytest.raises(RuntimeError):
            tree.predict(np.ones((2, 2)))
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)

    def test_predict_shape_check(self):
        X, y = _make_regression(n=50)
        tree = DecisionTreeRegressor().fit(X, y)
        with pytest.raises(ValueError):
            tree.predict(np.ones((5, 7)))

    @pytest.mark.parametrize("bad", ["X", "y", "sample_weight"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad, value):
        X, y = _make_regression(n=50)
        arrays = {"X": X, "y": y, "sample_weight": np.ones_like(y)}
        arrays[bad][3] = value
        with pytest.raises(ValueError, match=bad):
            DecisionTreeRegressor().fit(arrays["X"], arrays["y"],
                                        sample_weight=arrays["sample_weight"])

    def test_sample_weight_length_checked(self):
        X, y = _make_regression(n=50)
        with pytest.raises(ValueError, match="sample_weight"):
            DecisionTreeRegressor().fit(X, y, sample_weight=np.ones(49))


class TestGBDT:
    def test_outperforms_single_tree(self):
        X, y = _make_regression(noise=0.5)
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        gbdt = GradientBoostingRegressor(n_estimators=60, max_depth=3,
                                         learning_rate=0.2, random_state=0).fit(X, y)
        assert gbdt.score(X, y) > r2_score(y, tree.predict(X))
        assert gbdt.score(X, y) > 0.95

    def test_training_score_monotone_improvement(self):
        X, y = _make_regression()
        gbdt = GradientBoostingRegressor(n_estimators=30, random_state=0).fit(X, y)
        assert gbdt.train_score_[-1] >= gbdt.train_score_[0]

    def test_subsampling_reproducible(self):
        X, y = _make_regression()
        a = GradientBoostingRegressor(n_estimators=15, subsample=0.7, random_state=1).fit(X, y)
        b = GradientBoostingRegressor(n_estimators=15, subsample=0.7, random_state=1).fit(X, y)
        np.testing.assert_allclose(a.predict(X), b.predict(X))

    def test_feature_importances_sum_to_one(self):
        X, y = _make_regression()
        gbdt = GradientBoostingRegressor(n_estimators=20, random_state=0).fit(X, y)
        assert gbdt.feature_importances_.sum() == pytest.approx(1.0)
        assert gbdt.feature_importances_[3] < 0.05  # feature 3 is irrelevant

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=1.5)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.ones((2, 2)))

    @pytest.mark.parametrize("bad", ["X", "y"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_input_rejected(self, bad, value):
        # A NaN target used to yield an all-NaN model of one-leaf trees, and a NaN
        # feature value was silently binned.
        X, y = _make_regression(n=50)
        arrays = {"X": X, "y": y}
        arrays[bad][7] = value
        with pytest.raises(ValueError, match=bad):
            GradientBoostingRegressor(n_estimators=3).fit(arrays["X"], arrays["y"])


class TestPermutationImportance:
    def test_identifies_important_features(self):
        X, y = _make_regression(noise=0.1)
        model = GradientBoostingRegressor(n_estimators=50, random_state=0).fit(X, y)
        result = permutation_importance(model, X, y, n_repeats=3, random_state=0,
                                        feature_names=("a", "b", "c", "d"))
        scores = result.as_dict()
        assert scores["b"] > scores["d"]
        assert scores["a"] > scores["d"]
        assert scores["d"] < 0.05
        assert result.baseline_score > 0.9
        ranked = result.ranked()
        assert ranked[0][1] >= ranked[-1][1]

    def test_reproducible(self):
        X, y = _make_regression()
        model = GradientBoostingRegressor(n_estimators=20, random_state=0).fit(X, y)
        a = permutation_importance(model, X, y, n_repeats=2, random_state=4)
        b = permutation_importance(model, X, y, n_repeats=2, random_state=4)
        np.testing.assert_allclose(a.importances_mean, b.importances_mean)

    def test_input_validation(self):
        X, y = _make_regression(n=20)
        model = GradientBoostingRegressor(n_estimators=5, random_state=0).fit(X, y)
        with pytest.raises(ValueError):
            permutation_importance(model, X, y, n_repeats=0)
        with pytest.raises(ValueError):
            permutation_importance(model, X[:10], y, n_repeats=1)


class TestEncoding:
    def test_encode_cache(self, pnpoly_cache_3090):
        matrix = encode_cache(pnpoly_cache_3090)
        assert matrix.n_samples == pnpoly_cache_3090.num_valid
        assert matrix.n_features == 4
        assert matrix.feature_names == pnpoly_cache_3090.space.parameter_names
        assert matrix.log_target
        np.testing.assert_allclose(np.exp(matrix.y), matrix.y_raw, rtol=1e-10)

    def test_encode_cache_raw_target(self, pnpoly_cache_3090):
        matrix = encode_cache(pnpoly_cache_3090, log_target=False)
        np.testing.assert_allclose(matrix.y, matrix.y_raw)

    def test_gbdt_reaches_high_r2_on_campaign_data(self, pnpoly_cache_3090):
        matrix = encode_cache(pnpoly_cache_3090)
        model = GradientBoostingRegressor(n_estimators=120, max_depth=5,
                                          random_state=0).fit(matrix.X, matrix.y)
        assert model.score(matrix.X, matrix.y) > 0.95


@given(seed=st.integers(min_value=0, max_value=1000),
       depth=st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_property_tree_predictions_within_target_range(seed, depth):
    """Tree predictions are convex combinations of training targets."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(60, 3)).astype(float)
    y = rng.uniform(-10, 10, size=60)
    tree = DecisionTreeRegressor(max_depth=depth).fit(X, y)
    predictions = tree.predict(X)
    assert predictions.min() >= y.min() - 1e-9
    assert predictions.max() <= y.max() + 1e-9
