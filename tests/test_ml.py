"""Tests of the ML substrate: regression tree, GBDT, metrics, encoding, PFI."""

from __future__ import annotations

import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.encoding import encode_cache
from repro.ml.gbdt import GradientBoostingRegressor
from repro.ml.metrics import r2_score
from repro.ml.permutation_importance import permutation_importance
from repro.ml.tree import DecisionTreeRegressor, bin_features


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

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            r2_score(np.ones(3), np.ones(4))

    def test_empty_input(self):
        with pytest.raises(ValueError):
            r2_score(np.array([]), np.array([]))


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

    @pytest.mark.parametrize("weights, message", [
        (np.zeros(50), "positive sum"),
        (np.r_[np.ones(49), -0.5], "negative"),
        (np.full(50, -1.0), "negative"),
    ])
    def test_bad_sample_weight_rejected(self, weights, message):
        # All-zero weights used to leak a divide RuntimeWarning; negative weights
        # were accepted and the fit silently became a single leaf.
        X, y = _make_regression(n=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                DecisionTreeRegressor().fit(X, y, sample_weight=weights)

    def test_zero_weight_rows_fit_without_warnings(self):
        X, y = _make_regression(n=60)
        weights = np.ones_like(y)
        weights[::3] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = DecisionTreeRegressor(max_depth=6).fit(X, y, sample_weight=weights)
        assert np.all(np.isfinite(tree.predict(X)))


class TestBinLayout:
    def test_candidates_are_the_real_splits_feature_major(self):
        # A constant column (one bin, no candidate), a two-value column (one
        # candidate) and a column past max_bins, quantile-binned down to it.
        n = 40
        X = np.column_stack([np.full(n, 3.0), np.tile([1.0, 5.0], n // 2),
                             np.arange(n, dtype=float) ** 1.5])
        layout = bin_features(X, max_bins=5)
        n_bins = [len(edges) + 1 for edges in layout.edges]
        assert n_bins == [1, 2, 5] and layout.width == 5
        expected = [(f, b) for f in range(3) for b in range(n_bins[f] - 1)]
        assert list(zip(layout.split_feature.tolist(), layout.split_bin.tolist())) == expected
        assert layout.split_at.tolist() == [f * (layout.width - 1) + b for f, b in expected]

    def test_every_feature_constant_has_no_candidate(self):
        layout = bin_features(np.ones((6, 2)), max_bins=8)
        assert layout.width == 1
        assert layout.split_at.size == layout.split_feature.size == layout.split_bin.size == 0

    def test_split_on_a_feature_narrower_than_the_grid(self):
        # The only gain is between the two values of the narrow column 0, whose
        # candidate sits at bin 0 of a grid padded to column 1's eight bins; an
        # off-by-one bin would send every row left.
        X = np.column_stack([np.repeat([0.0, 1.0], 8), np.tile(np.arange(8.0), 2)])
        y = np.repeat([0.0, 10.0], 8)
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert tree._tree.feature[0] == 0 and tree._tree.threshold[0] == 0.5
        assert np.array_equal(tree.predict(X), y)

    def test_ties_break_to_the_lowest_feature_then_bin(self):
        # Column 0 is constant; columns 1 and 2 are the same, and each leaves an
        # error of exactly 2 split after bin 0 or after bin 2.  The first maximum
        # is feature 1, bin 0.
        column = np.repeat([0.0, 1.0, 2.0, 3.0], 3)
        X = np.column_stack([np.ones(12), column, column])
        y = np.repeat([0.0, 1.0, 1.0, 2.0], 3)
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert tree._tree.feature[0] == 1 and tree._tree.threshold[0] == 0.5


class TestGBDT:
    def test_outperforms_single_tree(self):
        X, y = _make_regression(noise=0.5)
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        gbdt = GradientBoostingRegressor(n_estimators=60, max_depth=3,
                                         learning_rate=0.2, random_state=0).fit(X, y)
        assert r2_score(y, gbdt.predict(X)) > r2_score(y, tree.predict(X))
        assert r2_score(y, gbdt.predict(X)) > 0.95

    def test_training_score_monotone_improvement(self):
        X, y = _make_regression()
        gbdt = GradientBoostingRegressor(n_estimators=30, random_state=0).fit(X, y)
        assert gbdt.train_score_[-1] >= gbdt.train_score_[0]

    @pytest.mark.parametrize("subsample", [1.0, 0.7])
    def test_training_scores_and_prediction_are_staged_predictions(self, subsample):
        # train_score_ comes from the residual the next stage fits and
        # train_prediction_ is the fit's running prediction; both must carry the
        # bits r2_score and predict give on the training matrix.
        X, y = _make_regression(noise=0.5)
        gbdt = GradientBoostingRegressor(n_estimators=12, subsample=subsample,
                                         random_state=3).fit(X, y)
        staged = np.full(len(y), gbdt._initial_prediction)
        scores = []
        for tree in gbdt._trees:
            staged = staged + gbdt.learning_rate * tree.predict(X)
            scores.append(r2_score(y, staged))
        assert gbdt.train_score_ == scores
        assert np.array_equal(gbdt.train_prediction_, gbdt.predict(X))

    def test_training_score_of_a_constant_target(self):
        X, _ = _make_regression(n=30)
        gbdt = GradientBoostingRegressor(n_estimators=3, random_state=0).fit(X, np.full(30, 2.5))
        assert gbdt.train_score_ == [1.0, 1.0, 1.0]

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

    def test_tree_parameters_checked_at_construction(self):
        with pytest.raises(ValueError, match="max_depth"):
            GradientBoostingRegressor(max_depth=0)

    def test_tree_parameters_clamped_like_a_tree(self):
        # max_bins=1 used to bin the shared matrix into one bin, so without
        # subsampling every tree was one node (R^2 0.0), while a subsampled fit's
        # trees clamped it to 2.
        X, y = _make_regression()
        gbdt = GradientBoostingRegressor(n_estimators=10, max_bins=1, min_samples_leaf=0,
                                         random_state=0)
        assert (gbdt.max_bins, gbdt.min_samples_leaf) == (2, 1)
        reference = GradientBoostingRegressor(n_estimators=10, max_bins=2,
                                              random_state=0).fit(X, y)
        gbdt.fit(X, y)
        assert r2_score(y, gbdt.predict(X)) > 0.5
        np.testing.assert_array_equal(gbdt.predict(X), reference.predict(X))

    def test_bin_layout_freed_when_fit_ends(self, monkeypatch):
        from repro.ml import gbdt as gbdt_module

        layouts = []

        def bin_and_watch(X, max_bins):
            layout = bin_features(X, max_bins)
            layouts.append(weakref.ref(layout))
            return layout

        monkeypatch.setattr(gbdt_module, "bin_features", bin_and_watch)
        X, y = _make_regression(n=100)
        model = GradientBoostingRegressor(n_estimators=5, random_state=0).fit(X, y)
        gc.collect()
        assert len(layouts) == 1 and layouts[0]() is None
        assert r2_score(y, model.predict(X)) > 0.5

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_data(self, bad):
        X, y = _make_regression(n=20)
        model = GradientBoostingRegressor(n_estimators=5, random_state=0).fit(X, y)
        X_bad, y_bad = X.copy(), y.copy()
        X_bad[3, 1] = bad
        y_bad[7] = bad
        with pytest.raises(ValueError, match="^X contains"):
            permutation_importance(model, X_bad, y, n_repeats=1)
        with pytest.raises(ValueError, match="^y contains"):
            permutation_importance(model, X, y_bad, n_repeats=1)

    def test_rejects_column_count_unlike_the_fitted_ensemble(self):
        X, y = _make_regression(n=20)
        model = GradientBoostingRegressor(n_estimators=5, random_state=0).fit(X, y)
        with pytest.raises(ValueError, match="shape"):
            permutation_importance(model, np.column_stack([X, X[:, 0]]), y, n_repeats=1)
        with pytest.raises(ValueError, match="shape"):
            permutation_importance(model, X[:, :3], y, n_repeats=1)


class TestEncoding:
    def test_encode_cache(self, pnpoly_cache_3090):
        matrix = encode_cache(pnpoly_cache_3090)
        assert matrix.n_samples == pnpoly_cache_3090.num_valid
        assert matrix.X.shape[1] == 4
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
        assert r2_score(matrix.y, model.predict(matrix.X)) > 0.95


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
