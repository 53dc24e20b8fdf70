"""Gradient-boosted regression trees (least-squares boosting).

This is the in-repo substitute for the CatBoost regressor the paper uses for its
feature-importance analysis.  For least-squares loss, gradient boosting reduces to
repeatedly fitting a regression tree to the current residuals and adding a shrunken
copy of its predictions to the ensemble -- simple, deterministic given a seed, and
strong enough on the suite's deterministic campaign data to reach the R^2 regime the
paper reports (>= 0.99 for most benchmarks).

Without subsampling the training matrix is binned once for the whole ensemble, and
each stage's update is the value of the leaf every row lands in while its tree
grows, so no stage re-bins or re-predicts the training data.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor, bin_features, check_training_data

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor:
    """Least-squares gradient boosting over histogram regression trees.

    Parameters
    ----------
    n_estimators:
        Number of boosting stages (trees).
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth:
        Depth of the individual trees.
    subsample:
        Fraction of samples drawn (without replacement) for each stage; 1.0 disables
        stochastic boosting.
    min_samples_leaf:
        Minimum samples per leaf of each tree.
    max_bins:
        Histogram bins per feature in the trees.
    random_state:
        Seed for the subsampling generator.
    """

    def __init__(self, n_estimators: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 4, subsample: float = 1.0, min_samples_leaf: int = 1,
                 max_bins: int = 64, random_state: int | None = None):
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if not (0.0 < learning_rate <= 1.0):
            raise ValueError("learning_rate must lie in (0, 1]")
        if not (0.0 < subsample <= 1.0):
            raise ValueError("subsample must lie in (0, 1]")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.subsample = float(subsample)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_bins = int(max_bins)
        self.random_state = random_state

        self._trees: list[DecisionTreeRegressor] = []
        self._initial_prediction: float = 0.0
        self.n_features_: int = 0
        self.train_score_: list[float] = []

    # --------------------------------------------------------------------- fitting

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        """Fit the ensemble to ``(X, y)``; returns self."""
        X, y = check_training_data(X, y)

        rng = np.random.default_rng(self.random_state)
        self.n_features_ = X.shape[1]
        self._trees = []
        self.train_score_ = []

        self._initial_prediction = float(y.mean())
        prediction = np.full(y.shape, self._initial_prediction)

        n = X.shape[0]
        sample_size = max(int(round(self.subsample * n)), 1)
        if self.subsample == 1.0:
            # Bin edges depend on X only, so every stage shares one binned matrix.
            binned, edges = bin_features(X, self.max_bins)
            weight = np.ones(n)
        for _ in range(self.n_estimators):
            residual = y - prediction
            tree = DecisionTreeRegressor(max_depth=self.max_depth,
                                         min_samples_leaf=self.min_samples_leaf,
                                         max_bins=self.max_bins)
            if self.subsample < 1.0:
                idx = rng.choice(n, size=sample_size, replace=False)
                tree.fit(X[idx], residual[idx])
                update = tree.predict(X)
            else:
                update = tree.grow(binned, edges, residual, weight)
            prediction = prediction + self.learning_rate * update
            self._trees.append(tree)
            self.train_score_.append(r2_score(y, prediction))
        return self

    # ------------------------------------------------------------------ prediction

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Ensemble prediction for every row of ``X``."""
        if not self._trees:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        out = np.full(X.shape[0], self._initial_prediction)
        for tree in self._trees:
            out = out + self.learning_rate * tree.predict(X)
        return out

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """R^2 of the ensemble on ``(X, y)``."""
        return r2_score(y, self.predict(X))

    # --------------------------------------------------------------------- queries

    @property
    def feature_importances_(self) -> np.ndarray:
        """Gain-based importances aggregated over all trees (normalised to sum to 1)."""
        if not self._trees:
            raise RuntimeError("model is not fitted")
        total = np.zeros(self.n_features_)
        for tree in self._trees:
            if tree.feature_gains_ is not None:
                total += tree.feature_gains_
        s = total.sum()
        return total / s if s > 0 else total

    def get_params(self) -> dict[str, Any]:
        """Constructor parameters (scikit-learn-style introspection)."""
        return {
            "n_estimators": self.n_estimators,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "subsample": self.subsample,
            "min_samples_leaf": self.min_samples_leaf,
            "max_bins": self.max_bins,
            "random_state": self.random_state,
        }
