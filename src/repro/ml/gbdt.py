"""Gradient-boosted regression trees (least-squares boosting).

This is the in-repo substitute for the CatBoost regressor the paper uses for its
feature-importance analysis.  For least-squares loss, gradient boosting reduces to
repeatedly fitting a regression tree to the current residuals and adding a shrunken
copy of its predictions to the ensemble -- simple, deterministic given a seed, and
strong enough on the suite's deterministic campaign data to reach the R^2 regime the
paper reports (>= 0.99 for most benchmarks).

Without subsampling the training matrix is binned once for the whole ensemble, into
one :class:`~repro.ml.tree.BinLayout` that is dropped when ``fit`` returns, and each
stage's update is the value of the leaf every row lands in while its tree grows, so
no stage re-bins or re-predicts the training data.  Each stage's ``train_score_``
comes from the residual the next stage fits, and the final running prediction is
kept as ``train_prediction_``: both have the bits ``r2_score`` and ``predict`` of
the training matrix would give.

:meth:`GradientBoostingRegressor.predict_permuted` serves permutation importance
from per-tree leaf bitmasks instead of one ensemble predict per shuffled column.
"""

from __future__ import annotations

import numpy as np

from repro.ml.metrics import r2_from_sums
from repro.ml.permutation_importance import shuffled_predictions
from repro.ml.tree import ALL_LEAVES, DecisionTreeRegressor, bin_features, check_training_data

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
        # The trees' own checks and clamps, so that the shared binned matrix uses the
        # max_bins a tree fitted on a subsample would.
        tree = DecisionTreeRegressor(max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                                     max_bins=max_bins)
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = tree.max_depth
        self.subsample = float(subsample)
        self.min_samples_leaf = tree.min_samples_leaf
        self.max_bins = tree.max_bins
        self.random_state = random_state

        self._trees: list[DecisionTreeRegressor] = []
        self._initial_prediction: float = 0.0
        self.n_features_: int = 0
        self.train_score_: list[float] = []
        self.train_prediction_: np.ndarray | None = None

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
        residual = y - prediction
        # Each stage's R^2 is r2_score(y, prediction), its residual sum of squares
        # taken from the residual the next stage fits.
        ss_tot = float(np.sum((y - y.mean()) ** 2))

        n = X.shape[0]
        sample_size = max(int(round(self.subsample * n)), 1)
        if self.subsample == 1.0:
            # Bin edges depend on X only, so every stage shares one layout; it is
            # local to this call and freed when the fit ends.
            layout = bin_features(X, self.max_bins)
            weight = np.ones(n)
        for _ in range(self.n_estimators):
            tree = DecisionTreeRegressor(max_depth=self.max_depth,
                                         min_samples_leaf=self.min_samples_leaf,
                                         max_bins=self.max_bins)
            if self.subsample < 1.0:
                idx = rng.choice(n, size=sample_size, replace=False)
                tree.fit(X[idx], residual[idx])
                update = tree.predict(X)
            else:
                update = tree.grow(layout, residual, weight)
            prediction += self.learning_rate * update
            residual = y - prediction
            self._trees.append(tree)
            self.train_score_.append(r2_from_sums(float(np.sum(residual ** 2)), ss_tot))
        # The same expression, in the same order, as predict(X): the same bits.
        self.train_prediction_ = prediction
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

    def predict_permuted(self, X: np.ndarray,
                         permutations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(predict(X), shuffled)`` for permutation importance.

        ``shuffled[j, r]`` is ``predict`` of ``X`` with column j reordered by
        ``permutations[j, r]`` (shape ``(n_features, n_repeats, n)``), bit for bit.
        No tree is traversed again: a tree's exit leaf is the AND of one leaf
        bitmask per feature (:meth:`DecisionTreeRegressor.leaf_masks`), so a
        shuffle of column j ANDs the other features' masks, computed once, with
        column j's masks in permuted order.  The exit leaf's position is the
        popcount of its one-bit mask minus one, and it gathers from the tree's
        leaf values times the learning rate: the product ``predict`` takes, taken
        before the gather.  A tree with more than 64 leaves predicts on shuffled
        copies instead.  Trees add up in the order ``predict`` uses.
        """
        if not self._trees:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(f"X must have shape (n, {self.n_features_})")
        permutations = np.asarray(permutations)
        n_features, n_repeats, n = permutations.shape
        if (n_features, n) != X.shape[::-1]:
            raise ValueError(f"permutations must have shape ({X.shape[1]}, r, {X.shape[0]})")
        # Row i's code in feature j indexes the concatenated per-value tables.
        uniques, codes = [], []
        offset = 0
        for column in X.T:
            values, inverse = np.unique(column, return_inverse=True)
            uniques.append(values)
            codes.append(inverse + offset)
            offset += len(values)
        codes = np.stack(codes)
        shuffled_codes = codes[np.arange(n_features)[:, None, None], permutations]
        one = np.uint64(1)

        lr = self.learning_rate
        predicted = np.full(n, self._initial_prediction)
        shuffled = np.full(permutations.shape, self._initial_prediction)
        for tree in self._trees:
            masks = tree.leaf_masks(uniques)
            if masks is None:
                predicted += lr * tree.predict(X)
                shuffled += lr * np.reshape(
                    list(shuffled_predictions(tree.predict, X, permutations)),
                    permutations.shape)
            else:
                table, leaf_value = masks
                leaf_value = lr * leaf_value
                row_masks = table[codes]
                # others[j] is the AND of every feature's masks but j's: running
                # ANDs from the left, then from the right.
                others = np.empty_like(row_masks)
                running = np.full(n, ALL_LEAVES)
                for j in range(n_features):
                    others[j] = running
                    running = running & row_masks[j]
                exit_leaf = running
                running = np.full(n, ALL_LEAVES)
                for j in reversed(range(n_features)):
                    others[j] &= running
                    running = running & row_masks[j]
                shuffled_leaf = table[shuffled_codes]
                shuffled_leaf &= others[:, None]
                # A one-bit mask minus one has as many bits set as the leaf's position.
                exit_leaf -= one
                shuffled_leaf -= one
                predicted += leaf_value[np.bitwise_count(exit_leaf)]
                shuffled += leaf_value[np.bitwise_count(shuffled_leaf)]
        return predicted, shuffled

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
