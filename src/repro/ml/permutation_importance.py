"""Permutation Feature Importance (PFI).

PFI measures how much a fitted model's quality degrades when one feature's values are
randomly shuffled across the dataset, breaking that feature's relationship with the
target while leaving its marginal distribution intact.  The paper uses the drop in the
performance metric (R^2 of the CatBoost model) as the importance score of each tuning
parameter; the same definition is implemented here, with repeated shuffles to average
out the permutation randomness.

Interpreting the scores the way the paper does (Sec. VI-H): because the features
interact, the per-feature importance scores can sum to considerably more than the total
explainable variance -- shuffling either of two interacting parameters destroys the
interaction term -- and a sum well above 1 is evidence that the search space needs
global (non-orthogonal) optimization.

Every permutation is drawn up front, in (feature, repeat) order, with
``rng.permutation(n)``; that consumes the generator exactly as shuffling a column of
n values does, so the scores do not depend on how the shuffled predictions are
computed.  A model with ``predict_permuted`` (the gradient-boosted ensemble) gets
all of them in one call: each tree's exit leaf is the AND of per-feature leaf
bitmasks, so shuffling column j only permutes that column's masks and no tree is
traversed again, bit-identical to predicting every shuffled copy (trees of more
than 64 leaves fall back to traversal on their own).  Any other model with
``predict`` takes the generic path, one ``predict`` per shuffled copy of ``X``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.ml.metrics import r2_score
from repro.ml.tree import check_finite

__all__ = ["PermutationImportanceResult", "permutation_importance"]


@dataclass
class PermutationImportanceResult:
    """Outcome of a permutation-importance computation.

    Attributes
    ----------
    importances_mean / importances_std:
        Mean and standard deviation of the metric drop per feature over the repeats.
    importances:
        Full ``(n_features, n_repeats)`` matrix of metric drops.
    baseline_score:
        R² of the unshuffled predictions.
    feature_names:
        Optional names aligned with the feature axis.
    """

    importances_mean: np.ndarray
    importances_std: np.ndarray
    importances: np.ndarray
    baseline_score: float
    feature_names: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, float]:
        """Mapping of feature name (or index) to mean importance."""
        names = self.feature_names or tuple(str(i) for i in range(len(self.importances_mean)))
        return {name: float(v) for name, v in zip(names, self.importances_mean)}


def shuffled_predictions(predict: Callable[[np.ndarray], np.ndarray], X: np.ndarray,
                         permutations: np.ndarray) -> Iterator[np.ndarray]:
    """``predict`` of ``X`` with column j reordered by ``permutations[j, r]``, in (j, r) order."""
    # One scratch copy of X: column j is overwritten per shuffle, restored after.
    shuffled = X.copy()
    for j, column_permutations in enumerate(permutations):
        for permutation in column_permutations:
            shuffled[:, j] = X[permutation, j]
            yield predict(shuffled)
        shuffled[:, j] = X[:, j]


def permutation_importance(model, X: np.ndarray, y: np.ndarray, n_repeats: int = 5,
                           random_state: int | None = 0,
                           feature_names: Sequence[str] = ()) -> PermutationImportanceResult:
    """Compute PFI of a fitted regression model.

    A feature's importance is the drop of :func:`~repro.ml.metrics.r2_score`
    when its column is shuffled (``baseline - shuffled``), so higher means more
    important.

    Parameters
    ----------
    model:
        Any object with a ``predict(X)`` method (already fitted).  A model that
        also has ``predict_permuted(X, permutations)`` (the gradient-boosted
        ensemble) computes every shuffled prediction through it.
    X, y:
        The evaluation dataset (the paper evaluates on the training campaign itself,
        which is appropriate because the campaign *is* the population of interest).
        Both must be finite.
    n_repeats:
        Number of independent shuffles per feature.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be 2D and aligned with y")
    if n_repeats < 1:
        raise ValueError("n_repeats must be at least 1")
    check_finite("X", X)
    check_finite("y", y)

    rng = np.random.default_rng(random_state)
    n_samples, n_features = X.shape
    # Drawn in (feature, repeat) order; ``rng.permutation(n)`` consumes the stream
    # exactly as shuffling a column of n values does.
    permutations = np.array([rng.permutation(n_samples)
                             for _ in range(n_features * n_repeats)],
                            dtype=np.int64).reshape(n_features, n_repeats, n_samples)
    if n_features and hasattr(model, "predict_permuted"):
        predicted, shuffled = model.predict_permuted(X, permutations)
        shuffled = shuffled.reshape(-1, n_samples)
    else:
        predicted = model.predict(X)
        shuffled = shuffled_predictions(model.predict, X, permutations)
    baseline = float(r2_score(y, predicted))
    drops = np.array([baseline - float(r2_score(y, prediction)) for prediction in shuffled])
    drops = drops.reshape(n_features, n_repeats)

    return PermutationImportanceResult(
        importances_mean=drops.mean(axis=1),
        importances_std=drops.std(axis=1),
        importances=drops,
        baseline_score=baseline,
        feature_names=tuple(feature_names),
    )
