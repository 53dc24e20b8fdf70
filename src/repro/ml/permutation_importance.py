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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.ml.metrics import r2_score

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
        Metric of the unshuffled predictions.
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

    def ranked(self) -> list[tuple[str, float]]:
        """Features sorted by decreasing mean importance."""
        return sorted(self.as_dict().items(), key=lambda kv: kv[1], reverse=True)

    def total(self) -> float:
        """Sum of the mean importances (values well above 1 signal interactions)."""
        return float(self.importances_mean.sum())


def permutation_importance(model, X: np.ndarray, y: np.ndarray, n_repeats: int = 5,
                           random_state: int | None = 0,
                           scoring: Callable[[np.ndarray, np.ndarray], float] = r2_score,
                           feature_names: Sequence[str] = ()) -> PermutationImportanceResult:
    """Compute PFI of a fitted regression model.

    Parameters
    ----------
    model:
        Any object with a ``predict(X)`` method (already fitted).
    X, y:
        The evaluation dataset (the paper evaluates on the training campaign itself,
        which is appropriate because the campaign *is* the population of interest).
    n_repeats:
        Number of independent shuffles per feature.
    scoring:
        Metric function ``scoring(y_true, y_pred)``; importance is
        ``baseline - shuffled`` so higher means more important.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be 2D and aligned with y")
    if n_repeats < 1:
        raise ValueError("n_repeats must be at least 1")

    rng = np.random.default_rng(random_state)
    baseline = float(scoring(y, model.predict(X)))

    n_features = X.shape[1]
    drops = np.zeros((n_features, n_repeats))
    # One scratch copy of X: column j is overwritten per shuffle, restored after.
    shuffled = X.copy()
    for j in range(n_features):
        for r in range(n_repeats):
            shuffled[:, j] = rng.permutation(X[:, j])
            drops[j, r] = baseline - float(scoring(y, model.predict(shuffled)))
        shuffled[:, j] = X[:, j]

    return PermutationImportanceResult(
        importances_mean=drops.mean(axis=1),
        importances_std=drops.std(axis=1),
        importances=drops,
        baseline_score=baseline,
        feature_names=tuple(feature_names),
    )
