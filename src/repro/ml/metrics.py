"""Regression metrics used by the feature-importance analysis."""

from __future__ import annotations

import numpy as np

__all__ = ["r2_score", "r2_from_sums"]


def _validate(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=float).ravel()
    y_pred = np.asarray(y_pred, dtype=float).ravel()
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("metrics need at least one sample")
    return y_true, y_pred


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination (1 = perfect, 0 = predicting the mean).

    The paper reports R^2 >= 0.992 for the CatBoost models on all benchmarks except
    Convolution; the same metric is used here to validate the GBDT substitute.
    """
    y_true, y_pred = _validate(y_true, y_pred)
    return r2_from_sums(float(np.sum((y_true - y_pred) ** 2)),
                        float(np.sum((y_true - y_true.mean()) ** 2)))


def r2_from_sums(ss_res: float, ss_tot: float) -> float:
    """R^2 from the residual and total sums of squares, as :func:`r2_score` takes it."""
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot
