"""Permutation feature importance of the tuning parameters (paper Fig. 6, Sec. VI-F).

For every (benchmark, GPU) campaign the paper trains a CatBoost regression model that
predicts runtime from the configuration and then uses Permutation Feature Importance to
rank the tuning parameters.  Here the model is the in-repo GBDT
(:class:`repro.ml.gbdt.GradientBoostingRegressor`), fitted on log-runtime; the report
carries both the model quality (R^2, compared against the paper's ">= 0.992 except
Convolution") and the per-parameter PFI scores.

The sum of the PFI scores is reported too: the paper argues (Sec. VI-H) that a sum well
above 1 is evidence of parameter interactions and hence of the need for global rather
than orthogonal (one-parameter-at-a-time) optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.errors import ReproError
from repro.ml.encoding import encode_cache
from repro.ml.gbdt import GradientBoostingRegressor
from repro.ml.metrics import r2_score
from repro.ml.permutation_importance import permutation_importance

__all__ = ["ImportanceReport", "feature_importance", "importance_study",
           "important_parameters"]


@dataclass
class ImportanceReport:
    """Feature-importance analysis of one (benchmark, GPU) campaign.

    Attributes
    ----------
    r2:
        R^2 of the fitted GBDT on the campaign (log-runtime target).
    r2_raw:
        R^2 of the back-transformed predictions against the raw runtimes.
    importances:
        Mean PFI score per parameter name.
    importances_std:
        Standard deviation of the PFI score across shuffle repeats.
    gain_importances:
        The model's internal (split-gain) importances, as a cross-check.
    """

    benchmark: str
    gpu: str
    feature_names: tuple[str, ...]
    r2: float
    r2_raw: float
    importances: dict[str, float]
    importances_std: dict[str, float]
    gain_importances: dict[str, float]
    n_samples: int

    @property
    def total_importance(self) -> float:
        """Sum of the mean PFI scores (>> 1 indicates parameter interactions)."""
        return float(sum(self.importances.values()))

    def ranked(self) -> list[tuple[str, float]]:
        """Parameters sorted by decreasing importance."""
        return sorted(self.importances.items(), key=lambda kv: kv[1], reverse=True)

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly representation."""
        return {
            "benchmark": self.benchmark,
            "gpu": self.gpu,
            "r2": self.r2,
            "r2_raw": self.r2_raw,
            "n_samples": self.n_samples,
            "importances": dict(self.importances),
            "total_importance": self.total_importance,
        }


def feature_importance(cache: EvaluationCache, n_estimators: int = 200, max_depth: int = 6,
                       learning_rate: float = 0.1, n_repeats: int = 3,
                       max_samples: int | None = 20_000,
                       random_state: int = 0) -> ImportanceReport:
    """Fit the regression model on one campaign and compute PFI (one Fig. 6 panel).

    Parameters
    ----------
    cache:
        Campaign data.
    n_estimators / max_depth / learning_rate:
        GBDT hyper-parameters (defaults reach the paper's R^2 regime on the simulated
        campaigns).
    n_repeats:
        Shuffle repetitions per feature for PFI.
    max_samples:
        Optional subsample of the campaign for model fitting (keeps the GEMM-sized
        exhaustive campaigns fast); None uses everything.
    """
    matrix = encode_cache(cache, log_target=True)
    if matrix.n_samples < 10:
        raise ReproError(f"campaign {cache.benchmark}/{cache.gpu} is too small "
                         f"({matrix.n_samples} samples) for the importance analysis")
    X, y, y_raw = matrix.X, matrix.y, matrix.y_raw
    if max_samples is not None and matrix.n_samples > max_samples:
        rng = np.random.default_rng(random_state)
        idx = rng.choice(matrix.n_samples, size=max_samples, replace=False)
        X, y, y_raw = X[idx], y[idx], y_raw[idx]

    model = GradientBoostingRegressor(n_estimators=n_estimators, max_depth=max_depth,
                                      learning_rate=learning_rate,
                                      random_state=random_state)
    model.fit(X, y)
    # The fit's running prediction of X has the bits of model.predict(X).
    predictions = model.train_prediction_
    r2 = r2_score(y, predictions)
    r2_raw = r2_score(y_raw, np.exp(predictions))

    pfi = permutation_importance(model, X, y, n_repeats=n_repeats,
                                 random_state=random_state,
                                 feature_names=matrix.feature_names)
    gains = model.feature_importances_

    return ImportanceReport(
        benchmark=cache.benchmark,
        gpu=cache.gpu,
        feature_names=matrix.feature_names,
        r2=float(r2),
        r2_raw=float(r2_raw),
        importances={name: float(v) for name, v
                     in zip(matrix.feature_names, pfi.importances_mean)},
        importances_std={name: float(v) for name, v
                         in zip(matrix.feature_names, pfi.importances_std)},
        gain_importances={name: float(v) for name, v in zip(matrix.feature_names, gains)},
        n_samples=int(X.shape[0]),
    )


def importance_study(caches: Mapping[tuple[str, str], EvaluationCache],
                     **kwargs) -> dict[tuple[str, str], ImportanceReport]:
    """Fig. 6 over a whole campaign: one report per (benchmark, GPU) cache."""
    return {key: feature_importance(cache, **kwargs) for key, cache in caches.items()}


def important_parameters(reports: Sequence[ImportanceReport],
                         threshold: float = 0.05) -> tuple[str, ...]:
    """Parameters reaching ``threshold`` importance on *any* GPU (Table VIII reduction rule).

    All reports must belong to the same benchmark.
    """
    if not reports:
        raise ReproError("need at least one importance report")
    benchmarks = {r.benchmark for r in reports}
    if len(benchmarks) > 1:
        raise ReproError(f"reports span multiple benchmarks: {sorted(benchmarks)}")
    names = reports[0].feature_names
    keep = []
    for name in names:
        if any(r.importances.get(name, 0.0) >= threshold for r in reports):
            keep.append(name)
    return tuple(keep)
