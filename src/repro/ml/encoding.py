"""Campaign-cache to feature-matrix conversion.

The feature-importance analysis (paper Fig. 6, Table VIII) needs the campaign data as a
plain ``(X, y)`` regression problem: one column per tuning parameter, one row per
measured configuration, and the measured runtime as the target.  This module adds two
practical concerns on top of :meth:`repro.core.cache.EvaluationCache.to_feature_matrix`:

* *target transformation* -- runtimes are heavy-tailed (bad configurations are orders
  of magnitude slower than good ones), so models fit the log-runtime by default;
* *bookkeeping* -- feature names travel with the matrix so importance scores can be
  reported per parameter name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cache import EvaluationCache

__all__ = ["FeatureMatrix", "encode_cache"]


@dataclass
class FeatureMatrix:
    """A regression view of one campaign cache.

    Attributes
    ----------
    X:
        ``(n_samples, n_parameters)`` float matrix of encoded configurations.
    y:
        ``(n_samples,)`` target vector (log runtime by default).
    y_raw:
        The untransformed runtimes in milliseconds.
    feature_names:
        Parameter name per column of ``X``.
    log_target:
        Whether ``y`` is ``log(runtime)``.
    benchmark / gpu:
        Provenance of the underlying cache.
    """

    X: np.ndarray
    y: np.ndarray
    y_raw: np.ndarray
    feature_names: tuple[str, ...]
    log_target: bool
    benchmark: str
    gpu: str

    @property
    def n_samples(self) -> int:
        """Number of rows."""
        return int(self.X.shape[0])


def encode_cache(cache: EvaluationCache, log_target: bool = True) -> FeatureMatrix:
    """Encode a campaign cache as a :class:`FeatureMatrix`.

    Only valid (successfully measured) configurations are included, mirroring the
    paper's datasets.
    """
    X, y_raw = cache.to_feature_matrix(valid_only=True)
    if log_target:
        y = np.log(np.maximum(y_raw, 1e-12))
    else:
        y = y_raw.copy()
    return FeatureMatrix(
        X=X,
        y=y,
        y_raw=y_raw,
        feature_names=cache.space.parameter_names,
        log_target=log_target,
        benchmark=cache.benchmark,
        gpu=cache.gpu,
    )
