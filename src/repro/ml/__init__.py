"""Machine-learning substrate: gradient-boosted trees and permutation feature importance.

The paper trains a CatBoost regression model on each (benchmark, GPU) campaign and uses
Permutation Feature Importance to rank the tuning parameters (Fig. 6) and to derive the
reduced search spaces of Table VIII.  CatBoost is not available offline, so this
subpackage provides the same model family from scratch on NumPy:

* :mod:`repro.ml.tree` -- a histogram-based regression tree, grown level by level;
* :mod:`repro.ml.gbdt` -- least-squares gradient boosting over those trees;
* :mod:`repro.ml.metrics` -- R^2 / RMSE / MAE;
* :mod:`repro.ml.encoding` -- campaign-cache to feature-matrix conversion;
* :mod:`repro.ml.permutation_importance` -- PFI with repeated shuffles.

Everything is deterministic given a seed.  The ensemble bins its training matrix
once and every tree grows over it a level at a time: one ``np.bincount`` fills the
split histograms of all nodes at a depth, so the NumPy call count scales with tree
depth, not with nodes times features.  The grower sums in the same order as a
per-node builder, so predictions, importances and PFI scores are bit-identical to
it (see :mod:`repro.ml.tree` for the rules).  Non-finite training data is rejected
with ``ValueError``.
"""

from repro.ml.tree import DecisionTreeRegressor
from repro.ml.gbdt import GradientBoostingRegressor
from repro.ml.metrics import r2_score, rmse, mae
from repro.ml.encoding import encode_cache, FeatureMatrix
from repro.ml.permutation_importance import permutation_importance, PermutationImportanceResult

__all__ = [
    "DecisionTreeRegressor",
    "GradientBoostingRegressor",
    "r2_score",
    "rmse",
    "mae",
    "encode_cache",
    "FeatureMatrix",
    "permutation_importance",
    "PermutationImportanceResult",
]
