"""Machine-learning substrate: gradient-boosted trees and permutation feature importance.

The paper trains a CatBoost regression model on each (benchmark, GPU) campaign and uses
Permutation Feature Importance to rank the tuning parameters (Fig. 6) and to derive the
reduced search spaces of Table VIII.  CatBoost is not available offline, so this
subpackage provides the same model family from scratch on NumPy:

* :mod:`repro.ml.tree` -- a histogram-based regression tree, grown level by level;
* :mod:`repro.ml.gbdt` -- least-squares gradient boosting over those trees;
* :mod:`repro.ml.metrics` -- R^2 / RMSE / MAE;
* :mod:`repro.ml.encoding` -- campaign-cache to feature-matrix conversion;
* :mod:`repro.ml.permutation_importance` -- PFI with repeated shuffles, served to the
  ensemble from per-tree leaf bitmasks rather than one predict per shuffle.

Everything is deterministic given a seed.  The ensemble bins its training matrix
once into a bin layout and every tree grows over it a level at a time: one
``np.bincount`` per statistic fills the split histograms of all nodes at a depth
and one row reduction per node gives its totals, so the NumPy call count scales
with depth and nodes, not with nodes times features.  The grower sums in the same
order as a per-node builder, so predictions, importances and PFI scores are
bit-identical to it (see :mod:`repro.ml.tree` for the rules).  Non-finite training
data and negative or all-zero sample weights are rejected with ``ValueError``.
"""

from repro.ml.tree import DecisionTreeRegressor
from repro.ml.gbdt import GradientBoostingRegressor
from repro.ml.metrics import r2_score
from repro.ml.encoding import encode_cache, FeatureMatrix
from repro.ml.permutation_importance import permutation_importance, PermutationImportanceResult

__all__ = [
    "DecisionTreeRegressor",
    "GradientBoostingRegressor",
    "r2_score",
    "encode_cache",
    "FeatureMatrix",
    "permutation_importance",
    "PermutationImportanceResult",
]
