"""Pin golden outputs of the GBDT substrate (``repro.ml``) for a differential suite.

Every fixture is a seeded fit -- a :class:`~repro.ml.gbdt.GradientBoostingRegressor`,
a weighted :class:`~repro.ml.tree.DecisionTreeRegressor`, the Fig. 6 importance
analysis on gemm@RTX_3090 at reduced settings, or a ``SurrogateSearch`` run on
pnpoly@RTX_3090 -- and records, as SHA-256 digests of little-endian bytes,

* predictions on the training matrix and on a probe matrix whose values fall
  between and outside the training values,
* ``train_score_``, ``feature_importances_`` (and a tree's raw ``feature_gains_``),
* the ``node_count`` of every tree,
* the permutation-importance matrix,

together with each array's shape for readable diffs.  The data sets cover integer
features, a feature with more unique values than ``max_bins`` (quantile bins), a
constant feature, two identical columns (split tie-breaks), a constant target,
``min_samples_leaf`` of 1 and 25, depths 1 to 8 and stochastic boosting.

The golden file was generated **with the recursive per-node tree builder**;
``tests/test_ml_golden.py`` asserts the level-wise grower reproduces it bit for
bit.  Re-running this script on a revision that changes model semantics silently
re-pins the goldens -- only do that deliberately, with a CHANGES.md note.

Usage::

    PYTHONPATH=src python scripts/pin_ml_golden.py
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis.importance import feature_importance
from repro.core.budget import Budget
from repro.core.registry import get_benchmark
from repro.gpus.specs import RTX_3090
from repro.ml.gbdt import GradientBoostingRegressor
from repro.ml.permutation_importance import permutation_importance
from repro.ml.tree import DecisionTreeRegressor
from repro.tuners import SurrogateSearch

OUT_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / \
    "ml_golden.json.gz"

Arrays = dict[str, np.ndarray]


def mixed_data(n: int = 500, seed: int = 7) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(X, y, probe)``: integer, quantile-binned, constant and duplicated columns."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 8, n)
    b = rng.integers(0, 5, n)
    c = np.round(rng.normal(size=n), 3)          # far more than 64 unique values
    d = rng.integers(0, 3, n)
    # Column 3 is constant and column 4 duplicates column 0.
    X = np.column_stack([a, b, c, np.full(n, 3.0), a, d]).astype(float)
    y = 2.0 * a + b * c - 3.0 * (d == 1) + 0.3 * rng.standard_normal(n)
    probe = np.column_stack([rng.uniform(-1.5, 8.5, n), rng.uniform(-1.5, 5.5, n),
                             rng.uniform(-4.0, 4.0, n), rng.uniform(2.0, 4.0, n),
                             rng.uniform(-1.5, 8.5, n), rng.uniform(-1.5, 3.5, n)])
    return X, y, probe


def integer_data(n: int = 800, seed: int = 11) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(X, y, probe)`` shaped like an encoded campaign: small integer features."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 6, size=(n, 5)).astype(float) * [1.0, 2.0, 4.0, 8.0, 32.0]
    y = np.log1p(X[:, 0] * X[:, 1] + X[:, 2] ** 1.5 + X[:, 3] + 0.01 * X[:, 4] ** 2)
    probe = rng.uniform(-1.0, 7.0, size=(n, 5)) * [1.0, 2.0, 4.0, 8.0, 32.0]
    return X, y, probe


def gbdt_arrays(X: np.ndarray, y: np.ndarray, probe: np.ndarray, **params) -> Arrays:
    """Pinned outputs of one seeded ensemble fit."""
    model = GradientBoostingRegressor(**params).fit(X, y)
    pfi = permutation_importance(model, X, y, n_repeats=3, random_state=5)
    return {
        "predict_train": model.predict(X),
        "predict_probe": model.predict(probe),
        "train_score": np.asarray(model.train_score_),
        "feature_importances": model.feature_importances_,
        "node_counts": np.asarray([tree.node_count for tree in model._trees]),
        "pfi": pfi.importances,
    }


def weighted_tree_arrays(min_samples_leaf: int) -> Arrays:
    """A single tree with non-uniform sample weights."""
    X, y, probe = mixed_data(n=400, seed=3)
    weight = np.random.default_rng(4).uniform(0.5, 6.0, size=len(y))
    tree = DecisionTreeRegressor(max_depth=7, min_samples_leaf=min_samples_leaf)
    tree.fit(X, y, sample_weight=weight)
    return {
        "predict_train": tree.predict(X),
        "predict_probe": tree.predict(probe),
        "feature_gains": tree.feature_gains_,
        "feature_importances": tree.feature_importances_,
        "node_counts": np.asarray([tree.node_count]),
    }


def gemm_importance_arrays() -> Arrays:
    """Fig. 6 analysis on the exhaustive gemm@RTX_3090 campaign, reduced settings."""
    cache = get_benchmark("gemm").build_cache(RTX_3090)
    report = feature_importance(cache, n_estimators=40, max_depth=5, learning_rate=0.1,
                                n_repeats=2, max_samples=3000, random_state=2023)
    names = report.feature_names
    return {
        "importances": np.asarray([report.importances[k] for k in names]),
        "importances_std": np.asarray([report.importances_std[k] for k in names]),
        "gain_importances": np.asarray([report.gain_importances[k] for k in names]),
        "r2": np.asarray([report.r2, report.r2_raw]),
    }


def surrogate_arrays() -> Arrays:
    """One ``SurrogateSearch`` trajectory on the exhaustive pnpoly@RTX_3090 campaign."""
    cache = get_benchmark("pnpoly").build_cache(RTX_3090)
    problem = cache.to_problem(strict=False, memoize=True)
    result = SurrogateSearch().tune(problem, Budget(max_evaluations=80), seed=2023)
    space = problem.space
    return {
        "indices": np.asarray([space.index_of(obs.config) for obs in result.observations]),
        "values": np.asarray([obs.value for obs in result.observations]),
        "valid": np.asarray([obs.valid for obs in result.observations]),
    }


def golden_fixtures() -> dict[str, Callable[[], Arrays]]:
    """Fixture name -> zero-argument function computing its pinned arrays."""
    fixtures: dict[str, Callable[[], Arrays]] = {}
    for depth in range(1, 9):
        for leaf in (1, 25):
            fixtures[f"gbdt_mixed_d{depth}_leaf{leaf}"] = (
                lambda depth=depth, leaf=leaf: gbdt_arrays(
                    *mixed_data(), n_estimators=20, learning_rate=0.2, max_depth=depth,
                    min_samples_leaf=leaf, random_state=0))
    fixtures["gbdt_mixed_subsample"] = lambda: gbdt_arrays(
        *mixed_data(), n_estimators=25, max_depth=4, subsample=0.7, random_state=3)
    fixtures["gbdt_mixed_max_bins_8"] = lambda: gbdt_arrays(
        *mixed_data(), n_estimators=20, max_depth=5, max_bins=8, random_state=0)
    fixtures["gbdt_integer"] = lambda: gbdt_arrays(
        *integer_data(), n_estimators=40, max_depth=5, learning_rate=0.1, random_state=1)
    fixtures["gbdt_constant_target"] = lambda: gbdt_arrays(
        mixed_data()[0], np.full(500, 1.25), mixed_data()[2], n_estimators=5,
        max_depth=3, random_state=0)
    fixtures["tree_weighted_leaf1"] = lambda: weighted_tree_arrays(1)
    fixtures["tree_weighted_leaf8"] = lambda: weighted_tree_arrays(8)
    fixtures["importance_gemm_RTX_3090"] = gemm_importance_arrays
    fixtures["surrogate_pnpoly_RTX_3090"] = surrogate_arrays
    return fixtures


def digest_arrays(arrays: Arrays) -> dict[str, dict[str, object]]:
    """Shape and SHA-256 of the little-endian bytes of every array."""
    out: dict[str, dict[str, object]] = {}
    for name, array in arrays.items():
        array = np.asarray(array)
        if array.dtype.kind == "b":
            data = array.astype("u1")
        elif array.dtype.kind in "iu":
            data = array.astype("<i8")
        else:
            data = array.astype("<f8")
        out[name] = {"shape": list(array.shape),
                     "sha256": hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()}
    return out


def main() -> None:
    golden: dict[str, object] = {"fixtures": {}}
    for name, compute in golden_fixtures().items():
        golden["fixtures"][name] = digest_arrays(compute())
        print(f"pinned {name}")
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(OUT_PATH, "wb", mtime=0) as fh:
        fh.write(json.dumps(golden, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
