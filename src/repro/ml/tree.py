"""Histogram-based regression tree, grown level by level.

The tree is the weak learner underneath :mod:`repro.ml.gbdt`.  Every feature of a
tuning configuration takes only a few distinct values (at most 37 across the whole
suite), so the split search is exact over histograms: :func:`bin_features` maps
each feature to bins once (halfway thresholds between unique values, or quantiles
past ``max_bins``), and the prefix sums of per-bin weight, weighted target and
weighted squared target give the left/right sums of *every* candidate split at once.

:meth:`DecisionTreeRegressor.grow` builds the tree one depth at a time over the
binned matrix, with a fixed number of NumPy calls per level rather than per node
and feature: one ``np.bincount`` fills the three histograms of every splittable
node of the level, one ``cumsum`` along the bin axis and the variance-reduction
formula score every (node, feature, bin) candidate, a flat ``argmax`` per node
picks the split, and a stable sort partitions the rows into the children.

The grower reproduces a depth-first per-node, per-feature builder bit for bit
(``tests/test_ml_golden.py`` pins this), which fixes the order of every sum:

1. Each histogram bucket adds its rows in ascending row order.
2. Node totals and node values are per-node pairwise ``.sum()`` calls over the
   node's rows in ascending order (``np.average(t, weights=w)`` is
   ``(w * t).sum() / w.sum()``); they are never derived from the histograms,
   which add sequentially.
3. Candidates past a feature's own last bin are masked explicitly.
4. The flat first maximum over (feature, bin) breaks ties towards the lowest
   feature, then the lowest bin, and a split must gain more than 1e-12.
5. ``feature_gains_`` accumulates in depth-first preorder of the split nodes, and
   a split's gain is credited even when a child then holds fewer than
   ``min_samples_leaf`` rows (weighted sizes passed, row counts did not) and the
   node stays a leaf.

Nodes are numbered breadth-first and stored as parallel arrays.  A leaf tests
+inf and is its own left and right child, so :meth:`DecisionTreeRegressor.predict`
walks every row a fixed number of steps, the depth of the deepest leaf: each step
is one flat gather of the value each row tests and one ``np.where`` to the child,
with no per-level selection of the rows still moving.

:meth:`DecisionTreeRegressor.leaf_masks` gives the QuickScorer form of a tree of
at most 64 leaves (Lucchese et al., SIGIR 2015): per feature value, a ``uint64``
of the leaves the nodes on that feature leave reachable.  The AND of one mask per
feature is the bit of the exit leaf, so a row whose feature j changes needs only
feature j's mask looked up again; permutation importance is built on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

__all__ = ["DecisionTreeRegressor"]

_LEAF = -1

#: Leaf bitmasks are one uint64: trees with more leaves have none.
MASK_LEAVES = 64
#: 2 is a primitive root modulo 67, so ``(1 << k) % 67`` differs for every k < 64.
MASK_SLOTS = 67
#: Every bit set: the start of an AND over leaf bitmasks.
ALL_LEAVES = np.uint64(2**64 - 1)

#: A split must reduce the weighted squared error by more than this.
_MIN_GAIN = 1e-12


def check_finite(name: str, array: np.ndarray) -> None:
    """Raise ``ValueError`` naming ``name`` if ``array`` holds NaN or infinity."""
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains NaN or infinite values")


def check_training_data(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` as a finite float matrix and a matching finite float vector."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise ValueError("X must be a 2D array")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on zero samples")
    check_finite("X", X)
    check_finite("y", y)
    return X, y


def bin_features(X: np.ndarray, max_bins: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """``(binned, edges)``: ``binned[j, i]`` is the bin of sample i in feature j.

    ``edges[j][b]`` is the split threshold after bin b: halfway between consecutive
    unique values, or quantiles when feature j has more than ``max_bins`` of them.
    ``binned`` is feature-major so that gathering a node's rows reads each feature's
    bins contiguously.
    """
    binned = np.empty(X.shape[::-1], dtype=np.int64)
    edges = []
    for j in range(X.shape[1]):
        uniques = np.unique(X[:, j])
        if len(uniques) > max_bins:
            quantiles = np.linspace(0, 100, max_bins + 1)[1:-1]
            feature_edges = np.unique(np.percentile(X[:, j], quantiles))
        else:
            feature_edges = (uniques[:-1] + uniques[1:]) / 2.0
        edges.append(feature_edges)
        binned[j] = np.searchsorted(feature_edges, X[:, j], side="left")
    return binned, edges


@dataclass
class _TreeArrays:
    """Flat array representation of a fitted tree (one entry per node)."""

    feature: np.ndarray      # int, _LEAF for leaves
    threshold: np.ndarray    # float split threshold (go left if x <= threshold), +inf at leaves
    left: np.ndarray         # int child index (the leaf itself at leaves)
    right: np.ndarray        # int child index (the leaf itself at leaves)
    value: np.ndarray        # float leaf prediction (also stored for internal nodes)
    depth: int               # depth of the deepest leaf (root = 0)


class DecisionTreeRegressor:
    """CART-style regression tree with exact histogram split search.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_split:
        Minimum number of samples a node needs to be considered for splitting.
    min_samples_leaf:
        Minimum number of samples each child must retain.
    max_bins:
        Maximum number of histogram bins per feature; features with more unique
        values are quantile-binned down to this many.
    """

    def __init__(self, max_depth: int = 6, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_bins: int = 64):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = int(max_depth)
        self.min_samples_split = max(int(min_samples_split), 2)
        self.min_samples_leaf = max(int(min_samples_leaf), 1)
        self.max_bins = max(int(max_bins), 2)
        self._tree: _TreeArrays | None = None
        self._bin_edges: list[np.ndarray] = []
        self.n_features_: int = 0
        self.feature_gains_: np.ndarray | None = None

    # --------------------------------------------------------------------- fitting

    def fit(self, X: np.ndarray, y: np.ndarray,
            sample_weight: np.ndarray | None = None) -> "DecisionTreeRegressor":
        """Fit the tree to ``(X, y)``; returns self."""
        X, y = check_training_data(X, y)
        if sample_weight is None:
            sample_weight = np.ones_like(y)
        else:
            sample_weight = np.asarray(sample_weight, dtype=float).ravel()
            if sample_weight.shape != y.shape:
                raise ValueError(f"sample_weight has {sample_weight.size} entries but y "
                                 f"has {y.size}")
            check_finite("sample_weight", sample_weight)
        binned, edges = bin_features(X, self.max_bins)
        self.grow(binned, edges, y, sample_weight)
        return self

    def grow(self, binned: np.ndarray, edges: list[np.ndarray], y: np.ndarray,
             sample_weight: np.ndarray) -> np.ndarray:
        """Grow the tree on a matrix binned by :func:`bin_features`, level by level.

        Returns the fitted value of every row (the value of the leaf it lands in),
        which equals ``predict`` on the unbinned rows because
        ``searchsorted(edges, x, "left") <= b`` holds exactly when ``x <= edges[b]``.
        """
        n_features, n = binned.shape
        self.n_features_ = n_features
        self._bin_edges = edges
        n_bins = np.asarray([len(e) + 1 for e in edges], dtype=np.int64)
        width = int(n_bins.max(initial=1))
        # Split candidate (feature f, bin b) sends bins <= b left; it exists for
        # b < n_bins[f] - 1 only, the rest of the padded histogram is masked out.
        candidate = np.arange(width - 1) < (n_bins - 1)[:, None]
        # Histogram bucket of (slot, statistic, feature, bin) is
        # ``slot * 3 * stride + statistic * stride + feature * width + bin``; the
        # statistics are w, w*y and w*y*y.  Keys and weights run over the rows in
        # data order, so each bucket adds its rows in ascending order.
        stride = n_features * width
        stat_bucket = binned + (np.arange(3)[:, None, None] * stride
                                + (np.arange(n_features) * width)[:, None])
        stats = np.stack((sample_weight, sample_weight * y, sample_weight * y * y))
        weights = np.broadcast_to(stats[:, None], stat_bucket.shape).ravel()
        min_leaf = self.min_samples_leaf

        # A leaf tests +inf and has itself as both children, so a walk as long as
        # the deepest leaf's depth leaves every row at its leaf.
        feature = [_LEAF]
        threshold = [np.inf]
        left = [0]
        right = [0]
        value = [0.0]
        credited: dict[int, tuple[int, float]] = {}
        leaf_of_row = np.zeros(n, dtype=np.int64)

        # The frontier is one depth's nodes; ``order`` holds their rows grouped by
        # node, ascending within each node, so every per-node sum adds the node's
        # rows in the order they have in the data.
        order = np.arange(n)
        frontier = [0]
        counts = np.asarray([n])
        deepest = 0
        for depth in range(self.max_depth + 1):
            if not frontier:
                break
            deepest = depth
            leaf_of_row[order] = np.repeat(frontier, counts)
            y_level = y[order]
            w_level = sample_weight[order]
            wy_level = w_level * y_level
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            bounds = starts.tolist() + [len(order)]
            splittable = (depth < self.max_depth) & (counts >= self.min_samples_split)
            splittable &= (np.minimum.reduceat(y_level, starts)
                           != np.maximum.reduceat(y_level, starts))
            totals = []
            for slot, node in enumerate(frontier):
                lo, hi = bounds[slot], bounds[slot + 1]
                total_w = w_level[lo:hi].sum()
                total_wy = wy_level[lo:hi].sum()
                value[node] = (float(total_wy / total_w) if total_w > 0
                               else float(y_level[lo:hi].mean()))
                if splittable[slot]:
                    totals.append((total_w, total_wy,
                                   (wy_level[lo:hi] * y_level[lo:hi]).sum()))
            if not totals or width < 2:
                break

            # One bincount over every splittable node of the level; rows of the
            # other nodes go to a spare slot that is never read.
            n_split = len(totals)
            slot_map = np.full(len(frontier), n_split)
            slot_map[splittable] = np.arange(n_split)
            slots = slot_map[np.repeat(np.arange(len(frontier)), counts)]
            slot_of_row = np.full(n, n_split)
            slot_of_row[order] = slots
            hist = np.bincount((stat_bucket + slot_of_row * (3 * stride)).ravel(),
                               weights=weights, minlength=(n_split + 1) * 3 * stride)
            lefts = np.cumsum(hist.reshape(n_split + 1, 3, n_features, width)[:n_split],
                              axis=3)[..., :-1]
            totals = np.asarray(totals)[:, :, None, None]
            side_w, side_wy, side_wyy = np.moveaxis(np.stack((lefts, totals - lefts)), 2, 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                sse = side_wyy - np.where(side_w > 0, side_wy ** 2 / side_w, 0.0)
            total_w, total_wy, total_wyy = np.moveaxis(totals, 1, 0)
            parent_sse = total_wyy - total_wy * total_wy / total_w
            gain = (parent_sse - (sse[0] + sse[1])).reshape(n_split, -1)
            valid = (side_w >= min_leaf).all(axis=0) & candidate
            gain[~valid.reshape(n_split, -1)] = -np.inf
            # First maximum over (feature, bin): lowest feature, then lowest bin.
            best = gain.argmax(axis=1)
            best_gain = gain[np.arange(n_split), best]
            split = best_gain > _MIN_GAIN
            best_feature, best_bin = np.divmod(best, width - 1)

            keep = slots < n_split
            rows, slots = order[keep], slots[keep]
            go_right = binned[best_feature[slots], rows] > best_bin[slots]
            n_left = np.bincount(slots[~go_right], minlength=n_split)
            n_right = np.bincount(slots, minlength=n_split) - n_left
            split_nodes = np.asarray(frontier)[splittable]
            next_frontier: list[int] = []
            child_counts: list[int] = []
            for k in np.flatnonzero(split).tolist():
                node = int(split_nodes[k])
                f = int(best_feature[k])
                # The gain counts even when a child then falls under min_samples_leaf
                # (weighted sizes passed, row counts did not) and the node stays a leaf.
                credited[node] = (f, float(best_gain[k]))
                if n_left[k] < min_leaf or n_right[k] < min_leaf:
                    split[k] = False
                    continue
                feature[node] = f
                threshold[node] = float(edges[f][best_bin[k]])
                for side, count in ((left, n_left[k]), (right, n_right[k])):
                    child = len(feature)
                    side[node] = child
                    next_frontier.append(child)
                    child_counts.append(int(count))
                    feature.append(_LEAF)
                    threshold.append(np.inf)
                    left.append(child)
                    right.append(child)
                    value.append(0.0)

            move = split[slots]
            order = rows[move][np.lexsort((go_right[move], slots[move]))]
            frontier = next_frontier
            counts = np.asarray(child_counts, dtype=np.int64)

        # Credit split gains in depth-first preorder, the order they are summed in.
        self.feature_gains_ = np.zeros(n_features)
        stack = [0]
        while stack:
            node = stack.pop()
            if node in credited:
                f, g = credited[node]
                self.feature_gains_[f] += g
            if feature[node] != _LEAF:
                stack.extend((right[node], left[node]))

        self._tree = _TreeArrays(
            feature=np.asarray(feature, dtype=np.int64),
            threshold=np.asarray(threshold, dtype=float),
            left=np.asarray(left, dtype=np.int64),
            right=np.asarray(right, dtype=np.int64),
            value=np.asarray(value, dtype=float),
            depth=deepest,
        )
        return self._tree.value[leaf_of_row]

    # ------------------------------------------------------------------ prediction

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted target for every row of ``X``."""
        if self._tree is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(f"X must have shape (n, {self.n_features_})")
        tree = self._tree
        # A fixed walk of one step per level, each a flat gather of the tested
        # value per row.  Leaves test column 0 against +inf and loop to themselves;
        # NaN compares false, so it goes right and then stays put.
        flat = np.ascontiguousarray(X).ravel()
        row_start = np.arange(X.shape[0]) * X.shape[1]
        feature = np.maximum(tree.feature, 0)
        node = np.zeros(X.shape[0], dtype=np.int64)
        for _ in range(tree.depth):
            go_left = flat[row_start + feature[node]] <= tree.threshold[node]
            node = np.where(go_left, tree.left[node], tree.right[node])
        return tree.value[node]

    def leaf_masks(self, uniques: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray] | None:
        """Leaf bitmasks per feature value (QuickScorer), or None past 64 leaves.

        Returns ``(table, leaf_value)``.  Leaf k of the tree (in node order) is
        bit k.  For feature f and each value x in ``uniques[f]``, ``table`` holds,
        concatenated in feature order, the leaves the nodes testing f leave
        reachable: a node clears its right subtree's leaves when
        ``x <= threshold`` and its left subtree's otherwise.  Every node is
        judged, not only those on a row's path, so ANDing one entry per feature of
        a row leaves exactly the bit of the leaf ``predict`` reaches, whatever the
        leaf numbering, and ``leaf_value[bit % MASK_SLOTS]`` is that leaf's value.
        """
        if self._tree is None:
            raise RuntimeError("tree is not fitted")
        tree = self._tree
        is_leaf = tree.feature == _LEAF
        leaves = np.flatnonzero(is_leaf)
        if len(leaves) > MASK_LEAVES:
            return None
        internal = np.flatnonzero(~is_leaf)
        bits = np.left_shift(np.uint64(1), np.arange(len(leaves), dtype=np.uint64))
        # Every leaf ORs its bit into each node on its way up to the root.  The
        # root is its own parent, so leaves above the deepest one OR into it again.
        parent = np.zeros(len(is_leaf), dtype=np.int64)
        parent[tree.left[internal]] = internal
        parent[tree.right[internal]] = internal
        below = np.zeros(len(is_leaf), dtype=np.uint64)
        node = leaves
        for _ in range(tree.depth + 1):
            np.bitwise_or.at(below, node, bits)
            node = parent[node]
        split_feature = tree.feature[internal]
        threshold = tree.threshold[internal]
        every_leaf = below[0]
        not_left = every_leaf ^ below[tree.left[internal]]
        not_right = every_leaf ^ below[tree.right[internal]]
        tables = []
        for f, values in enumerate(uniques):
            on_f = split_feature == f
            kept = np.where(values[:, None] <= threshold[on_f], not_right[on_f],
                            not_left[on_f])
            tables.append(np.bitwise_and.reduce(kept, axis=1, initial=every_leaf))
        leaf_value = np.zeros(MASK_SLOTS)
        leaf_value[bits % np.uint64(MASK_SLOTS)] = tree.value[leaves]
        return np.concatenate(tables), leaf_value

    # --------------------------------------------------------------------- queries

    @property
    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        if self._tree is None:
            return 0
        return int(len(self._tree.feature))

    @property
    def feature_importances_(self) -> np.ndarray:
        """Total split gain per feature, normalised to sum to 1 (0 if never split)."""
        if self.feature_gains_ is None:
            raise RuntimeError("tree is not fitted")
        total = self.feature_gains_.sum()
        if total <= 0:
            return np.zeros_like(self.feature_gains_)
        return self.feature_gains_ / total

    def get_params(self) -> dict[str, Any]:
        """Constructor parameters (scikit-learn-style introspection)."""
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_bins": self.max_bins,
        }
