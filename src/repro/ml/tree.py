"""Histogram-based regression tree, grown level by level.

The tree is the weak learner underneath :mod:`repro.ml.gbdt`.  Every feature of a
tuning configuration takes only a few distinct values (at most 37 across the whole
suite), so the split search is exact over histograms: :func:`bin_features` maps
each feature to bins once (halfway thresholds between unique values, or quantiles
past ``max_bins``), and the prefix sums of per-bin weight, weighted target and
weighted squared target give the left/right sums of *every* candidate split at once.

:meth:`DecisionTreeRegressor.grow` builds the tree one depth at a time over a
:class:`BinLayout` (codes, edges, split candidates and histogram keys), which an
ensemble builds once and shares between its trees.  Each level makes a fixed,
small number of NumPy calls plus one reduction per node: one ``np.take`` gathers
the level's per-row statistics, one row reduction per node gives its totals, one
``np.bincount`` per statistic fills the histograms of every splittable node, one
``cumsum`` along the bin axis gives the left sums of every (node, feature, bin),
one gather keeps the real split candidates (a feature's bins stop at its own
width, the histograms at the widest feature's), the variance-reduction formula
scores them, an ``argmax`` per node picks the split, and a stable sort partitions
the rows into the children.

The grower reproduces a depth-first per-node, per-feature builder bit for bit
(``tests/test_ml_golden.py`` pins this), which fixes the order of every sum:

1. Each histogram bucket adds its rows in ascending row order.
2. Node totals and node values are pairwise sums over the node's rows in
   ascending order, equal to per-node 1-D ``.sum()`` calls
   (``np.average(t, weights=w)`` is ``(w * t).sum() / w.sum()``); they are never
   derived from the histograms, which add sequentially.  They are row reductions
   of a C-contiguous gather (:func:`node_totals`): a strided gather such as
   ``stats[:, order]`` sums in another order (``tests/test_ml_node_sums.py``).
3. Only real candidates are scored: the prefix sums run over the padded
   histogram, one feature at a time, and the candidates are gathered from them
   feature-major and ascending by bin (``BinLayout.split_at``).
4. The first maximum over the candidates breaks ties towards the lowest
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
from itertools import accumulate
from typing import Sequence

import numpy as np

__all__ = ["DecisionTreeRegressor"]

_LEAF = -1

#: Leaf bitmasks are one uint64: trees with more leaves have none.
MASK_LEAVES = 64
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


def check_sample_weight(sample_weight: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sample_weight`` as a float vector like ``y``: finite, non-negative, positive sum."""
    sample_weight = np.asarray(sample_weight, dtype=float).ravel()
    if sample_weight.shape != y.shape:
        raise ValueError(f"sample_weight has {sample_weight.size} entries but y "
                         f"has {y.size}")
    check_finite("sample_weight", sample_weight)
    if np.any(sample_weight < 0):
        raise ValueError("sample_weight contains negative values")
    if not sample_weight.sum() > 0:
        raise ValueError("sample_weight must have a positive sum")
    return sample_weight


@dataclass(frozen=True, eq=False)
class BinLayout:
    """A training matrix binned for histogram split search, built by :func:`bin_features`.

    Every tree grown on the same matrix reads the same layout, so an ensemble builds
    it once per fit and drops it when the fit ends.  :meth:`histograms` is the only
    reader of :attr:`keys`.
    """

    codes: np.ndarray               # (F, n) bin of sample i in feature f
    edges: tuple[np.ndarray, ...]   # per feature, the split threshold after each bin
    width: int                      # bins of the widest feature
    split_at: np.ndarray            # (C,) candidate c's position in the (F, width - 1) grid
    split_feature: np.ndarray       # (C,) feature of candidate c
    split_bin: np.ndarray           # (C,) last bin candidate c sends left
    keys: np.ndarray                # (F, n) histogram bucket within a slot: codes + f * width

    def spread(self, stats: np.ndarray) -> np.ndarray:
        """Per-sample statistics ``(s, n)`` repeated for every feature, ``(s, F * n)``,
        in the order :meth:`histograms` takes them."""
        return np.concatenate((stats,) * len(self.edges), axis=1)

    def histograms(self, weights: np.ndarray, slot_of_row: np.ndarray,
                   n_slots: int) -> np.ndarray:
        """``(s, n_slots, F, width)`` sums of each spread statistic per (slot, feature, bin).

        Sample i counts in slot ``slot_of_row[i]``.  One ``np.bincount`` per statistic
        runs over the keys in data order, so each bucket adds its samples in
        ascending order.
        """
        n_features = len(self.edges)
        stride = n_features * self.width
        keys = (self.keys + slot_of_row * stride).ravel()
        size = n_slots * stride
        hist = np.concatenate([np.bincount(keys, weights=w, minlength=size) for w in weights])
        return hist.reshape(len(weights), n_slots, n_features, self.width)


def bin_features(X: np.ndarray, max_bins: int) -> BinLayout:
    """The :class:`BinLayout` of ``X``: ``codes[j, i]`` is the bin of sample i in feature j.

    ``edges[j][b]`` is the split threshold after bin b: halfway between consecutive
    unique values, or quantiles when feature j has more than ``max_bins`` of them.
    The codes are feature-major so that gathering a node's rows reads each feature's
    bins contiguously.
    """
    n_features = X.shape[1]
    codes = np.empty(X.shape[::-1], dtype=np.int64)
    edges = []
    for j in range(n_features):
        uniques = np.unique(X[:, j])
        if len(uniques) > max_bins:
            quantiles = np.linspace(0, 100, max_bins + 1)[1:-1]
            feature_edges = np.unique(np.percentile(X[:, j], quantiles))
        else:
            feature_edges = (uniques[:-1] + uniques[1:]) / 2.0
        edges.append(feature_edges)
        codes[j] = np.searchsorted(feature_edges, X[:, j], side="left")
    n_bins = np.asarray([len(e) + 1 for e in edges], dtype=np.int64)
    width = int(n_bins.max(initial=1))
    # Split candidate (feature f, bin b) sends bins <= b left; it exists for
    # b < n_bins[f] - 1 only.  ``nonzero`` lists them feature-major, ascending by bin.
    split_feature, split_bin = np.nonzero(np.arange(width - 1) < (n_bins - 1)[:, None])
    split_at = split_feature * (width - 1) + split_bin
    keys = codes + (np.arange(n_features) * width)[:, None]
    return BinLayout(codes, tuple(edges), width, split_at, split_feature, split_bin, keys)


def node_totals(stats: np.ndarray, order: np.ndarray,
                bounds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """``(level, totals)``: the columns of ``stats`` in ``order``, and their sums per node.

    ``stats`` is ``(s, n)``; node k holds ``level[:, bounds[k]:bounds[k + 1]]`` and
    ``totals[k, j]`` equals ``stats[j][order][bounds[k]:bounds[k + 1]].sum()`` byte for
    byte.  ``np.take`` gathers C-contiguous rows, so each row of a node's slice is a
    contiguous run that NumPy sums pairwise exactly as the 1-D call does;
    ``stats[:, order]`` gathers into strided rows, whose sums add in another order.
    """
    level = np.take(stats, order, axis=1)
    # ``np.add.reduce`` is the reduction ``.sum`` makes, without its Python frame.
    return level, np.array([np.add.reduce(level[:, lo:hi], axis=1)
                            for lo, hi in zip(bounds, bounds[1:])])


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

    A node needs at least two samples, with targets not all equal, to be
    considered for splitting.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_leaf:
        Minimum number of samples each child must retain.
    max_bins:
        Maximum number of histogram bins per feature; features with more unique
        values are quantile-binned down to this many.
    """

    def __init__(self, max_depth: int = 6,
                 min_samples_leaf: int = 1, max_bins: int = 64):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = int(max_depth)
        self.min_samples_leaf = max(int(min_samples_leaf), 1)
        self.max_bins = max(int(max_bins), 2)
        self._tree: _TreeArrays | None = None
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
            sample_weight = check_sample_weight(sample_weight, y)
        self.grow(bin_features(X, self.max_bins), y, sample_weight)
        return self

    # Weightless nodes and split sides divide by zero; np.where discards those quotients.
    @np.errstate(divide="ignore", invalid="ignore")
    def grow(self, layout: BinLayout, y: np.ndarray, sample_weight: np.ndarray) -> np.ndarray:
        """Grow the tree on a matrix binned by :func:`bin_features`, level by level.

        Returns the fitted value of every row (the value of the leaf it lands in),
        which equals ``predict`` on the unbinned rows because
        ``searchsorted(edges, x, "left") <= b`` holds exactly when ``x <= edges[b]``.
        """
        n_features, n = layout.codes.shape
        self.n_features_ = n_features
        width = layout.width
        min_leaf = self.min_samples_leaf
        # Per row: weight, weighted target, weighted squared target and target.  The
        # histograms take the first three, spread over the features once per tree.
        wy = sample_weight * y
        stats = np.array((sample_weight, wy, wy * y, y))
        weights = layout.spread(stats[:3])

        # A leaf tests +inf and has itself as both children, so a walk as long as
        # the deepest leaf's depth leaves every row at its leaf.
        feature = [_LEAF]
        threshold = [np.inf]
        left = [0]
        right = [0]
        value: list[float] = []
        credited: dict[int, tuple[int, float]] = {}
        leaf_of_row = np.zeros(n, dtype=np.int64)

        # One depth's nodes are numbered ``first`` onwards, in the order of
        # ``counts``; ``order`` holds their rows grouped by node, ascending within
        # each node, so every per-node sum adds the node's rows in data order.
        order = np.arange(n)
        first = 0
        counts = [n]
        deepest = 0
        for depth in range(self.max_depth + 1):
            if not counts:
                break
            deepest = depth
            n_nodes = len(counts)
            sizes = np.array(counts)
            # The level's node map: the node of each row of ``order``, from 0.
            slots = np.repeat(np.arange(n_nodes), sizes)
            leaf_of_row[order] = slots + first
            bounds = [0, *accumulate(counts)]
            level, totals = node_totals(stats, order, bounds)
            node_w, node_wy, _, node_y = totals.T
            # ``y.mean()`` of a weightless node is its sum over its row count.
            value += np.where(node_w > 0, node_wy / node_w, node_y / sizes).tolist()
            if depth == self.max_depth or width < 2:
                break
            starts = bounds[:-1]
            splittable = ((sizes >= 2)
                          & (np.minimum.reduceat(level[3], starts)
                             != np.maximum.reduceat(level[3], starts)))
            n_split = int(np.count_nonzero(splittable))
            if not n_split:
                break

            # The histograms of every splittable node of the level at once; rows of
            # the other nodes go to a spare slot that is never read.
            if n_split < n_nodes:
                slot_map = np.full(n_nodes, n_split)
                slot_map[splittable] = np.arange(n_split)
                slots = slot_map[slots]
            slot_of_row = np.full(n, n_split)
            slot_of_row[order] = slots
            hist = layout.histograms(weights, slot_of_row, n_split + 1)
            # sides[s, 0] and sides[s, 1] are the left and right sums of statistic s
            # for every (node, candidate): prefix sums over each feature's bins, the
            # real candidates gathered from them, then the node total minus the left sum.
            prefix = np.cumsum(hist[:, :n_split, :, :-1], axis=3).reshape(3, n_split, -1)
            sides = np.empty((3, 2, n_split, len(layout.split_at)))
            np.take(prefix, layout.split_at, axis=2, out=sides[:, 0])
            parent = totals[splittable, :3].T[:, :, None]
            np.subtract(parent, sides[:, 0], out=sides[:, 1])
            side_w, side_wy, side_wyy = sides
            # A valid side weighs at least min_leaf >= 1, so the quotients of
            # weightless sides and nodes reach only gains the mask drops.
            sse = side_wyy - side_wy ** 2 / side_w
            total_w, total_wy, total_wyy = parent
            parent_sse = total_wyy - total_wy * total_wy / total_w
            gain = parent_sse - (sse[0] + sse[1])
            gain = np.where(np.minimum(side_w[0], side_w[1]) >= min_leaf, gain, -np.inf)
            # First maximum over the candidates: lowest feature, then lowest bin.
            best = gain.argmax(axis=1)
            best_gain = gain.max(axis=1)
            split = best_gain > _MIN_GAIN
            best_feature, best_bin = layout.split_feature[best], layout.split_bin[best]

            rows = order
            if n_split < n_nodes:
                keep = slots < n_split
                rows, slots = order[keep], slots[keep]
            go_right = layout.codes[best_feature[slots], rows] > best_bin[slots]
            n_left = np.bincount(slots[~go_right], minlength=n_split)
            n_right = sizes[splittable] - n_left
            split_nodes = (splittable.nonzero()[0] + first).tolist()
            best_feature, best_bin = best_feature.tolist(), best_bin.tolist()
            best_gain, n_left, n_right = best_gain.tolist(), n_left.tolist(), n_right.tolist()
            first += n_nodes
            counts = []
            for k in split.nonzero()[0].tolist():
                node = split_nodes[k]
                f = best_feature[k]
                # The gain counts even when a child then falls under min_samples_leaf
                # (weighted sizes passed, row counts did not) and the node stays a leaf.
                credited[node] = (f, best_gain[k])
                if n_left[k] < min_leaf or n_right[k] < min_leaf:
                    split[k] = False
                    continue
                child = len(feature)
                feature[node] = f
                threshold[node] = float(layout.edges[f][best_bin[k]])
                left[node] = child
                right[node] = child + 1
                feature += (_LEAF, _LEAF)
                threshold += (np.inf, np.inf)
                left += (child, child + 1)
                right += (child, child + 1)
                counts += (n_left[k], n_right[k])

            move = split[slots]
            order = rows[move][np.lexsort((go_right[move], slots[move]))]

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
        bit k, and ``leaf_value[k]`` is its value: the leaf values indexed by bit
        position.  For feature f and each value x in ``uniques[f]``, ``table``
        holds, concatenated in feature order, the leaves the nodes testing f leave
        reachable: a node clears its right subtree's leaves when
        ``x <= threshold`` and its left subtree's otherwise.  Every node is
        judged, not only those on a row's path, so ANDing one entry per feature of
        a row leaves exactly the bit of the leaf ``predict`` reaches, whatever the
        leaf numbering, and ``np.bitwise_count(bit - 1)`` is that bit's position.
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
        return np.concatenate(tables), tree.value[leaves]

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
