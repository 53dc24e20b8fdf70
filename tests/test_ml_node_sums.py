"""Property test: the grower's per-node totals against three 1-D ``.sum()`` calls.

:func:`repro.ml.tree.node_totals` gathers the per-row statistics of one tree level
with ``np.take(stats, order, axis=1)`` and takes each node's totals as one row
reduction of a slice of that gather.  The goldens require every total to equal
the 1-D ``.sum()`` of the node's rows in data order, byte for byte, so this suite
draws random row orders and segment layouts with lengths on both sides of the
boundaries of NumPy's pairwise summation (blocks of 8, 128-element leaves, the
8192-element buffer) and values that expose any change of order: signed zeros
(NumPy's sum starts from ``0.0``, so ``[-0.0].sum()`` is ``0.0``), subnormals and
magnitudes from 1e-300 to 1e200.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.tree import node_totals

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: Segment lengths at and around NumPy's pairwise-sum and buffer boundaries.
EDGE_LENGTHS = (1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257,
                8191, 8192, 8193, 8200)

#: Values whose sums change with the order they are added in.
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                    1.0, -1.0, 0.1, 1e16, -1e16, 3.0e200, -3.0e200])


def draw_stats(seed: int, n_stats: int, n: int, special_share: float) -> np.ndarray:
    """``(n_stats, n)`` values: a share of specials, the rest of mixed sign and scale."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_stats, n)) * 10.0 ** rng.integers(-300, 200, (n_stats, n))
    special = rng.random((n_stats, n)) < special_share
    values[special] = rng.choice(SPECIAL, size=int(special.sum()))
    return values


def assert_totals_match(stats: np.ndarray, order: np.ndarray, lengths: list[int]) -> None:
    bounds = np.concatenate(([0], np.cumsum(lengths))).tolist()
    level, totals = node_totals(stats, order, bounds)
    np.testing.assert_array_equal(level, stats[:, order])
    assert totals.shape == (len(lengths), stats.shape[0])
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        for j in range(stats.shape[0]):
            expected = stats[j][order][lo:hi].sum()
            assert totals[k, j].tobytes() == expected.tobytes(), (
                f"segment {k} [{lo}:{hi}] of statistic {j}: {totals[k, j]!r} != {expected!r}")


segment_lengths = st.lists(st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(1, 300)),
                           min_size=1, max_size=12).filter(lambda ls: sum(ls) <= 40_000)


@hypothesis.given(lengths=segment_lengths, n_stats=st.integers(1, 4),
                  seed=st.integers(0, 2**32 - 1), special_share=st.sampled_from([0.0, 0.3, 0.9]),
                  spare=st.integers(0, 50))
@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
def test_node_totals_equal_one_dimensional_sums(lengths, n_stats, seed, special_share, spare):
    # ``spare`` rows are in no segment, like the rows of finished leaves.
    n = sum(lengths) + spare
    stats = draw_stats(seed, n_stats, n, special_share)
    order = np.random.default_rng(seed + 1).permutation(n)[:sum(lengths)]
    assert_totals_match(stats, order, lengths)


@pytest.mark.parametrize("lengths", [[1], [7, 8, 9], [128, 129, 1], [8192], [8193, 9, 8200]])
def test_node_totals_at_pairwise_boundaries(lengths):
    n = sum(lengths)
    stats = draw_stats(sum(lengths), 4, n, 0.3)
    assert_totals_match(stats, np.random.default_rng(n).permutation(n), lengths)


def test_signed_zero_node_total_is_positive_zero():
    stats = np.full((3, 4), -0.0)
    _, totals = node_totals(stats, np.arange(4), [0, 1, 4])
    assert not np.signbit(totals).any()
