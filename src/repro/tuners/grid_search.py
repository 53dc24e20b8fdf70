"""Grid (exhaustive) search.

Deterministic sweep over the valid search space in mixed-radix order, optionally with a
stride so that a limited budget still covers the whole range of every parameter.  Grid
search is the degenerate baseline the paper's Related Work criticises hard-coded
benchmarks for needing -- it is included both for completeness and because exhaustive
campaigns (the paper's Pnpoly/Nbody/GEMM/Convolution caches) are a grid search by
definition.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.budget import Budget
from repro.core.problem import TuningProblem
from repro.tuners.base import Tuner

__all__ = ["GridSearch"]


class GridSearch(Tuner):
    """Deterministic enumeration of the valid search space.

    Parameters
    ----------
    stride:
        Evaluate every ``stride``-th point of the raw Cartesian product (1 =
        exhaustive).  A stride co-prime with the parameter radices samples all levels
        of every parameter even under tight budgets.
    shuffle:
        If True, enumerate in a seeded random permutation of the index range instead
        of ascending order (useful to decorrelate the sweep from parameter order).
    """

    name = "grid"

    def __init__(self, seed: int | None = None, stride: int = 1, shuffle: bool = False):
        super().__init__(seed=seed)
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = int(stride)
        self.shuffle = shuffle

    def _run(self, problem: TuningProblem, budget: Budget, rng: np.random.Generator) -> None:
        space = problem.space
        stride = self.stride
        n = -(-space.cardinality // stride)  # points on the strided sweep
        # Only a shuffled sweep needs its whole index range up front; the ordered
        # one generates each block as it goes, so a budget of a few hundred
        # evaluations never allocates a space-sized array.
        order = None
        if self.shuffle:
            order = np.arange(0, space.cardinality, stride, dtype=np.int64)
            rng.shuffle(order)
        # Validity is resolved one block at a time through the constraint truth-table
        # mask; the surviving indices feed the evaluation fast path directly (no
        # configuration dictionaries), and blocks never grow far beyond what the
        # remaining budget can evaluate.
        chunk = 1 << 14
        start = 0
        while start < n:
            if self.budget_exhausted:
                return
            remaining = budget.remaining_evaluations
            block_size = chunk if not math.isfinite(remaining) else max(
                min(chunk, int(remaining) * 4), 64)
            stop = min(start + block_size, n)
            block = (order[start:stop] if order is not None
                     else np.arange(start, stop, dtype=np.int64) * stride)
            start = stop
            feasible = block[space.satisfied_mask(block)]
            # A short run means the budget ran out mid-block.
            if len(self.evaluate_index_run(feasible)) < feasible.size:
                return
