"""Random search.

Uniform random sampling of the (statically valid) search space, without replacement by
default.  Random search is the reference optimizer of the paper's convergence study
(Fig. 2): the analyses sample configurations uniformly from the campaign caches and
track the best-so-far relative performance, and this class implements exactly that
behaviour when run against a cache-replay problem.
"""

from __future__ import annotations

import numpy as np

from repro.core.budget import Budget
from repro.core.problem import TuningProblem
from repro.tuners.base import Tuner

__all__ = ["RandomSearch"]


class RandomSearch(Tuner):
    """Uniform random search over the valid search space.

    Parameters
    ----------
    seed:
        Random seed.
    without_replacement:
        If True (default), never evaluates the same configuration twice -- the
        behaviour real tuners get from their evaluation caches and the behaviour the
        paper assumes when plotting convergence against unique function evaluations.
    """

    name = "random"

    def __init__(self, seed: int | None = None, without_replacement: bool = True):
        super().__init__(seed=seed)
        self.without_replacement = without_replacement

    def _run(self, problem: TuningProblem, budget: Budget, rng: np.random.Generator) -> None:
        # Candidates come from the base class's batch ``ask`` stream: indices are
        # drawn in blocks and filtered through the constraint truth-table mask, with
        # the evaluated sequence identical to the one-draw-at-a-time loop.  The
        # indices go straight into the evaluation fast path (no configuration
        # dictionaries), and the stream ends by itself once the space has clearly
        # run out of fresh valid configurations (small spaces under large budgets).
        for index in self.ask_random_indices(
                problem.space, rng, without_replacement=self.without_replacement):
            if self.evaluate_index(index) is None:
                break
