"""Random search.

Uniform random sampling of the (statically valid) search space, without replacement.
Random search is the reference optimizer of the paper's convergence study (Fig. 2):
the analyses sample configurations uniformly from the campaign caches and track the
best-so-far relative performance, and this class implements exactly that behaviour
when run against a cache-replay problem.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.budget import Budget
from repro.core.problem import TuningProblem
from repro.core.searchspace import SearchSpace
from repro.tuners.base import Tuner

__all__ = ["RandomSearch"]

#: Indices drawn and mask-filtered per block of the random stream.
_DRAW_BLOCK = 512
#: Floor of the consecutive duplicate/invalid draws that end the stream; the
#: cap is ``max(_MIN_CONSECUTIVE_REJECTS, 50 * dimensions)``.
_MIN_CONSECUTIVE_REJECTS = 10_000


def _random_valid_indices(space: SearchSpace,
                          rng: np.random.Generator) -> Iterator[int]:
    """Stream uniformly-random valid space indices, each at most once.

    Candidate indices are drawn in blocks and run through the space's constraint
    truth-table mask, so per-candidate Python work only happens for indices that
    are actually evaluated.  Candidates are yielded in draw order, which keeps
    the evaluated sequence identical to drawing one index at a time with the
    same generator.  The stream ends after too many consecutive duplicate or
    invalid draws, the signal that the space has effectively run out of fresh
    valid configurations.
    """
    max_consecutive_rejects = max(_MIN_CONSECUTIVE_REJECTS, 50 * space.dimensions)
    drawn: set[int] = set()
    consecutive_rejects = 0
    while True:
        draws = rng.integers(0, space.cardinality, size=_DRAW_BLOCK)
        mask = space.satisfied_mask(draws)
        for index, ok in zip(draws.tolist(), mask.tolist()):
            if not ok or index in drawn:
                consecutive_rejects += 1
                if consecutive_rejects > max_consecutive_rejects:
                    return
                continue
            consecutive_rejects = 0
            drawn.add(index)
            yield index


class RandomSearch(Tuner):
    """Uniform random search over the valid search space.

    It never evaluates the same configuration twice -- the behaviour real tuners get
    from their evaluation caches and the behaviour the paper assumes when plotting
    convergence against unique function evaluations.
    """

    name = "random"

    def _run(self, problem: TuningProblem, budget: Budget, rng: np.random.Generator) -> None:
        # Indices go straight into the evaluation path (no configuration
        # dictionaries), and the stream ends by itself once the space has clearly
        # run out of fresh valid configurations (small spaces under large budgets).
        for index in _random_valid_indices(problem.space, rng):
            if self.evaluate_index(index) is None:
                break
