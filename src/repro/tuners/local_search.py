"""Local search: hill climbing with restarts, and greedy iterated local search.

These are the canonical "local" optimizers whose behaviour the proportion-of-centrality
metric (Fig. 3 of the paper) is designed to predict: a randomised first-improvement
local search performs a walk on the fitness-flow graph, and the metric estimates how
likely such a walk is to end in a good local minimum.  Having the real algorithm in the
suite lets the ablation benchmarks check that prediction empirically.

Both optimizers are index-native: the walk carries the incumbent as a mixed-radix
space index, neighbourhoods come from the digit-arithmetic kernels
(:meth:`~repro.core.searchspace.SearchSpace.neighbor_indices`) and evaluations go
through :meth:`~repro.tuners.base.Tuner.evaluate_index` -- no configuration dictionary
exists anywhere in the loop, yet the trajectories (RNG streams, observation order,
values) are byte-identical to the dictionary-based seed implementation.
"""

from __future__ import annotations

import numpy as np

from repro.core.budget import Budget
from repro.core.problem import TuningProblem
from repro.core.result import Observation
from repro.tuners.base import Tuner

__all__ = ["LocalSearch", "GreedyILS"]


class LocalSearch(Tuner):
    """Hill climbing over the Hamming-distance-1 neighbourhood with random restarts.

    Parameters
    ----------
    strategy:
        ``"first"`` -- first-improvement: accept the first better neighbour found (the
        randomised first-improvement search of Schoonhoven et al.); ``"best"`` --
        best-improvement: evaluate the whole neighbourhood and move to the best.
    neighborhood:
        ``"hamming"`` (all other values of one parameter) or ``"adjacent"`` (one step
        in the ordered value list).
    restarts:
        Unlimited by default (the search restarts from a random point whenever it
        reaches a local minimum and budget remains).
    """

    name = "local"

    def __init__(self, seed: int | None = None, strategy: str = "first",
                 neighborhood: str = "hamming"):
        super().__init__(seed=seed)
        if strategy not in ("first", "best"):
            raise ValueError(f"unknown strategy {strategy!r} (use 'first' or 'best')")
        self.strategy = strategy
        self.neighborhood = neighborhood

    # ------------------------------------------------------------------ main loop

    def _run(self, problem: TuningProblem, budget: Budget, rng: np.random.Generator) -> None:
        # Restart points come from the space's batched index sampler and each step's
        # neighbourhood is one digit-arithmetic enumeration plus one constraint
        # mask, so the per-iteration Python work is just the evaluations themselves.
        while not self.budget_exhausted:
            start = problem.space.sample_one_index(rng=rng, valid_only=True)
            self._climb(problem, start, rng)

    def _climb(self, problem: TuningProblem, start: int,
               rng: np.random.Generator) -> None:
        current = self.evaluate_index(start)
        if current is None:
            return
        current_index = start
        while not self.budget_exhausted:
            neighbors = problem.space.neighbor_indices(
                current_index, strategy=self.neighborhood, valid_only=True)
            if not neighbors.size:
                return
            permuted = neighbors[rng.permutation(neighbors.size)]
            step = self._step(current, permuted)
            if step is None:
                return  # budget exhausted or local minimum reached
            current, current_index = step

    def _step(self, current: Observation, permuted: np.ndarray,
              ) -> tuple[Observation, int] | None:
        """The first (``"first"``) or best (``"best"``) improving neighbour and
        its index; None at a local minimum or once the budget runs out."""
        best: Observation | None = None
        best_index = -1
        for index in permuted.tolist():
            obs = self.evaluate_index(index)
            if obs is None:
                return None
            if obs.is_failure:
                continue
            if self.strategy == "first":
                if obs.value < current.value:
                    return obs, index
            elif best is None or obs.value < best.value:
                best, best_index = obs, index
        if best is not None and best.value < current.value:
            return best, best_index
        return None


class GreedyILS(Tuner):
    """Greedy iterated local search: hill climb, perturb the local optimum, repeat.

    After each descent the best-known configuration is perturbed in
    ``perturbation_strength`` randomly chosen parameters and the climb restarts from
    there, escaping small basins without losing the incumbent.  The incumbent lives
    as a space index (via the base class's best tracker), so perturbation is digit
    surgery: re-sample a few digits, re-assemble the index, one constraint-mask check.
    """

    name = "greedy_ils"

    def __init__(self, seed: int | None = None, perturbation_strength: int = 2,
                 neighborhood: str = "hamming"):
        super().__init__(seed=seed)
        self.perturbation_strength = max(int(perturbation_strength), 1)
        self.neighborhood = neighborhood

    def _perturb(self, problem: TuningProblem, index: int,
                 rng: np.random.Generator) -> int:
        """Re-sample a few digits of ``index`` uniformly at random."""
        space = problem.space
        digits = space.digits_of_index(index).copy()
        dims = space.dimensions
        chosen = rng.choice(dims, size=min(self.perturbation_strength, dims),
                            replace=False)
        for j in chosen:
            digits[int(j)] = space.parameters[int(j)].sample_index(rng)
        perturbed = int(space.digits_to_indices(digits[None, :])[0])
        if space.index_is_feasible(perturbed):
            return perturbed
        return space.sample_one_index(rng=rng, valid_only=True)

    def _run(self, problem: TuningProblem, budget: Budget, rng: np.random.Generator) -> None:
        climber = LocalSearch(strategy="first", neighborhood=self.neighborhood)
        # Share this run's bookkeeping with the inner climber so every evaluation it
        # performs is recorded and budgeted exactly once.
        self._share_run_state(climber)

        incumbent = problem.space.sample_one_index(rng=rng, valid_only=True)
        while not self.budget_exhausted:
            climber._climb(problem, incumbent, rng)
            best = self.best_index_so_far()
            base = best if best is not None else incumbent
            incumbent = self._perturb(problem, base, rng)
