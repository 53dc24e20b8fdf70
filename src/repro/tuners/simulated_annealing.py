"""Simulated annealing over the configuration neighbourhood graph.

A classic global optimizer for rugged discrete landscapes: a random walk that always
accepts improvements and accepts deteriorations with probability
``exp(-delta / temperature)``, where the temperature decays geometrically over the
evaluation budget.  Deterioration is measured relative to the current value, so the
acceptance behaviour adapts to each benchmark's runtime scale.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.budget import Budget
from repro.core.problem import TuningProblem
from repro.tuners.base import Tuner

__all__ = ["SimulatedAnnealing"]


class SimulatedAnnealing(Tuner):
    """Simulated annealing with geometric cooling and automatic restarts.

    Parameters
    ----------
    initial_temperature:
        Start temperature expressed as a *relative* deterioration (0.5 means a 50%
        slower neighbour is accepted with probability ``1/e`` at the start).
    cooling_rate:
        Multiplicative temperature decay applied after every evaluation.
    neighborhood:
        Neighbourhood structure passed to the search space (``"hamming"`` or
        ``"adjacent"``).
    """

    name = "annealing"

    def __init__(self, seed: int | None = None, initial_temperature: float = 0.5,
                 cooling_rate: float = 0.98, neighborhood: str = "adjacent"):
        super().__init__(seed=seed)
        if not (0.0 < cooling_rate < 1.0):
            raise ValueError("cooling_rate must lie in (0, 1)")
        if initial_temperature <= 0.0:
            raise ValueError("initial_temperature must be positive")
        self.initial_temperature = float(initial_temperature)
        self.cooling_rate = float(cooling_rate)
        self.neighborhood = neighborhood
        #: Temperature below which the walk restarts from a fresh random point.
        self.restart_temperature = 1e-3

    def _run(self, problem: TuningProblem, budget: Budget, rng: np.random.Generator) -> None:
        # The walk is index-native: the current state is a space index, neighbours
        # come from the digit-arithmetic kernels, and no configuration dictionary is
        # built anywhere in the loop.
        space = problem.space
        while not self.budget_exhausted:
            current_index = space.sample_one_index(rng=rng, valid_only=True)
            current = self.evaluate_index(current_index)
            if current is None:
                return
            temperature = self.initial_temperature
            while not self.budget_exhausted and temperature > self.restart_temperature:
                options = space.neighbor_indices(current_index,
                                                 strategy=self.neighborhood,
                                                 valid_only=True)
                if not options.size:
                    break
                neighbor = int(options[int(rng.integers(0, options.size))])
                candidate = self.evaluate_index(neighbor)
                if candidate is None:
                    return
                temperature *= self.cooling_rate
                if candidate.is_failure:
                    continue
                if current.is_failure:
                    current, current_index = candidate, neighbor
                    continue
                relative_delta = (candidate.value - current.value) / current.value
                if relative_delta <= 0.0:
                    current, current_index = candidate, neighbor
                elif rng.random() < math.exp(-relative_delta / max(temperature, 1e-9)):
                    current, current_index = candidate, neighbor
