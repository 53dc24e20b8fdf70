"""Discrete differential evolution.

Differential evolution maintains a population of encoded configuration vectors and
creates trial vectors as ``a + F * (b - c)`` from three distinct population members,
followed by binomial crossover with the target vector.  Because the BAT search spaces
are discrete, trial vectors are snapped back to the nearest allowed value of each
parameter (the standard discrete-DE treatment) and repaired against the constraints.

The population state is array-native end to end: encoded position vectors come
straight from the value columns (:meth:`~repro.core.searchspace.SearchSpace.encode_indices`),
trial vectors snap to digit vectors through the padded encoded-value grid
(:meth:`~repro.core.searchspace.SearchSpace.decode_index`, one broadcast argmin
instead of a per-parameter scan) and repair is one constraint check.  Every vector
settles through :meth:`~repro.tuners.base.Tuner.evaluate_index`: the initial
population in order (:meth:`~repro.tuners.base.Tuner.evaluate_index_run`), each
trial as it is constructed, because selection must see its value before the next
trial exists
(replaced members can donate to later trials in the same sweep).
"""

from __future__ import annotations

import numpy as np

from repro.core.budget import Budget
from repro.core.problem import TuningProblem
from repro.tuners.base import Tuner

__all__ = ["DifferentialEvolution"]


class DifferentialEvolution(Tuner):
    """DE/rand/1/bin over the encoded configuration space.

    Parameters
    ----------
    population_size:
        Number of vectors in the population (at least 4 so three distinct donors plus
        the target exist).
    differential_weight:
        The ``F`` scale factor applied to the donor difference.
    crossover_probability:
        Per-dimension probability of taking the mutant component (binomial crossover).
    """

    name = "diff_evo"

    def __init__(self, seed: int | None = None, population_size: int = 20,
                 differential_weight: float = 0.7, crossover_probability: float = 0.8):
        super().__init__(seed=seed)
        if population_size < 4:
            raise ValueError("population_size must be at least 4 for DE/rand/1")
        self.population_size = int(population_size)
        self.differential_weight = float(differential_weight)
        self.crossover_probability = float(crossover_probability)

    # -------------------------------------------------------------------- main loop

    def _run(self, problem: TuningProblem, budget: Budget, rng: np.random.Generator) -> None:
        space = problem.space
        indices = space.sample_indices(self.population_size, rng=rng,
                                       valid_only=True, unique=True)
        population = space.encode_indices(indices)
        fitness = np.full(indices.size, np.inf)
        observations = self.evaluate_index_run(indices)
        for i, obs in enumerate(observations):
            fitness[i] = obs.value if not obs.is_failure else np.inf
        if len(observations) < indices.size:
            return

        n = indices.size
        dims = space.dimensions
        weight = self.differential_weight
        crossover_probability = self.crossover_probability
        # The donor pool of each target is fixed for the whole run ([0, n) minus
        # the target itself), so the arrays feed ``rng.choice`` pre-built.
        donor_pool = [np.asarray([i for i in range(n) if i != target])
                      for target in range(n)]
        while not self.budget_exhausted:
            for target in range(n):
                a, b, c = rng.choice(donor_pool[target], size=3, replace=False)
                mutant = population[a] + weight * (population[b] - population[c])
                cross = rng.random(dims) < crossover_probability
                cross[int(rng.integers(0, dims))] = True  # at least one mutant gene
                trial_vector = np.where(cross, mutant, population[target])
                trial_index = space.decode_index(trial_vector)
                if not space.index_is_feasible(trial_index):
                    trial_index = space.sample_one_index(rng=rng, valid_only=True)
                obs = self.evaluate_index(trial_index)
                if obs is None:
                    return
                value = np.inf if obs.is_failure else obs.value
                if value <= fitness[target]:
                    population[target] = space.encode_index(trial_index)
                    fitness[target] = value
