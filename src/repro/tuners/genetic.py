"""Steady-state genetic algorithm.

Population-based global search with tournament selection, uniform crossover and
per-parameter mutation.  Genetic algorithms are among the best-performing optimizers
in the GPU-autotuning literature the paper builds on (Schoonhoven et al.), which makes
this the primary "global optimizer" counterpart to the local searchers in the ablation
benchmarks.

The population is index-native: each individual is a mixed-radix digit vector plus
its fitness, crossover is one sized draw of gene gates (digit-matrix surgery via
:func:`numpy.where`), repair is one constraint check, and every individual -- the
initial population through :meth:`~repro.tuners.base.Tuner.evaluate_index_run`, each
child as soon as it exists -- settles through
:meth:`~repro.tuners.base.Tuner.evaluate_index`.  The genetic
operators consume the random stream in exactly the order the dictionary-based seed
implementation did (genes in parameter order), so trajectories are byte-identical.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.core.budget import Budget
from repro.core.problem import TuningProblem
from repro.tuners.base import Tuner

__all__ = ["GeneticAlgorithm"]

_BY_VALUE = operator.attrgetter("value")


class _Individual:
    """One population member: digit vector, space index and fitness."""

    __slots__ = ("digits", "index", "value")

    def __init__(self, digits: np.ndarray, index: int, value: float):
        self.digits = digits
        self.index = index
        self.value = value


class GeneticAlgorithm(Tuner):
    """Steady-state GA with tournament selection and uniform crossover.

    Parameters
    ----------
    population_size:
        Number of individuals kept in the population.
    tournament_size:
        Individuals drawn per parent-selection tournament.
    mutation_rate:
        Per-parameter probability of re-sampling a gene after crossover.
    elitism:
        Number of best individuals copied unchanged when the population is refreshed.
    """

    name = "genetic"

    def __init__(self, seed: int | None = None, population_size: int = 20,
                 tournament_size: int = 3, mutation_rate: float = 0.1, elitism: int = 2):
        super().__init__(seed=seed)
        if population_size < 2:
            raise ValueError("population_size must be at least 2")
        if not (0.0 <= mutation_rate <= 1.0):
            raise ValueError("mutation_rate must lie in [0, 1]")
        self.population_size = int(population_size)
        self.tournament_size = max(int(tournament_size), 1)
        self.mutation_rate = float(mutation_rate)
        self.elitism = max(int(elitism), 0)

    # --------------------------------------------------------------------- operators

    def _tournament(self, population: list[_Individual],
                    rng: np.random.Generator) -> _Individual:
        """Select the best of ``tournament_size`` random individuals."""
        picks = rng.integers(0, len(population), size=self.tournament_size)
        contenders = [population[int(i)] for i in picks]
        return min(contenders, key=_BY_VALUE)

    def _tournament_pair(self, population: list[_Individual],
                         rng: np.random.Generator
                         ) -> tuple[_Individual, _Individual]:
        """Both parents' tournaments in one sized draw.

        The population does not change between the two back-to-back parent
        selections, so one ``size=2 * tournament_size`` draw consumes the
        generator stream exactly like two consecutive :meth:`_tournament`
        draws -- half the RNG dispatch per child.
        """
        k = self.tournament_size
        picks = rng.integers(0, len(population), size=2 * k).tolist()
        parent_a = min((population[i] for i in picks[:k]), key=_BY_VALUE)
        parent_b = min((population[i] for i in picks[k:]), key=_BY_VALUE)
        return parent_a, parent_b

    def _crossover(self, a: _Individual, b: _Individual,
                   rng: np.random.Generator) -> np.ndarray:
        """Uniform crossover: each gene comes from either parent with equal probability.

        One sized draw decides every gene gate -- the generator stream is
        identical to drawing one uniform per gene in parameter order.
        """
        from_a = rng.random(a.digits.size) < 0.5
        return np.where(from_a, a.digits, b.digits)

    def _mutate(self, radices: list[int], digits: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
        """Re-sample each gene with probability ``mutation_rate``.

        The gate draw and the conditional re-sample draw interleave per gene, so
        this operator stays a scalar loop by construction: hoisting the gates
        into a sized draw would reorder the generator stream whenever any gene
        mutates.
        """
        random = rng.random
        integers = rng.integers
        rate = self.mutation_rate
        for j, radix in enumerate(radices):
            if random() < rate:
                digits[j] = integers(0, radix)
        return digits

    def _repair(self, problem: TuningProblem, digits: np.ndarray,
                rng: np.random.Generator) -> tuple[np.ndarray, int]:
        """Replace constraint-violating offspring with a fresh random configuration."""
        space = problem.space
        index = int(digits @ space._places)
        if space.index_is_feasible(index):
            return digits, index
        index = space.sample_one_index(rng=rng, valid_only=True)
        return space.digits_of_index(index), index

    # -------------------------------------------------------------------- main loop

    def _run(self, problem: TuningProblem, budget: Budget, rng: np.random.Generator) -> None:
        space = problem.space
        population: list[_Individual] = []
        # The initial population is one batched ``ask``: the space draws and
        # constraint-filters the whole block of unique indices in array form,
        # and the run settles them in order until the budget ends.
        initial = space.sample_indices(self.population_size, rng=rng,
                                       valid_only=True, unique=True)
        observations = self.evaluate_index_run(initial)
        for index, obs in zip(initial.tolist(), observations):
            if not obs.is_failure:
                population.append(_Individual(space.digits_of_index(index),
                                              index, obs.value))
        if len(observations) < initial.size or not population:
            return

        radices = [p.cardinality for p in space.parameters]
        while not self.budget_exhausted:
            parent_a, parent_b = self._tournament_pair(population, rng)
            child_digits = self._crossover(parent_a, parent_b, rng)
            child_digits = self._mutate(radices, child_digits, rng)
            child_digits, child_index = self._repair(problem, child_digits, rng)
            obs = self.evaluate_index(child_index)
            if obs is None:
                return
            if not obs.is_failure:
                child = _Individual(child_digits, child_index, obs.value)
                # Steady-state replacement: the child ousts the current worst
                # individual if it improves on it; elites are never replaced.
                population.sort(key=_BY_VALUE)
                protected = population[: self.elitism]
                rest = population[self.elitism:]
                if rest and child.value < rest[-1].value:
                    rest[-1] = child
                elif len(population) < self.population_size:
                    rest.append(child)
                population = protected + rest
