"""Tuner base class: the optimizer side of the shared problem interface.

A tuner receives a :class:`~repro.core.problem.TuningProblem` and a
:class:`~repro.core.budget.Budget` and returns a
:class:`~repro.core.result.TuningResult`.  The base class handles everything that must
be identical across optimizers for a fair comparison -- seeding, budget accounting,
result recording, duplicate handling -- so a concrete tuner only implements
:meth:`Tuner._run`, typically a loop of "propose configuration(s), call
:meth:`Tuner.evaluate`".

Budget semantics
----------------
Every call to :meth:`Tuner.evaluate` consumes one evaluation from the budget, whether
or not the configuration turns out to be valid -- failed compilations cost time on real
hardware, and the paper's convergence plots count them.  Once the budget is exhausted
:meth:`Tuner.evaluate` returns None and the tuner should stop; the base class also
stops the run defensively if a tuner ignores that signal.

Index-native runtime
--------------------
The hot loop of every in-repo optimizer identifies candidates by their mixed-radix
space index: :meth:`Tuner.evaluate_index` is the integer twin of :meth:`Tuner.evaluate`.
Every evaluation, through either path, charges one evaluation to the budget; the
problem's one memo (keyed by space index) decides whether it is measured again.  The
running best (index, value) pair is tracked in ``_track`` so index-native tuners that
restart from the incumbent (greedy ILS) never have to recover an index from a
configuration dictionary.

Candidates settle one at a time through :meth:`Tuner.evaluate_index`;
:meth:`Tuner.evaluate_index_run` is that loop over a run of pre-validated indices
known up front (a grid block, an initial population).
"""

from __future__ import annotations

import abc
import math
from typing import Any, Mapping

import numpy as np

from repro.core.budget import Budget
from repro.core.errors import BudgetExhaustedError, ReproError
from repro.core.problem import TuningProblem
from repro.core.result import Observation, TuningResult

__all__ = ["Tuner"]


class Tuner(abc.ABC):
    """Abstract base class of all optimizers in the suite.

    Parameters
    ----------
    seed:
        Default random seed; can be overridden per run via :meth:`tune`'s ``seed``.
    name:
        Optional display name override (defaults to the class-level :attr:`name`).
    """

    #: Canonical name used in result metadata and the tuner registry.
    name: str = "tuner"

    def __init__(self, seed: int | None = None, name: str | None = None):
        self.seed = seed
        if name is not None:
            self.name = name
        self._problem: TuningProblem | None = None
        self._budget: Budget | None = None
        self._result: TuningResult | None = None
        #: Running best of the current run as a mutable ``[index, value]`` pair
        #: (shared by reference with nested tuners).
        self._track: list = [None, math.inf]

    # ------------------------------------------------------------------ public API

    def tune(self, problem: TuningProblem, budget: Budget,
             seed: int | None = None) -> TuningResult:
        """Run the optimizer on ``problem`` until ``budget`` is exhausted."""
        rng = np.random.default_rng(self.seed if seed is None else seed)
        self._problem = problem
        self._budget = budget
        self._track = [None, math.inf]
        self._result = TuningResult(benchmark=problem.name, gpu=problem.gpu,
                                    tuner=self.name,
                                    seed=self.seed if seed is None else seed)
        try:
            self._run(problem, budget, rng)
        except BudgetExhaustedError:
            pass
        result = self._result
        self._problem = None
        self._budget = None
        self._result = None
        return result

    # ----------------------------------------------------------- subclass contract

    @abc.abstractmethod
    def _run(self, problem: TuningProblem, budget: Budget,
             rng: np.random.Generator) -> None:
        """Optimization loop; call :meth:`evaluate` for every candidate."""

    # --------------------------------------------------------------------- helpers

    @property
    def budget_exhausted(self) -> bool:
        """True once no further evaluations are allowed."""
        return self._budget is None or self._budget.exhausted

    def evaluate(self, config: Mapping[str, Any]) -> Observation | None:
        """Evaluate one configuration, record it, and charge the budget.

        Returns None (without evaluating) when the budget is exhausted, so tuner loops
        can simply ``break`` on a None result.
        """
        if self._problem is None or self._budget is None or self._result is None:
            raise RuntimeError("evaluate() called outside of tune()")
        if self._budget.exhausted:
            return None
        observation = self._problem.evaluate(config)
        try:
            index: int | None = self._problem.space.index_of(config)
        except ReproError:
            index = None  # outside the space: never the incumbent
        self._account(index, observation)
        return observation

    def evaluate_index(self, index: int) -> Observation | None:
        """Index-native twin of :meth:`evaluate`: evaluate one pre-validated space
        index, record it, and charge the budget.

        The candidate must already have passed the constraint truth-table mask
        (neighbourhood enumeration, valid sampling, post-repair checks), so no
        static check runs.  Returns None when the budget is exhausted, like
        :meth:`evaluate`.
        """
        if self._problem is None or self._budget is None or self._result is None:
            raise RuntimeError("evaluate_index() called outside of tune()")
        if self._budget.exhausted:
            return None
        index = int(index)
        observation = self._problem.evaluate_index(index, _valid_hint=True)
        self._account(index, observation)
        return observation

    def _account(self, index: int | None, observation: Observation) -> None:
        self._budget.charge()
        track = self._track
        if (index is not None and not observation.is_failure
                and observation.value < track[1]):
            track[0] = index
            track[1] = observation.value
        self._result.record(observation)

    def evaluate_index_run(self, indices: Any) -> list[Observation]:
        """:meth:`evaluate_index` over pre-validated ``indices`` in order, until the
        run or the budget ends; a result shorter than ``indices`` means the budget
        ran out."""
        observations = []
        for index in indices:
            observation = self.evaluate_index(index)
            if observation is None:
                break
            observations.append(observation)
        return observations

    def best_index_so_far(self) -> int | None:
        """Space index of the best valid observation so far (None before any).

        Maintained as a running minimum during accounting, so no configuration
        dictionary is ever consulted.
        """
        return self._track[0]

    # ----------------------------------------------------- nested-tuner plumbing

    def _share_run_state(self, inner: "Tuner") -> None:
        """Wire ``inner`` into this run's bookkeeping (problem, budget, result,
        best tracker) so every evaluation it performs is recorded and budgeted
        exactly once, against the same state."""
        inner._problem = self._problem
        inner._budget = self._budget
        inner._result = self._result
        inner._track = self._track

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(seed={self.seed})"
