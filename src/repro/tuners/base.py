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
space index: :meth:`Tuner.evaluate_index` is the integer twin of :meth:`Tuner.evaluate`
and :meth:`Tuner.ask_random_indices` streams batch-filtered random valid indices.
Every evaluation, through either path, charges one evaluation to the budget; the
problem's one memo (keyed by space index) decides whether it is measured again.  The
running best (index, value) pair is tracked in ``_track`` so index-native tuners that
restart from the incumbent (greedy ILS) never have to recover an index from a
configuration dictionary.

Candidates settle one at a time through :meth:`Tuner.evaluate_index`.  A run of
pre-validated indices known up front (a grid sweep, an initial population) settles
through :meth:`Tuner.evaluate_index_run`: one budget charge and, on a cache replay,
one batch lookup, recording the same observations as the per-index loop.
"""

from __future__ import annotations

import abc
import math
from typing import Any, Iterator, Mapping

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
        """Evaluate a run of pre-validated indices until the run or budget ends.

        The prefix the budget allows (:attr:`Budget.remaining_evaluations`) goes
        through :meth:`TuningProblem.evaluate_indices` in one slice and is
        accounted in one pass (one :meth:`Budget.charge_bulk`, one result
        extend); per observation the semantics are identical to calling
        :meth:`evaluate_index` in a loop.  A result shorter than ``indices``
        means the budget ran out.
        """
        if self._problem is None or self._budget is None or self._result is None:
            raise RuntimeError("evaluate_index_run() called outside of tune()")
        index_list = (indices.tolist() if isinstance(indices, np.ndarray)
                      else [int(i) for i in indices])
        allowed = min(len(index_list), self._budget.remaining_evaluations)
        batch = index_list[:allowed]
        if not batch:
            return []
        observations = self._problem.evaluate_indices(batch, valid_hint=True)
        track = self._track
        best_value = track[1]
        for index, obs in zip(batch, observations):
            value = obs.value
            if obs.valid and value < best_value:
                track[0] = index
                track[1] = best_value = value
        self._budget.charge_bulk(len(batch))
        self._result.extend(observations)
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

    def ask_random_indices(self, space: Any, rng: np.random.Generator,
                           without_replacement: bool = True, batch_size: int = 512,
                           max_consecutive_rejects: int | None = None) -> Iterator[int]:
        """Stream uniformly-random valid space indices, batch-filtered.

        This is the batch ``ask`` primitive shared by sampling-style tuners:
        candidate indices are drawn in blocks and run through the space's
        constraint truth-table mask, so per-candidate Python work only happens for
        indices that are actually evaluated.  Candidates are yielded in draw
        order, which keeps the evaluated sequence identical to drawing one index
        at a time with the same generator.

        The stream ends after ``max_consecutive_rejects`` consecutive
        duplicate/invalid draws, the signal that the space has effectively run
        out of fresh valid configurations.
        """
        if max_consecutive_rejects is None:
            max_consecutive_rejects = max(10_000, 50 * space.dimensions)
        drawn: set[int] = set()
        consecutive_rejects = 0
        while True:
            draws = rng.integers(0, space.cardinality, size=batch_size)
            mask = space.satisfied_mask(draws)
            for index, ok in zip(draws.tolist(), mask.tolist()):
                if not ok or (without_replacement and index in drawn):
                    consecutive_rejects += 1
                    if consecutive_rejects > max_consecutive_rejects:
                        return
                    continue
                consecutive_rejects = 0
                if without_replacement:
                    drawn.add(index)
                yield index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(seed={self.seed})"
