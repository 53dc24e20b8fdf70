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
Duplicate accounting (``_seen``) keys on the integer index -- the dictionary path maps
configurations to the same integers, so mixing paths within one run (e.g. a portfolio
of migrated and adapter members) still counts each distinct configuration once.  The
running best (index, value) pair is tracked in ``_track`` so index-native tuners that
restart from the incumbent (greedy ILS) never have to recover an index from a
configuration dictionary.
"""

from __future__ import annotations

import abc
import math
from typing import Any, Iterator, Mapping

import numpy as np

from repro.core.budget import Budget
from repro.core.errors import BudgetExhaustedError, ReproError
from repro.core.problem import TuningProblem
from repro.core.result import LazyConfig, Observation, TuningResult
from repro.core.searchspace import config_key

__all__ = ["GenerationRun", "Tuner"]


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
        #: Duplicate-accounting keys: space indices (ints) for members of the space,
        #: canonical config tuples only for out-of-space configurations.
        self._seen: set[int | tuple] = set()
        #: Running best of the current run as a mutable ``[index, value]`` pair
        #: (shared by reference with nested tuners, like ``_seen``).
        self._track: list = [None, math.inf]

    # ------------------------------------------------------------------ public API

    def tune(self, problem: TuningProblem, budget: Budget,
             seed: int | None = None) -> TuningResult:
        """Run the optimizer on ``problem`` until ``budget`` is exhausted."""
        rng = np.random.default_rng(self.seed if seed is None else seed)
        self._problem = problem
        self._budget = budget
        self._seen = set()
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
        # Configurations of the space key ``_seen`` by their integer index -- the
        # currency of evaluate_index -- so duplicate accounting agrees across the
        # two paths; out-of-space configurations fall back to the config tuple.
        try:
            key: int | tuple = self._problem.space.index_of(config)
        except ReproError:
            key = config_key(config)
        self._account_key(key, observation)
        return observation

    def evaluate_index(self, index: int, valid_hint: bool | None = None,
                       ) -> Observation | None:
        """Index-native twin of :meth:`evaluate`: evaluate one space index, record
        it, and charge the budget.

        ``valid_hint=True`` is passed by tuners whose candidate already went through
        the vectorized constraint mask (neighbourhood enumeration, valid sampling,
        post-repair checks), skipping the redundant static check.  Returns None when
        the budget is exhausted, like :meth:`evaluate`.
        """
        if self._problem is None or self._budget is None or self._result is None:
            raise RuntimeError("evaluate_index() called outside of tune()")
        if self._budget.exhausted:
            return None
        index = int(index)
        observation = self._problem.evaluate_index(index, _valid_hint=valid_hint)
        self._account_key(index, observation)
        return observation

    def _account_key(self, key: int | tuple, observation: Observation) -> None:
        new_config = key not in self._seen
        simulated_seconds = (observation.value / 1e3
                             if math.isfinite(observation.value) else 0.0)
        self._budget.charge(simulated_seconds=simulated_seconds, new_config=new_config)
        self._seen.add(key)
        track = self._track
        if (isinstance(key, int) and not observation.is_failure
                and observation.value < track[1]):
            track[0] = key
            track[1] = observation.value
        self._result.record(observation)

    def evaluate_index_run(self, indices: Any, _peek: tuple | None = None,
                           ) -> list[Observation]:
        """Evaluate a run of pre-validated indices until the run or budget ends.

        When the budget can answer
        :meth:`Budget.affordable_evaluations` (a pure evaluation-count limit --
        including any compliant subclass, like the portfolio tuner's per-member
        slice) the affordable prefix is known up front, so the whole slice goes
        through :meth:`TuningProblem.evaluate_indices` and accounting happens in
        one pass (one :meth:`Budget.charge_bulk`, one result extend) -- per
        observation the semantics are identical to calling :meth:`evaluate_index`
        in a loop, which is also the literal fallback for every other budget shape.
        A result shorter than ``indices`` means the budget ran out.
        """
        allowance = (self._budget.affordable_evaluations()
                     if (self._problem is not None and self._result is not None
                         and self._budget is not None) else None)
        if allowance is not None:
            index_list = (indices.tolist() if isinstance(indices, np.ndarray)
                          else [int(i) for i in indices])
            allowed = (len(index_list) if allowance == math.inf
                       else min(len(index_list), int(allowance)))
            batch = index_list[:allowed]
            if not batch:
                return []
            if _peek is not None and allowed < len(index_list):
                _peek = tuple(col[:allowed] for col in _peek)
            observations = self._problem.evaluate_indices(batch, valid_hint=True,
                                                          _peek=_peek)
            seen = self._seen
            seen_add = seen.add
            track = self._track
            best_value = track[1]
            isfinite = math.isfinite
            new_configs = 0
            simulated: list[float] = []
            seconds = simulated.append
            for index, obs in zip(batch, observations):
                if index not in seen:
                    seen_add(index)
                    new_configs += 1
                value = obs.value
                seconds(value / 1e3 if isfinite(value) else 0.0)
                if obs.valid and value < best_value:
                    track[0] = index
                    track[1] = best_value = value
            self._budget.charge_bulk(len(batch), simulated_seconds=simulated,
                                     new_configs=new_configs)
            self._result.extend(observations)
            return observations
        observations: list[Observation] = []
        for index in indices:
            obs = self.evaluate_index(index, valid_hint=True)
            if obs is None:
                break
            observations.append(obs)
        return observations

    def generation_run(self) -> "GenerationRun":
        """A :class:`GenerationRun` bound to this run's bookkeeping.

        The population tuners' batching primitive: candidates are submitted one
        at a time (peeked, never evaluated, on peekable problems) and settled
        per generation with one bulk-accounted :meth:`evaluate_index_run`.
        """
        return GenerationRun(self)

    def evaluate_generation(
            self, candidates: "list[tuple[int, float, bool, bool]]") -> bool:
        """Record one generation of peek-driven candidates in a single bulk run.

        Each candidate is an ``(index, value, failure, raises)`` tuple holding
        exactly what :meth:`TuningProblem.peek_indices` would have returned for
        its index (the tuner collected them one candidate at a time while
        simulating its generation).  The affordable prefix settles in one
        list-native pass -- memo probe, observation construction, duplicate/best
        tracking per candidate, then one :meth:`Budget.charge_bulk` and one
        result extend; per observation the bytes are identical to
        :meth:`evaluate_index` in a loop (the literal fallback whenever the
        budget cannot precompute its prefix).  Returns False when the budget
        truncated the generation or ran dry on its last candidate, i.e. the run
        must stop.
        """
        if not candidates:
            return not self.budget_exhausted
        problem, result, budget = self._problem, self._result, self._budget
        if problem is None or result is None or budget is None:
            raise RuntimeError("evaluate_generation() called outside of tune()")
        allowance = budget.affordable_evaluations()
        if allowance is None:
            # Simulated-seconds / unique-config budgets: affordability depends
            # on each evaluation's outcome, so settle sequentially (identical
            # observations; the peeked values were only used for steering).
            for index, _value, _failed, _raises in candidates:
                if self.evaluate_index(index, valid_hint=True) is None:
                    return False
            return not self.budget_exhausted
        allowed = (len(candidates) if allowance == math.inf
                   else min(len(candidates), int(allowance)))
        if allowed == 0:
            return False
        # Merged settle loop: the peeked twin of TuningProblem.evaluate_indices
        # plus evaluate_index_run's accounting, over plain Python tuples (the
        # candidates arrived one at a time -- no arrays exist to vectorize over).
        icache = problem._icache
        icache_get = icache.get
        dict_memo = problem._cache
        memoize = problem.memoize
        space, gpu, name = problem.space, problem.gpu, problem.name
        worst = problem.direction.worst_value
        fast = Observation.fast
        lazy = LazyConfig
        isfinite = math.isfinite
        count = problem._evaluation_count
        seen = self._seen
        seen_add = seen.add
        track = self._track
        best_value = track[1]
        observations: list[Observation] = []
        record = observations.append
        simulated: list[float] = []
        seconds = simulated.append
        new_configs = 0
        for index, peeked, failed, raises in (
                candidates if allowed == len(candidates)
                else candidates[:allowed]):
            obs = None
            if memoize:
                obs = icache_get(index)
                if obs is None and dict_memo:
                    obs = dict_memo.get(config_key(space.config_at(index)))
                    if obs is not None:
                        icache[index] = obs
            if obs is None:
                if not failed:
                    obs = fast(lazy(space, index), peeked, True, "", count,
                               gpu, name)
                    count += 1
                    if memoize:
                        icache[index] = obs
                elif raises:
                    # Rows whose objective raises take the scalar path so error
                    # strings (cache misses, resource limits) stay byte-identical.
                    problem._evaluation_count = count
                    obs = problem.evaluate_index(index, _valid_hint=True)
                    count = problem._evaluation_count
                else:
                    # Non-raising failures carry the error string the scalar
                    # path derives from the returned value alone.
                    obs = fast(
                        lazy(space, index), worst, False,
                        f"objective returned non-positive/non-finite value "
                        f"{peeked!r}", count, gpu, name)
                    count += 1
                    if memoize:
                        icache[index] = obs
            record(obs)
            if index not in seen:
                seen_add(index)
                new_configs += 1
            value = obs.value
            seconds(value / 1e3 if isfinite(value) else 0.0)
            if obs.valid and value < best_value:
                track[0] = index
                track[1] = best_value = value
        problem._evaluation_count = count
        budget.charge_bulk(allowed, simulated_seconds=simulated,
                           new_configs=new_configs)
        result.extend(observations)
        return allowed == len(candidates) and not budget.exhausted

    def best_so_far(self) -> Observation | None:
        """The best valid observation recorded so far in the current run."""
        if self._result is None or self._result.num_valid == 0:
            return None
        return self._result.best_observation

    def best_index_so_far(self) -> int | None:
        """Space index of the best valid observation so far (None before any).

        The index twin of :meth:`best_so_far`: maintained as a running minimum
        during accounting, so no configuration dictionary is ever consulted.
        """
        return self._track[0]

    # ----------------------------------------------------- nested-tuner plumbing

    def _share_run_state(self, inner: "Tuner") -> None:
        """Wire ``inner`` into this run's bookkeeping (problem, budget, result,
        duplicate set, best tracker) so every evaluation it performs is recorded
        and budgeted exactly once, against the same state."""
        inner._problem = self._problem
        inner._budget = self._budget
        inner._result = self._result
        inner._seen = self._seen
        inner._track = self._track

    def _clear_run_state(self, inner: "Tuner") -> None:
        """Detach ``inner`` from this run's bookkeeping (inverse of
        :meth:`_share_run_state`)."""
        inner._problem = None
        inner._budget = None
        inner._result = None
        inner._seen = set()
        inner._track = [None, math.inf]

    def ask_random_indices(self, space: Any, rng: np.random.Generator,
                           without_replacement: bool = True, batch_size: int = 512,
                           max_consecutive_rejects: int | None = None) -> Iterator[int]:
        """Stream uniformly-random valid space indices, batch-filtered.

        This is the batch ``ask`` primitive shared by sampling-style tuners:
        candidate indices are drawn in blocks and run through the space's
        vectorized constraint mask, so per-candidate Python work only happens for
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


class GenerationRun:
    """Generation-batched evaluation for population tuners.

    The population tuners (genetic / differential evolution / particle swarm)
    construct candidates sequentially -- every operator draw and every selection
    decision may depend on the previous candidate's objective value -- so their
    inner loops cannot be reordered without changing trajectories.  What *can*
    move is the settlement: on peekable problems (cache replays) the objective
    value of each candidate is revealed side-effect-free the moment it is
    constructed, the tuner drives its population update off the peeked value, and
    the whole generation is then evaluated in one bulk-accounted
    :meth:`Tuner.evaluate_index_run` (one :meth:`Budget.charge_bulk`, one result
    extend) instead of one :meth:`Tuner.evaluate_index` per candidate.  Per
    observation the bytes are identical to the sequential loop.

    On problems that cannot peek, :meth:`submit` simply evaluates the candidate
    on the spot and :meth:`flush` is a budget check -- the tuner code is one loop
    either way.

    Usage, once per generation::

        gen = self.generation_run()
        for _ in range(generation_size):
            ... draw operators, build candidate ...
            fate = gen.submit(candidate_index)
            if fate is None:
                return                     # budget exhausted (sequential mode)
            value, failed = fate
            ... update population from (value, failed) ...
        if not gen.flush():
            return                         # generation truncated by the budget
    """

    __slots__ = ("_tuner", "_peek", "_worst", "_pending")

    def __init__(self, tuner: Tuner):
        self._tuner = tuner
        problem = tuner._problem
        if problem is None:
            self._peek = None
        else:
            # Bind the scalar peek directly when the problem carries one (the
            # per-candidate hot path); fall back to the batch-peek wrapper.
            self._peek = (problem._peek_one_fn
                          or (problem.peek_index if problem.peekable else None))
        self._worst = (problem.direction.worst_value if problem is not None
                       else math.inf)
        #: Queued ``(index, value, failure, raises)`` candidates of the current
        #: generation (peeked mode only).
        self._pending: list[tuple[int, float, bool, bool]] = []

    @property
    def peeked(self) -> bool:
        """True when candidates are being peeked and settled per generation."""
        return self._peek is not None

    def submit(self, index: int) -> tuple[float, bool] | None:
        """Queue one pre-validated candidate; returns its ``(value, failed)`` fate.

        The value is only meaningful when ``failed`` is False (failed
        evaluations carry the direction's worst value, exactly like the
        observations they become).  Returns None when the budget is exhausted --
        only possible in sequential mode, where submitting *is* evaluating;
        peeked generations detect exhaustion at :meth:`flush`.
        """
        peek = self._peek
        if peek is None:
            obs = self._tuner.evaluate_index(index, valid_hint=True)
            if obs is None:
                return None
            return obs.value, obs.is_failure
        value, failed, raises = peek(index)
        # The queue keeps the raw peeked value (the settle loop derives failure
        # error strings from it); the returned fate carries what the eventual
        # observation's ``value`` will be.
        self._pending.append((index, value, failed, raises))
        return (self._worst if failed else value), failed

    def flush(self) -> bool:
        """Settle the queued generation; False when the run must stop.

        In peeked mode this is the one bulk evaluation of the generation; in
        sequential mode everything is already settled and only the budget is
        checked.  A False return means the budget ran out (possibly
        mid-generation -- exactly the prefix the sequential loop would have
        evaluated was recorded).
        """
        tuner = self._tuner
        if self._peek is None or not self._pending:
            return not tuner.budget_exhausted
        pending = self._pending
        self._pending = []
        return tuner.evaluate_generation(pending)
