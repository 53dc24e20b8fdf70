"""The shared tuning-problem interface.

A :class:`TuningProblem` is what a tuner sees: a search space plus an objective
function over configurations.  It deliberately knows nothing about how the objective is
produced -- in this reproduction the objective comes from the analytical GPU
performance models in :mod:`repro.kernels`, but the same interface would accept real
hardware measurements (the paper's setting) or a cache replay.

This is the reproduction of the paper's "standardized problem interface ... general
configuration space and kernel handler classes providing for easy integration" (Sec. I):
any optimizer that can consume a :class:`TuningProblem` can tune every benchmark in the
suite, and any benchmark that can produce one can be tuned by every optimizer.

The ``evaluate_index`` contract
-------------------------------
:meth:`TuningProblem.evaluate_index` is the index-native path of the tuner
runtime, and every tuner evaluation settles through it, one candidate at a time:
the candidate is identified by its mixed-radix space index, static validity
comes from the constraint truth-table mask, the objective is answered by
``evaluate_index_fn`` where one was supplied (cache replays), and the resulting
:class:`~repro.core.result.Observation` carries a lazily-materialised
:class:`~repro.core.result.LazyConfig`.  The contract with the dictionary path:

* ``evaluate_index(space.index_of(config))`` and ``evaluate(config)`` produce
  observations that serialize to identical bytes (same value, validity, error
  string, evaluation index) whenever the two paths see the problem in the same
  memoization state;
* both paths share one memo keyed by space index (only configurations outside
  the space fall back to their canonical config tuple), so a configuration
  evaluated through both paths on one memoized problem is measured exactly once,
  with one ``evaluation_count`` entry and one memo entry, no matter how the paths
  interleave.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

from repro.core.errors import ReproError, ResourceLimitError
from repro.core.result import LazyConfig, Observation
from repro.core.searchspace import SearchSpace, config_key

__all__ = ["TuningProblem"]


class TuningProblem:
    """A tunable kernel instance on a specific (simulated) device.

    The objective is always minimized: it is a kernel time in milliseconds, and a
    failed evaluation (constraint violation, resource limit, raising or
    non-finite objective) carries ``math.inf``.

    Parameters
    ----------
    name:
        Benchmark name (e.g. ``"gemm"``).
    space:
        The constrained search space.
    evaluate_fn:
        Callable mapping a configuration to an objective value (kernel time in
        milliseconds).  It may raise :class:`ResourceLimitError` (or any
        ``repro`` exception) for configurations that cannot run on the device; the
        problem converts those into invalid observations rather than propagating,
        which is how real autotuners treat failed compilations.
    gpu:
        Device name used for bookkeeping.
    memoize:
        If True (default), repeated evaluations of the same configuration return the
        cached observation without consuming another call to ``evaluate_fn``.  This
        mirrors real tuner caches and makes exhaustive analyses cheap.
    evaluate_index_fn:
        Optional index-native objective ``space_index -> value`` used by
        :meth:`evaluate_index` instead of materialising a configuration dictionary
        for ``evaluate_fn``.  Must be element-wise equivalent to
        ``evaluate_fn(space.config_at(index))``, including what it raises (cache
        replays supply one; see :meth:`repro.core.cache.EvaluationCache.to_problem`).
    """

    def __init__(self, name: str, space: SearchSpace,
                 evaluate_fn: Callable[[Mapping[str, Any]], float],
                 gpu: str = "", memoize: bool = True,
                 evaluate_index_fn: Callable[[int], float] | None = None):
        self.name = name
        self.space = space
        self.gpu = gpu
        self.memoize = memoize
        self._evaluate_fn = evaluate_fn
        self._evaluate_index_fn = evaluate_index_fn
        #: The memo: space index -> observation (configurations outside the space
        #: key by their canonical config tuple).
        self._memo: dict[int | tuple, Observation] = {}
        self._evaluation_count = 0

    # ---------------------------------------------------------------------- queries

    @property
    def evaluation_count(self) -> int:
        """Number of *distinct* objective-function calls performed so far."""
        return self._evaluation_count

    @property
    def cache_size(self) -> int:
        """Number of distinct configurations in the memo (one entry each, whichever
        evaluation paths measured or re-read it)."""
        return len(self._memo)

    def is_valid(self, config: Mapping[str, Any]) -> bool:
        """Static validity (membership + constraints); does not call the objective."""
        return self.space.is_valid(config)

    # ------------------------------------------------------------------- evaluation

    def evaluate(self, config: Mapping[str, Any]) -> Observation:
        """Measure one configuration and return the observation.

        Invalid configurations (constraint violations, device resource limits, or an
        objective function that raises/returns a non-finite value) yield an
        observation with ``valid=False`` and ``value=inf`` -- they still count as an
        evaluation, exactly as a failed compilation costs time on real hardware.
        """
        try:
            key: int | tuple = self.space.index_of(config)
            member = True
        except ReproError:
            key, member = config_key(config), False
        if self.memoize:
            cached = self._memo.get(key)
            if cached is not None:
                return Observation(config=dict(config), value=cached.value,
                                   valid=cached.valid, error=cached.error,
                                   evaluation_index=cached.evaluation_index,
                                   gpu=self.gpu, benchmark=self.name)

        # ``index_of`` succeeding is exactly the membership half of ``is_valid``.
        if member and self.space.constraints.is_satisfied(config):
            value, valid, error = self._measure(self._evaluate_fn, config)
        else:
            value, valid, error = math.inf, False, self._violation(config)
        count = self._evaluation_count
        self._evaluation_count = count + 1
        obs = Observation(config=dict(config), value=value, valid=valid, error=error,
                          evaluation_index=count, gpu=self.gpu, benchmark=self.name)
        if self.memoize:
            self._memo[key] = obs
        return obs

    def evaluate_index(self, index: int, _valid_hint: bool | None = None) -> Observation:
        """Index-native form of :meth:`evaluate` (see the module docstring contract).

        The observation's configuration is a :class:`~repro.core.result.LazyConfig`
        that materialises from the space's value columns only if something reads it;
        the hot loop itself touches no dictionary.  Tuners whose candidates already
        passed the constraint truth-table mask (neighbourhood enumeration, valid
        sampling, repair) pass ``_valid_hint=True`` and skip the static check
        entirely.
        """
        index = int(index)
        if self.memoize:
            cached = self._memo.get(index)
            if cached is not None:
                return cached

        config: Mapping[str, Any] | None = None
        if not (self.space.index_is_feasible(index) if _valid_hint is None
                else _valid_hint):
            config = self.space.config_at(index)
            value, valid, error = math.inf, False, self._violation(config)
        elif self._evaluate_index_fn is not None:
            value, valid, error = self._measure(self._evaluate_index_fn, index)
        else:
            config = self.space.config_at(index)
            value, valid, error = self._measure(self._evaluate_fn, config)
        count = self._evaluation_count
        self._evaluation_count = count + 1
        obs = Observation.fast(LazyConfig(self.space, index) if config is None
                               else dict(config),
                               value, valid, error, count, self.gpu, self.name)
        if self.memoize:
            self._memo[index] = obs
        return obs

    def _measure(self, objective: Callable[[Any], float],
                 argument: Any) -> tuple[float, bool, str]:
        """``(value, valid, error)`` of one objective call: objective failures
        behave like failed launches and carry ``math.inf``."""
        try:
            value = float(objective(argument))
        except ResourceLimitError as exc:
            return math.inf, False, f"resource limit exceeded: {exc}"
        except Exception as exc:
            return math.inf, False, f"evaluation failed: {exc}"
        if not math.isfinite(value) or value <= 0:
            return (math.inf, False,
                    f"objective returned non-positive/non-finite value {value!r}")
        return value, True, ""

    def _violation(self, config: Mapping[str, Any]) -> str:
        """Error string of a statically invalid configuration; in a constrained
        space it names the violated constraints even for a non-member."""
        if len(self.space.constraints):
            return "constraint violation: " + ", ".join(
                self.space.constraints.violated(config))
        return "configuration not a member of the search space"

    def reset_cache(self) -> None:
        """Drop memoized observations and reset the evaluation counter."""
        self._memo.clear()
        self._evaluation_count = 0

    # ------------------------------------------------------------------------- repr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TuningProblem(name={self.name!r}, gpu={self.gpu!r}, "
                f"dimensions={self.space.dimensions}, cardinality={self.space.cardinality})")
