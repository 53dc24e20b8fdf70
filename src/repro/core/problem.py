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

One measure path
----------------
A problem has one objective, ``evaluate_index_fn``: it maps a mixed-radix space
index to a value (a live kernel problem runs the analytical model on the
configuration at that index, a cache replay looks the index up).
:meth:`TuningProblem.evaluate_index` is the one measure path, and every tuner
evaluation settles through it, one candidate at a time: static validity comes
from the constraint truth-table mask, a feasible index is answered by the
objective, and the resulting :class:`~repro.core.result.Observation` carries a
lazily-materialised :class:`~repro.core.result.LazyConfig`.  The problem keeps
one memo keyed by space index.

:meth:`TuningProblem.evaluate` is a view of that path: a configuration of the
space, however the caller spells its values (``320.0`` for ``320``), settles
through ``evaluate_index(space.index_of(config))`` and measures exactly what
the index path and a campaign cache measure, once, whichever path asks first;
the view only puts the caller's ``dict(config)`` on the observation.  A
configuration outside the space is a violation, memoized by its canonical
config tuple.
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
    evaluate_index_fn:
        Callable mapping a space index to an objective value (kernel time in
        milliseconds); it is only asked about indices that satisfy the space's
        constraints.  It may raise :class:`ResourceLimitError` (or any ``repro``
        exception) for configurations that cannot run on the device; the problem
        converts those into invalid observations rather than propagating, which
        is how real autotuners treat failed compilations.
    gpu:
        Device name used for bookkeeping.
    memoize:
        If True (default), repeated evaluations of the same configuration return the
        cached observation without another call to ``evaluate_index_fn``.  This
        mirrors real tuner caches and makes exhaustive analyses cheap.
    """

    def __init__(self, name: str, space: SearchSpace,
                 evaluate_index_fn: Callable[[int], float],
                 gpu: str = "", memoize: bool = True):
        self.name = name
        self.space = space
        self.gpu = gpu
        self.memoize = memoize
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

    # ------------------------------------------------------------------- evaluation

    def evaluate(self, config: Mapping[str, Any]) -> Observation:
        """Measure one configuration and return the observation.

        Invalid configurations (constraint violations, device resource limits, or an
        objective function that raises/returns a non-finite value) yield an
        observation with ``valid=False`` and ``value=inf`` -- they still count as an
        evaluation, exactly as a failed compilation costs time on real hardware.
        A member of the space settles through :meth:`evaluate_index` (see the
        module docstring); the observation carries the caller's configuration.
        """
        try:
            index = self.space.index_of(config)
        except ReproError:
            key = config_key(config)
            settled = self._memo.get(key) if self.memoize else None
            if settled is None:
                settled = self._record(key, dict(config), math.inf, False,
                                       self._violation(config))
        else:
            settled = self.evaluate_index(index)
        return Observation.fast(dict(config), settled.value, settled.valid,
                                settled.error, settled.evaluation_index,
                                self.gpu, self.name)

    def evaluate_index(self, index: int, _valid_hint: bool | None = None) -> Observation:
        """Measure the configuration at space ``index`` (see the module docstring).

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

        if not (self.space.index_is_feasible(index) if _valid_hint is None
                else _valid_hint):
            config = self.space.config_at(index)
            return self._record(index, dict(config), math.inf, False,
                                self._violation(config))
        value, valid, error = self._measure(index)
        return self._record(index, LazyConfig(self.space, index), value, valid, error)

    def _record(self, key: int | tuple, config: Mapping[str, Any], value: float,
                valid: bool, error: str) -> Observation:
        """Count one fresh evaluation and memoize its observation under ``key``."""
        count = self._evaluation_count
        self._evaluation_count = count + 1
        obs = Observation.fast(config, value, valid, error, count, self.gpu, self.name)
        if self.memoize:
            self._memo[key] = obs
        return obs

    def _measure(self, index: int) -> tuple[float, bool, str]:
        """``(value, valid, error)`` of one objective call: objective failures
        behave like failed launches and carry ``math.inf``."""
        try:
            value = float(self._evaluate_index_fn(index))
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
