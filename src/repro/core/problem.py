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
:meth:`TuningProblem.evaluate_index` (and its batch form
:meth:`TuningProblem.evaluate_indices`) is the index-native fast path of the tuner
runtime: the candidate is identified by its mixed-radix space index, static validity
comes from the vectorized constraint mask, the objective is answered by
``evaluate_index_fn`` where one was supplied (cache replays), and the resulting
:class:`~repro.core.result.Observation` carries a lazily-materialised
:class:`~repro.core.result.LazyConfig`.  The contract with the dictionary path:

* ``evaluate_index(space.index_of(config))`` and ``evaluate(config)`` produce
  observations that serialize to identical bytes (same value, validity, error
  string, evaluation index) whenever the two paths see the problem in the same
  memoization state;
* each path keeps its memo in its own currency (canonical config tuples vs
  integers) for speed, but the memos stay *consistent*: a path that misses its own
  memo probes the other one -- at zero cost while the other memo is empty, i.e.
  for every single-path run -- so a configuration evaluated through both paths on
  one memoized problem is measured exactly once, with one ``evaluation_count``
  entry, no matter how the paths interleave (portfolios may mix migrated and
  adapter members on a shared problem).
"""

from __future__ import annotations

import enum
import math
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.errors import ReproError, ResourceLimitError
from repro.core.result import LazyConfig, Observation
from repro.core.searchspace import SearchSpace, config_key

__all__ = ["ObjectiveDirection", "TuningProblem"]


class ObjectiveDirection(enum.Enum):
    """Whether the tuner should minimize or maximize the objective.

    Every BAT benchmark minimizes kernel time, but the enum keeps the interface
    general (e.g. for throughput objectives like GFLOP/s).
    """

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def better(self, a: float, b: float) -> bool:
        """True if objective value ``a`` is strictly better than ``b``."""
        if self is ObjectiveDirection.MINIMIZE:
            return a < b
        return a > b

    @property
    def worst_value(self) -> float:
        """The sentinel value assigned to failed evaluations."""
        return math.inf if self is ObjectiveDirection.MINIMIZE else -math.inf


class TuningProblem:
    """A tunable kernel instance on a specific (simulated) device.

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
    direction:
        Minimize (default, kernel time) or maximize.
    objective_unit:
        Unit string for reports (default ``"ms"``).
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
    peek_index_fn:
        Optional *side-effect-free* batch preview of the index objective:
        ``index_array -> (values, failure, raises)`` where ``values[k]`` is exactly
        what ``evaluate_index_fn`` would return for index ``k``, ``failure[k]`` is
        True exactly when evaluating it would yield an invalid observation, and
        ``raises[k]`` is True when the objective would raise (so the error string
        cannot be derived from the value alone and the row must evaluate through
        the scalar path).  Peeking consumes no budget, no memo and produces no
        observations; only deterministic pure-lookup objectives (cache replays)
        may supply it.  It is what lets tuners run whole neighbourhoods through
        one array probe and then *evaluate* exactly the prefix the sequential
        loop would have.
    peek_one_fn:
        Optional scalar twin of ``peek_index_fn``: ``index -> (value, failure,
        raises)`` for a single index, element-wise identical to the batch peek.
        Generation-batched population tuners peek one candidate at a time (each
        candidate's construction depends on the previous one's value), so a
        dictionary-probe scalar peek sidesteps the per-candidate array overhead
        of the batch form.  When omitted, :meth:`peek_index` wraps the batch
        peek with a one-element array.
    """

    def __init__(self, name: str, space: SearchSpace,
                 evaluate_fn: Callable[[Mapping[str, Any]], float],
                 gpu: str = "", direction: ObjectiveDirection = ObjectiveDirection.MINIMIZE,
                 objective_unit: str = "ms", memoize: bool = True,
                 evaluate_index_fn: Callable[[int], float] | None = None,
                 peek_index_fn: Callable[[Any], tuple[Any, Any]] | None = None,
                 peek_one_fn: Callable[[int], tuple[float, bool, bool]] | None = None):
        self.name = name
        self.space = space
        self.gpu = gpu
        self.direction = direction
        self.objective_unit = objective_unit
        self.memoize = memoize
        self._evaluate_fn = evaluate_fn
        self._evaluate_index_fn = evaluate_index_fn
        self._peek_index_fn = peek_index_fn
        self._peek_one_fn = peek_one_fn
        self._cache: dict[tuple, Observation] = {}
        self._icache: dict[int, Observation] = {}
        self._evaluation_count = 0

    # ---------------------------------------------------------------------- queries

    @property
    def evaluation_count(self) -> int:
        """Number of *distinct* objective-function calls performed so far."""
        return self._evaluation_count

    @property
    def cache_size(self) -> int:
        """Number of memo entries across both key currencies (a configuration
        that crossed evaluation paths is mirrored into each memo and counts in
        both)."""
        return len(self._cache) + len(self._icache)

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
        key = config_key(config)
        if self.memoize:
            cached = self._cache.get(key)
            if cached is None and self._icache:
                # The index path may have measured this configuration already;
                # the probe only costs anything when that memo is non-empty.
                try:
                    cached = self._icache.get(self.space.index_of(config))
                except ReproError:
                    cached = None
                if cached is not None:
                    self._cache[key] = cached
            if cached is not None:
                return Observation(config=dict(config), value=cached.value,
                                   valid=cached.valid, error=cached.error,
                                   evaluation_index=cached.evaluation_index,
                                   gpu=self.gpu, benchmark=self.name)

        index = self._evaluation_count
        value: float
        valid = True
        error = ""
        if not self.space.is_valid(config):
            valid = False
            value = self.direction.worst_value
            error = "constraint violation: " + ", ".join(
                self.space.constraints.violated(config)) if len(self.space.constraints) else \
                "configuration not a member of the search space"
        else:
            try:
                value = float(self._evaluate_fn(config))
                if not math.isfinite(value) or value <= 0:
                    valid = False
                    error = f"objective returned non-positive/non-finite value {value!r}"
                    value = self.direction.worst_value
            except ResourceLimitError as exc:
                valid = False
                value = self.direction.worst_value
                error = f"resource limit exceeded: {exc}"
            except Exception as exc:  # objective failures behave like failed launches
                valid = False
                value = self.direction.worst_value
                error = f"evaluation failed: {exc}"

        self._evaluation_count += 1
        obs = Observation(config=dict(config), value=value, valid=valid, error=error,
                          evaluation_index=index, gpu=self.gpu, benchmark=self.name)
        if self.memoize:
            self._cache[key] = obs
        return obs

    def evaluate_index(self, index: int, _valid_hint: bool | None = None) -> Observation:
        """Index-native form of :meth:`evaluate` (see the module docstring contract).

        The observation's configuration is a :class:`~repro.core.result.LazyConfig`
        that materialises from the space's value columns only if something reads it;
        the hot loop itself touches no dictionary.  Tuners whose candidates already
        passed the vectorized constraint mask (neighbourhood enumeration, valid
        sampling, repair) pass ``_valid_hint=True`` and skip the static check
        entirely.
        """
        index = int(index)
        if self.memoize:
            cached = self._icache.get(index)
            if cached is None and self._cache:
                # The dictionary path may have measured this configuration
                # already; the probe only costs anything when that memo holds
                # entries (never in a pure index-native run).
                cached = self._cache.get(config_key(self.space.config_at(index)))
                if cached is not None:
                    self._icache[index] = cached
            if cached is not None:
                return cached

        count = self._evaluation_count
        value: float
        valid = True
        error = ""
        config: Mapping[str, Any] | None = None
        statically_valid = (self.space.index_is_feasible(index) if _valid_hint is None
                            else _valid_hint)
        if not statically_valid:
            valid = False
            value = self.direction.worst_value
            config = self.space.config_at(index)
            error = "constraint violation: " + ", ".join(
                self.space.constraints.violated(config)) if len(self.space.constraints) else \
                "configuration not a member of the search space"
        else:
            try:
                if self._evaluate_index_fn is not None:
                    value = float(self._evaluate_index_fn(index))
                else:
                    config = self.space.config_at(index)
                    value = float(self._evaluate_fn(config))
                if not math.isfinite(value) or value <= 0:
                    valid = False
                    error = f"objective returned non-positive/non-finite value {value!r}"
                    value = self.direction.worst_value
            except ResourceLimitError as exc:
                valid = False
                value = self.direction.worst_value
                error = f"resource limit exceeded: {exc}"
            except Exception as exc:  # objective failures behave like failed launches
                valid = False
                value = self.direction.worst_value
                error = f"evaluation failed: {exc}"

        self._evaluation_count = count + 1
        obs = Observation.fast(LazyConfig(self.space, index) if config is None
                               else dict(config),
                               value, valid, error, count, self.gpu, self.name)
        if self.memoize:
            self._icache[index] = obs
        return obs

    def peek_indices(self, indices: np.ndarray | Sequence[int]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Side-effect-free batch preview ``(values, failure, raises)`` of the
        index objective, or None when the objective cannot be peeked (see
        ``peek_index_fn``).  Peeking never counts as an evaluation."""
        if self._peek_index_fn is None:
            return None
        return self._peek_index_fn(np.asarray(indices, dtype=np.int64))

    @property
    def peekable(self) -> bool:
        """True when the objective supports side-effect-free previews."""
        return self._peek_index_fn is not None or self._peek_one_fn is not None

    def peek_index(self, index: int) -> tuple[float, bool, bool] | None:
        """Scalar form of :meth:`peek_indices`: ``(value, failure, raises)`` of
        one index, or None when the objective cannot be peeked.

        Element-wise identical to the batch peek; the dedicated scalar callable
        (when supplied) answers through a plain dictionary/array probe, which is
        what makes peeking every candidate of a sequentially-constructed
        population generation cheap.
        """
        if self._peek_one_fn is not None:
            return self._peek_one_fn(index)
        if self._peek_index_fn is None:
            return None
        values, failure, raises = self._peek_index_fn(
            np.asarray([index], dtype=np.int64))
        return float(values[0]), bool(failure[0]), bool(raises[0])

    def evaluate_indices(self, indices: np.ndarray | Sequence[int],
                         valid_hint: bool | None = None,
                         _peek: tuple | None = None) -> list[Observation]:
        """Batch form of :meth:`evaluate_index`, observation-identical to the loop.

        With ``valid_hint=None`` one vectorized static-validity mask covers the
        whole block; ``valid_hint=True`` asserts the caller already mask-checked
        every index.  For peekable objectives and pre-validated indices the good
        rows come from one array probe and skip the per-index objective dispatch
        entirely -- the memo, ``evaluation_count`` and failure rows still flow
        through the scalar path so the semantics cannot drift.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return []
        if valid_hint is True and (_peek is not None
                                   or self._peek_index_fn is not None):
            values, failure, raises = (_peek if _peek is not None
                                       else self._peek_index_fn(idx))
            value_list = values.tolist()
            failure_list = failure.tolist()
            raises_list = raises.tolist()
            icache = self._icache
            icache_get = icache.get
            memoize = self.memoize
            space, gpu, name = self.space, self.gpu, self.name
            worst = self.direction.worst_value
            fast = Observation.fast
            lazy = LazyConfig
            count = self._evaluation_count
            out: list[Observation] = []
            append = out.append
            dict_memo = self._cache
            for k, i in enumerate(idx.tolist()):
                if memoize:
                    cached = icache_get(i)
                    if cached is None and dict_memo:
                        cached = dict_memo.get(config_key(space.config_at(i)))
                        if cached is not None:
                            icache[i] = cached
                    if cached is not None:
                        append(cached)
                        continue
                if not failure_list[k]:
                    obs = fast(lazy(space, i), value_list[k],
                               True, "", count, gpu, name)
                    count += 1
                    if memoize:
                        icache[i] = obs
                elif raises_list[k]:
                    # Rows whose objective raises take the scalar path so error
                    # strings (cache misses, resource limits) stay byte-identical.
                    self._evaluation_count = count
                    obs = self.evaluate_index(i, _valid_hint=True)
                    count = self._evaluation_count
                else:
                    # Non-raising failures carry the error string the scalar path
                    # derives from the returned value alone.
                    obs = fast(
                        lazy(space, i), worst, False,
                        f"objective returned non-positive/non-finite value "
                        f"{value_list[k]!r}", count, gpu, name)
                    count += 1
                    if memoize:
                        icache[i] = obs
                append(obs)
            self._evaluation_count = count
            return out
        if valid_hint is None and idx.size >= 2:
            hints: Sequence[bool | None] = self.space.satisfied_mask(idx).tolist()
        else:
            hints = [valid_hint] * idx.size
        return [self.evaluate_index(i, _valid_hint=hint)
                for i, hint in zip(idx.tolist(), hints)]

    def objective(self, config: Mapping[str, Any]) -> float:
        """Scalar objective of a configuration (``inf`` for invalid ones)."""
        return self.evaluate(config).value

    def reset_cache(self) -> None:
        """Drop memoized observations and reset the evaluation counter."""
        self._cache.clear()
        self._icache.clear()
        self._evaluation_count = 0

    # ------------------------------------------------------------------------- repr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TuningProblem(name={self.name!r}, gpu={self.gpu!r}, "
                f"dimensions={self.space.dimensions}, cardinality={self.space.cardinality})")
