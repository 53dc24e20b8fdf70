"""References for the measurements of a tuning problem.

A live kernel problem (:meth:`repro.kernels.base.KernelBenchmark.problem`)
measures one configuration at a time through the scalar model,
``model.time_ms(space.config_at(index))``; :func:`campaign_measurement`
answers the same indices from one batch of the campaign's column path
(:meth:`~repro.kernels.base.KernelBenchmark.evaluate_indices`, what a campaign
cache row stores).  A cache replay
(:meth:`repro.core.cache.EvaluationCache.to_problem`) probes the cache's index
table; :func:`replay_measurement` looks the configuration up in a
dictionary-loaded copy of the cache instead.  Both spell each failure the way a
problem records it, so :func:`assert_measures_like` can hold a problem's
observations to either reference field by field.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

import numpy as np

from repro.core.cache import EvaluationCache

Measurement = tuple[float, bool, str]


def _violation(space, config) -> str | None:
    """The error text of a configuration the constraints reject, else None."""
    violated = space.constraints.violated(config)
    return "constraint violation: " + ", ".join(violated) if violated else None


def campaign_measurement(benchmark, gpu,
                         indices: Iterable[int]) -> Callable[[int], Measurement]:
    """``index -> (value, valid, error)`` for ``indices``, from one campaign
    evaluation of their feasible members on ``gpu``."""
    space = benchmark.space
    probes = np.unique(np.asarray(list(indices), dtype=np.int64))
    feasible = probes[space.satisfied_mask(probes)]
    values, codes, errors = benchmark.evaluate_indices(gpu, feasible)
    rows = {index: row for row, index in enumerate(feasible.tolist())}

    def measure(index: int) -> Measurement:
        violation = _violation(space, space.config_at(index))
        if violation is not None:
            return math.inf, False, violation
        row = rows[index]
        if codes[row] >= 0:
            return math.inf, False, f"resource limit exceeded: {errors[codes[row]]}"
        return float(values[row]), True, ""

    return measure


def replay_measurement(cache: EvaluationCache,
                       strict: bool) -> Callable[[int], Measurement]:
    """``index -> (value, valid, error)`` of a replay of ``cache``, answered by a
    dictionary-loaded copy of it (a miss and a failed row read as ``inf``)."""
    copy = EvaluationCache.from_dict(cache.to_dict(), space=cache.space)
    space = copy.space

    def measure(index: int) -> Measurement:
        config = space.config_at(index)
        violation = _violation(space, config)
        if violation is not None:
            return math.inf, False, violation
        obs = copy.get(config)
        if obs is None and strict:
            return (math.inf, False, f"evaluation failed: configuration not present "
                                     f"in {copy.benchmark}/{copy.gpu} cache")
        if obs is None or not obs.valid:
            return math.inf, False, "objective returned non-positive/non-finite value inf"
        return obs.value, True, ""

    return measure


def assert_measures_like(observations: Iterable[Any], indices: Iterable[int],
                         reference: Callable[[int], Measurement]) -> None:
    """Each observation equals ``reference`` at its index, and a memoized problem
    numbers its distinct indices in first-seen order."""
    first_seen: dict[int, int] = {}
    for obs, index in zip(observations, indices, strict=True):
        index = int(index)
        expected = reference(index) + (first_seen.setdefault(index, len(first_seen)),)
        got = (obs.value, obs.valid, obs.error, obs.evaluation_index)
        assert got == expected, (index, got, expected)
