"""Observations and tuning results.

Every kernel launch a tuner requests produces an :class:`Observation`: the configuration
that was tried, the measured objective value (kernel runtime in milliseconds for every
BAT benchmark), and whether the configuration was valid on the target device.  A whole
tuning run is summarised by a :class:`TuningResult`, which keeps the ordered observation
list plus convenience accessors for the convergence analyses of the paper (Fig. 2).

Lazy configurations
-------------------
The index-native tuner runtime (:meth:`repro.core.problem.TuningProblem.evaluate_index`)
identifies configurations by their mixed-radix space index and never touches
dictionaries in its hot loop.  Observations it produces carry a :class:`LazyConfig` --
a read-only mapping that materialises the configuration dictionary from the space's
value columns on first access and caches it.  Convergence traces, budget accounting
and best-so-far tracking read only ``value``/``valid``, so for most observations the
dictionary is never built; serialization, ``best_observation.config`` and equality
comparisons see exactly the dictionary the dict-based path would have produced (same
values, same parameter order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from repro.core.errors import ReproError
from repro.core.searchspace import config_key

__all__ = ["LazyConfig", "Observation", "TuningResult"]


class LazyConfig(Mapping):
    """Configuration mapping materialised on demand from ``(space, index)``.

    Behaves exactly like the dictionary ``space.config_at(index)`` under every
    :class:`~typing.Mapping` operation (lookup, iteration, ``dict(...)`` conversion,
    equality against plain dictionaries in either direction) but defers building it
    until something actually reads a key.  Instances are read-only and un-hashable,
    like any mapping view; use :func:`~repro.core.searchspace.config_key` as a key.
    """

    __slots__ = ("_space", "_index", "_config")

    def __init__(self, space: Any, index: int):
        self._space = space
        self._index = index
        self._config: dict[str, Any] | None = None

    def _materialize(self) -> dict[str, Any]:
        config = self._config
        if config is None:
            config = self._space.config_at(self._index)
            self._config = config
        return config

    def __getitem__(self, key: str) -> Any:
        return self._materialize()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._materialize())

    def __len__(self) -> int:
        return len(self._space.parameters)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self._materialize())


@dataclass(frozen=True, slots=True)
class Observation:
    """A single evaluated configuration.

    Attributes
    ----------
    config:
        The configuration dictionary that was evaluated.
    value:
        The measured objective (kernel time in milliseconds; ``math.inf`` for invalid
        configurations, mirroring how real tuners score failed compilations).
    valid:
        False when the configuration failed constraints or device limits.
    error:
        Optional reason string when ``valid`` is False.
    evaluation_index:
        0-based position of this observation within its tuning run.
    gpu:
        Name of the (simulated) device the measurement was taken on.
    benchmark:
        Name of the benchmark kernel.
    """

    config: Mapping[str, Any]
    value: float
    valid: bool = True
    error: str = ""
    evaluation_index: int = -1
    gpu: str = ""
    benchmark: str = ""

    def __post_init__(self) -> None:
        # Lazy configurations stay lazy (the copy would defeat them); everything
        # else is snapshotted so later caller-side mutation cannot corrupt results.
        if not isinstance(self.config, LazyConfig):
            object.__setattr__(self, "config", dict(self.config))

    @classmethod
    def fast(cls, config: Mapping[str, Any], value: float, valid: bool, error: str,
             evaluation_index: int, gpu: str, benchmark: str) -> "Observation":
        """Allocation fast path for the index-native runtime.

        Field-for-field identical to the dataclass constructor but sets the seven
        slots through their member descriptors, skipping the frozen-field
        ``__setattr__`` machinery and ``__post_init__`` -- the caller guarantees
        ``config`` is already a :class:`LazyConfig` or a dictionary it owns.
        Millions of observations per campaign make this worth the byte of ugliness.
        """
        obs = object.__new__(cls)
        _set_config(obs, config)
        _set_value(obs, value)
        _set_valid(obs, valid)
        _set_error(obs, error)
        _set_evaluation_index(obs, evaluation_index)
        _set_gpu(obs, gpu)
        _set_benchmark(obs, benchmark)
        return obs

    @property
    def is_failure(self) -> bool:
        """True when the configuration could not be measured."""
        return (not self.valid) or not math.isfinite(self.value)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form."""
        return {
            "config": dict(self.config),
            "value": None if not math.isfinite(self.value) else self.value,
            "valid": self.valid,
            "error": self.error,
            "evaluation_index": self.evaluation_index,
            "gpu": self.gpu,
            "benchmark": self.benchmark,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Observation":
        """Inverse of :meth:`to_dict`."""
        value = data.get("value")
        return cls(
            config=dict(data["config"]),
            value=math.inf if value is None else float(value),
            valid=bool(data.get("valid", True)),
            error=data.get("error", ""),
            evaluation_index=int(data.get("evaluation_index", -1)),
            gpu=data.get("gpu", ""),
            benchmark=data.get("benchmark", ""),
        )


#: Slot setters of :meth:`Observation.fast` (member descriptors bypass the
#: frozen ``__setattr__``).
(_set_config, _set_value, _set_valid, _set_error, _set_evaluation_index, _set_gpu,
 _set_benchmark) = (getattr(Observation, name).__set__ for name in Observation.__slots__)


class TuningResult:
    """Ordered record of one tuning run (one tuner, one problem, one budget).

    The class intentionally exposes the quantities the paper's evaluation needs:

    * :meth:`best_observation` / :attr:`best_value` -- final tuning outcome;
    * :meth:`best_value_trace` -- best-so-far after each evaluation (convergence, Fig. 2);
    * :meth:`relative_performance_trace` -- the same trace normalised by a known optimum.
    """

    def __init__(self, benchmark: str = "", gpu: str = "", tuner: str = "",
                 seed: int | None = None,
                 observations: Iterable[Observation] = ()):
        self.benchmark = benchmark
        self.gpu = gpu
        self.tuner = tuner
        self.seed = seed
        self._observations: list[Observation] = list(observations)
        self.metadata: dict[str, Any] = {}

    # -------------------------------------------------------------------- recording

    def record(self, observation: Observation) -> None:
        """Append one observation."""
        self._observations.append(observation)

    # ---------------------------------------------------------------------- queries

    @property
    def observations(self) -> tuple[Observation, ...]:
        """All observations in evaluation order."""
        return tuple(self._observations)

    def __len__(self) -> int:
        return len(self._observations)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self._observations)

    @property
    def num_evaluations(self) -> int:
        """Total number of evaluations performed (valid and invalid)."""
        return len(self._observations)

    @property
    def num_valid(self) -> int:
        """Number of successful measurements."""
        return sum(1 for o in self._observations if not o.is_failure)

    @property
    def num_failures(self) -> int:
        """Number of failed/invalid configurations encountered."""
        return len(self._observations) - self.num_valid

    @property
    def best_observation(self) -> Observation:
        """The observation with the lowest finite objective value.

        Raises
        ------
        ReproError
            If the run contains no successful measurement.
        """
        valid = [o for o in self._observations if not o.is_failure]
        if not valid:
            raise ReproError("tuning run produced no valid observation")
        return min(valid, key=lambda o: o.value)

    @property
    def best_value(self) -> float:
        """Lowest objective value found (``math.inf`` if nothing succeeded)."""
        try:
            return self.best_observation.value
        except ReproError:
            return math.inf

    # ------------------------------------------------------------------ convergence

    def values(self) -> np.ndarray:
        """Objective values in evaluation order (inf for failures)."""
        return np.array([o.value if not o.is_failure else math.inf
                         for o in self._observations], dtype=float)

    def best_value_trace(self) -> np.ndarray:
        """Best-so-far objective after each evaluation (running minimum)."""
        vals = self.values()
        if vals.size == 0:
            return vals
        return np.minimum.accumulate(vals)

    def relative_performance_trace(self, optimum: float) -> np.ndarray:
        """Best-so-far *relative performance* ``optimum / best_so_far`` in ``[0, 1]``.

        This is the y-axis of the paper's Fig. 2: 1.0 means the known optimum has been
        found.  Entries before the first valid measurement are 0.
        """
        if optimum <= 0 or not math.isfinite(optimum):
            raise ReproError(f"optimum must be a positive finite runtime, got {optimum}")
        trace = self.best_value_trace()
        out = np.zeros_like(trace)
        finite = np.isfinite(trace)
        out[finite] = optimum / trace[finite]
        return out

    def evaluations_to_reach(self, threshold: float, optimum: float) -> int | None:
        """Number of evaluations needed to reach ``threshold`` relative performance.

        Returns None if the run never reaches the threshold.
        """
        rel = self.relative_performance_trace(optimum)
        hits = np.nonzero(rel >= threshold)[0]
        return int(hits[0]) + 1 if hits.size else None

    # ------------------------------------------------------------------ serialization

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form of the whole run."""
        return {
            "benchmark": self.benchmark,
            "gpu": self.gpu,
            "tuner": self.tuner,
            "seed": self.seed,
            "metadata": dict(self.metadata),
            "observations": [o.to_dict() for o in self._observations],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TuningResult":
        """Inverse of :meth:`to_dict`."""
        result = cls(
            benchmark=data.get("benchmark", ""),
            gpu=data.get("gpu", ""),
            tuner=data.get("tuner", ""),
            seed=data.get("seed"),
            observations=(Observation.from_dict(d) for d in data.get("observations", ())),
        )
        result.metadata.update(data.get("metadata", {}))
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TuningResult(benchmark={self.benchmark!r}, gpu={self.gpu!r}, "
                f"tuner={self.tuner!r}, evaluations={self.num_evaluations}, "
                f"best={self.best_value:.4g})")

