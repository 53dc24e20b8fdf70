"""Per-row reference for :class:`repro.core.cache.EvaluationCache`.

:class:`OracleCache` keeps one :class:`~repro.core.result.Observation` per
configuration in a dictionary keyed by ``config_key``: a re-added configuration
keeps its entry's first position, and :meth:`OracleCache.add` records
``evaluation_index = len(cache)`` for it.  Counters, readers, ``to_dict`` and
``to_columnar`` are plain scans over those observations.  The column store must
answer every one of them bit for bit like this oracle; the differential suites
(``test_cache_columns.py``, ``test_cache_json_columns.py``,
``test_cache_store.py``) compare the two.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from repro.core.errors import ReproError, SerializationError
from repro.core.result import Observation
from repro.core.searchspace import SearchSpace, config_key


class OracleCache:
    """A dictionary of observations with the readers of an evaluation cache."""

    def __init__(self, benchmark: str, gpu: str, space: SearchSpace,
                 exhaustive: bool = False):
        self.benchmark = benchmark
        self.gpu = gpu
        self.space = space
        self.exhaustive = exhaustive
        self.metadata: dict[str, Any] = {}
        self._entries: dict[tuple, Observation] = {}

    @classmethod
    def from_payload(cls, data: Mapping[str, Any],
                     space: SearchSpace | None = None) -> "OracleCache":
        """One ``Observation.from_dict`` + ``add_observation`` per JSON row."""
        oracle = cls(data["benchmark"], data["gpu"],
                     space or SearchSpace.from_dict(data["space"]),
                     exhaustive=bool(data.get("exhaustive", False)))
        oracle.metadata.update(data.get("metadata", {}))
        for od in data.get("observations", ()):
            oracle.add_observation(Observation.from_dict(od))
        return oracle

    @classmethod
    def from_rows(cls, cache: Any) -> "OracleCache":
        """The observations of ``cache``, inserted one at a time."""
        oracle = cls(cache.benchmark, cache.gpu, cache.space, cache.exhaustive)
        oracle.metadata.update(cache.metadata)
        for obs in cache.observations:
            oracle.add_observation(obs)
        return oracle

    # ---------------------------------------------------------------- mutation

    def add(self, config: Mapping[str, Any], value: float, valid: bool = True,
            error: str = "") -> None:
        self._entries[config_key(config)] = Observation(
            config=dict(config), value=value if valid else math.inf, valid=valid,
            error=error, evaluation_index=len(self._entries), gpu=self.gpu,
            benchmark=self.benchmark)

    def add_observation(self, observation: Observation) -> None:
        self._entries[observation.key] = observation

    # ----------------------------------------------------------------- readers

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def __contains__(self, config: Mapping[str, Any]) -> bool:
        return self.get(config) is not None

    @property
    def observations(self) -> tuple[Observation, ...]:
        return tuple(self._entries.values())

    def get(self, config: Mapping[str, Any]) -> Observation | None:
        return self._entries.get(config_key(config))

    def valid_observations(self) -> list[Observation]:
        return [o for o in self._entries.values() if not o.is_failure]

    def _selected(self, valid_only: bool) -> list[Observation]:
        return self.valid_observations() if valid_only else list(self._entries.values())

    @property
    def num_valid(self) -> int:
        return len(self.valid_observations())

    @property
    def num_invalid(self) -> int:
        return len(self) - self.num_valid

    def values(self, valid_only: bool = True) -> np.ndarray:
        return np.array([o.value for o in self._selected(valid_only)], dtype=float)

    def configs(self, valid_only: bool = True) -> list[dict[str, Any]]:
        return [dict(o.config) for o in self._selected(valid_only)]

    def valid_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        indices = [self.space.index_of(o.config) for o in self.valid_observations()]
        return np.array(indices, dtype=np.int64), self.values()

    def _nonempty(self) -> list[Observation]:
        valid = self.valid_observations()
        if not valid:
            raise ReproError(f"cache {self.benchmark}/{self.gpu} has no valid entries")
        return valid

    def best(self) -> Observation:
        return min(self._nonempty(), key=lambda o: o.value)

    def worst(self) -> Observation:
        return max(self._nonempty(), key=lambda o: o.value)

    def optimum(self) -> float:
        return self.best().value

    def median(self) -> float:
        self._nonempty()
        return float(np.median(self.values()))

    def statistics(self) -> dict[str, float]:
        self._nonempty()
        vals = self.values()
        return {"count": float(len(self)), "valid": float(vals.size),
                "best": float(vals.min()), "worst": float(vals.max()),
                "median": float(np.median(vals)), "mean": float(vals.mean()),
                "std": float(vals.std())}

    def to_feature_matrix(self, valid_only: bool = True) -> tuple[np.ndarray, np.ndarray]:
        selected = self._selected(valid_only)
        if not selected:
            raise ReproError(f"cache {self.benchmark}/{self.gpu} has no entries to encode")
        return (self.space.encode_batch([o.config for o in selected]),
                np.array([o.value for o in selected], dtype=float))

    def lookup_indices(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                           np.ndarray]:
        """``(values, failure, found)`` per space index, as ``index_table().lookup``."""
        by_index = {self.space.index_of(o.config): o for o in self._entries.values()}
        hits = [by_index.get(int(index)) for index in np.asarray(indices).tolist()]
        return (np.array([math.inf if o is None else o.value for o in hits], dtype=float),
                np.array([o is None or o.is_failure for o in hits], dtype=bool),
                np.array([o is not None for o in hits], dtype=bool))

    # ----------------------------------------------------------- serialization

    def campaign_shaped(self) -> bool:
        """Row ``i`` carries ``evaluation_index == i`` and this cache's gpu/benchmark."""
        return all(o.evaluation_index == row and o.gpu == self.gpu
                   and o.benchmark == self.benchmark
                   for row, o in enumerate(self._entries.values()))

    def to_dict(self) -> dict[str, Any]:
        return {"benchmark": self.benchmark, "gpu": self.gpu,
                "exhaustive": self.exhaustive, "metadata": dict(self.metadata),
                "space": self.space.to_dict(),
                "observations": [o.to_dict() for o in self._entries.values()]}

    def iter_json(self) -> Iterator[str]:
        """The JSON text ``save_cache`` writes: one ``json.dumps`` of :meth:`to_dict`."""
        yield json.dumps(self.to_dict())

    def to_columnar(self, path: str | Path) -> Path:
        """One columnar file of the observations (campaign-shaped caches only)."""
        from repro.io import columnar

        if not self.campaign_shaped():
            raise SerializationError(
                f"cache {self.benchmark}/{self.gpu} is not campaign-shaped; "
                f"use the JSON writer")
        observations = list(self._entries.values())
        meta = {"benchmark": self.benchmark, "gpu": self.gpu,
                "exhaustive": self.exhaustive, "metadata": dict(self.metadata),
                "space": self.space.to_dict()}
        meta["digest"] = columnar.cache_digest(self.benchmark, self.gpu, meta["space"])
        codes, errors = columnar.encode_failure_codes(
            [o.valid for o in observations], [o.error for o in observations])
        return columnar.write_columnar(
            Path(path), "cache", meta,
            {"index": np.array([self.space.index_of(o.config) for o in observations],
                               dtype=np.int64),
             "value": np.array([o.value for o in observations], dtype=float),
             "code": codes},
            errors)
