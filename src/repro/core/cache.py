"""Evaluation caches: the campaign data behind every figure of the paper.

The paper's methodology is cache-centric: for each (benchmark, GPU) pair the authors
either exhaustively evaluate the whole valid search space (Pnpoly, Nbody, GEMM,
Convolution) or evaluate 10 000 random configurations (Hotspot, Dedispersion, Expdist),
and *all* analyses -- distributions, random-search convergence, centrality, speedups,
portability, feature importance -- are then computed from those stored measurements.

:class:`EvaluationCache` is that store.  It maps configurations to measured runtimes,
remembers which configurations were invalid, knows summary statistics, can be encoded
into ML feature matrices, and can be replayed as a :class:`~repro.core.problem.TuningProblem`
so that tuners can be benchmarked against cached data without re-running the device
model (exactly how BAT replays its own caches).

Columnar index table
--------------------
Replayed tuning campaigns perform millions of cache lookups, and keying them by
configuration dictionary (sort, tuple-ify, hash) is what made the seed's simulation
loop Python-bound.  :meth:`EvaluationCache.index_table` exposes the store as a
columnar table keyed by mixed-radix *space index* instead: dense ``row_of`` array for
small spaces, an int->row hash for the huge sampled ones, with aligned float/bool
``values``/``failure`` columns.  The table is built lazily in one batch from the dict
store and kept in sync by :meth:`add`/:meth:`add_observation` (mutations queue and
flush on the next table access), so both views always answer identically.

Cache formats
-------------
Two on-disk formats carry a cache, with one compatibility guarantee between them:

* **JSON** (:mod:`repro.io.cachefile`) is the *interchange* format -- self-describing,
  diffable, byte-deterministic, and frozen: nothing in this module changes a single
  byte of it.  :meth:`EvaluationCache.from_dict` decodes a campaign-shaped payload
  (what an executor's cache exports) straight into adopted columns; a payload the
  columns cannot represent -- a re-added config, foreign rows, a repeated config,
  config values that only compare equal to the space's -- is stored one
  :class:`Observation` at a time in the dict store, so either way the cache
  re-exports the bytes it was loaded from.
* **Columnar** (:mod:`repro.io.columnar`, :meth:`EvaluationCache.to_columnar` /
  :meth:`~EvaluationCache.from_columnar`) is the *performance* format: fixed-width
  little-endian index/value/failure-code columns behind a checksummed header.
  ``from_columnar(mmap=True)`` opens without rehydrating the observation dictionary
  -- the :class:`CacheIndexTable` is built straight off the memory-mapped columns --
  so replay opens are cheap and concurrent readers share pages.

Column-native readers
---------------------
A cache holding adopted columns (``from_columnar``, ``from_columns``, every
executor merge, :meth:`~repro.kernels.base.KernelBenchmark.build_cache`, a JSON
load of a campaign export) answers these readers straight from its index, value
and failure-code arrays, without building one :class:`Observation` per row:
``len``/``num_valid``/``num_invalid``, :meth:`~EvaluationCache.values`,
:meth:`~EvaluationCache.best`/:meth:`~EvaluationCache.worst`,
:meth:`~EvaluationCache.median`, :meth:`~EvaluationCache.optimum`,
:meth:`~EvaluationCache.statistics`, :meth:`~EvaluationCache.get` (and
``lookup``/``in``), :meth:`~EvaluationCache.valid_arrays`,
:meth:`~EvaluationCache.to_feature_matrix`, :meth:`~EvaluationCache.index_table`,
:meth:`~EvaluationCache.to_problem` replays, :meth:`~EvaluationCache.to_columnar`
and :meth:`~EvaluationCache.to_dict` (so JSON export).  Every figure of the paper,
every tuner replay and every campaign export therefore runs on columns.  The
dictionary-keyed accessors -- :attr:`~EvaluationCache.observations`, iteration,
:meth:`~EvaluationCache.configs`, :meth:`~EvaluationCache.valid_observations`
and the mutators :meth:`~EvaluationCache.add`/:meth:`~EvaluationCache.add_observation` --
materialise the dict store on first use, after which both forms answer from it.

A cache round-tripped through the columnar store -- or loaded from a JSON export
into adopted columns -- serializes back to byte-identical JSON (same observations,
same ``evaluation_index`` assignment, same error strings), which is what lets the
two formats coexist under the byte-identity contracts.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.errors import (CacheMissError, FragmentIntegrityError,
                               InvalidConfigurationError, ReproError, SerializationError)
from repro.core.problem import TuningProblem
from repro.core.result import LazyConfig, Observation
from repro.core.searchspace import SearchSpace, config_key

__all__ = ["EvaluationCache", "CacheIndexTable"]

#: Cardinality ceiling for the dense ``index -> row`` array of the columnar table
#: (int32 rows: 4 MB per million points).  Above it, lookups go through a hash map.
_DENSE_LOOKUP_MAX = 2_000_000


def _first_repeat(indices: np.ndarray) -> int:
    """The first row whose index already occurred at an earlier row, or -1."""
    if bool(np.all(indices[1:] > indices[:-1])):
        return -1  # strictly ascending: the enumerated (exhaustive) units
    ordered = np.sort(indices)
    if not bool((ordered[1:] == ordered[:-1]).any()):
        return -1
    # Only corrupt input gets here: locate the repeat with a (slower) stable sort.
    order = np.argsort(indices, kind="stable")
    later = order[1:][indices[order[1:]] == indices[order[:-1]]]
    return int(later.min())


def _campaign_columns(rows: Any, space: SearchSpace, benchmark: str, gpu: str
                      ) -> tuple[np.ndarray, list[float], np.ndarray, list[str]] | None:
    """``(indices, values, codes, errors)`` of campaign-shaped JSON rows, else None.

    Campaign-shaped means: row ``i`` carries ``evaluation_index == i`` and this
    cache's ``gpu``/``benchmark``; its config names the space's parameters in
    space order; every config value is a space value *of the same type* (``1.0``
    or ``True`` where the space holds ``1`` would re-export differently; a
    parameter mixing value types therefore never qualifies); and every
    ``error`` is a string.  Fields default exactly as in
    :meth:`Observation.from_dict`.  Any other payload -- malformed rows included
    -- returns None, so the caller's per-row path keeps its behaviour and its
    errors.  Repeated configurations are left to
    :meth:`EvaluationCache.attach_columns`, which refuses them.
    """
    from repro.io.columnar import encode_failure_codes

    if type(rows) is not list or not rows or set(map(type, rows)) != {dict}:
        return None
    n = len(rows)
    names = space.parameter_names
    if ([od.get("evaluation_index", -1) for od in rows] != list(range(n))
            or [od.get("gpu", "") for od in rows].count(gpu) != n
            or [od.get("benchmark", "") for od in rows].count(benchmark) != n):
        return None
    configs = [od.get("config") for od in rows]
    if (set(map(type, configs)) != {dict}
            or list(map(tuple, configs)).count(names) != n):
        return None
    digits = np.empty((n, len(names)), dtype=np.int64)
    for j, p in enumerate(space.parameters):
        column = list(map(itemgetter(p.name), configs))
        try:
            digits[:, j] = p.digits_of(column)
        except (InvalidConfigurationError, TypeError):  # not a value, or unhashable
            return None
        kinds = set(map(type, p.values))
        if len(kinds) != 1 or set(map(type, column)) != kinds:
            return None
    errors = [od.get("error", "") for od in rows]
    if set(map(type, errors)) != {str}:
        return None
    try:
        values = [math.inf if v is None else float(v)
                  for v in [od.get("value") for od in rows]]
    except (TypeError, ValueError, OverflowError):
        return None
    valid = [bool(od.get("valid", True)) for od in rows]
    codes, table = encode_failure_codes(valid, errors)
    return space.digits_to_indices(digits), values, codes, table


class CacheIndexTable:
    """Columnar ``space index -> (value, failure)`` view of an evaluation cache.

    ``lookup_one`` answers a single integer-index probe without building any
    configuration dictionary; ``lookup`` is the batch form.  Rows overwrite in
    place when the same index is stored again, mirroring the dict store.  Batch
    lookups against hashed (above-dense-ceiling) tables run through a lazily
    sorted key array and one :func:`numpy.searchsorted` instead of a Python
    ``dict.get`` per probe; scalar probes keep the O(1) hash.
    """

    __slots__ = ("_cardinality", "_dense", "_row_of", "_values", "_failure", "_size",
                 "_sorted_keys", "_sorted_rows")

    def __init__(self, cardinality: int):
        self._cardinality = cardinality
        self._dense = cardinality <= _DENSE_LOOKUP_MAX
        self._row_of: Any = (np.full(cardinality, -1, dtype=np.int32)
                             if self._dense else {})
        self._values = np.empty(0, dtype=float)
        self._failure = np.empty(0, dtype=bool)
        self._size = 0
        # Hashed-path batch index: sorted key/row arrays for searchsorted lookups,
        # rebuilt lazily after any store that introduced new keys.
        self._sorted_keys: np.ndarray | None = None
        self._sorted_rows: np.ndarray | None = None

    @classmethod
    def from_columns(cls, cardinality: int, indices: np.ndarray,
                     values: np.ndarray, failure: np.ndarray) -> "CacheIndexTable":
        """Build a table directly over existing columns (no per-row staging).

        This is how a memory-mapped columnar cache backs its index table: the
        ``values``/``failure`` arrays are adopted by reference (they may be
        read-only mmap views -- :meth:`store` copies on first write), and only
        the ``index -> row`` structure is materialised here.  ``indices`` must
        be duplicate-free, which :meth:`EvaluationCache.attach_columns`
        enforces.
        """
        table = cls.__new__(cls)
        indices = np.asarray(indices, dtype=np.int64)
        n = indices.size
        table._cardinality = cardinality
        table._dense = cardinality <= _DENSE_LOOKUP_MAX
        if table._dense:
            row_of = np.full(cardinality, -1, dtype=np.int32)
            row_of[indices] = np.arange(n, dtype=np.int32)
            table._row_of = row_of
        else:
            table._row_of = dict(zip(indices.tolist(), range(n)))
        table._values = np.asarray(values, dtype=float)
        table._failure = np.asarray(failure, dtype=bool)
        table._size = n
        table._sorted_keys = table._sorted_rows = None
        return table

    def __len__(self) -> int:
        return self._size

    def _grow(self, extra: int) -> None:
        need = self._size + extra
        if need <= self._values.size:
            return
        capacity = max(need, 2 * self._values.size, 256)
        self._values = np.resize(self._values, capacity)
        self._failure = np.resize(self._failure, capacity)

    def store(self, indices: np.ndarray, values: np.ndarray,
              failure: np.ndarray) -> None:
        """Insert/overwrite many rows at once (aligned arrays, last write wins)."""
        if indices.size and not self._values.flags.writeable:
            # Tables built over memory-mapped columns adopt read-only views; the
            # first mutation promotes them to private writable copies.
            self._values = self._values.copy()
            self._failure = self._failure.copy()
        if self._dense and indices.size:
            # Collapse duplicate indices within the batch to their last occurrence
            # before allocating rows, or each duplicate would leak a fresh row.
            unique, inverse = np.unique(indices, return_inverse=True)
            if unique.size != indices.size:
                last = np.empty(unique.size, dtype=np.int64)
                last[inverse] = np.arange(indices.size)
                indices, values, failure = unique, values[last], failure[last]
        self._grow(indices.size)
        if self._dense:
            rows = self._row_of[indices]
            fresh = rows < 0
            n_fresh = int(fresh.sum())
            rows[fresh] = self._size + np.arange(n_fresh, dtype=np.int32)
            self._row_of[indices] = rows
            self._size += n_fresh
            self._values[rows] = values
            self._failure[rows] = failure
            return
        row_of = self._row_of
        size = self._size
        for k, index in enumerate(indices.tolist()):
            row = row_of.get(index)
            if row is None:
                row_of[index] = row = size
                size += 1
            self._values[row] = values[k]
            self._failure[row] = failure[k]
        if size != self._size:
            # New keys invalidate the sorted batch index; pure overwrites keep it
            # (rows are stable, and values/failure are read through the row arrays).
            self._sorted_keys = self._sorted_rows = None
        self._size = size

    def _sorted_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ``(keys, rows)`` arrays of the hashed store, built on demand.

        One O(n log n) sort per mutation burst replaces the per-probe Python
        ``dict.get`` loop of batch lookups with a single :func:`numpy.searchsorted`
        -- the ROADMAP's "searchsorted batch lookup for hashed cache tables".
        """
        if self._sorted_keys is None:
            keys = np.fromiter(self._row_of.keys(), dtype=np.int64,
                               count=len(self._row_of))
            rows = np.fromiter(self._row_of.values(), dtype=np.int64,
                               count=len(self._row_of))
            order = np.argsort(keys)
            self._sorted_keys = keys[order]
            self._sorted_rows = rows[order]
        return self._sorted_keys, self._sorted_rows

    def row(self, index: int) -> int:
        """Row of one space index, or -1 when it is not stored.

        Out-of-range indices are misses, exactly like unknown in-range ones (the
        dense path must not let NumPy's negative-index wrapping alias a row).
        """
        if self._dense:
            return (int(self._row_of[index])
                    if 0 <= index < self._cardinality else -1)
        return self._row_of.get(index, -1)

    def lookup_one(self, index: int) -> tuple[float, bool, bool]:
        """``(value, failure, found)`` of one space index (misses as in :meth:`row`)."""
        row = self.row(index)
        if row < 0:
            return math.inf, True, False
        return float(self._values[row]), bool(self._failure[row]), True

    def lookup(self, indices: np.ndarray | Sequence[int]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch ``(values, failure, found)`` arrays for an index block.

        Out-of-range indices are misses (see :meth:`lookup_one`).
        """
        idx = np.asarray(indices, dtype=np.int64)
        if self._dense:
            in_range = (idx >= 0) & (idx < self._cardinality)
            rows = np.full(idx.size, -1, dtype=np.int64)
            rows[in_range] = self._row_of[idx[in_range]]
        else:
            rows = np.full(idx.size, -1, dtype=np.int64)
            keys, key_rows = self._sorted_index()
            if keys.size:
                pos = np.searchsorted(keys, idx)
                pos[pos == keys.size] = 0
                hit = keys[pos] == idx
                rows[hit] = key_rows[pos[hit]]
        found = rows >= 0
        values = np.full(idx.size, math.inf, dtype=float)
        failure = np.ones(idx.size, dtype=bool)
        values[found] = self._values[rows[found]]
        failure[found] = self._failure[rows[found]]
        return values, failure, found


class _AdoptedColumns:
    """Columnar rows adopted by a cache but not yet materialised as Observations.

    Holds the (possibly memory-mapped, read-only) index/value/code arrays plus
    the interned error table of one columnar cache file, and the per-row
    ``Observation.is_failure`` flags derived from them.  The owning
    :class:`EvaluationCache` answers its column-native readers straight off
    these arrays and only decodes them into :class:`Observation` objects when
    a dictionary-keyed accessor is actually used.
    """

    __slots__ = ("indices", "values", "codes", "errors", "failure")

    def __init__(self, indices: np.ndarray, values: np.ndarray,
                 codes: np.ndarray, errors: Sequence[str]):
        self.indices = indices
        self.values = values
        self.codes = codes
        self.errors = list(errors)
        self.failure = (codes >= 0) | ~np.isfinite(values)


class EvaluationCache:
    """Measured runtimes for one benchmark on one (simulated) GPU.

    Parameters
    ----------
    benchmark:
        Benchmark name (e.g. ``"hotspot"``).
    gpu:
        Device name (e.g. ``"RTX_3090"``).
    space:
        The search space the configurations belong to.
    exhaustive:
        True when the cache covers every valid configuration of the space (affects how
        analyses interpret the data; the paper marks Hotspot/Dedisp/Expdist caches as
        sampled).
    """

    def __init__(self, benchmark: str, gpu: str, space: SearchSpace,
                 exhaustive: bool = False):
        self.benchmark = benchmark
        self.gpu = gpu
        self.space = space
        self.exhaustive = exhaustive
        self._store: dict[tuple, Observation] = {}
        self._lazy: _AdoptedColumns | None = None
        self._num_failures = 0
        self.metadata: dict[str, Any] = {}
        self._index_table: CacheIndexTable | None = None
        self._index_pending: list[Observation] = []

    # ------------------------------------------------------------- lazy dict store

    @property
    def _entries(self) -> dict[tuple, Observation]:
        """The dictionary store, materialising adopted columns on first touch."""
        if self._lazy is not None:
            self._materialize()
        return self._store

    def _materialize(self) -> None:
        store = self._store
        for row in range(self._lazy.indices.size):
            obs = self._observation_at(row)
            store[obs.key] = obs
        self._lazy = None
        # The index table (if already built from these columns) covers every
        # materialised row, so nothing is queued on ``_index_pending`` here.

    def _observation_at(self, row: int) -> Observation:
        """The observation stored at insertion position ``row``.

        Adopted columns decode just that row (the failure codes were checked
        against the error table on attach); an eager cache walks its dict store.
        """
        lazy = self._lazy
        if lazy is None:
            return next(islice(self._store.values(), row, None))
        code = int(lazy.codes[row])
        return Observation.fast(LazyConfig(self.space, int(lazy.indices[row])),
                                float(lazy.values[row]), code < 0,
                                lazy.errors[-code - 1 if code < 0 else code],
                                row, self.gpu, self.benchmark)

    def _row_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, failure)`` of every stored row, in insertion order.

        The one source of the statistics readers: adopted columns answer with
        their own (possibly read-only) arrays, an eager cache reads its dict
        store once.
        """
        lazy = self._lazy
        if lazy is not None:
            return lazy.values, lazy.failure
        observations = self._store.values()
        n = len(observations)
        values = np.fromiter((o.value for o in observations), dtype=float, count=n)
        valid = np.fromiter((o.valid for o in observations), dtype=bool, count=n)
        return values, ~valid | ~np.isfinite(values)  # Observation.is_failure

    def _valid_rows(self, valid_only: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, values)``: the selected insertion rows and their runtimes."""
        values, failure = self._row_columns()
        rows = np.flatnonzero(~failure) if valid_only else np.arange(values.size)
        return rows, values[rows]

    def _row_configs(self, rows: np.ndarray) -> list[dict[str, Any]]:
        """Configuration dictionaries of the given insertion rows."""
        if self._lazy is not None:
            return self.space.configs_at(self._lazy.indices[rows])
        observations = list(self._store.values())
        return [dict(observations[row].config) for row in rows.tolist()]

    # --------------------------------------------------------------------- mutation

    def add(self, config: Mapping[str, Any], value: float, valid: bool = True,
            error: str = "") -> None:
        """Store one measurement (overwrites an existing entry for the same config)."""
        entries = self._entries
        obs = Observation(config=dict(config), value=value if valid else math.inf,
                          valid=valid, error=error,
                          evaluation_index=len(entries),
                          gpu=self.gpu, benchmark=self.benchmark)
        key = config_key(config)
        previous = entries.get(key)
        if previous is not None:
            self._num_failures -= previous.is_failure
        self._num_failures += obs.is_failure
        entries[key] = obs
        if self._index_table is not None:
            self._index_pending.append(obs)

    def add_observation(self, observation: Observation) -> None:
        """Store an existing observation object."""
        entries = self._entries
        key = observation.key
        previous = entries.get(key)
        if previous is not None:
            self._num_failures -= previous.is_failure
        self._num_failures += observation.is_failure
        entries[key] = observation
        if self._index_table is not None:
            self._index_pending.append(observation)

    def update(self, observations: Iterable[Observation]) -> None:
        """Store many observations."""
        for obs in observations:
            self.add_observation(obs)

    # ------------------------------------------------------------- columnar lookups

    def _flush_index_pending(self) -> None:
        pending = self._index_pending
        self._index_pending = []
        indices = self.space.indices_of_configs([o.config for o in pending])
        self._index_table.store(
            indices,
            np.asarray([o.value for o in pending], dtype=float),
            np.asarray([o.is_failure for o in pending], dtype=bool))

    def index_table(self) -> CacheIndexTable:
        """The columnar ``space index -> (value, failure)`` view of this cache.

        Built in one batch on first use and kept in sync with the dict store:
        mutations after the build queue up and flush on the next call, so the two
        views can never answer differently.  Call this per lookup burst (it is just
        an attribute check once built) rather than caching the table elsewhere.
        """
        if self._index_table is None:
            if self._lazy is not None:
                # Columnar-backed cache: build the table straight off the mapped
                # columns.  No observation objects, no dict, no per-row Python.
                lazy = self._lazy
                self._index_table = CacheIndexTable.from_columns(
                    self.space.cardinality, lazy.indices, lazy.values, lazy.failure)
                self._index_pending = []
            else:
                self._index_table = CacheIndexTable(self.space.cardinality)
                self._index_pending = list(self._store.values())
        if self._index_pending:
            self._flush_index_pending()
        return self._index_table

    # ---------------------------------------------------------------------- queries

    def __len__(self) -> int:
        if self._lazy is not None:
            return int(self._lazy.indices.size)
        return len(self._store)

    def __contains__(self, config: Mapping[str, Any]) -> bool:
        return self.get(config) is not None

    def __iter__(self) -> Iterator[Observation]:
        return iter(self._entries.values())

    def get(self, config: Mapping[str, Any]) -> Observation | None:
        """The stored observation for ``config`` or None.

        Adopted columns answer through :meth:`index_table`: anything
        ``space.index_of`` refuses (unknown or missing parameters, values outside
        a parameter) is a miss, exactly as it is for the dict store.
        """
        if self._lazy is None:
            return self._store.get(config_key(config))
        try:
            index = self.space.index_of(config)
        except InvalidConfigurationError:
            return None
        row = self.index_table().row(index)
        return None if row < 0 else self._observation_at(row)

    def lookup(self, config: Mapping[str, Any]) -> Observation:
        """Like :meth:`get` but raises :class:`CacheMissError` when absent."""
        obs = self.get(config)
        if obs is None:
            raise CacheMissError(
                f"configuration not in {self.benchmark}/{self.gpu} cache: {dict(config)}")
        return obs

    @property
    def observations(self) -> tuple[Observation, ...]:
        """All stored observations (insertion order)."""
        return tuple(self._entries.values())

    def valid_observations(self) -> list[Observation]:
        """Only the successfully measured configurations."""
        return [o for o in self._entries.values() if not o.is_failure]

    def valid_arrays(self) -> tuple[list[dict[str, Any]], np.ndarray]:
        """Configurations and runtimes of the valid entries, in one pass.

        This is the array-native export the graph layer builds on: the configuration
        list is aligned with the float runtime vector, ready to be turned into a digit
        matrix by :meth:`~repro.core.searchspace.SearchSpace.digits_of_configs`.
        """
        rows, values = self._valid_rows()
        return self._row_configs(rows), values

    @property
    def num_valid(self) -> int:
        """Number of successful measurements.

        O(1): a running counter maintained by :meth:`add`/:meth:`add_observation`
        (overwrite-aware), not a scan -- progress and status paths poll these
        properties once per shard.
        """
        return len(self) - self._num_failures

    @property
    def num_invalid(self) -> int:
        """Number of failed configurations stored (O(1), see :attr:`num_valid`)."""
        return self._num_failures

    # ------------------------------------------------------------------- statistics

    def values(self, valid_only: bool = True) -> np.ndarray:
        """Measured runtimes as a float array (valid entries only by default)."""
        return self._valid_rows(valid_only)[1]

    def configs(self, valid_only: bool = True) -> list[dict[str, Any]]:
        """Stored configurations, aligned with :meth:`values`."""
        if valid_only:
            return [dict(o.config) for o in self._entries.values() if not o.is_failure]
        return [dict(o.config) for o in self._entries.values()]

    def _extreme(self, arg: Any) -> Observation:
        rows, values = self._valid_rows()
        if not rows.size:
            raise ReproError(f"cache {self.benchmark}/{self.gpu} has no valid entries")
        return self._observation_at(int(rows[arg(values)]))

    def best(self) -> Observation:
        """The fastest configuration in the cache (the first, on ties)."""
        return self._extreme(np.argmin)

    def worst(self) -> Observation:
        """The slowest valid configuration in the cache (the first, on ties)."""
        return self._extreme(np.argmax)

    def optimum(self) -> float:
        """Runtime of the best configuration (the paper's reference optimum)."""
        return self.best().value

    def median(self) -> float:
        """Median runtime of the valid configurations (Fig. 1 centring, Fig. 4 baseline)."""
        vals = self.values()
        if vals.size == 0:
            raise ReproError(f"cache {self.benchmark}/{self.gpu} has no valid entries")
        return float(np.median(vals))

    def statistics(self) -> dict[str, float]:
        """Summary statistics used by reports."""
        vals = self.values()
        if vals.size == 0:
            raise ReproError(f"cache {self.benchmark}/{self.gpu} has no valid entries")
        return {
            "count": float(len(self)),
            "valid": float(vals.size),
            "best": float(vals.min()),
            "worst": float(vals.max()),
            "median": float(np.median(vals)),
            "mean": float(vals.mean()),
            "std": float(vals.std()),
        }

    # -------------------------------------------------------------------- ML export

    def to_feature_matrix(self, valid_only: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Encode the cache as ``(X, y)`` for the ML substrate.

        ``X`` has one column per parameter (in search-space order), ``y`` holds the
        measured runtimes.
        """
        rows, y = self._valid_rows(valid_only)
        if not rows.size:
            raise ReproError(f"cache {self.benchmark}/{self.gpu} has no entries to encode")
        if self._lazy is not None:
            return self.space.encode_indices(self._lazy.indices[rows]), y
        return self.space.encode_batch(self._row_configs(rows)), y

    # ------------------------------------------------------------------ replay

    def to_problem(self, strict: bool = True, memoize: bool = True) -> TuningProblem:
        """A :class:`TuningProblem` that answers evaluations from this cache.

        The problem carries both objective forms: the dictionary ``evaluate_fn``
        (key the dict store) and the index-native ``evaluate_index_fn`` (one probe of
        :meth:`index_table`, no dictionary, no hashing of sorted item tuples).  The
        two are element-wise equivalent by construction -- same values, same
        miss/failure semantics, same :class:`CacheMissError` message -- so a tuner
        may drive either path and record identical observations.

        Parameters
        ----------
        strict:
            If True (default), configurations missing from the cache raise
            :class:`CacheMissError` (and therefore appear as invalid observations).
            If False, missing configurations are treated as invalid silently.
        """
        def _evaluate(config: Mapping[str, Any]) -> float:
            obs = self.get(config)
            if obs is None:
                if strict:
                    raise CacheMissError(
                        f"configuration not present in {self.benchmark}/{self.gpu} cache")
                return math.inf
            if obs.is_failure:
                return math.inf
            return obs.value

        def _evaluate_index(index: int) -> float:
            value, failure, found = self.index_table().lookup_one(index)
            if not found:
                if strict:
                    raise CacheMissError(
                        f"configuration not present in {self.benchmark}/{self.gpu} cache")
                return math.inf
            if failure:
                return math.inf
            return value

        def _peek_indices(indices: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            # Pure lookup, so peeking is free of side effects.  ``values`` is
            # normalised to what ``_evaluate_index`` returns (inf for misses and
            # stored failures), stored non-positive values are flagged exactly
            # like the scalar evaluation path would invalidate them, and only
            # strict misses raise (their error string is not value-derived).
            values, failure, found = self.index_table().lookup(indices)
            values = np.where(failure, math.inf, values)
            raises = (~found if strict
                      else np.zeros(indices.size, dtype=bool))
            return values, failure | (values <= 0), raises

        def _peek_one(index: int) -> tuple[float, bool, bool]:
            # Scalar twin of ``_peek_indices`` (same normalisation, one hash
            # probe): what generation-batched population tuners call per
            # candidate while simulating a generation ahead of its bulk
            # evaluation.
            value, failure, found = self.index_table().lookup_one(index)
            if not found:
                return math.inf, True, strict
            if failure:
                return math.inf, True, False
            return value, value <= 0, False

        return TuningProblem(name=self.benchmark, space=self.space, evaluate_fn=_evaluate,
                             gpu=self.gpu, memoize=memoize,
                             evaluate_index_fn=_evaluate_index,
                             peek_index_fn=_peek_indices,
                             peek_one_fn=_peek_one)

    # ------------------------------------------------------------------ serialization

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form including the search-space description (off
        adopted columns: one dict literal per row, as :meth:`Observation.to_dict`)."""
        lazy = self._lazy
        if lazy is None:
            observations = [o.to_dict() for o in self._store.values()]
        else:
            gpu, benchmark, errors = self.gpu, self.benchmark, lazy.errors
            observations = [
                {"config": config, "value": value if math.isfinite(value) else None,
                 "valid": code < 0, "error": errors[-code - 1 if code < 0 else code],
                 "evaluation_index": row, "gpu": gpu, "benchmark": benchmark}
                for row, (config, value, code) in enumerate(zip(
                    self.space.configs_at(lazy.indices), lazy.values.tolist(),
                    lazy.codes.tolist()))]
        return {
            "benchmark": self.benchmark,
            "gpu": self.gpu,
            "exhaustive": self.exhaustive,
            "metadata": dict(self.metadata),
            "space": self.space.to_dict(),
            "observations": observations,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  space: SearchSpace | None = None) -> "EvaluationCache":
        """Inverse of :meth:`to_dict`.

        ``space`` may be supplied to reuse an existing space object (e.g. one that
        carries callable constraints which do not survive JSON round-trips).

        Campaign-shaped observations -- what :meth:`to_dict` writes for an
        executor's cache: row ``i`` has ``evaluation_index == i``, this cache's
        gpu and benchmark, a config of exactly the space's parameters (in space
        order, with values of the space's own types), a string error and no
        repeated configuration -- are decoded in a few list passes into index,
        value and failure-code columns and adopted with :meth:`attach_columns`,
        so the loaded cache is column-backed like :meth:`from_columnar`'s and
        re-exports byte-identical JSON.  Every other payload (a re-added config,
        foreign rows, values that only compare equal to the space's, malformed
        rows) is neither refused nor reshaped: it is stored one
        :class:`Observation` at a time through :meth:`add_observation`, exactly
        as before, because adopted columns cannot represent it -- they have no
        room for a foreign ``evaluation_index``, gpu or benchmark, for a second
        row of one configuration, or for a value's JSON spelling.  An empty
        observation list adopts nothing and stays an empty dict store.
        """
        if space is None:
            space = SearchSpace.from_dict(data["space"])
        cache = cls(benchmark=data["benchmark"], gpu=data["gpu"], space=space,
                    exhaustive=bool(data.get("exhaustive", False)))
        cache.metadata.update(data.get("metadata", {}))
        rows = data.get("observations", ())
        columns = _campaign_columns(rows, space, cache.benchmark, cache.gpu)
        if columns is not None:
            try:
                cache.attach_columns(*columns)
                return cache
            except FragmentIntegrityError:
                pass  # a configuration repeats: only the dict store can keep it
        for od in rows:
            cache.add_observation(Observation.from_dict(od))
        return cache

    # ------------------------------------------------------- columnar serialization

    def to_columnar(self, path: str | Path) -> Path:
        """Write this cache as a columnar file (see :mod:`repro.io.columnar`).

        Requires campaign shape -- every observation's ``evaluation_index`` equal
        to its insertion position and carrying this cache's benchmark/gpu --
        which is what executors, :meth:`from_dict` on executor output and
        :meth:`from_columnar` all produce.  A cache assembled by hand from
        foreign observations cannot round-trip through three columns and is
        refused with :class:`~repro.core.errors.SerializationError`; use the
        JSON writer for it.
        """
        from repro.io import columnar

        path = Path(path)
        meta = {
            "benchmark": self.benchmark,
            "gpu": self.gpu,
            "exhaustive": self.exhaustive,
            "metadata": dict(self.metadata),
            "space": self.space.to_dict(),
        }
        meta["digest"] = columnar.cache_digest(self.benchmark, self.gpu,
                                               meta["space"])
        if self._lazy is not None:
            # Adopted columns re-emit verbatim: a load -> save round trip is
            # byte-identical without materialising a single observation.
            lazy = self._lazy
            columnar.write_columnar(path, "cache", meta,
                                    {"index": lazy.indices, "value": lazy.values,
                                     "code": lazy.codes}, lazy.errors)
            return path
        observations = list(self._store.values())
        indices = np.empty(len(observations), dtype=np.int64)
        plain_rows: list[int] = []
        plain_configs: list[Mapping[str, Any]] = []
        for row, obs in enumerate(observations):
            if (obs.evaluation_index != row or obs.gpu != self.gpu
                    or obs.benchmark != self.benchmark):
                raise SerializationError(
                    f"cache {self.benchmark}/{self.gpu} is not campaign-shaped "
                    f"(observation {row} carries evaluation_index="
                    f"{obs.evaluation_index}, gpu={obs.gpu!r}, benchmark="
                    f"{obs.benchmark!r}); columnar files cannot represent it -- "
                    f"use the JSON writer")
            config = obs.config
            if isinstance(config, LazyConfig):
                indices[row] = config.space_index
            else:
                plain_rows.append(row)
                plain_configs.append(config)
        if plain_rows:
            indices[plain_rows] = self.space.indices_of_configs(plain_configs)
        codes, errors = columnar.encode_failure_codes(
            [o.valid for o in observations], [o.error for o in observations])
        columnar.write_columnar(
            path, "cache", meta,
            {"index": indices,
             "value": np.asarray([o.value for o in observations], dtype=float),
             "code": codes},
            errors)
        return path

    @classmethod
    def from_columnar(cls, path: str | Path, space: SearchSpace | None = None,
                      mmap: bool = True, verify: bool = True) -> "EvaluationCache":
        """Open a columnar cache file; the inverse of :meth:`to_columnar`.

        With ``mmap=True`` (default) the index/value/code columns stay read-only
        views of the memory-mapped file, so opening for index-native replay costs
        one header parse -- not one Python object per row.  The
        :class:`CacheIndexTable` and the column-native readers (``values``,
        ``best``/``worst``, ``median``, ``optimum``, ``statistics``, ``get``,
        ``valid_arrays``, ``to_feature_matrix``, ``to_dict``) answer straight off
        them; the observation dictionary materialises only when a
        dictionary-keyed accessor (``observations``, iteration, ``configs``,
        ``valid_observations``, ``add``) is used.  ``space`` may be
        supplied to reuse an existing space object, like :meth:`from_dict`.
        """
        from repro.io import columnar

        payload = columnar.read_columnar(path, mmap=mmap, verify=verify)
        if payload.kind != "cache":
            raise SerializationError(
                f"{path} is a columnar {payload.kind} file, not a cache")
        header = payload.header
        if space is None:
            space = SearchSpace.from_dict(header["space"])
        cache = cls(benchmark=header["benchmark"], gpu=header["gpu"], space=space,
                    exhaustive=bool(header.get("exhaustive", False)))
        cache.metadata.update(header.get("metadata", {}))
        cache.attach_columns(payload.columns["index"], payload.columns["value"],
                              payload.columns["code"], payload.errors)
        return cache

    @classmethod
    def from_columns(cls, benchmark: str, gpu: str, space: SearchSpace,
                     indices: np.ndarray, values: np.ndarray, codes: np.ndarray,
                     errors: Sequence[str],
                     exhaustive: bool = False) -> "EvaluationCache":
        """Build a cache directly over in-memory columns (no per-row inserts)."""
        cache = cls(benchmark=benchmark, gpu=gpu, space=space,
                    exhaustive=exhaustive)
        cache.attach_columns(indices, values, codes, errors)
        return cache

    def attach_columns(self, indices: np.ndarray, values: np.ndarray,
                        codes: np.ndarray, errors: Sequence[str]) -> None:
        """Adopt insertion-ordered row columns as this (empty) cache's contents.

        Refused with :class:`~repro.core.errors.FragmentIntegrityError` when an
        index lies outside the space, an index repeats (the dict store would keep
        one row where the columns count two), or a failure code points outside
        the error table.
        """
        from repro.io.columnar import failure_slots

        if self._store or self._lazy is not None or self._index_table is not None:
            raise ReproError("columns can only be attached to an empty cache")
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size:
            lo, hi = int(indices.min()), int(indices.max())
            if lo < 0 or hi >= self.space.cardinality:
                raise FragmentIntegrityError(
                    f"columnar cache {self.benchmark}/{self.gpu} carries space "
                    f"index {lo if lo < 0 else hi} outside the space's "
                    f"{self.space.cardinality} configurations")
            repeat = _first_repeat(indices)
            if repeat >= 0:
                raise FragmentIntegrityError(
                    f"columnar cache {self.benchmark}/{self.gpu} stores space index "
                    f"{int(indices[repeat])} twice (again at row {repeat})")
        codes = np.asarray(codes, dtype=np.int32)
        failure_slots(codes, errors)
        lazy = _AdoptedColumns(indices, np.asarray(values, dtype=float), codes, errors)
        self._lazy = lazy
        self._num_failures = int(np.count_nonzero(lazy.failure))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"EvaluationCache(benchmark={self.benchmark!r}, gpu={self.gpu!r}, "
                f"entries={len(self)}, exhaustive={self.exhaustive})")
