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

One store: columns
------------------
A cache is its rows, in insertion order, held as columns: the mixed-radix *space
index* of each configuration, its runtime, and a failure code into an interned
error-string table.  Executor merges, :meth:`~repro.kernels.base.KernelBenchmark.build_cache`,
:meth:`~EvaluationCache.from_columnar` and campaign-shaped JSON loads adopt whole
columns at once (:meth:`~EvaluationCache.attach_columns`); :meth:`~EvaluationCache.add`
and :meth:`~EvaluationCache.add_observation` go through ``space.index_of`` -- a
configuration outside the space is refused with
:class:`~repro.core.errors.InvalidConfigurationError` -- and append a row, or
overwrite a re-added configuration's row in place (it keeps its first position).
Adopted arrays, memory-mapped read-only ones included, are copied on the first write.

Every reader answers from the columns: ``len``/``num_valid``/``num_invalid``,
:meth:`~EvaluationCache.values`, :meth:`~EvaluationCache.best`/:meth:`~EvaluationCache.worst`,
:meth:`~EvaluationCache.median`, :meth:`~EvaluationCache.optimum`,
:meth:`~EvaluationCache.statistics`, :meth:`~EvaluationCache.get` (and ``in``),
:meth:`~EvaluationCache.valid_arrays`, :meth:`~EvaluationCache.configs`,
:meth:`~EvaluationCache.to_feature_matrix`, :meth:`~EvaluationCache.to_problem` replays,
:meth:`~EvaluationCache.to_dict` and :meth:`~EvaluationCache.to_columnar`.
:attr:`~EvaluationCache.observations`, iteration and
:meth:`~EvaluationCache.valid_observations` are views that decode one
:class:`~repro.core.result.Observation` per row on demand.

Override rows
-------------
A row decodes to ``Observation(config_at(index), value, valid, error,
evaluation_index=row, gpu, benchmark)``.  An observation the columns cannot re-decode
bit for bit -- a re-add (which records ``evaluation_index = len(cache)``), a foreign
gpu, benchmark or ``evaluation_index``, a config spelled ``1.0``/``True`` for ``1`` or
in another key order, a non-float value, a non-bool ``valid``, a non-string error --
is also kept verbatim in a sparse ``row -> Observation`` override map, which the
observation views, :meth:`~EvaluationCache.configs` and
:meth:`~EvaluationCache.to_dict` consult; the numeric and index readers never need to.
:meth:`~EvaluationCache.to_columnar` refuses a cache exactly when an override row
carries a foreign ``evaluation_index``, gpu or benchmark, which three columns cannot
represent.

Columnar index table
--------------------
Replayed tuning campaigns perform millions of cache lookups.
:meth:`EvaluationCache.index_table` is the ``space index -> row`` map over the
cache's own columns: a dense ``row_of`` array for small spaces and, for the huge
sampled ones, one sorted int64 key array with each key's row beside it (one binary
search per probe), so an attached, memory-mapped or JSON-loaded cache holds no
Python object per stored row.  Values and failure flags are read from the columns,
so an overwrite is visible at once and an appended row inserts one key.

Cache formats
-------------
Two on-disk formats carry a cache, with one compatibility guarantee between them:

* **JSON** (:mod:`repro.io.cachefile`) is the *interchange* format -- self-describing,
  diffable, byte-deterministic, and frozen: nothing in this module changes a single
  byte of it.  :meth:`EvaluationCache.iter_json` renders exactly the bytes of
  ``json.dumps(to_dict())`` straight from the columns, in row chunks, for the
  streamed export, from one table of per-value fragments (:func:`_json_row_parts`).
  :meth:`EvaluationCache.from_json_text` is its inverse: it reads text exactly as
  the writer renders a cache without override rows (every campaign export) back
  against the same fragments into adopted columns, without a generic JSON parse
  of the rows, and returns None for any other text.  It takes the text as a
  stream of pieces and reads it a chunk of rows at a time, so a file is loaded
  without its whole text ever being held.  That text is parsed with
  :func:`json.loads` and inserted one row at a time by
  :meth:`EvaluationCache.from_dict`, override rows included, so either way the
  cache re-exports the bytes it was loaded from.
* **Columnar** (:mod:`repro.io.columnar`, :meth:`EvaluationCache.to_columnar` /
  :meth:`~EvaluationCache.from_columnar`) is the *performance* format: fixed-width
  little-endian index/value/failure-code columns behind a checksummed header.
  ``from_columnar(mmap=True)`` adopts the memory-mapped columns as they are, so
  replay opens are cheap and concurrent readers share pages.

A cache round-tripped through the columnar store -- or loaded from a JSON export --
serializes back to byte-identical JSON (same observations, same ``evaluation_index``
assignment, same error strings), which is what lets the two formats coexist under
the byte-identity contracts.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from itertools import repeat
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.errors import (CacheMissError, FragmentIntegrityError,
                               InvalidConfigurationError, ReproError, SerializationError)
from repro.core.problem import TuningProblem
from repro.core.result import LazyConfig, Observation
from repro.core.searchspace import SearchSpace

__all__ = ["EvaluationCache", "CacheIndexTable"]

#: Cardinality ceiling for the dense ``index -> row`` array of the columnar table
#: (int32 rows: 4 MB per million points).  Above it, lookups search a sorted key array.
_DENSE_LOOKUP_MAX = 2_000_000

#: Rows per text chunk of :meth:`EvaluationCache.iter_json`: a chunk's row
#: strings, their join and its encoded copy are alive together, so this sets
#: what an export holds beyond the cache.  On the gemm RTX_2080_Ti export (4.3 MB
#: of text) ``save_cache`` peaks at 1.47 traced MB, 0.34x the text; 8192 peaked
#: at 9.8 MB (2.3x) and 512 at 0.9 MB.  Rendering the 14 paper exports takes
#: 0.15-0.16 s from 256 to 2048 rows (0.17 s at 8192), and the gzip bytes do
#: not depend on how the text is chunked.
_JSON_CHUNK_ROWS = 1024


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


#: What the JSON reader splits row text on.  In :meth:`EvaluationCache.iter_json`
#: text it separates a row's fields and config entries.  A quote inside a JSON
#: string is escaped, so the only other place it occurs is where a string ends
#: in ``, `` and its closing quote follows -- text the reader's tables never
#: match, so such a file falls back to the per-row load.
_SEP = ', "'
#: Text that opens a JSON row and joins its config to its value.
_ROW_OPEN, _VALUE_KEY = '{"config": {', '}, "value": '
#: Where the reader cuts the rows of an export into chunks: a row's start.
_ROW_CUT = ", " + _ROW_OPEN + '"'
#: Characters of row text per reader chunk: with a streamed text, the chunk and
#: its token lists are most of what the reader holds.  On the 17,956-row gemm
#: export (4.3 MB of text read in 16 KB pieces) 2^16 peaks at 1.2 traced MB and
#: loads in ~53 ms; 2^15 peaks at 0.9 MB, 2^17 at 1.9 MB and 2^19 at 6.0 MB,
#: none of them faster.
_JSON_READ_CHUNK_CHARS = 1 << 16
#: The text between a cache's JSON header and its first row.
_OBSERVATIONS = ', "observations": ['
#: The keys of a JSON header, in the order :meth:`EvaluationCache._header` writes.
_HEADER_KEYS = ["benchmark", "gpu", "exhaustive", "metadata", "space"]


def _json_row_parts(space: SearchSpace, gpu: Any, benchmark: Any
                    ) -> tuple[list[list[str]], str]:
    """``(entries, tail)``: the fragments every JSON row of a cache is made of.

    ``entries[j][digit]`` is parameter ``j``'s ``"name": value`` text for each
    space value, and ``tail`` closes a row with its gpu and benchmark.  A row
    is ``_ROW_OPEN``, the entries joined by ``", "``, ``_VALUE_KEY``, the value,
    :func:`_json_status`, ``str(row)`` and ``tail``: :meth:`EvaluationCache.iter_json`
    renders rows from these fragments and :meth:`EvaluationCache.from_json_text`
    reads them back against the same ones.
    """
    entries = [[json.dumps({p.name: v})[1:-1] for v in p.values]
               for p in space.parameters]
    return entries, f', "gpu": {json.dumps(gpu)}, "benchmark": {json.dumps(benchmark)}}}'


def _json_status(valid: bool, error: Any) -> str:
    """A JSON row's text between its value and its ``evaluation_index``."""
    return (f', "valid": {"true" if valid else "false"}, "error": '
            f'{json.dumps(error)}, "evaluation_index": ')


def _refuse_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


def _json_row_chunks(text: str, pos: int, pieces: Iterator[str], footer: str
                     ) -> Iterator[str | None]:
    """The JSON rows of ``text[pos:]`` and the ``pieces`` after it, up to the
    ``footer`` the text ends in, as chunks of about
    :data:`_JSON_READ_CHUNK_CHARS` characters cut where a row starts
    (:data:`_ROW_CUT`, whose ``", "`` no chunk holds).  When the text does not
    end in ``footer``, the last item is None.

    Chunks are sliced at a moving position, and a piece is appended only to
    the text past the last cut, so a text given whole is sliced once per chunk
    and never copied again.
    """
    while True:
        cut = text.find(_ROW_CUT, pos + _JSON_READ_CHUNK_CHARS)
        if cut >= 0:
            yield text[pos:cut]
            pos = cut + 2
            continue
        piece = next(pieces, None)
        if piece is None:
            break
        text, pos = text[pos:], 0
        text += piece
    end = len(text) - len(footer)
    if end < pos or not text.endswith(footer):
        yield None
    elif end > pos:
        yield text[pos:end]


def _json_row_columns(chunks: Iterable[str | None], space: SearchSpace,
                      gpu: Any, benchmark: Any
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]] | None:
    """``(indices, values, codes, errors)`` of the JSON row ``chunks``
    (:func:`_json_row_chunks`) when they are exactly what
    :meth:`EvaluationCache.iter_json` renders for a cache without override rows
    (a value may be any JSON number), else None.

    A chunk split on :data:`_SEP` has ``k + 5`` tokens per
    row (``k`` parameters; a row's benchmark and the next row's first entry
    share one), so a strided slice gives each field.  Config tokens map to
    digits through dicts of the writer's fragments; the values of a chunk are
    one :func:`json.loads` of a list (``null`` is inf; ``NaN``/``Infinity`` and
    non-float elements are refused); a ``"valid"`` token must be the writer's
    ``true`` or ``false``, and each distinct ``"error"`` token is parsed once
    and must re-render to its text; ``evaluation_index`` must be the row and
    gpu/benchmark this cache's.  Every token is checked where it stands, so the
    chunk is the writer's text for the rows it returns.  A None chunk (text
    that does not end as the writer's does) returns None.
    """
    try:
        entries, tail = _json_row_parts(space, gpu, benchmark)
        for p, texts in zip(space.parameters, entries):
            # Only values JSON reads back as themselves (type included) qualify.
            back = [json.loads("{" + t + "}")[p.name] for t in texts]
            if list(map(type, back)) != list(map(type, p.values)) or back != list(p.values):
                return None
    except (TypeError, ValueError, KeyError):
        return None
    k = len(entries)
    tail_parts = tail.split(_SEP)
    if len(tail_parts) != 3:
        return None  # a gpu or benchmark name ending in ", "
    # The writer's fragments as the tokens a split on _SEP leaves of them.
    _, gpu_token, last_token = tail_parts
    close, value_key = _VALUE_KEY.split(_SEP)
    _, true_text, _, eval_key = _json_status(True, "").split(_SEP)
    false_text = _json_status(False, "").split(_SEP)[1]
    tokens_of = [[t[1:] for t in texts] for texts in entries]  # _SEP eats the quote
    tokens_of[0] = [_ROW_OPEN + t for t in entries[0]]
    tokens_of[-1] = [t + close for t in tokens_of[-1]]
    tables = [{t: d for d, t in enumerate(texts)} for texts in tokens_of]
    # A row's benchmark token carries the next row's first entry.
    joined = {last_token + ", " + t: d for t, d in tables[0].items()}
    stride = k + 5
    errors: list[str] = []
    slot_of: dict[str, int] = {}  # error token -> slot in errors
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    row = 0
    for text in chunks:
        if text is None:
            return None
        tokens = text.split(_SEP)
        m, rest = divmod(len(tokens) - 1, stride)
        if rest or not m or tokens[-1] != last_token:
            return None
        digits = np.empty((k, m), dtype=np.int64)
        try:
            digits[0, 0] = tables[0][tokens[0]]
            digits[0, 1:] = np.fromiter(map(joined.__getitem__, tokens[stride:-1:stride]),
                                        dtype=np.int64, count=m - 1)
            for j in range(1, k):
                digits[j] = np.fromiter(map(tables[j].__getitem__, tokens[j::stride]),
                                        dtype=np.int64, count=m)
        except KeyError:
            return None
        # Tokens hold no _SEP, so _SEP-joined lists are equal exactly when the
        # lists are: one string comparison instead of one per row.
        if (tokens[k + 4::stride].count(gpu_token) != m
                or _SEP.join(tokens[k + 3::stride])
                != eval_key + (_SEP + eval_key).join(map(str, range(row, row + m)))):
            return None
        # Likewise each value token starts with the key exactly when the joined
        # text does and holds m - 1 separators followed by it.
        value_text = _SEP.join(tokens[k::stride])
        if (not value_text.startswith(value_key)
                or value_text.count(_SEP + value_key) != m - 1):
            return None
        try:
            parsed = json.loads(
                "[" + value_text[len(value_key):].replace(_SEP + value_key, ", ") + "]",
                parse_constant=_refuse_constant)
        except ValueError:
            return None
        if len(parsed) != m or not set(map(type, parsed)) <= {float, type(None)}:
            return None
        values = np.array(parsed, dtype=float)
        values[np.isnan(values)] = math.inf  # null: NaN itself was refused above
        flags = tokens[k + 1::stride]
        valid = np.fromiter(map(true_text.__eq__, flags), dtype=bool, count=m)
        if flags.count(false_text) != m - int(np.count_nonzero(valid)):
            return None
        error_texts = tokens[k + 2::stride]
        for error_text in dict.fromkeys(error_texts):
            if error_text in slot_of:
                continue
            try:
                error = json.loads(error_text.partition('": ')[2])
            except ValueError:
                return None
            if (type(error) is not str or _json_status(True, error)
                    != _SEP + true_text + _SEP + error_text + _SEP + eval_key):
                return None
            slot_of[error_text] = len(errors)
            errors.append(error)
        slots = np.fromiter(map(slot_of.__getitem__, error_texts), dtype=np.int32, count=m)
        codes = np.where(valid, -slots - 1, slots).astype(np.int32)
        blocks.append((space.digits_to_indices(digits.T), values, codes))
        row += m
    if not blocks:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=float),
                np.empty(0, dtype=np.int32), errors)
    indices, values, codes = map(np.concatenate, zip(*blocks))
    return indices, values, codes, errors


def _first_occurrence_codes(codes: np.ndarray, errors: list[Any]
                            ) -> tuple[np.ndarray, list[Any]]:
    """``(codes, errors)`` re-interned so the table lists the referenced errors in
    first-occurrence order -- what :func:`~repro.io.columnar.encode_failure_codes`
    makes of the same rows.  An overwritten row can leave its old error unreferenced
    or out of order; every other table already is in this form and comes back as is.
    """
    from repro.io.columnar import failure_slots

    valid, slots = failure_slots(codes, errors)
    used, first = np.unique(slots, return_index=True)
    order = used[np.argsort(first)]
    if order.size == len(errors) and bool((order == np.arange(order.size)).all()):
        return codes, errors
    remap = np.empty(len(errors), dtype=np.int32)
    remap[order] = np.arange(order.size, dtype=np.int32)
    slots = remap[slots]
    return (np.where(valid, -slots - 1, slots).astype(np.int32),
            [errors[slot] for slot in order.tolist()])


class _Columns:
    """The rows of an evaluation cache, in insertion order.

    ``indices``/``values``/``codes`` plus the interned ``errors`` table (code
    ``-slot - 1`` for a valid row, ``slot`` for a failed one) and the derived
    ``Observation.is_failure`` flag per row.  Only the first :attr:`size` entries
    of each array are rows.  Adopted arrays -- read-only views of a memory-mapped
    file, or a caller's own arrays -- are used as they are until the first
    :meth:`write`, which copies them into private buffers with room to grow.
    """

    __slots__ = ("size", "indices", "values", "codes", "failure", "errors", "_slot_of")

    def __init__(self, indices: np.ndarray, values: np.ndarray,
                 codes: np.ndarray, errors: Sequence[Any]):
        self.size = int(indices.size)
        self.indices = indices
        self.values = values
        self.codes = codes
        self.failure = (codes >= 0) | ~np.isfinite(values)
        self.errors = list(errors)
        #: ``error -> slot`` of the interned table, built with the private buffers.
        self._slot_of: dict[Any, int] | None = None

    def _reserve(self, need: int) -> None:
        if self._slot_of is not None and need <= self.indices.size:
            return
        if self._slot_of is None:
            self._slot_of = {}
            for slot, error in enumerate(self.errors):
                self._slot_of.setdefault(error, slot)
        capacity = max(need, 2 * self.indices.size, 64)
        n = self.size
        for name in ("indices", "values", "codes", "failure"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)

    def write(self, row: int, index: int, value: float, valid: bool,
              error: Any) -> bool:
        """Store one row at position ``row`` (``size`` appends), interning
        ``error``; returns the row's failure flag."""
        self._reserve(row + 1)
        slot = self._slot_of.setdefault(error, len(self.errors))
        if slot == len(self.errors):
            self.errors.append(error)
        failed = not valid or not math.isfinite(value)
        self.indices[row] = index
        self.values[row] = value
        self.codes[row] = -slot - 1 if valid else slot
        self.failure[row] = failed
        self.size = max(self.size, row + 1)
        return failed


class CacheIndexTable:
    """Columnar ``space index -> row`` map over an evaluation cache's columns.

    ``lookup_one`` answers a single integer-index probe without building any
    configuration dictionary.  Values and failure flags are read from the cache's
    columns, so overwrites need no bookkeeping and a fresh row inserts one key.

    A space of at most ``_DENSE_LOOKUP_MAX`` points keeps a dense ``row_of``
    array.  A larger (hashed) space keeps one store: its stored indices sorted
    into an int64 key array, with each key's row beside it, built at
    construction.  A probe is one :func:`bisect.bisect_left` over a zero-copy
    ``memoryview`` of the keys, so the table holds no Python object per stored
    row.  Keys inserted since the last sort wait in a small pending map, which
    folds into the arrays once it outgrows them.
    """

    __slots__ = ("_columns", "_cardinality", "_dense", "_row_of", "_keys", "_rows",
                 "_key_view", "_row_view", "_pending")

    def __init__(self, cardinality: int, columns: _Columns):
        indices = columns.indices[:columns.size]
        self._columns = columns
        self._cardinality = cardinality
        self._dense = cardinality <= _DENSE_LOOKUP_MAX
        if self._dense:
            self._row_of = np.full(cardinality, -1, dtype=np.int32)
            self._row_of[indices] = np.arange(indices.size, dtype=np.int32)
        else:
            self._pending: dict[int, int] = {}
            order = np.argsort(indices)
            self._store(indices[order], order)

    def __len__(self) -> int:
        return self._columns.size

    def _store(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """Adopt sorted int64 ``keys`` and their int64 ``rows`` as the hashed store."""
        self._keys, self._rows = keys, rows
        self._key_view, self._row_view = memoryview(keys), memoryview(rows)

    def _fold(self) -> None:
        """Merge the pending inserts into the sorted arrays."""
        pending = self._pending
        n = len(pending)
        keys = np.concatenate([self._keys, np.fromiter(pending, np.int64, n)])
        rows = np.concatenate([self._rows, np.fromiter(pending.values(), np.int64, n)])
        order = np.argsort(keys)
        self._store(keys[order], rows[order])
        pending.clear()

    def insert(self, index: int, row: int) -> None:
        """Map the in-range ``index`` of a freshly appended row."""
        if self._dense:
            self._row_of[index] = row
            return
        self._pending[index] = row
        if len(self._pending) > self._keys.size:
            self._fold()

    def row(self, index: int) -> int:
        """Row of one space index, or -1 when it is not stored.

        Out-of-range indices are misses, exactly like unknown in-range ones (the
        dense path must not let NumPy's negative-index wrapping alias a row).
        """
        if self._dense:
            return (int(self._row_of[index])
                    if 0 <= index < self._cardinality else -1)
        if self._pending:
            row = self._pending.get(index)
            if row is not None:
                return row
        keys = self._key_view
        pos = bisect_left(keys, index)
        return self._row_view[pos] if pos < len(keys) and keys[pos] == index else -1

    def lookup_one(self, index: int) -> tuple[float, bool, bool]:
        """``(value, failure, found)`` of one space index (misses as in :meth:`row`)."""
        row = self.row(index)
        if row < 0:
            return math.inf, True, False
        columns = self._columns
        return float(columns.values[row]), bool(columns.failure[row]), True


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
        self._columns = _Columns(np.empty(0, dtype=np.int64), np.empty(0, dtype=float),
                                 np.empty(0, dtype=np.int32), [])
        #: Rows the columns cannot re-decode bit for bit, kept verbatim.
        self._overrides: dict[int, Observation] = {}
        self._num_failures = 0
        self.metadata: dict[str, Any] = {}
        self._index_table: CacheIndexTable | None = None

    # ------------------------------------------------------------------ row access

    def _observation_at(self, row: int) -> Observation:
        """The observation stored at insertion position ``row``."""
        override = self._overrides.get(row)
        if override is not None:
            return override
        columns = self._columns
        code = int(columns.codes[row])
        return Observation.fast(LazyConfig(self.space, int(columns.indices[row])),
                                float(columns.values[row]), code < 0,
                                columns.errors[-code - 1 if code < 0 else code],
                                row, self.gpu, self.benchmark)

    def _decodes(self, row: int, index: int, obs: Observation) -> bool:
        """True when :meth:`_observation_at` rebuilds ``obs`` at ``row`` bit for bit."""
        if not (type(obs.evaluation_index) is int and obs.evaluation_index == row
                and type(obs.gpu) is type(self.gpu) and obs.gpu == self.gpu
                and type(obs.benchmark) is type(self.benchmark)
                and obs.benchmark == self.benchmark
                and type(obs.value) is float and type(obs.valid) is bool
                and type(obs.error) is str):
            return False
        config, exact = obs.config, self.space.config_at(index)
        return (list(config) == list(exact)
                and list(map(type, config.values())) == list(map(type, exact.values())))

    def _valid_rows(self, valid_only: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, values)``: the selected insertion rows and their runtimes."""
        columns = self._columns
        n = columns.size
        rows = np.flatnonzero(~columns.failure[:n]) if valid_only else np.arange(n)
        return rows, columns.values[rows]

    def _row_configs(self, rows: np.ndarray) -> list[dict[str, Any]]:
        """Configuration dictionaries of the given (ascending) insertion rows."""
        configs = self.space.configs_at(self._columns.indices[rows])
        for row, obs in self._overrides.items():
            k = int(np.searchsorted(rows, row))
            if k < rows.size and rows[k] == row:
                configs[k] = dict(obs.config)
        return configs

    # --------------------------------------------------------------------- mutation

    def add(self, config: Mapping[str, Any], value: float, valid: bool = True,
            error: str = "") -> None:
        """Store one measurement (overwrites an existing entry for the same config).

        A re-added configuration keeps its first position and records
        ``evaluation_index = len(self)``.  A configuration outside the space is
        refused with the :class:`~repro.core.errors.InvalidConfigurationError` of
        ``space.index_of``.
        """
        self.add_observation(Observation.fast(
            dict(config), value if valid else math.inf, valid, error, len(self),
            self.gpu, self.benchmark))

    def add_observation(self, observation: Observation) -> None:
        """Store an existing observation object (overwrite rules as :meth:`add`)."""
        index = self.space.index_of(observation.config)
        value, valid = float(observation.value), bool(observation.valid)
        table = self.index_table()
        columns = self._columns
        row = table.row(index)
        fresh = row < 0
        if fresh:
            row = columns.size
        before = not fresh and bool(columns.failure[row])
        self._num_failures += columns.write(row, index, value, valid,
                                            observation.error) - before
        if fresh:
            table.insert(index, row)
        if self._decodes(row, index, observation):
            self._overrides.pop(row, None)
        else:
            self._overrides[row] = observation

    # ------------------------------------------------------------- columnar lookups

    def index_table(self) -> CacheIndexTable:
        """The columnar ``space index -> (value, failure)`` view of this cache.

        Built in one batch on first use and kept current by every later
        :meth:`add`, so it always answers like the cache.  Call this per lookup
        burst (it is just an attribute check once built) rather than caching the
        table elsewhere.
        """
        if self._index_table is None:
            self._index_table = CacheIndexTable(self.space.cardinality, self._columns)
        return self._index_table

    # ---------------------------------------------------------------------- queries

    def __len__(self) -> int:
        return self._columns.size

    def __contains__(self, config: Mapping[str, Any]) -> bool:
        return self.get(config) is not None

    def __iter__(self) -> Iterator[Observation]:
        return map(self._observation_at, range(len(self)))

    def get(self, config: Mapping[str, Any]) -> Observation | None:
        """The stored observation for ``config`` or None.

        Anything ``space.index_of`` refuses (unknown or missing parameters, values
        outside a parameter) is a miss.
        """
        try:
            index = self.space.index_of(config)
        except InvalidConfigurationError:
            return None
        row = self.index_table().row(index)
        return None if row < 0 else self._observation_at(row)

    @property
    def observations(self) -> tuple[Observation, ...]:
        """All stored observations (insertion order)."""
        return tuple(self)

    def valid_observations(self) -> list[Observation]:
        """Only the successfully measured configurations."""
        return [self._observation_at(row) for row in self._valid_rows()[0].tolist()]

    def valid_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, values)`` of the valid entries, in insertion order.

        This is the array-native export the graph layer builds on: the ``int64``
        space indices of the valid rows, aligned with their float runtimes (no
        configuration dictionaries; ``space.configs_at(indices)`` equals
        :meth:`configs`).
        """
        rows, values = self._valid_rows()
        return self._columns.indices[rows], values

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
        return self._row_configs(self._valid_rows(valid_only)[0])

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
        return self.space.encode_indices(self._columns.indices[rows]), y

    # ------------------------------------------------------------------ replay

    def to_problem(self, strict: bool = True, memoize: bool = True) -> TuningProblem:
        """A :class:`TuningProblem` that answers evaluations from this cache.

        The problem's objective maps a space index to its row (one probe of
        :meth:`index_table`, no dictionary, no hashing of sorted item tuples),
        like every problem's (see :mod:`repro.core.problem`).

        Parameters
        ----------
        strict:
            If True (default), configurations missing from the cache raise
            :class:`CacheMissError` (and therefore appear as invalid observations).
            If False, missing configurations are treated as invalid silently.
        """
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

        return TuningProblem(self.benchmark, self.space, _evaluate_index, gpu=self.gpu,
                             memoize=memoize)

    # ------------------------------------------------------------------ serialization

    def _header(self) -> dict[str, Any]:
        """The keys of :meth:`to_dict` that precede ``"observations"`` (also the
        identity part of a columnar header)."""
        return {
            "benchmark": self.benchmark,
            "gpu": self.gpu,
            "exhaustive": self.exhaustive,
            "metadata": dict(self.metadata),
            "space": self.space.to_dict(),
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form including the search-space description (one dict
        literal per row, as :meth:`Observation.to_dict`; override rows verbatim)."""
        columns = self._columns
        n, gpu, benchmark, errors = columns.size, self.gpu, self.benchmark, columns.errors
        observations = [
            {"config": config, "value": value if math.isfinite(value) else None,
             "valid": code < 0, "error": errors[-code - 1 if code < 0 else code],
             "evaluation_index": row, "gpu": gpu, "benchmark": benchmark}
            for row, (config, value, code) in enumerate(zip(
                self.space.configs_at(columns.indices[:n]), columns.values[:n].tolist(),
                columns.codes[:n].tolist()))]
        for row, obs in self._overrides.items():
            observations[row] = obs.to_dict()
        return {**self._header(), "observations": observations}

    def iter_json(self) -> Iterator[str]:
        """The text of ``json.dumps(self.to_dict())``, in chunks of rows.

        Rendered straight from the columns, without a dict per row: each
        parameter's ``"name": value`` fragment is rendered once per space value
        and each used failure code's ``"valid"``/``"error"`` fragment once, all
        with :func:`json.dumps` (so escaping and ``ensure_ascii`` match), and a
        row is a gather of those fragments on its digits, its value
        (``float.__repr__``, or ``null`` when not finite), ``str(row)`` and a
        constant gpu/benchmark tail (:func:`_json_row_parts`, which
        :meth:`from_json_text` reads rows back against).  Override rows are
        ``json.dumps(obs.to_dict())``.  Joining the chunks gives exactly the
        bytes of ``json.dumps(self.to_dict())``; a value :func:`json.dumps`
        refuses raises its ``TypeError``/``ValueError`` from the chunk that
        renders it.
        """
        head = json.dumps({**self._header(), "observations": []})
        yield head[:-len("]}")]
        columns = self._columns
        n, indices, values, codes = (columns.size, columns.indices, columns.values,
                                     columns.codes)
        if n:
            # fragments[j][digit]: parameter j's text, with the row's opening and
            # the value's key folded into the first and last parameter.
            fragments, tail = _json_row_parts(self.space, self.gpu, self.benchmark)
            fragments[0] = [_ROW_OPEN + text for text in fragments[0]]
            fragments[1:] = [[", " + text for text in frags] for frags in fragments[1:]]
            fragments[-1] = [text + _VALUE_KEY for text in fragments[-1]]
            # status[code + len(errors)]: the valid flag and error of a used code.
            errors = columns.errors
            status: list[str | None] = [None] * (2 * len(errors))
            for code in np.unique(codes[:n]).tolist():
                status[code + len(errors)] = _json_status(
                    code < 0, errors[-code - 1 if code < 0 else code])
            # Override rows in ascending order, each visited once over all chunks.
            overrides = iter(sorted(self._overrides.items()))
            override = next(overrides, None)
            for lo in range(0, n, _JSON_CHUNK_ROWS):
                hi = min(lo + _JSON_CHUNK_ROWS, n)
                digits = self.space.indices_to_digits(indices[lo:hi])
                block = values[lo:hi]
                value_texts = list(map(float.__repr__, block.tolist()))
                for k in np.flatnonzero(~np.isfinite(block)).tolist():
                    value_texts[k] = "null"
                rows = list(map("".join, zip(
                    *[map(frags.__getitem__, digits[:, j].tolist())
                      for j, frags in enumerate(fragments)],
                    value_texts,
                    map(status.__getitem__, (codes[lo:hi] + len(errors)).tolist()),
                    map(str, range(lo, hi)),
                    repeat(tail, hi - lo))))
                while override is not None and override[0] < hi:
                    rows[override[0] - lo] = json.dumps(override[1].to_dict())
                    override = next(overrides, None)
                yield (", " if lo else "") + ", ".join(rows)
        yield "]}"

    @classmethod
    def from_json_text(cls, text: str | Iterable[str], space: SearchSpace | None = None,
                       envelope: tuple[str, str] = ("", "")
                       ) -> "EvaluationCache | None":
        """The inverse of :meth:`iter_json`: the cache ``text`` renders, or None.

        ``text`` is the cache's JSON text between ``envelope[0]`` and
        ``envelope[1]`` (what :func:`repro.io.cachefile.save_cache` wraps it in),
        given whole or as an iterable of consecutive pieces of any size, which
        is read once and in order: no more than a chunk of rows
        (:data:`_JSON_READ_CHUNK_CHARS`) and a piece is held at once.  When
        that text is exactly what :meth:`iter_json` renders for a cache without
        override rows -- a value may be any JSON number -- the cache is
        returned with its columns adopted (:meth:`attach_columns`), without a
        dict or an :class:`Observation` per row.  Any other text (a re-added or
        repeated config, foreign rows, another spelling or key order) returns
        None, possibly before the pieces are used up; parsed as JSON and
        inserted by :meth:`from_dict`, it gives the same cache.  The header
        must re-render to the same text, the rows are read against the
        writer's fragments (:func:`_json_row_columns`) and the text must end in
        ``"]}"`` and ``envelope[1]``.  ``space`` may be supplied to reuse an
        existing space object.
        """
        prefix, suffix = envelope
        pieces = iter((text,) if isinstance(text, str) else text)
        buffer, mark = "", -1
        for piece in pieces:
            seen = len(buffer)
            buffer += piece
            mark = buffer.find(_OBSERVATIONS,
                               max(len(prefix), seen - len(_OBSERVATIONS) + 1))
            if mark >= 0:
                break
        if mark < 0 or not buffer.startswith(prefix):
            return None
        head = buffer[len(prefix):mark] + "}"
        try:
            header = json.loads(head)
        except ValueError:
            return None
        if (type(header) is not dict or list(header) != _HEADER_KEYS
                or type(header["exhaustive"]) is not bool
                or type(header["metadata"]) is not dict or json.dumps(header) != head):
            return None
        if space is None:
            try:
                space = SearchSpace.from_dict(header["space"])
            except (ReproError, TypeError, KeyError, AttributeError, ValueError):
                return None  # the caller's fallback reports it
        cache = cls(benchmark=header["benchmark"], gpu=header["gpu"], space=space,
                    exhaustive=header["exhaustive"])
        cache.metadata.update(header["metadata"])
        chunks = _json_row_chunks(buffer, mark + len(_OBSERVATIONS), pieces, "]}" + suffix)
        del buffer  # the chunks hold the only reference, so carved text is freed
        columns = _json_row_columns(chunks, space, cache.gpu, cache.benchmark)
        if columns is None:
            return None
        try:
            cache.attach_columns(*columns)
        except FragmentIntegrityError:
            return None  # a configuration repeats: the per-row path keeps the last
        return cache

    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  space: SearchSpace | None = None) -> "EvaluationCache":
        """Inverse of :meth:`to_dict`, one row at a time.

        ``space`` may be supplied to reuse an existing space object (e.g. one that
        carries callable constraints which do not survive JSON round-trips).
        Each observation goes through :meth:`add_observation`, which keeps what
        the columns cannot re-decode (a re-added config, foreign rows, values
        that only compare equal to the space's) as override rows; a repeated
        configuration keeps its last row.  The cache re-exports byte-identical
        JSON.  (:meth:`from_json_text` reads campaign exports faster.)  A
        payload that is not a cache, a malformed row (no ``"config"``, a value
        that is not a number, ...) and a config outside the space are refused
        with :class:`~repro.core.errors.SerializationError`, naming the row
        where there is one.
        """
        try:
            if space is None:
                space = SearchSpace.from_dict(data["space"])
            cache = cls(benchmark=data["benchmark"], gpu=data["gpu"], space=space,
                        exhaustive=bool(data.get("exhaustive", False)))
            cache.metadata.update(data.get("metadata", {}))
            rows = enumerate(data.get("observations", ()))
        except (TypeError, KeyError, AttributeError, ValueError) as exc:
            raise SerializationError(
                f"not a cache payload ({type(exc).__name__}: {exc})") from None
        for k, od in rows:
            try:
                cache.add_observation(Observation.from_dict(od))
            except InvalidConfigurationError as exc:
                raise SerializationError(
                    f"cache {cache.benchmark}/{cache.gpu}: observation {k} is "
                    f"outside the search space ({exc})") from None
            except (TypeError, KeyError, AttributeError, ValueError) as exc:
                raise SerializationError(
                    f"cache {cache.benchmark}/{cache.gpu}: observation {k} is "
                    f"malformed ({type(exc).__name__}: {exc})") from None
        return cache

    # ------------------------------------------------------- columnar serialization

    def to_columnar(self, path: str | Path) -> Path:
        """Write this cache as a columnar file (see :mod:`repro.io.columnar`).

        Requires campaign shape -- every observation's ``evaluation_index`` equal
        to its insertion position and carrying this cache's benchmark/gpu --
        which is what executors, :meth:`from_dict` on executor output and
        :meth:`from_columnar` all produce.  A cache holding an override row
        that breaks it (a re-added config, a foreign observation) cannot
        round-trip through three columns and is refused with
        :class:`~repro.core.errors.SerializationError`; use the JSON writer for
        it.  The error table is written in first-occurrence order, so the file
        is a pure function of the rows.
        """
        from repro.io import columnar

        for row, obs in sorted(self._overrides.items()):
            if (obs.evaluation_index != row or obs.gpu != self.gpu
                    or obs.benchmark != self.benchmark):
                raise SerializationError(
                    f"cache {self.benchmark}/{self.gpu} is not campaign-shaped "
                    f"(observation {row} carries evaluation_index="
                    f"{obs.evaluation_index}, gpu={obs.gpu!r}, benchmark="
                    f"{obs.benchmark!r}); columnar files cannot represent it -- "
                    f"use the JSON writer")
        path = Path(path)
        meta = self._header()
        meta["digest"] = columnar.cache_digest(self.benchmark, self.gpu,
                                               meta["space"])
        columns = self._columns
        n = columns.size
        codes, errors = _first_occurrence_codes(columns.codes[:n], columns.errors)
        columnar.write_columnar(path, "cache", meta,
                                {"index": columns.indices[:n],
                                 "value": columns.values[:n], "code": codes}, errors)
        return path

    @classmethod
    def from_columnar(cls, path: str | Path, space: SearchSpace | None = None,
                      mmap: bool = True, verify: bool = True) -> "EvaluationCache":
        """Open a columnar cache file; the inverse of :meth:`to_columnar`.

        With ``mmap=True`` (default) the index/value/code columns are adopted as
        read-only views of the memory-mapped file, so opening for index-native
        replay costs one header parse -- not one Python object per row -- and
        every reader answers straight off them.  The first :meth:`add` copies the
        columns; the file never changes.  ``space`` may be supplied to reuse an
        existing space object, like :meth:`from_dict`.
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

    def attach_columns(self, indices: np.ndarray, values: np.ndarray,
                       codes: np.ndarray, errors: Sequence[str]) -> None:
        """Adopt insertion-ordered row columns as this (empty) cache's contents.

        Refused with :class:`~repro.core.errors.FragmentIntegrityError` when an
        index lies outside the space, an index repeats (one configuration would
        own two rows), or a failure code points outside the error table.
        """
        from repro.io.columnar import failure_slots

        if len(self) or self._index_table is not None:
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
        self._columns = _Columns(indices, np.asarray(values, dtype=float), codes, errors)
        self._num_failures = int(np.count_nonzero(self._columns.failure))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"EvaluationCache(benchmark={self.benchmark!r}, gpu={self.gpu!r}, "
                f"entries={len(self)}, exhaustive={self.exhaustive})")
