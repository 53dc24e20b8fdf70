"""Search spaces: ordered parameter collections with constraints.

The :class:`SearchSpace` is the central data structure of the suite.  It is shared by

* the benchmarks, which define their tunable parameters (Tables I--VII of the paper)
  and static constraints,
* the tuners, which ask for random samples, neighbourhoods and index mappings,
* the analysis layer, which needs exhaustive enumeration (Figs. 1--6) and the
  cardinality bookkeeping of Table VIII.

Design notes
------------

*Columnar index engine.*  Every point of the (unconstrained) Cartesian product is
identified by a single integer in ``[0, cardinality)`` using mixed-radix encoding with
the last parameter varying fastest.  The codec is *batch-first*:
:meth:`SearchSpace.indices_to_digits` turns an index vector into an ``(n, d)`` digit
matrix with two array operations, :meth:`SearchSpace.digits_to_indices` inverts it with
one matrix--vector product, and per-parameter *value columns* (cached NumPy arrays of
each parameter's allowed values) turn digit columns into value columns without touching
Python objects.  The scalar :meth:`config_at`/:meth:`index_of` remain as the one-point
convenience wrappers; every hot path (sampling, enumeration, counting, graph
construction) runs on index blocks.

*Constraint compilation contract.*  String constraint expressions are compiled once,
at :class:`~repro.core.constraints.Constraint` construction, into both a scalar code
object and -- where the expression stays inside the vectorizable subset of
:mod:`repro.core.vectorize` -- a batch evaluator over named value columns.
:meth:`SearchSpace.satisfied_mask` applies the batch evaluators to a whole index block
at once and falls back to scalar evaluation only for opaque callables (and only on
rows the vectorized constraints did not already reject).  The two paths are
element-wise equivalent by contract: an expression that raises marks the row violated,
exactly like the scalar evaluator.

*Feasible-set memoization.*  For spaces whose raw cardinality is at most
:attr:`SearchSpace.memoize_threshold` (default :data:`MEMOIZE_THRESHOLD_DEFAULT`), the
sorted array of constraint-satisfying indices is computed once on demand and cached.
The memo makes exact ``count_constrained`` free, turns enumeration into array slicing,
lets :meth:`sample` detect infeasible requests up front, and guarantees sampling
success whenever enough feasible points exist.  Spaces above the threshold (Hotspot,
Dedispersion, Expdist) stream index blocks through the mask instead of materialising
anything.

*Reproducibility.*  Batched rejection sampling draws index blocks sized exactly to the
number of configurations still needed, which makes the consumed random stream -- and
therefore every sampled configuration and everything downstream of a shared generator
-- identical to drawing one index at a time.

*Neighbourhoods.*  Two neighbourhood structures are provided, matching the two used in
the literature the paper builds on: ``"adjacent"`` (one step up/down in each
parameter's ordered value list) and ``"hamming"`` (all configurations differing in
exactly one parameter, the fitness-flow-graph neighbourhood of Schoonhoven et al.).
Neighbour validity is checked as one mask over the candidate index block.

*Index-native neighbourhood kernels.*  The tuner runtime never builds configuration
dictionaries inside its hot loop: :meth:`SearchSpace.hamming_neighbors` and
:meth:`SearchSpace.adjacent_neighbors` compute the whole neighbourhood of a point by
digit arithmetic (``index + (digit' - digit) * place``) from precomputed per-parameter
offset tables, filter it through :meth:`satisfied_mask`, and return a raw index array.
Candidate order is identical to the dictionary-based :meth:`neighbors` (parameters in
declaration order, digits ascending, current digit skipped), which is what keeps
index-native local search byte-identical to the seed implementation.
:meth:`encode_indices`/:meth:`decode_digits` are the matching index-native forms of
the ML feature codec.
"""

from __future__ import annotations

import math
from collections.abc import Mapping as _MappingABC
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.constraints import Constraint, ConstraintSet
from repro.core.errors import (
    EmptySearchSpaceError,
    InvalidConfigurationError,
)
from repro.core.parameter import Parameter

__all__ = ["SearchSpace", "config_key", "MEMOIZE_THRESHOLD_DEFAULT"]

Config = dict[str, Any]

#: Default ceiling on the raw cardinality below which the feasible-index array is
#: memoized (int64 indices: 1e6 points cost at most ~8 MB).  Covers every space the
#: paper enumerates exhaustively (GEMM's 82 944 is the largest) with ample headroom,
#: while the sampled spaces (1e7--1.2e8 points) stay streaming-only.
MEMOIZE_THRESHOLD_DEFAULT: int = 1_000_000

#: Index-block length used by chunked enumeration, counting and masking.
_CHUNK: int = 1 << 17

#: Largest cardinality an int64 mixed-radix index can address.
_MAX_CARDINALITY: int = 2**63 - 1

#: Largest rejection-sampling block checked through the scalar constraint path.
#: Below this row count the per-row scalar code objects are cheaper than spinning up
#: the batch evaluators (crossover sits around a dozen rows on the kernel spaces).
_SCALAR_CHECK_MAX: int = 8


def config_key(config: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Canonical hashable key for a configuration (sorted by parameter name)."""
    return tuple(sorted(config.items()))


class SearchSpace:
    """A finite, constrained, discrete search space.

    Parameters
    ----------
    parameters:
        Ordered sequence of :class:`~repro.core.parameter.Parameter` objects.  Order is
        significant: it defines the mixed-radix indexing and the column order of
        encoded feature matrices.
    constraints:
        Optional constraints restricting the valid subset of the Cartesian product.
    name:
        Optional label used in reports.
    memoize_threshold:
        Cardinality ceiling for feasible-set memoization
        (default :data:`MEMOIZE_THRESHOLD_DEFAULT`).
    """

    def __init__(self, parameters: Sequence[Parameter],
                 constraints: ConstraintSet | Iterable[Constraint | str | Callable] | None = None,
                 name: str = "", memoize_threshold: int | None = None):
        params = list(parameters)
        if not params:
            raise EmptySearchSpaceError("a search space needs at least one parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise InvalidConfigurationError(f"duplicate parameter names: {names}")
        self._parameters: tuple[Parameter, ...] = tuple(params)
        self._by_name: dict[str, Parameter] = {p.name: p for p in params}
        if constraints is None:
            self._constraints = ConstraintSet()
        elif isinstance(constraints, ConstraintSet):
            self._constraints = constraints
        else:
            self._constraints = ConstraintSet(constraints)
        self.name = name
        # Mixed-radix place values: radix of the last parameter varies fastest.
        cards = [p.cardinality for p in self._parameters]
        place = [1] * len(cards)
        for i in range(len(cards) - 2, -1, -1):
            place[i] = place[i + 1] * cards[i + 1]
        self._place_values: tuple[int, ...] = tuple(place)
        self._cardinality: int = math.prod(cards)
        if self._cardinality > _MAX_CARDINALITY:
            # Indices are int64 throughout the columnar engine.
            raise InvalidConfigurationError(
                f"search space {name!r} has {self._cardinality} points, more than the "
                f"2**63 - 1 = {_MAX_CARDINALITY} an int64 index can address")
        # Columnar engine state: radix/place vectors and per-parameter value columns.
        self._radices = np.asarray(cards, dtype=np.int64)
        self._places = np.asarray(place, dtype=np.int64)
        self._value_columns: tuple[np.ndarray, ...] = tuple(
            p.values_array() for p in self._parameters)
        self._value_objects: tuple[np.ndarray, ...] = tuple(
            p.values_object_array() for p in self._parameters)
        self._column_of: dict[str, int] = {p.name: j
                                           for j, p in enumerate(self._parameters)}
        # Flat (name, values, place) rows for the scalar decoder: tuple indexing
        # beats one method call per parameter on the config_at hot path.
        self._decode_table: tuple[tuple[str, tuple, int], ...] = tuple(
            (p.name, p.values, place)
            for p, place in zip(self._parameters, self._place_values))
        self.memoize_threshold = (MEMOIZE_THRESHOLD_DEFAULT if memoize_threshold is None
                                  else int(memoize_threshold))
        self._feasible: np.ndarray | None = None
        # Flattened per-parameter digit tables for the index-native neighbourhood
        # kernels: for every (parameter, digit) pair, the digit's index offset
        # (digit * place), its parameter column and the digit itself, concatenated in
        # parameter order.  sum(radices) entries; built once, tiny.
        self._nb_offsets = np.concatenate(
            [np.arange(r, dtype=np.int64) * p for r, p in zip(cards, place)])
        self._nb_param = np.repeat(np.arange(len(cards), dtype=np.int64),
                                   self._radices)
        self._nb_digit = np.concatenate(
            [np.arange(r, dtype=np.int64) for r in cards])

    # ------------------------------------------------------------------ basic queries

    @property
    def parameters(self) -> tuple[Parameter, ...]:
        """The ordered parameter tuple."""
        return self._parameters

    @property
    def parameter_names(self) -> tuple[str, ...]:
        """Names of all parameters in order."""
        return tuple(p.name for p in self._parameters)

    @property
    def constraints(self) -> ConstraintSet:
        """The static constraints of this space."""
        return self._constraints

    @property
    def cardinality(self) -> int:
        """Size of the unconstrained Cartesian product (Table VIII 'Cardinality')."""
        return self._cardinality

    @property
    def dimensions(self) -> int:
        """Number of tunable parameters."""
        return len(self._parameters)

    @property
    def place_values(self) -> tuple[int, ...]:
        """Mixed-radix place value of each parameter (last parameter fastest)."""
        return self._place_values

    def __len__(self) -> int:
        return self._cardinality

    def __contains__(self, config: Mapping[str, Any]) -> bool:
        # ``config in space`` means "the tuner may evaluate this": membership in the
        # Cartesian product AND satisfaction of the static constraints.
        return self.is_valid(config)

    def parameter(self, name: str) -> Parameter:
        """Look up a parameter by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidConfigurationError(
                f"unknown parameter {name!r}; known: {self.parameter_names}") from None

    # --------------------------------------------------------------------- validation

    def validate_membership(self, config: Mapping[str, Any]) -> None:
        """Check that ``config`` names every parameter with an allowed value.

        Membership validation is independent of constraints: a configuration can be a
        member of the Cartesian product yet violate constraints.
        """
        missing = set(self._by_name) - set(config)
        if missing:
            raise InvalidConfigurationError(f"configuration missing parameters {sorted(missing)}")
        extra = set(config) - set(self._by_name)
        if extra:
            raise InvalidConfigurationError(f"configuration has unknown parameters {sorted(extra)}")
        for p in self._parameters:
            if config[p.name] not in p:
                raise InvalidConfigurationError(
                    f"value {config[p.name]!r} not allowed for parameter {p.name!r}")

    def is_valid(self, config: Mapping[str, Any]) -> bool:
        """True iff ``config`` is a member of the product *and* satisfies constraints."""
        try:
            self.validate_membership(config)
        except InvalidConfigurationError:
            return False
        return self._constraints.is_satisfied(config)

    # -------------------------------------------------------------- index <-> config

    def index_of(self, config: Mapping[str, Any]) -> int:
        """Mixed-radix index of a configuration in the unconstrained product."""
        self.validate_membership(config)
        idx = 0
        for p, place in zip(self._parameters, self._place_values):
            idx += p.index_of(config[p.name]) * place
        return idx

    def config_at(self, index: int) -> Config:
        """Configuration at a mixed-radix index (inverse of :meth:`index_of`)."""
        if not (0 <= index < self._cardinality):
            raise InvalidConfigurationError(
                f"index {index} out of range [0, {self._cardinality})")
        config: Config = {}
        rem = int(index)
        for name, values, place in self._decode_table:
            digit, rem = divmod(rem, place)
            config[name] = values[digit]
        return config

    # ----------------------------------------------------------------- batch codecs

    def indices_to_digits(self, indices: np.ndarray | Sequence[int]) -> np.ndarray:
        """Mixed-radix digit matrix ``(n, d)`` of an index vector (batch codec)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            idx = idx.ravel()
        if idx.size and (idx.min() < 0 or idx.max() >= self._cardinality):
            raise InvalidConfigurationError(
                f"indices out of range [0, {self._cardinality})")
        return (idx[:, None] // self._places) % self._radices

    def digits_to_indices(self, digits: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`indices_to_digits` (one matrix--vector product)."""
        d = np.asarray(digits, dtype=np.int64)
        return d @ self._places

    def digits_of_configs(self, configs: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Digit matrix of configuration mappings (vector form of per-value lookup)."""
        n = len(configs)
        out = np.empty((n, self.dimensions), dtype=np.int64)
        for j, p in enumerate(self._parameters):
            name = p.name
            try:
                out[:, j] = p.digits_of([c[name] for c in configs])
            except KeyError:
                raise InvalidConfigurationError(
                    f"configuration missing parameter {name!r}") from None
        return out

    def indices_of_configs(self, configs: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Mixed-radix indices of many configurations at once."""
        return self.digits_to_indices(self.digits_of_configs(configs))

    def columns_at(self, indices: np.ndarray | Sequence[int], *,
                   digits: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Named value columns of an index block (the constraint-evaluation view)."""
        if digits is None:
            digits = self.indices_to_digits(indices)
        return {p.name: col[digits[:, j]]
                for j, (p, col) in enumerate(zip(self._parameters, self._value_columns))}

    def configs_at(self, indices: np.ndarray | Sequence[int], *,
                   digits: np.ndarray | None = None) -> list[Config]:
        """Configuration dictionaries of an index block (original Python values)."""
        if digits is None:
            digits = self.indices_to_digits(indices)
        names = self.parameter_names
        cols = [col[digits[:, j]] for j, col in enumerate(self._value_objects)]
        return [dict(zip(names, row)) for row in zip(*cols)]

    def indices_to_configs(self, indices: Iterable[int]) -> list[Config]:
        """Vector form of :meth:`config_at` over many indices."""
        idx = np.fromiter((int(i) for i in indices), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self._cardinality):
            raise InvalidConfigurationError(
                f"indices out of range [0, {self._cardinality})")
        return self.configs_at(idx)

    # ----------------------------------------------------------------- feasibility

    def satisfied_mask(self, indices: np.ndarray | Sequence[int] | None = None, *,
                       digits: np.ndarray | None = None) -> np.ndarray:
        """Constraint mask of an index block: ``mask[i]`` iff point ``i`` is feasible.

        Element-wise equivalent to calling ``constraints.is_satisfied(config_at(i))``
        per index, evaluated in one NumPy pass per vectorized constraint.  Value
        columns are gathered lazily, so parameters no constraint mentions never pay
        the digit->value gather.
        """
        if digits is None:
            digits = self.indices_to_digits(indices)
        n = digits.shape[0]
        if not len(self._constraints):
            return np.ones(n, dtype=bool)
        return self._constraints.satisfied_mask(
            _LazyColumns(self, digits), n, configs=_LazyConfigs(self, digits))

    def feasible_indices(self, force: bool = False) -> np.ndarray | None:
        """Sorted array of all constraint-satisfying indices, memoized.

        Returns None (without computing anything) when the raw cardinality exceeds
        :attr:`memoize_threshold` and ``force`` is False.  The memo is what makes
        exact constrained counts free and sampling failure-proof on small spaces.
        """
        if self._feasible is not None:
            return self._feasible
        if self._cardinality > self.memoize_threshold and not force:
            return None
        blocks = [block for block in self._iter_feasible_blocks()]
        feasible = (np.concatenate(blocks) if blocks
                    else np.empty(0, dtype=np.int64))
        if self._cardinality <= self.memoize_threshold or force:
            self._feasible = feasible
        return feasible

    def release_feasible_memo(self) -> None:
        """Drop the memoized feasible-index array (e.g. after a forced computation
        on a space larger than :attr:`memoize_threshold`)."""
        self._feasible = None
        self.__dict__.pop("_feas_bits", None)
        self.__dict__.pop("_feas_bits_src", None)

    def _feasible_bitmap(self) -> bytes:
        """Packed feasibility bits of the memoized feasible set (1 = feasible).

        ``bits[index >> 3] >> (index & 7) & 1`` answers scalar membership in
        pure Python integer arithmetic -- an order of magnitude cheaper than a
        bisection per probe, which is what the population tuners' repair
        rejection loops hammer.  One bit per raw index (cardinality / 8 bytes;
        a few hundred KB at the memoize threshold), built on first demand and
        invalidated with the memo it mirrors.
        """
        bits = self.__dict__.get("_feas_bits")
        if bits is None or self.__dict__.get("_feas_bits_src") is not self._feasible:
            flags = np.zeros(self._cardinality, dtype=bool)
            flags[self._feasible] = True
            bits = np.packbits(flags, bitorder="little").tobytes()
            self._feas_bits = bits
            self._feas_bits_src = self._feasible
        return bits

    def _digits_for_range(self, start: int, stop: int) -> np.ndarray:
        """Digit matrix of the contiguous index range ``[start, stop)``.

        Digit columns of consecutive indices are periodic (period = radix x place),
        so most columns are assembled by tile/repeat instead of integer division --
        measurably faster than the general codec on full-space sweeps.  Columns whose
        period dwarfs the range fall back to the division codec to bound memory.
        """
        n = stop - start
        out = np.empty((n, self.dimensions), dtype=np.int64)
        base = None
        for j, (radix, place) in enumerate(zip(self._radices.tolist(),
                                               self._places.tolist())):
            period = radix * place
            if period <= 4 * n:
                offset = start % period
                reps = -(-(offset + n) // period)
                pattern = np.repeat(np.arange(radix, dtype=np.int64), place)
                out[:, j] = np.tile(pattern, reps)[offset:offset + n]
            else:
                if base is None:
                    base = np.arange(start, stop, dtype=np.int64)
                out[:, j] = (base // place) % radix
        return out

    def _columns_for_range(self, start: int, stop: int,
                           names: frozenset[str] | None = None) -> dict[str, np.ndarray]:
        """Named value columns of the contiguous index range ``[start, stop)``.

        Value columns of consecutive indices are periodic exactly like their digit
        columns (period = radix x place), so they are assembled by tile/repeat of the
        per-parameter value arrays directly -- skipping both the digit matrix and the
        digit->value gather of :meth:`columns_at`.  Columns whose period dwarfs the
        range fall back to the division codec plus gather to bound memory.  With
        ``names`` given, only those columns are materialised (the constraint-sweep
        case: parameters no constraint reads never cost anything).
        """
        n = stop - start
        out: dict[str, np.ndarray] = {}
        base = None
        for p, values, radix, place in zip(self._parameters, self._value_columns,
                                           self._radices.tolist(),
                                           self._places.tolist()):
            if names is not None and p.name not in names:
                continue
            period = radix * place
            if period <= 4 * n:
                offset = start % period
                reps = -(-(offset + n) // period)
                pattern = np.repeat(values, place)
                out[p.name] = np.tile(pattern, reps)[offset:offset + n]
            else:
                if base is None:
                    base = np.arange(start, stop, dtype=np.int64)
                out[p.name] = values[(base // place) % radix]
        return out

    def _feasible_mask_range(self, start: int, stop: int) -> np.ndarray:
        """Constraint mask of a contiguous index range.

        When every constraint has a batch evaluator the value columns are built by
        tiling (:meth:`_columns_for_range`) -- and only the columns the constraint
        expressions actually reference -- with no digit matrix at all; a single
        opaque callable forces the general digit path, whose scalar fallback needs
        digits to materialise row configurations.
        """
        if self._constraints.all_vectorized:
            return self._constraints.satisfied_mask(
                self._columns_for_range(start, stop,
                                        names=self._constraints.referenced_parameters()),
                stop - start)
        return self.satisfied_mask(None, digits=self._digits_for_range(start, stop))

    def _iter_feasible_blocks(self, chunk_size: int = _CHUNK) -> Iterator[np.ndarray]:
        """Stream ascending blocks of feasible indices without memoization."""
        if not len(self._constraints):
            for start in range(0, self._cardinality, chunk_size):
                yield np.arange(start, min(start + chunk_size, self._cardinality),
                                dtype=np.int64)
            return
        for start in range(0, self._cardinality, chunk_size):
            stop = min(start + chunk_size, self._cardinality)
            mask = self._feasible_mask_range(start, stop)
            if mask.any():
                yield np.arange(start, stop, dtype=np.int64)[mask]

    # -------------------------------------------------------------------- enumeration

    def enumerate_chunked(self, valid_only: bool = True,
                          chunk_size: int = _CHUNK) -> Iterator[np.ndarray]:
        """Stream index blocks in ascending mixed-radix order.

        With ``valid_only`` (default) only feasible indices are yielded; a memoized
        feasible set is sliced directly instead of re-masking.
        """
        if not valid_only or not len(self._constraints):
            for start in range(0, self._cardinality, chunk_size):
                yield np.arange(start, min(start + chunk_size, self._cardinality),
                                dtype=np.int64)
            return
        feasible = self.feasible_indices()
        if feasible is not None:
            for start in range(0, feasible.size, chunk_size):
                yield feasible[start:start + chunk_size]
            return
        yield from self._iter_feasible_blocks(chunk_size)

    def enumerate(self, valid_only: bool = True) -> Iterator[Config]:
        """Yield configurations in mixed-radix order.

        Parameters
        ----------
        valid_only:
            If True (default) only configurations satisfying the constraints are
            yielded.  Enumeration of the full product of very large spaces (Hotspot,
            Dedispersion, Expdist) is possible but typically undesirable; use
            :meth:`sample` instead, as the paper does.
        """
        for block in self.enumerate_chunked(valid_only=valid_only):
            yield from self.configs_at(block)

    def enumerate_all(self) -> Iterator[Config]:
        """Yield every point of the Cartesian product, ignoring constraints."""
        return self.enumerate(valid_only=False)

    def count_constrained(self, limit: int | None = None) -> int:
        """Number of configurations satisfying the constraints (Table VIII 'Constrained').

        Parameters
        ----------
        limit:
            If given and the raw cardinality exceeds ``limit``, the count is estimated
            from a reproducible random sample of ``limit`` points instead of a full
            enumeration, and rounded to the nearest integer.  The paper itself only
            reports exact constrained counts for spaces it could enumerate.
        """
        if not len(self._constraints):
            return self._cardinality
        if limit is not None and self._cardinality > limit:
            rng = np.random.default_rng(1234567)
            idx = rng.integers(0, self._cardinality, size=limit)
            hits = int(self.satisfied_mask(idx).sum())
            return int(round(self._cardinality * hits / limit))
        feasible = self.feasible_indices()
        if feasible is not None:
            return int(feasible.size)
        return sum(int(block.size) for block in self._iter_feasible_blocks())

    # ----------------------------------------------------------------------- sampling

    def _scalar_draw_exhausted(self, max_attempts: int) -> EmptySearchSpaceError:
        """The failure of a single-draw rejection loop whose every attempt
        missed (a success returns immediately, so the observed feasible
        fraction is exactly zero) -- shared by the bitmap and constraint-eval
        restart paths so their messages cannot drift apart."""
        return EmptySearchSpaceError(
            f"could not draw 1 valid configurations "
            f"from space of cardinality {self._cardinality} "
            f"after {max_attempts} attempts (found 0); observed feasible "
            f"fraction 0.000% over {max_attempts} draws")

    def sample_indices(self, n: int, rng: np.random.Generator | int | None = None,
                       valid_only: bool = True, unique: bool = True,
                       max_attempts_factor: int = 200) -> np.ndarray:
        """Draw ``n`` random mixed-radix indices (the batch form of :meth:`sample`).

        Rejection sampling proceeds in blocks sized exactly to the number of indices
        still needed, so the random stream consumed is identical to drawing one index
        at a time: the same seed yields the same sample the scalar implementation
        produced, and a generator shared with the caller stays in sync.

        When the memoized feasible-index array exists, an impossible request
        (``n`` greater than the number of feasible points) fails immediately, and a
        request that merely exhausts its rejection patience is completed exactly from
        the remaining feasible indices -- no spurious
        :class:`~repro.core.errors.EmptySearchSpaceError` is possible.
        """
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        if n < 0:
            raise InvalidConfigurationError("sample size must be non-negative")
        if n == 0:
            return np.empty(0, dtype=np.int64)
        feasible = self._feasible if valid_only else None
        if n == 1 and not unique and valid_only and feasible is not None \
                and feasible.size:
            # The memoized twin of the scalar restart draw below: one scalar
            # ``integers`` call per attempt (stream-identical to a size-1 block)
            # and one packed-bitmap probe instead of a constraint evaluation.
            # The population tuners' repair draws live here.
            integers = rng.integers
            cardinality = self._cardinality
            bits = self._feasible_bitmap()
            max_attempts = max(max_attempts_factor, 1000)
            for _ in range(max_attempts):
                index = int(integers(0, cardinality))
                if bits[index >> 3] >> (index & 7) & 1:
                    return np.asarray([index], dtype=np.int64)
            raise self._scalar_draw_exhausted(max_attempts)
        if (n == 1 and not unique and valid_only and feasible is None
                and len(self._constraints)):
            # The tuner runtime's restart draw: a tight scalar rejection loop.  One
            # scalar ``integers`` call consumes the same random stream as a size-1
            # block, and the scalar constraint check agrees with the mask by the
            # compilation contract, so the drawn index is bit-identical to the
            # general path below at a fraction of its per-iteration overhead.
            rows = self._feasibility_rows()
            if rows is None:
                satisfied = self._constraints.is_satisfied
                namespace_at = self.config_at
            else:
                satisfied = self._constraints.is_satisfied_fast
                def namespace_at(index: int, _rows=rows) -> dict:
                    return {name: values[(index // place) % radix]
                            for name, values, place, radix in _rows}
            integers = rng.integers
            cardinality = self._cardinality
            max_attempts = max(max_attempts_factor, 1000)
            for _ in range(max_attempts):
                index = int(integers(0, cardinality))
                if satisfied(namespace_at(index)):
                    return np.asarray([index], dtype=np.int64)
            self.feasible_indices()  # memoize (small spaces) for the next attempt
            raise self._scalar_draw_exhausted(max_attempts)
        if feasible is not None and unique and n > feasible.size:
            raise EmptySearchSpaceError(
                f"cannot draw {n} unique valid configurations from a space with only "
                f"{feasible.size} feasible points "
                f"(feasible fraction {feasible.size / self._cardinality:.3%} of "
                f"cardinality {self._cardinality})")
        max_attempts = max(max_attempts_factor * n, 1000)
        out: list[int] = []
        seen: set[int] = set()
        attempts = 0
        checked = 0
        passed = 0
        while len(out) < n:
            need = min(n - len(out), max_attempts - attempts)
            if need <= 0:
                if valid_only and feasible is None:
                    # Compute the memo now if the space is small enough: patience has
                    # already run out, so the one-off sweep is cheaper than failing,
                    # and it turns the error below into a guaranteed completion.
                    feasible = self.feasible_indices()
                if feasible is not None and unique:
                    if n > feasible.size:
                        raise EmptySearchSpaceError(
                            f"cannot draw {n} unique valid configurations from a "
                            f"space with only {feasible.size} feasible points "
                            f"(feasible fraction "
                            f"{feasible.size / self._cardinality:.3%} of "
                            f"cardinality {self._cardinality})")
                    # Patience exhausted but success is guaranteed: finish the draw
                    # exactly from the not-yet-taken feasible indices.
                    remaining = feasible[~np.isin(feasible,
                                                  np.fromiter(seen, dtype=np.int64,
                                                              count=len(seen)))]
                    extra = rng.permutation(remaining)[: n - len(out)]
                    out.extend(int(i) for i in extra)
                    break
                observed = (f"; observed feasible fraction {passed / checked:.3%} "
                            f"over {checked} draws" if checked else "")
                raise EmptySearchSpaceError(
                    f"could not draw {n} {'unique ' if unique else ''}valid configurations "
                    f"from space of cardinality {self._cardinality} "
                    f"after {attempts} attempts (found {len(out)}){observed}")
            draws = rng.integers(0, self._cardinality, size=need)
            attempts += need
            if valid_only:
                if feasible is not None:
                    if feasible.size:
                        pos = np.searchsorted(feasible, draws)
                        pos[pos == feasible.size] = 0
                        ok = feasible[pos] == draws
                        good_list = ok.tolist()
                    else:
                        good_list = [False] * need
                elif need <= _SCALAR_CHECK_MAX and len(self._constraints):
                    # Tiny blocks (the tail of a draw, or the single-restart draws
                    # of the tuner runtime) check through the scalar constraint
                    # code objects: for a handful of rows they beat the batch
                    # evaluators by an order of magnitude, and the compilation
                    # contract keeps the verdicts identical.
                    good_list = [self.index_is_feasible(i) for i in draws.tolist()]
                else:
                    good_list = self.satisfied_mask(draws).tolist()
                checked += need
                passed += sum(good_list)
            else:
                good_list = None
            for k, idx in enumerate(draws.tolist()):
                if good_list is not None and not good_list[k]:
                    continue
                if unique:
                    if idx in seen:
                        continue
                    seen.add(idx)
                out.append(idx)
        return np.asarray(out[:n], dtype=np.int64)

    def sample(self, n: int, rng: np.random.Generator | int | None = None,
               valid_only: bool = True, unique: bool = True,
               max_attempts_factor: int = 200) -> list[Config]:
        """Draw ``n`` random configurations.

        Sampling is performed through the mixed-radix index so it is O(1) in the size
        of the space and reproducible given a seed.  With ``unique=True`` the result
        contains no duplicate configurations (the paper's 10 000-sample campaigns are
        without replacement).

        Raises
        ------
        EmptySearchSpaceError
            If not enough (unique, valid) configurations can be found within
            ``max_attempts_factor * n`` draws and the feasible set is not memoized
            (with a memoized feasible set the draw either fails immediately --
            ``n`` exceeds the number of feasible points -- or always succeeds).
        """
        indices = self.sample_indices(n, rng=rng, valid_only=valid_only, unique=unique,
                                      max_attempts_factor=max_attempts_factor)
        return self.configs_at(indices)

    def sample_one(self, rng: np.random.Generator | int | None = None,
                   valid_only: bool = True) -> Config:
        """Draw a single random (valid) configuration."""
        return self.sample(1, rng=rng, valid_only=valid_only, unique=False)[0]

    def sample_one_index(self, rng: np.random.Generator | int | None = None,
                         valid_only: bool = True) -> int:
        """Index form of :meth:`sample_one`: same rejection loop, same random
        stream, no configuration dictionary."""
        return int(self.sample_indices(1, rng=rng, valid_only=valid_only,
                                       unique=False)[0])

    def default_configuration(self) -> Config:
        """Configuration made of every parameter's default value."""
        return {p.name: p.default for p in self._parameters}

    # ----------------------------------------------------------------- neighbourhoods

    def neighbors(self, config: Mapping[str, Any], strategy: str = "hamming",
                  valid_only: bool = True) -> list[Config]:
        """Configurations reachable from ``config`` by changing exactly one parameter.

        Parameters
        ----------
        config:
            Base configuration (must be a member of the product).
        strategy:
            ``"hamming"`` -- every other value of each parameter (Schoonhoven-style
            fitness-flow-graph neighbourhood).  ``"adjacent"`` -- only the next
            smaller/larger value of each parameter.
        valid_only:
            Drop neighbours that violate the constraints (checked as one mask over
            the whole candidate block).
        """
        self.validate_membership(config)
        if strategy not in ("hamming", "adjacent"):
            raise InvalidConfigurationError(
                f"unknown neighbourhood strategy {strategy!r} (use 'hamming' or 'adjacent')")
        candidates: list[tuple[str, Any]] = []
        for p in self._parameters:
            current = config[p.name]
            if strategy == "hamming":
                others = p.all_other_values(current)
            else:
                others = p.neighbors(current)
            candidates.extend((p.name, v) for v in others)
        if not candidates:
            return []
        if valid_only and len(self._constraints):
            base = self.indices_to_digits([self.index_of(config)])
            digits = np.repeat(base, len(candidates), axis=0)
            col_of = {p.name: j for j, p in enumerate(self._parameters)}
            for row, (name, value) in enumerate(candidates):
                digits[row, col_of[name]] = self._by_name[name].index_of(value)
            keep = self.satisfied_mask(None, digits=digits)
        else:
            keep = np.ones(len(candidates), dtype=bool)
        out: list[Config] = []
        for ok, (name, value) in zip(keep.tolist(), candidates):
            if ok:
                neighbor = dict(config)
                neighbor[name] = value
                out.append(neighbor)
        return out

    def random_neighbor(self, config: Mapping[str, Any], rng: np.random.Generator,
                        strategy: str = "hamming", valid_only: bool = True) -> Config | None:
        """A single uniformly-random neighbour, or None if there are none."""
        options = self.neighbors(config, strategy=strategy, valid_only=valid_only)
        if not options:
            return None
        return options[int(rng.integers(0, len(options)))]

    # -------------------------------------------------- index-native neighbourhoods

    def digits_of_index(self, index: int) -> np.ndarray:
        """Digit vector of one index (the scalar row of :meth:`indices_to_digits`).

        The scalar workhorse of the index-native operators: population tuners
        mutate candidates as digit vectors, and perturbation/crossover re-derive
        them from the incumbent's integer index through this one arithmetic row.
        """
        if not (0 <= index < self._cardinality):
            raise InvalidConfigurationError(
                f"index {index} out of range [0, {self._cardinality})")
        return (index // self._places) % self._radices

    # Pre-publication spelling; the tuners now use the public name.
    _digits_of_index = digits_of_index

    def _filter_neighbor_candidates(self, base_digits: np.ndarray,
                                    candidates: np.ndarray, params: np.ndarray,
                                    new_digits: np.ndarray,
                                    valid_only: bool) -> np.ndarray:
        """Apply the constraint mask to a one-parameter-changed candidate block.

        Candidate digit rows are the base row with a single column replaced, so the
        digit matrix is assembled by repeat + scatter instead of the general codec.
        """
        if not valid_only or not len(self._constraints):
            return candidates
        digits = np.repeat(base_digits[None, :], candidates.size, axis=0)
        digits[np.arange(candidates.size), params] = new_digits
        return candidates[self.satisfied_mask(None, digits=digits)]

    def hamming_neighbors(self, index: int, valid_only: bool = True) -> np.ndarray:
        """Indices of all configurations differing from ``index`` in exactly one
        parameter (the fitness-flow-graph neighbourhood), by digit arithmetic.

        Candidate order matches :meth:`neighbors`: parameters in declaration order,
        replacement digits ascending, the current digit skipped --
        ``configs_at(hamming_neighbors(i))`` equals ``neighbors(config_at(i))``.
        No configuration dictionary is ever constructed.
        """
        digits = self._digits_of_index(index)
        keep = self._nb_digit != digits[self._nb_param]
        params = self._nb_param[keep]
        candidates = index + self._nb_offsets[keep] - digits[params] * self._places[params]
        return self._filter_neighbor_candidates(
            digits, candidates, params, self._nb_digit[keep], valid_only)

    def adjacent_neighbors(self, index: int, valid_only: bool = True) -> np.ndarray:
        """Indices one ordered-value step away in each parameter (digit +- 1).

        Candidate order matches :meth:`neighbors` with ``strategy="adjacent"``: per
        parameter, the smaller value first, then the larger (where they exist).
        """
        digits = self._digits_of_index(index)
        down = index - self._places
        up = index + self._places
        candidates = np.stack([down, up], axis=1).ravel()
        params = np.repeat(np.arange(self.dimensions, dtype=np.int64), 2)
        new_digits = np.stack([digits - 1, digits + 1], axis=1).ravel()
        keep = (new_digits >= 0) & (new_digits < self._radices[params])
        return self._filter_neighbor_candidates(
            digits, candidates[keep], params[keep], new_digits[keep], valid_only)

    #: Entry cap of the per-space neighbourhood memo (arrays of ~sum(radices)
    #: int64 each; 4096 entries stay well under a few MB on every kernel space).
    _NEIGHBOR_MEMO_MAX: int = 4096

    def neighbor_indices(self, index: int, strategy: str = "hamming",
                         valid_only: bool = True) -> np.ndarray:
        """Index-native form of :meth:`neighbors` (dispatches on ``strategy``).

        Valid-only neighbourhoods are pure functions of the index, so they memoize
        (bounded, reset when the memo fills): iterated local search repeatedly
        re-climbs the same basins after perturbation, and the revisit then costs a
        dictionary probe instead of a constraint mask.
        """
        memo = self.__dict__.get("_nb_memo")
        if memo is None:
            memo = self._nb_memo = {}
        key = (strategy, index, len(self._constraints)) if valid_only else None
        if key is not None:
            cached = memo.get(key)
            if cached is not None:
                return cached
        if strategy == "hamming":
            out = self.hamming_neighbors(index, valid_only=valid_only)
        elif strategy == "adjacent":
            out = self.adjacent_neighbors(index, valid_only=valid_only)
        else:
            raise InvalidConfigurationError(
                f"unknown neighbourhood strategy {strategy!r} (use 'hamming' or 'adjacent')")
        if key is not None:
            if len(memo) >= self._NEIGHBOR_MEMO_MAX:
                memo.clear()
            out.setflags(write=False)
            memo[key] = out
        return out

    def _feasibility_rows(self) -> tuple[tuple[str, tuple, int, int], ...] | None:
        """Decode rows ``(name, values, place, radix)`` for the parameters the
        constraint expressions reference, or None when any constraint is opaque
        (callables may read parameters the expressions never name)."""
        if self.__dict__.get("_feas_rows_n") != len(self._constraints):
            self.__dict__.pop("_feas_rows", None)
            self._feas_rows_n = len(self._constraints)
        rows = self.__dict__.get("_feas_rows", False)
        if rows is False:
            referenced = self._constraints.referenced_parameters()
            if referenced is None or any(c.is_callable for c in self._constraints):
                rows = None
            else:
                rows = tuple(
                    (p.name, p.values, place, radix)
                    for p, place, radix in zip(self._parameters, self._place_values,
                                               self._radices.tolist())
                    if p.name in referenced)
            self._feas_rows = rows
        return rows

    def index_is_feasible(self, index: int) -> bool:
        """Constraint satisfaction of one index (no configuration dictionary).

        Element-wise equivalent to ``is_valid(config_at(index))`` for in-range
        indices (range membership is what dictionary membership checks establish).
        A single point evaluates through the scalar constraint code objects over a
        namespace holding only the referenced parameters -- for one row that is an
        order of magnitude cheaper than spinning up the batch evaluators, and the
        compilation contract makes the paths agree.
        """
        if not (0 <= index < self._cardinality):
            raise InvalidConfigurationError(
                f"index {index} out of range [0, {self._cardinality})")
        if not len(self._constraints):
            return True
        if self._feasible is not None:
            # The memoized feasible set answers membership from its packed
            # bitmap -- the verdict is identical by construction (the memo
            # holds exactly the constraint-satisfying indices).
            index = int(index)
            return bool(self._feasible_bitmap()[index >> 3] >> (index & 7) & 1)
        rows = self._feasibility_rows()
        if rows is None:
            return self._constraints.is_satisfied(self.config_at(index))
        return self._constraints.is_satisfied_fast(
            {name: values[(index // place) % radix]
             for name, values, place, radix in rows})

    # ------------------------------------------------------------------- reduction

    def reduced(self, keep: Sequence[str], fixed: Mapping[str, Any] | None = None,
                name: str | None = None) -> "SearchSpace":
        """Reduced space keeping only the parameters in ``keep`` (Table VIII 'Reduced').

        The remaining parameters are frozen to the values in ``fixed`` (default: their
        declared defaults) and folded into the constraint evaluation, so the
        reduce-constrained count of Table VIII can be computed on the reduced space.
        Frozen parameters enter the vectorized constraint evaluators as broadcast
        scalar columns, so reduced spaces count and sample as fast as full ones.
        """
        keep_set = set(keep)
        unknown = keep_set - set(self._by_name)
        if unknown:
            raise InvalidConfigurationError(f"cannot keep unknown parameters {sorted(unknown)}")
        if not keep_set:
            raise EmptySearchSpaceError("reduced space must keep at least one parameter")
        fixed_values: dict[str, Any] = {}
        for p in self._parameters:
            if p.name not in keep_set:
                value = (fixed or {}).get(p.name, p.default)
                if value not in p:
                    raise InvalidConfigurationError(
                        f"fixed value {value!r} not allowed for parameter {p.name!r}")
                fixed_values[p.name] = value
        kept_params = [p for p in self._parameters if p.name in keep_set]

        def _wrap(constraint: Constraint) -> Constraint:
            def check(config: Mapping[str, Any], _c=constraint) -> bool:
                full = dict(fixed_values)
                full.update(config)
                return _c.is_satisfied(full)
            wrapped = Constraint(check, description=constraint.description)
            wrapped.expression = constraint.expression
            base_vec = constraint._vectorized
            if base_vec is not None:
                def vectorized(columns: Mapping[str, Any], n: int,
                               _bv=base_vec, _fx=fixed_values):
                    full_columns = dict(_fx)
                    full_columns.update(columns)
                    return _bv(full_columns, n)
                wrapped._vectorized = vectorized
            return wrapped

        reduced_constraints = ConstraintSet(_wrap(c) for c in self._constraints)
        return SearchSpace(kept_params, reduced_constraints,
                           name=name or (self.name + "_reduced" if self.name else "reduced"),
                           memoize_threshold=self.memoize_threshold)

    # --------------------------------------------------------------------- encoding

    def encode(self, config: Mapping[str, Any]) -> np.ndarray:
        """Encode one configuration as a float feature vector (column per parameter)."""
        self.validate_membership(config)
        return np.array([p.encode(config[p.name]) for p in self._parameters], dtype=float)

    def encode_batch(self, configs: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Encode many configurations as an ``(n, dimensions)`` float matrix.

        The loop runs once per parameter (not once per configuration per parameter in
        Python) so large campaigns encode quickly.
        """
        n = len(configs)
        out = np.empty((n, self.dimensions), dtype=float)
        for j, p in enumerate(self._parameters):
            if p.is_numeric:
                out[:, j] = [float(c[p.name]) for c in configs]
            else:
                out[:, j] = [float(p.index_of(c[p.name])) for c in configs]
        return out

    def encode_indices(self, indices: np.ndarray | Sequence[int], *,
                       digits: np.ndarray | None = None) -> np.ndarray:
        """Index-native form of :meth:`encode_batch`: feature rows straight from the
        value columns, no configuration dictionaries.

        Numeric parameters contribute their value, all others their ordinal digit --
        element-wise identical to encoding the materialised configurations.
        """
        if digits is None:
            digits = self.indices_to_digits(indices)
        out = np.empty((digits.shape[0], self.dimensions), dtype=float)
        for j, (p, col) in enumerate(zip(self._parameters, self._value_columns)):
            if p.is_numeric:
                out[:, j] = col[digits[:, j]].astype(float)
            else:
                out[:, j] = digits[:, j].astype(float)
        return out

    def encode_index(self, index: int) -> np.ndarray:
        """Scalar form of :meth:`encode_indices`: the feature row of one index.

        One digit-arithmetic row plus one gather from the encoded-value grid --
        element-wise identical to ``encode_indices([index])[0]`` without the
        batch scaffolding, which is what the population tuners' per-candidate
        selections (DE replacement, PSO repair) pay.
        """
        if not (0 <= index < self._cardinality):
            raise InvalidConfigurationError(
                f"index {index} out of range [0, {self._cardinality})")
        grid, _pad, _buffer = self._decode_state()
        rows = self.__dict__.get("_dim_range")
        if rows is None:
            rows = self._dim_range = np.arange(self.dimensions)
        return grid[rows, (index // self._places) % self._radices]

    def _encoded_grid(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The ``(dimensions, max_radix)`` encoded-value grid, built once.

        Row ``j`` holds parameter ``j``'s numeric values (ordinals for
        non-numeric parameters) -- exactly what :meth:`encode` produces per
        coordinate -- padded to the widest radix.  The companion boolean mask
        flags the padded cells (None when every radix is equal), so decode can
        force their distance to ``inf`` and a padded cell can never win the
        nearest-value argmin, whatever the query vector contains.
        """
        cached = self.__dict__.get("_enc_grid")
        if cached is None:
            radices = self._radices.tolist()
            width = max(radices)
            grid = np.zeros((self.dimensions, width), dtype=float)
            for j, p in enumerate(self._parameters):
                grid[j, : radices[j]] = p.numeric_values()
            pad = np.arange(width) >= self._radices[:, None]
            grid.setflags(write=False)
            cached = self._enc_grid = (grid, pad if pad.any() else None)
        return cached

    def decode_digits(self, vector: Sequence[float]) -> np.ndarray:
        """Digit vector of the member configuration nearest to a feature vector.

        The per-parameter nearest-value rule (first minimum of ``|grid - x|``) is
        exactly the one :meth:`decode` applies, so
        ``config_at(digits_to_indices(decode_digits(v)[None, :])[0])`` equals
        ``decode(v)``.  All parameters are resolved in one vectorized pass over
        the padded encoded-value grid (padded cells are forced to infinite
        distance), element-wise identical to the per-parameter scan.
        """
        if len(vector) != self.dimensions:
            raise InvalidConfigurationError(
                f"vector has {len(vector)} entries, expected {self.dimensions}")
        return self._decode_digits_fast(vector)

    def _decode_state(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """``(grid, pad, buffer)`` of the scalar decoder, one dictionary probe.

        The buffer is the reusable distance workspace: the scalar decoder sits
        inside the population tuners' per-candidate loop, where the two
        temporaries of the naive spelling dominate the arithmetic.  (Like the
        neighbourhood memo, this makes spaces non-thread-safe; the execution
        subsystem parallelises across processes.)
        """
        cached = self.__dict__.get("_dec_state")
        if cached is None:
            grid, pad = self._encoded_grid()
            cached = self._dec_state = (grid, pad, np.empty(grid.shape))
        return cached

    def _decode_digits_fast(self, vector: Sequence[float]) -> np.ndarray:
        grid, pad, buffer = self._decode_state()
        np.subtract(grid, np.asarray(vector, dtype=float)[:, None], out=buffer)
        np.abs(buffer, out=buffer)
        if pad is not None:
            buffer[pad] = np.inf
        return buffer.argmin(axis=1)

    def decode_digits_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Batch form of :meth:`decode_digits`: ``(n, dimensions)`` feature rows
        to an ``(n, dimensions)`` digit matrix in one broadcast pass, row-wise
        identical to the scalar decoder (same first-minimum tie rule)."""
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != self.dimensions:
            raise InvalidConfigurationError(
                f"expected an (n, {self.dimensions}) matrix, got shape "
                f"{vectors.shape}")
        grid, pad = self._encoded_grid()
        distance = np.abs(grid[None, :, :] - vectors[:, :, None])
        if pad is not None:
            distance[:, pad] = np.inf
        return np.argmin(distance, axis=2)

    def decode_index(self, vector: Sequence[float]) -> int:
        """Mixed-radix index of the member configuration nearest to ``vector``."""
        if len(vector) != self.dimensions:
            raise InvalidConfigurationError(
                f"vector has {len(vector)} entries, expected {self.dimensions}")
        return int(self._decode_digits_fast(vector) @ self._places)

    def decode_indices(self, vectors: np.ndarray) -> np.ndarray:
        """Batch form of :meth:`decode_index`: nearest-member indices of many
        feature vectors (one broadcast decode, one mixed-radix assembly)."""
        return self.decode_digits_batch(vectors) @ self._places

    def decode(self, vector: Sequence[float]) -> Config:
        """Map a feature vector back to the nearest member configuration."""
        digits = self.decode_digits(vector)
        return {p.name: p.value_at(int(d))
                for p, d in zip(self._parameters, digits)}

    # ------------------------------------------------------------------ serialization

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable description of the search space."""
        return {
            "name": self.name,
            "parameters": [p.to_dict() for p in self._parameters],
            "constraints": self._constraints.to_list(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchSpace":
        """Inverse of :meth:`to_dict` (only string-expression constraints round-trip).

        Constraints referencing names that are neither parameters nor whitelisted
        builtins are dropped with a
        :class:`~repro.core.constraints.ConstraintSerializationWarning`: the typical
        culprit is a legacy serialization of a *named* callable constraint (e.g.
        ``"power_of_two"``), which parses as an expression but could only ever raise
        on evaluation.
        """
        import warnings

        from repro.core.constraints import ConstraintSerializationWarning

        params = [Parameter.from_dict(d) for d in data["parameters"]]
        names = {p.name for p in params}
        constraints = ConstraintSet()
        for constraint in ConstraintSet.from_list(data.get("constraints", [])):
            unknown = (constraint.referenced_names() or frozenset()) - names
            if unknown:
                warnings.warn(
                    f"dropping constraint {constraint.expression!r}: it references "
                    f"{sorted(unknown)} which are not parameters of this space "
                    f"(legacy serialization of a callable constraint?)",
                    ConstraintSerializationWarning, stacklevel=2)
                continue
            constraints.add(constraint)
        return cls(params, constraints, name=data.get("name", ""))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SearchSpace(name={self.name!r}, dimensions={self.dimensions}, "
                f"cardinality={self.cardinality})")


class _LazyColumns(_MappingABC):
    """Name-indexable view of a digit matrix that gathers value columns on demand.

    Handed to :meth:`ConstraintSet.satisfied_mask` so each batch evaluator only pays
    the digit->value gather for the parameters its expression actually references;
    iterating lists every parameter name, so dict-style consumers (e.g. the
    reduced-space constraint wrappers, which ``update`` a real dict from this view)
    see the complete column set.
    """

    __slots__ = ("_space", "_digits", "_cache")

    def __init__(self, space: "SearchSpace", digits: np.ndarray):
        self._space = space
        self._digits = digits
        self._cache: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        column = self._cache.get(name)
        if column is None:
            space = self._space
            j = space._column_of[name]  # KeyError -> missing-parameter semantics
            column = space._value_columns[j][self._digits[:, j]]
            self._cache[name] = column
        return column

    def __iter__(self) -> Iterator[str]:
        return iter(self._space.parameter_names)

    def __len__(self) -> int:
        return len(self._space._parameters)


class _LazyConfigs:
    """Row-indexable view of a digit matrix that builds config dicts on demand.

    Handed to :meth:`ConstraintSet.satisfied_mask` so the scalar fallback for opaque
    callables sees original Python values without the batch path ever materialising
    configuration dictionaries for rows it never touches.
    """

    __slots__ = ("_space", "_digits")

    def __init__(self, space: SearchSpace, digits: np.ndarray):
        self._space = space
        self._digits = digits

    def __len__(self) -> int:
        return self._digits.shape[0]

    def __getitem__(self, i: int) -> Config:
        row = self._digits[i]
        return {p.name: values[row[j]]
                for j, (p, values) in enumerate(zip(self._space._parameters,
                                                    self._space._value_objects))}
