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
convenience wrappers; every hot path (sampling, enumeration, graph construction)
runs on index blocks.

*Constraint truth-table contract.*  Every restriction in the suite reads two or three
parameters, so its verdict over the whole product is a tiny table.  For each
expression whose referenced names are all parameters, the space builds (once, on
first use) a boolean *truth table* over the values of those parameters by calling the
scalar :meth:`~repro.core.constraints.Constraint.is_satisfied` on every combination;
tables over the same parameters are ANDed into one.  A batch mask
(:meth:`SearchSpace.satisfied_mask`) is then one gather per table at
``sum(digit_j * stride_j)``, with the digits computed only for the columns the tables
read, and a scalar check (:meth:`SearchSpace.index_is_feasible`) is the same lookup in
pure Python.  The verdicts equal the scalar evaluator by construction -- an
expression that raises is a ``False`` cell.  Opaque callables, expressions naming
something that is not a parameter, and tables past :data:`_TABLE_MAX_CELLS` keep the
scalar row path, evaluated only on rows every table accepted.  The tables are also
0/1 factors of the constrained count, which :meth:`SearchSpace.count_constrained`
sums out by variable elimination without a sweep.  Tables, the feasible memo and
the neighbourhood memo are keyed on the length of the (append-only) constraint set,
so a constraint added after first use takes effect everywhere.

*Feasible-set memoization.*  For spaces whose raw cardinality is at most
:data:`MEMOIZE_THRESHOLD`, the sorted array of constraint-satisfying indices is computed
once on demand and cached.  The memo turns enumeration into array slicing, lets
:meth:`sample_indices` detect infeasible requests up front, and guarantees sampling
success whenever enough feasible points exist.  Spaces above the threshold (Hotspot,
Dedispersion, Expdist) stream index blocks through the mask instead of materialising
anything; a forced computation (``feasible_indices(force=True)``) on one of them
returns the array without keeping it.  The memo is a pure cache -- it changes time and memory, never a result -- and
every paper space is either at most 82,944 or at least 9.7M points, so the threshold
is a constant, not an option.

*Reproducibility.*  Batched rejection sampling draws index blocks sized exactly to the
number of configurations still needed, which makes the consumed random stream -- and
therefore every sampled configuration and everything downstream of a shared generator
-- identical to drawing one index at a time.  The tuners' single restart draw on a
sparse space draws a longer block and, on a hit, rewinds the generator and redraws up
to it, to the same effect.

*Neighbourhoods.*  Two neighbourhood structures are provided, matching the two used in
the literature the paper builds on: ``"adjacent"`` (one step up/down in each
parameter's ordered value list) and ``"hamming"`` (all configurations differing in
exactly one parameter, the fitness-flow-graph neighbourhood of Schoonhoven et al.).
There is one implementation of each, on indices: :meth:`SearchSpace.hamming_neighbors`
and :meth:`SearchSpace.adjacent_neighbors` compute the whole neighbourhood of a point
by digit arithmetic (``index + (digit' - digit) * place``) from precomputed
per-parameter offset tables, filter it through one :meth:`satisfied_mask` over the
candidate block, and return a raw index array, so the tuner runtime never builds a
configuration dictionary inside its hot loop.  Candidates come with parameters in
declaration order, digits ascending and the current digit skipped -- the order that
keeps index-native local search byte-identical to the seed implementation.  The
dictionary form :meth:`SearchSpace.neighbors` is a thin view,
``configs_at(neighbor_indices(index_of(config)))``.
:meth:`encode_indices`/:meth:`decode_digits` are the matching index-native forms of
the ML feature codec.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.constraints import _SAFE_BUILTINS, Constraint, ConstraintSet
from repro.core.errors import (
    EmptySearchSpaceError,
    InvalidConfigurationError,
)
from repro.core.parameter import Parameter

__all__ = ["SearchSpace", "config_key", "MEMOIZE_THRESHOLD"]

Config = dict[str, Any]

#: Ceiling on the raw cardinality up to which the feasible-index array is memoized
#: (int64 indices: 1e6 points cost at most ~8 MB).  Covers every space the paper
#: enumerates exhaustively (GEMM's 82 944 is the largest) with ample headroom, while
#: the sampled spaces (1e7--1.2e8 points) stay streaming-only.
MEMOIZE_THRESHOLD: int = 1_000_000

#: Index-block length used by chunked enumeration, counting and masking.  A masked
#: block keeps its index range and every digit column the truth tables read
#: alive at once, so the block sets the sweep's working set: enumerating GEMM's
#: 82,944 points peaks at 1.6 traced MB (7.75 MB at 2^17, one block).  Sweeps
#: are no slower in smaller blocks, faster where the columns stay in cache:
#: Dedispersion's 123,863,040 points in 0.98 s (2.04 s at 2^17), Hotspot's
#: 22,200,000 in 0.43 s (0.72 s); 2^13 reads the same.
_CHUNK: int = 1 << 14

#: Largest cardinality an int64 mixed-radix index can address.
_MAX_CARDINALITY: int = 2**63 - 1

#: Largest truth table a constraint is turned into (cells = product of the radices of
#: the parameters it reads).  The suite's largest is Dedispersion's 1,152 cells; a
#: constraint past the cap keeps the scalar row path, like a callable.
_TABLE_MAX_CELLS: int = 1 << 20

#: Largest rejection-sampling block checked by pure-Python table lookups per index
#: instead of the batch mask (one lookup costs ~1-2 us, one mask call ~8-45 us on
#: the kernel spaces).
_SCALAR_CHECK_MAX: int = 8

#: The restart draw (``sample_indices(1, unique=False)``) draws blocks of indices when
#: a hit is expected to take at least this many draws (``cardinality >= 8 * feasible
#: count``): a block's fixed cost -- two sized draws and a generator-state round trip
#: -- is about that of eight scalar ``integers`` calls.  Expdist, Hotspot and Nbody
#: qualify; PnPoly, Convolution, GEMM and Dedispersion keep the scalar loop.
_RESTART_BLOCK_MIN_DRAWS: int = 8

#: Expected hits per restart-draw block: its length is ``ceil(3 / feasible fraction)``.
_RESTART_BLOCK_HITS: int = 3


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
    """

    #: Memo ceiling read by :meth:`feasible_indices`; tests set it to 0 on an
    #: instance or subclass to drive the streaming paths of a small space.
    _memoize_threshold: int = MEMOIZE_THRESHOLD

    def __init__(self, parameters: Sequence[Parameter],
                 constraints: ConstraintSet | Iterable[Constraint | str | Callable] | None = None,
                 name: str = ""):
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
        self._feasible: np.ndarray | None = None
        self._feasible_key = 0  # len(constraints) the memo was computed for
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
        # Peel the digits most significant first with scalar divisors:
        # q_j = idx // place_j and digit_j = q_j - q_{j-1} * radix_j.
        out = np.empty((idx.size, len(self._place_values)), dtype=np.int64)
        prev = None
        for j, (place, radix) in enumerate(zip(self._place_values, self._radices.tolist())):
            q = idx // place
            out[:, j] = q if prev is None else q - prev * radix
            prev = q
        return out

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

    # ----------------------------------------------------------------- feasibility

    def _constraint_tables(self) -> tuple[int, list, list, tuple[Constraint, ...]]:
        """``(key, gathers, lookups, scalar)`` of the current constraint set.

        ``gathers`` holds one ``(table, columns, strides)`` per truth table (see the
        module docstring) for the batch mask, ``lookups`` the same tables as
        ``(list, ((place, radix, stride), ...))`` for pure-Python scalar checks, and
        ``scalar`` the constraints no table covers.  Rebuilt whenever ``key``, the
        length of the append-only constraint set, has moved.
        """
        state = self.__dict__.get("_tables")
        if state is not None and state[0] == len(self._constraints):
            return state
        radices = self._radices.tolist()
        tables: dict[tuple[int, ...], np.ndarray] = {}
        scalar: list[Constraint] = []
        for constraint in self._constraints:
            referenced = constraint.referenced_names()
            if referenced is None or not referenced <= self._column_of.keys():
                scalar.append(constraint)
                continue
            # Parameters named like a whitelisted builtin shadow it in the scalar
            # namespace, so the table reads them too; a constant reads column 0.
            columns = tuple(j for name, j in self._column_of.items()
                            if name in referenced or name in _SAFE_BUILTINS) or (0,)
            if math.prod(radices[j] for j in columns) > _TABLE_MAX_CELLS:
                scalar.append(constraint)
                continue
            names = [self._parameters[j].name for j in columns]
            try:
                cells = [constraint.is_satisfied(dict(zip(names, combo)))
                         for combo in itertools.product(
                             *(self._parameters[j].values for j in columns))]
            except InvalidConfigurationError:
                scalar.append(constraint)  # e.g. a KeyError inside the expression
                continue
            table = np.asarray(cells, dtype=bool)
            prior = tables.get(columns)
            tables[columns] = table if prior is None else prior & table
        gathers, lookups = [], []
        for columns, table in tables.items():
            strides = [1] * len(columns)
            for k in range(len(columns) - 2, -1, -1):
                strides[k] = strides[k + 1] * radices[columns[k + 1]]
            gathers.append((table, columns, tuple(strides)))
            lookups.append((table.tolist(), tuple(
                (self._place_values[j], radices[j], stride)
                for j, stride in zip(columns, strides))))
        state = self._tables = (len(self._constraints), gathers, lookups, tuple(scalar))
        return state

    def satisfied_mask(self, indices: np.ndarray | Sequence[int] | None = None, *,
                       digits: np.ndarray | None = None) -> np.ndarray:
        """Constraint mask of an index block: ``mask[i]`` iff point ``i`` is feasible.

        Element-wise equal to ``constraints.is_satisfied(config_at(i))`` per index:
        one gather per truth table, with digits computed straight from the indices
        (or taken from ``digits``) and only for the columns the tables read; the
        constraints no table covers run per row on the rows the tables accepted.
        """
        if digits is None:
            idx = np.asarray(indices, dtype=np.int64).ravel()
            if idx.size and (idx.min() < 0 or idx.max() >= self._cardinality):
                raise InvalidConfigurationError(
                    f"indices out of range [0, {self._cardinality})")
            n = idx.size
        else:
            n = digits.shape[0]
        if not len(self._constraints):
            return np.ones(n, dtype=bool)
        _, gathers, _, scalar = self._constraint_tables()
        mask = None
        digit_columns: dict[int, np.ndarray] = {}
        for table, columns, strides in gathers:
            cell = None
            for j, stride in zip(columns, strides):
                column = digit_columns.get(j)
                if column is None:
                    if digits is not None:
                        column = digits[:, j]
                    else:
                        place = self._place_values[j]
                        column = idx // place if place > 1 else idx
                        if j:
                            column = column % self._radices[j]
                    digit_columns[j] = column
                term = column * stride if stride > 1 else column
                cell = term if cell is None else cell + term
            hit = table[cell]
            mask = hit if mask is None else np.logical_and(mask, hit, out=mask)
        if mask is None:
            mask = np.ones(n, dtype=bool)
        if scalar and mask.any():
            rows = np.flatnonzero(mask)
            configs = (self.configs_at(idx[rows]) if digits is None
                       else self.configs_at(None, digits=digits[rows]))
            for i, config in zip(rows.tolist(), configs):
                for constraint in scalar:
                    if not constraint.is_satisfied(config):
                        mask[i] = False
                        break
        return mask

    def _index_test(self) -> Callable[[int], bool]:
        """Scalar :meth:`satisfied_mask` of one in-range index, with the tables
        bound once: table lookups in pure Python, then the constraints no table
        covers on its configuration.  Built once per constraint-set length (the
        tables' key), not once per call."""
        state = self.__dict__.get("_test")
        if state is not None and state[0] == len(self._constraints):
            return state[1]
        key, _, lookups, scalar = self._constraint_tables()
        config_at = self.config_at

        def test(index: int) -> bool:
            for table, parts in lookups:
                cell = 0
                for place, radix, stride in parts:
                    cell += index // place % radix * stride
                if not table[cell]:
                    return False
            if scalar:
                config = config_at(index)
                return all(constraint.is_satisfied(config) for constraint in scalar)
            return True
        self._test = (key, test)
        return test

    def _tabled_count(self) -> int | None:
        """The exact constrained count when every constraint is tabled
        (:meth:`_count_by_elimination`), else None; kept with the tables, under
        the same constraint-set length, and never computed by a sweep."""
        state = self.__dict__.get("_count")
        if state is None or state[0] != len(self._constraints):
            key, gathers, _, scalar = self._constraint_tables()
            state = self._count = (key, None if scalar
                                   else self._count_by_elimination(gathers))
        return state[1]

    def _feasible_memo(self) -> np.ndarray | None:
        """The memoized feasible set, or None -- also when the constraint set has
        grown since it was computed (the stale memo and its bitmap are dropped)."""
        if self._feasible is not None and self._feasible_key != len(self._constraints):
            self._feasible = None
            self.__dict__.pop("_feas_bits", None)
        return self._feasible

    def feasible_indices(self, force: bool = False) -> np.ndarray | None:
        """Sorted array of all constraint-satisfying indices, memoized up to
        :data:`MEMOIZE_THRESHOLD` raw points.

        Above the threshold it returns None without computing anything, or with
        ``force`` the array computed afresh and not kept.  The memo is what makes
        sampling failure-proof on small spaces.
        """
        feasible = self._feasible_memo()
        if feasible is not None:
            return feasible
        keep = self._cardinality <= self._memoize_threshold
        if not (keep or force):
            return None
        blocks = list(self._iter_feasible_blocks())
        feasible = (np.concatenate(blocks) if blocks
                    else np.empty(0, dtype=np.int64))
        if keep:
            self._feasible = feasible
            self._feasible_key = len(self._constraints)
        return feasible

    def _memo_test(self) -> Callable[[int], int]:
        """Membership in the memoized feasible set (1 = feasible), probing its
        packed bits.

        ``bits[index >> 3] >> (index & 7) & 1`` answers scalar membership in
        pure Python integer arithmetic -- an order of magnitude cheaper than a
        bisection per probe, which is what the population tuners' repair
        rejection loops hammer.  One bit per raw index (cardinality / 8 bytes;
        a few hundred KB at the memoize threshold), built on first demand and
        invalidated with the memo it mirrors.
        """
        state = self.__dict__.get("_feas_bits")
        if state is None or state[0] is not self._feasible:
            flags = np.zeros(self._cardinality, dtype=bool)
            flags[self._feasible] = True
            bits = np.packbits(flags, bitorder="little").tobytes()

            def test(index: int) -> int:
                return bits[index >> 3] >> (index & 7) & 1
            state = self._feas_bits = (self._feasible, test)
        return state[1]

    def _iter_feasible_blocks(self) -> Iterator[np.ndarray]:
        """Stream ascending blocks of feasible indices without memoization."""
        for start in range(0, self._cardinality, _CHUNK):
            block = np.arange(start, min(start + _CHUNK, self._cardinality),
                              dtype=np.int64)
            block = block[self.satisfied_mask(block)]
            if block.size:
                yield block

    # -------------------------------------------------------------------- enumeration

    def enumerate_chunked(self, valid_only: bool = True) -> Iterator[np.ndarray]:
        """Stream index blocks of at most :data:`_CHUNK` in ascending mixed-radix order.

        With ``valid_only`` (default) only feasible indices are yielded; a memoized
        feasible set is sliced directly instead of re-masking.
        """
        if not valid_only or not len(self._constraints):
            for start in range(0, self._cardinality, _CHUNK):
                yield np.arange(start, min(start + _CHUNK, self._cardinality),
                                dtype=np.int64)
            return
        feasible = self.feasible_indices()
        if feasible is not None:
            for start in range(0, feasible.size, _CHUNK):
                yield feasible[start:start + _CHUNK]
            return
        yield from self._iter_feasible_blocks()

    def enumerate(self, valid_only: bool = True) -> Iterator[Config]:
        """Yield configurations in mixed-radix order.

        Parameters
        ----------
        valid_only:
            If True (default) only configurations satisfying the constraints are
            yielded.  Enumeration of the full product of very large spaces (Hotspot,
            Dedispersion, Expdist) is possible but typically undesirable; use
            :meth:`sample_indices` instead, as the paper does.
        """
        for block in self.enumerate_chunked(valid_only=valid_only):
            yield from self.configs_at(block)

    def count_constrained(self) -> int:
        """Number of configurations satisfying the constraints (Table VIII 'Constrained').

        Exact.  When every constraint is tabled the count is computed without a
        sweep (:meth:`_count_by_elimination`); otherwise -- a constraint no table
        covers, or a merged factor past :data:`_TABLE_MAX_CELLS` -- it is the size
        of the feasible set.
        """
        if not len(self._constraints):
            return self._cardinality
        _, gathers, _, scalar = self._constraint_tables()
        count = None if scalar else self._count_by_elimination(gathers)
        return int(self.feasible_indices(force=True).size) if count is None else count

    def _count_by_elimination(self, gathers: list) -> int | None:
        """Sum over the product of the truth tables by variable elimination.

        Each table is a 0/1 int64 factor over the parameters it reads; a parameter
        no table reads multiplies the count by its radix.  Each step sums out the
        parameter whose merged factor is smallest with one ``np.einsum``.  A factor
        entry counts assignments of part of the product, so it never exceeds the
        cardinality and int64 cannot overflow.  Returns None when a merged factor
        would exceed :data:`_TABLE_MAX_CELLS`.
        """
        radices = self._radices.tolist()
        factors = []
        for table, columns, _ in gathers:
            axes = tuple(j for j in columns if radices[j] > 1)
            factors.append((table.reshape([radices[j] for j in axes]).astype(np.int64),
                            axes))
        read = {j for _, axes in factors for j in axes}
        count = math.prod(r for j, r in enumerate(radices) if j not in read)
        while read:
            merged = {j: sorted({k for _, axes in factors if j in axes for k in axes})
                      for j in read}
            cells = {j: math.prod(radices[k] for k in axes) for j, axes in merged.items()}
            var = min(read, key=lambda j: (cells[j], j))
            if cells[var] > _TABLE_MAX_CELLS:
                return None
            # einsum sublist labels must be < 52, so relabel per call.
            label = {k: n for n, k in enumerate(merged[var])}
            operands, rest = [], []
            for factor, axes in factors:
                if var in axes:
                    operands += [factor, [label[k] for k in axes]]
                else:
                    rest.append((factor, axes))
            out = tuple(k for k in merged[var] if k != var)
            factors = rest + [(np.einsum(*operands, [label[k] for k in out]), out)]
            read.discard(var)
        return count * math.prod(int(factor) for factor, _ in factors)

    # ----------------------------------------------------------------------- sampling

    def _scalar_draw_exhausted(self, max_attempts: int) -> EmptySearchSpaceError:
        """The failure of a single-draw rejection loop whose every attempt
        missed (a success returns immediately, so the observed feasible
        fraction is exactly zero) -- the same text the general path of
        :meth:`sample_indices` raises after as many empty draws."""
        return EmptySearchSpaceError(
            f"could not draw 1 valid configurations "
            f"from space of cardinality {self._cardinality} "
            f"after {max_attempts} attempts (found 0); observed feasible "
            f"fraction 0.000% over {max_attempts} draws")

    def _too_few_feasible(self, n: int, feasible: int) -> EmptySearchSpaceError:
        """The failure of a unique draw of more points than the space has
        feasible ones -- shared by the up-front and the patience-exhausted
        checks of :meth:`sample_indices` so their messages cannot drift apart."""
        return EmptySearchSpaceError(
            f"cannot draw {n} unique valid configurations from a space with only "
            f"{feasible} feasible points "
            f"(feasible fraction {feasible / self._cardinality:.3%} of "
            f"cardinality {self._cardinality})")

    def sample_indices(self, n: int, rng: np.random.Generator | int | None = None,
                       valid_only: bool = True, unique: bool = True,
                       max_attempts_factor: int = 200) -> np.ndarray:
        """Draw ``n`` random mixed-radix indices (:meth:`configs_at` decodes them).

        Sampling is O(1) in the size of the space and reproducible given a seed.
        With ``unique=True`` the result contains no duplicate indices (the paper's
        10 000-sample campaigns are without replacement).  Rejection sampling
        proceeds in blocks sized exactly to the number of indices still needed, so
        the random stream consumed is identical to drawing one index at a time: the
        same seed yields the same sample the scalar implementation produced, and a
        generator shared with the caller stays in sync.

        When the memoized feasible-index array exists, an impossible request
        (``n`` greater than the number of feasible points) fails immediately, and a
        request that merely exhausts its rejection patience is completed exactly from
        the remaining feasible indices -- no spurious
        :class:`~repro.core.errors.EmptySearchSpaceError` is possible.

        Raises
        ------
        EmptySearchSpaceError
            If not enough (unique, valid) indices can be found within
            ``max_attempts_factor * n`` draws and the feasible set is not memoized,
            or if ``n`` exceeds the number of feasible points of a memoized set.
        """
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        if n < 0:
            raise InvalidConfigurationError("sample size must be non-negative")
        if n == 0:
            return np.empty(0, dtype=np.int64)
        feasible = self._feasible_memo() if valid_only else None
        if n == 1 and not unique and valid_only:
            # The tuner runtime's restart draw (the population tuners' repair
            # draws live here): rejection on single indices, tested by a
            # packed-bitmap probe of the memo, else the scalar table lookup --
            # the mask's verdict.  A sized ``integers`` call consumes the stream
            # of as many scalar ones, so both forms below return the index, and
            # leave the generator state, of one scalar draw per attempt.  On a
            # sparse space (by the exact feasible count; an untabled constraint
            # would need a sweep, so it keeps the scalar loop) indices come in
            # blocks, and a hit at position p rewinds the generator to the
            # block's start and redraws p + 1.
            if feasible is not None:
                member = self._memo_test()
                count: int | None = feasible.size
            else:
                member = self._index_test()
                count = self._tabled_count()
            integers = rng.integers
            cardinality = self._cardinality
            max_attempts = max(max_attempts_factor, 1000)
            if count is None or cardinality < _RESTART_BLOCK_MIN_DRAWS * count:
                for _ in range(max_attempts):
                    index = int(integers(0, cardinality))
                    if member(index):
                        return np.asarray([index], dtype=np.int64)
            else:
                bit_generator = rng.bit_generator
                size = (-(-_RESTART_BLOCK_HITS * cardinality // count) if count
                        else max_attempts)
                for start in range(0, max_attempts, size):
                    state = bit_generator.state
                    block = integers(0, cardinality, size=min(size, max_attempts - start))
                    for p, index in enumerate(block.tolist()):
                        if member(index):
                            bit_generator.state = state
                            integers(0, cardinality, size=p + 1)
                            return np.asarray([index], dtype=np.int64)
            self.feasible_indices()  # memoize (small spaces) for the next attempt
            raise self._scalar_draw_exhausted(max_attempts)
        if feasible is not None and unique and n > feasible.size:
            raise self._too_few_feasible(n, feasible.size)
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
                        raise self._too_few_feasible(n, feasible.size)
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
            # Filter the block first; only its survivors reach the unique loop.
            if not valid_only or (feasible is None and not len(self._constraints)):
                survivors = draws.tolist()
            elif feasible is not None:
                if feasible.size:
                    pos = np.searchsorted(feasible, draws)
                    pos[pos == feasible.size] = 0
                    survivors = draws[feasible[pos] == draws].tolist()
                else:
                    survivors = []
            elif need <= _SCALAR_CHECK_MAX:
                # Tiny blocks (the tail of a draw) look each index up in the
                # tables in pure Python: for a handful of rows that beats the
                # batch mask, and the verdicts are the same table cells.
                test = self._index_test()
                survivors = [i for i in draws.tolist() if test(i)]
            else:
                survivors = draws[self.satisfied_mask(draws)].tolist()
            if valid_only:
                checked += need
                passed += len(survivors)
            if not unique:
                out.extend(survivors)
                continue
            for idx in survivors:
                if idx not in seen:
                    seen.add(idx)
                    out.append(idx)
        return np.asarray(out[:n], dtype=np.int64)

    def sample_one_index(self, rng: np.random.Generator | int | None = None,
                         valid_only: bool = True) -> int:
        """Draw a single random (valid) index: ``sample_indices(1, unique=False)[0]``."""
        return int(self.sample_indices(1, rng=rng, valid_only=valid_only,
                                       unique=False)[0])

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
            Drop neighbours that violate the constraints.

        A thin view of :meth:`neighbor_indices` at ``index_of(config)``: candidates
        come in its order (parameters in declaration order, values in declared
        order, the current value skipped), and every value -- the unchanged ones
        included -- is the space's declared value, as in every configuration the
        space returns (``16.0`` passed in for a declared ``16`` comes back as ``16``).
        """
        return self.configs_at(
            self.neighbor_indices(self.index_of(config), strategy, valid_only))

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

        Candidates come with parameters in declaration order, replacement digits
        ascending and the current digit skipped.  No configuration dictionary is
        ever constructed.
        """
        digits = self.digits_of_index(index)
        keep = self._nb_digit != digits[self._nb_param]
        params = self._nb_param[keep]
        candidates = index + self._nb_offsets[keep] - digits[params] * self._places[params]
        return self._filter_neighbor_candidates(
            digits, candidates, params, self._nb_digit[keep], valid_only)

    def adjacent_neighbors(self, index: int, valid_only: bool = True) -> np.ndarray:
        """Indices one ordered-value step away in each parameter (digit +- 1).

        Candidates come per parameter in declaration order, the smaller value
        first, then the larger (where they exist).
        """
        digits = self.digits_of_index(index)
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
        """Neighbour indices of ``index`` under ``strategy`` (``"hamming"`` or
        ``"adjacent"``); :meth:`neighbors` is the dictionary view of this.

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

    def index_is_feasible(self, index: int) -> bool:
        """Constraint satisfaction of one index (no configuration dictionary).

        Element-wise equivalent to ``is_valid(config_at(index))`` for in-range
        indices (range membership is what dictionary membership checks establish).
        A single point is a pure-Python lookup in each truth table -- for one row
        far cheaper than the batch mask, and the same tables make the paths agree.
        """
        if not (0 <= index < self._cardinality):
            raise InvalidConfigurationError(
                f"index {index} out of range [0, {self._cardinality})")
        if not len(self._constraints):
            return True
        index = int(index)
        if self._feasible_memo() is not None:
            # The memoized feasible set answers membership from its packed
            # bitmap -- the verdict is identical by construction (the memo
            # holds exactly the constraint-satisfying indices).
            return bool(self._memo_test()(index))
        return self._index_test()(index)

    # ------------------------------------------------------------------- reduction

    def reduced(self, keep: Sequence[str],
                fixed: Mapping[str, Any] | None = None) -> "SearchSpace":
        """Reduced space keeping only the parameters in ``keep`` (Table VIII 'Reduced').

        The remaining parameters are frozen to the values in ``fixed`` (default: their
        declared defaults) and folded into the constraint evaluation, so the
        reduce-constrained count of Table VIII can be computed on the reduced space.
        Each constraint becomes its :meth:`~repro.core.constraints.Constraint.frozen`
        copy, whose truth table ranges over the kept parameters only (the frozen
        values are filled in while it is built), so reduced spaces count and sample
        as fast as full ones.
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

        reduced_constraints = ConstraintSet(c.frozen(fixed_values)
                                            for c in self._constraints)
        return SearchSpace(kept_params, reduced_constraints,
                           name=self.name + "_reduced" if self.name else "reduced")

    # --------------------------------------------------------------------- encoding

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

    def encode_indices(self, indices: np.ndarray | Sequence[int]) -> np.ndarray:
        """Index-native form of :meth:`encode_batch`: feature rows straight from the
        value columns, no configuration dictionaries.

        Numeric parameters contribute their value, all others their ordinal digit --
        element-wise identical to encoding the materialised configurations.
        """
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
        non-numeric parameters) -- exactly what :meth:`encode_indices` produces
        per coordinate -- padded to the widest radix.  The companion boolean mask
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

        Per parameter, the nearest value is the first minimum of ``|grid - x|``.
        All parameters are resolved in one vectorized pass over the padded
        encoded-value grid (padded cells are forced to infinite distance),
        element-wise identical to a per-parameter scan.
        """
        if len(vector) != self.dimensions:
            raise InvalidConfigurationError(
                f"vector has {len(vector)} entries, expected {self.dimensions}")
        grid, pad, buffer = self._decode_state()
        np.subtract(grid, np.asarray(vector, dtype=float)[:, None], out=buffer)
        np.abs(buffer, out=buffer)
        if pad is not None:
            buffer[pad] = np.inf
        return buffer.argmin(axis=1)

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

    def decode_index(self, vector: Sequence[float]) -> int:
        """Mixed-radix index of the member configuration nearest to ``vector``."""
        return int(self.decode_digits(vector) @ self._places)

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
