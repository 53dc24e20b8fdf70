"""Tunable parameter definitions.

Every BAT 2.0 benchmark exposes its tuning knobs as *discrete, ordered* parameters --
e.g. a thread-block dimension that may take the values ``{16, 32, 64, 128}`` or a
boolean switch ``{0, 1}``.  The order of the values matters for two reasons:

* local-search neighbourhoods and the fitness-flow graph (Fig. 3 of the paper) are
  defined in terms of "adjacent" values;
* mixed-radix indexing of the Cartesian product (used for exhaustive enumeration and
  reproducible random sampling of enormous spaces such as Dedispersion's 1.2e8
  configurations) requires a stable per-parameter ordering.

The class is deliberately value-type agnostic: GPU tuning parameters are almost always
integers, but strings (e.g. algorithm selectors) and floats are supported as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.errors import InvalidConfigurationError

__all__ = ["Parameter"]


@dataclass(frozen=True)
class Parameter:
    """A single tunable parameter with a finite, ordered list of allowed values.

    Parameters
    ----------
    name:
        Identifier used as the key in configuration dictionaries (e.g. ``"block_size_x"``).
    values:
        Ordered sequence of allowed values.  Duplicates are rejected.
    default:
        The value used when a configuration does not mention this parameter (for
        reduced-space studies, Table VIII).  Defaults to the first value.
    description:
        Free-form human description, mirrored from the paper's parameter tables.

    Examples
    --------
    >>> p = Parameter("block_size_x", [32, 64, 128, 256])
    >>> p.cardinality
    4
    >>> p.index_of(128)
    2
    """

    name: str
    values: tuple[Any, ...]
    default: Any = None
    description: str = ""
    _index: dict[Any, int] = field(init=False, repr=False, compare=False, hash=False,
                                   default_factory=dict)

    def __init__(self, name: str, values: Sequence[Any], default: Any = None,
                 description: str = ""):
        if not name or not isinstance(name, str):
            raise InvalidConfigurationError("parameter name must be a non-empty string")
        vals = tuple(values)
        if len(vals) == 0:
            raise InvalidConfigurationError(
                f"parameter {name!r} must have at least one allowed value")
        if len(set(vals)) != len(vals):
            raise InvalidConfigurationError(
                f"parameter {name!r} has duplicate values: {vals}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "default", vals[0] if default is None else default)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(vals)})
        if self.default not in self._index:
            raise InvalidConfigurationError(
                f"default {self.default!r} of parameter {name!r} is not an allowed value")

    # ------------------------------------------------------------------ basic queries

    @property
    def cardinality(self) -> int:
        """Number of allowed values."""
        return len(self.values)

    @property
    def is_numeric(self) -> bool:
        """True if every allowed value is an int/float (bool counts as numeric).

        Computed once and cached (the value tuple is frozen): the encoded-space
        codecs consult this per parameter on per-candidate hot paths.
        """
        cached = self.__dict__.get("_is_numeric")
        if cached is None:
            cached = all(isinstance(v, (int, float, np.integer, np.floating))
                         for v in self.values)
            object.__setattr__(self, "_is_numeric", cached)
        return cached

    def __contains__(self, value: Any) -> bool:
        return value in self._index

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __hash__(self) -> int:  # frozen dataclass with unhashable dict field
        return hash((self.name, self.values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Parameter):
            return NotImplemented
        return self.name == other.name and self.values == other.values

    # ------------------------------------------------------------- index <-> value maps

    def index_of(self, value: Any) -> int:
        """Return the position of ``value`` in the ordered value list.

        Raises
        ------
        InvalidConfigurationError
            If ``value`` is not an allowed value of this parameter.
        """
        try:
            return self._index[value]
        except KeyError:
            raise InvalidConfigurationError(
                f"{value!r} is not an allowed value of parameter {self.name!r} "
                f"(allowed: {self.values})") from None

    def value_at(self, index: int) -> Any:
        """Return the value at ``index`` (supports negative indices like a tuple)."""
        try:
            return self.values[index]
        except IndexError:
            raise InvalidConfigurationError(
                f"index {index} out of range for parameter {self.name!r} "
                f"with {self.cardinality} values") from None

    # ------------------------------------------------------------------------ sampling

    def sample(self, rng: np.random.Generator) -> Any:
        """Draw one allowed value uniformly at random."""
        return self.values[int(rng.integers(0, len(self.values)))]

    def sample_index(self, rng: np.random.Generator) -> int:
        """Draw the index of an allowed value uniformly at random."""
        return int(rng.integers(0, len(self.values)))

    # ------------------------------------------------------------------ columnar views

    def values_array(self) -> np.ndarray:
        """The allowed values as a NumPy array suitable for batch column math.

        Numeric parameters use their natural dtype (``int64``/``float64``) so that
        value columns (feature encoding, the analytical model) compute exactly like
        the scalar path; all other value types fall back to ``object`` arrays, which
        preserve the original Python objects element-wise.  The array is built once and cached (the class is
        frozen, so the value tuple can never change).
        """
        cached = self.__dict__.get("_values_array")
        if cached is None:
            if self.is_numeric:
                cached = np.asarray(self.values)
            else:
                cached = np.empty(len(self.values), dtype=object)
                cached[:] = self.values
            cached.setflags(write=False)
            object.__setattr__(self, "_values_array", cached)
        return cached

    def values_object_array(self) -> np.ndarray:
        """The allowed values as an ``object`` array holding the original objects.

        Indexing this array with a digit vector yields the exact Python values the
        parameter was declared with (no NumPy scalar wrapping), which is what
        configuration dictionaries handed to users and serializers must contain.
        """
        cached = self.__dict__.get("_values_object_array")
        if cached is None:
            cached = np.empty(len(self.values), dtype=object)
            cached[:] = self.values
            cached.setflags(write=False)
            object.__setattr__(self, "_values_object_array", cached)
        return cached

    def digits_of(self, values: Sequence[Any]) -> np.ndarray:
        """Vector form of :meth:`index_of`: map many values to their digit positions."""
        try:
            return np.fromiter(map(self._index.__getitem__, values), dtype=np.int64,
                               count=len(values))
        except KeyError as exc:
            raise InvalidConfigurationError(
                f"{exc.args[0]!r} is not an allowed value of parameter {self.name!r} "
                f"(allowed: {self.values})") from None

    # ---------------------------------------------------------------------- encoding

    def numeric_values(self) -> np.ndarray:
        """Return the allowed values as a float array (ordinal positions for strings).

        Used by the ML substrate to encode configurations as feature vectors and
        by the encoded-space codecs of :class:`~repro.core.searchspace.SearchSpace`.
        Built once and cached read-only (the class is frozen), so per-candidate
        decode/encode in the population tuners never re-materialises it.
        """
        cached = self.__dict__.get("_numeric_values")
        if cached is None:
            if self.is_numeric:
                cached = np.asarray(self.values, dtype=float)
            else:
                cached = np.arange(len(self.values), dtype=float)
            cached.setflags(write=False)
            object.__setattr__(self, "_numeric_values", cached)
        return cached

    def encode(self, value: Any) -> float:
        """Encode one value as a float feature (the value itself, or its ordinal)."""
        if self.is_numeric:
            return float(value) if value in self._index else float(self.values[self.index_of(value)])
        return float(self.index_of(value))

    # ------------------------------------------------------------------- serialization

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable description of the parameter."""
        return {
            "name": self.name,
            "values": list(self.values),
            "default": self.default,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Parameter":
        """Inverse of :meth:`to_dict`."""
        return cls(name=data["name"], values=data["values"],
                   default=data.get("default"), description=data.get("description", ""))

    # -------------------------------------------------------------------------- repr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        vals = ", ".join(repr(v) for v in self.values[:6])
        if self.cardinality > 6:
            vals += f", ... ({self.cardinality} values)"
        return f"Parameter({self.name!r}, [{vals}])"
