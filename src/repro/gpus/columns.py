"""Column helpers shared by the analytical models.

The models evaluate whole batches of configurations as NumPy columns and must stay
bit-identical to plain Python float arithmetic.  Arithmetic (``+ - * / //``,
``sqrt``, ``min``/``max``, ``ceil``, ``gcd``) maps one to one onto NumPy, but the
transcendental functions do not: NumPy's ``exp``/``log``/``power`` round differently
from :mod:`math` on a few percent of inputs.  :func:`per_value` therefore evaluates a
transcendental sub-expression with scalar :mod:`math` once per *distinct* input and
gathers the results back -- model inputs are parameter values (or products of
them), so there are only a handful of distinct values per column.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

__all__ = ["per_value", "int_column", "at"]


def per_value(fn: Callable[[Any], float], column: Any) -> np.ndarray:
    """``fn`` applied to each distinct value of ``column`` and gathered back.

    ``fn`` receives Python scalars (``int``/``float``), exactly what the scalar
    formula it implements would see.  A scalar ``column`` gives a NumPy scalar.
    """
    column = np.asarray(column)
    if column.size <= 1:
        table = np.array([fn(v) for v in column.ravel().tolist()], dtype=np.float64)
        return table.reshape(column.shape)[()]
    values, inverse = np.unique(column, return_inverse=True)
    table = np.array([fn(v) for v in values.tolist()], dtype=np.float64)
    return table[inverse].reshape(column.shape)


def int_column(columns: Mapping[str, Any], name: str) -> np.ndarray:
    """Parameter column ``name`` as ``int64`` (the column form of ``int(config[name])``)."""
    return np.asarray(columns[name]).astype(np.int64, copy=False)


def at(value: Any, i: int) -> Any:
    """Row ``i`` of a column, or ``value`` itself if it is a broadcast scalar."""
    return value[i] if np.ndim(value) else value
