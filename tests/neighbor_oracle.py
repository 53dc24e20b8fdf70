"""Dictionary references for neighbourhoods and fitness-flow-graph edges.

The library computes both on space indices: ``SearchSpace.neighbor_indices`` by
digit arithmetic (``SearchSpace.neighbors`` is its dictionary view) and
``repro.graph.ffg.build_ffg`` by digit offsets against a sorted node-index table.
The functions here are the per-parameter dictionary implementations those replaced,
kept as the only independent witnesses of what the index kernels must return:

* :func:`oracle_neighbors` -- one candidate dictionary per other value
  (:func:`all_other_values` or :func:`adjacent_values`), each checked with
  the scalar ``ConstraintSet.is_satisfied``;
* :func:`oracle_ffg` -- the hash-map edge construction: the node list keyed by
  ``config_key``, one probe per Hamming-1 neighbour of every node.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.errors import InvalidConfigurationError
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace, config_key


def all_other_values(p: Parameter, value: Any) -> tuple[Any, ...]:
    """All allowed values of ``p`` except ``value`` (the Hamming-distance-1 neighbourhood)."""
    i = p.index_of(value)
    return p.values[:i] + p.values[i + 1:]


def adjacent_values(p: Parameter, value: Any) -> tuple[Any, ...]:
    """The values one step below and above ``value`` in ``p``'s declared order."""
    i = p.index_of(value)
    return p.values[max(i - 1, 0):i] + p.values[i + 1:i + 2]


def oracle_neighbors(space: SearchSpace, config: Mapping[str, Any],
                     strategy: str = "hamming",
                     valid_only: bool = True) -> list[dict[str, Any]]:
    """Configurations one parameter change away from ``config``, in candidate order
    (parameters in declaration order, other values in declared order)."""
    space.validate_membership(config)
    if strategy not in ("hamming", "adjacent"):
        raise InvalidConfigurationError(
            f"unknown neighbourhood strategy {strategy!r} (use 'hamming' or 'adjacent')")
    out: list[dict[str, Any]] = []
    for p in space.parameters:
        current = config[p.name]
        others = (all_other_values(p, current) if strategy == "hamming"
                  else adjacent_values(p, current))
        for value in others:
            neighbor = dict(config)
            neighbor[p.name] = value
            if not valid_only or space.constraints.is_satisfied(neighbor):
                out.append(neighbor)
    return out


def oracle_ffg(space: SearchSpace, configs: Sequence[Mapping[str, Any]],
               fitness: np.ndarray) -> set[tuple[int, int]]:
    """Improvement edges ``(i, j)``: node ``j`` is a Hamming-1 neighbour of node
    ``i`` present in ``configs`` with strictly lower fitness."""
    node_of = {config_key(c): i for i, c in enumerate(configs)}
    edges: set[tuple[int, int]] = set()
    for i, config in enumerate(configs):
        for neighbor in oracle_neighbors(space, config, "hamming", valid_only=False):
            j = node_of.get(config_key(neighbor))
            if j is not None and fitness[j] < fitness[i]:
                edges.add((i, j))
    return edges
