"""Fitness flow graph (FFG).

The FFG of Schoonhoven et al. contains every evaluated point of the search space as a
node and a directed edge from a point to each of its neighbours that has *strictly
lower* fitness (shorter runtime).  A random walk on this graph mimics a randomised
first-improvement local search: from any point, the walk moves to a random improving
neighbour until it reaches a node with no outgoing edges -- a local minimum.

The graph is built from an :class:`~repro.core.cache.EvaluationCache`: nodes are the
cache's valid rows, identified by their space indices, and the neighbourhood is Hamming
distance 1 restricted to configurations that are themselves present in the cache (for
exhaustive caches this is the true neighbourhood; for sampled caches it is the induced
subgraph, which is how the metric degrades gracefully when exhaustive data is
unavailable).

Construction is pure index arithmetic on the cache's index column: the Hamming-1
neighbours of a node along a parameter are its index plus a digit offset times that
parameter's place value.  Candidate neighbour indices for *all* nodes and all values of
a parameter form one ``(n, v)`` matrix that is resolved against the sorted node-index
table with a single :func:`numpy.searchsorted` -- no configuration dictionaries, no
Python inner loops.  Callers that want a node's configuration read
``space.configs_at(graph.indices)``.  The edges come out as one sorted run of sources
per parameter, so one stable sort groups them into the CSR arrays the graph keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.errors import ReproError

__all__ = ["FitnessFlowGraph", "build_ffg"]


@dataclass
class FitnessFlowGraph:
    """A fitness flow graph over an evaluated search space.

    Attributes
    ----------
    indptr / targets:
        The edges in CSR form (``int64``): node ``i`` has a directed edge to each
        strictly-better neighbour in ``targets[indptr[i]:indptr[i + 1]]``.
    fitness:
        Runtime of each node (lower is better).
    indices:
        The space index of each node (``int64``); ``space.configs_at(indices)`` are
        the node configurations.
    benchmark / gpu:
        Provenance of the underlying cache.
    """

    indptr: np.ndarray
    targets: np.ndarray
    fitness: np.ndarray
    indices: np.ndarray
    benchmark: str = ""
    gpu: str = ""

    @property
    def num_nodes(self) -> int:
        """Number of nodes (evaluated valid configurations)."""
        return int(self.fitness.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of directed improvement edges."""
        return int(self.targets.size)

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR ``(indptr, targets)`` pair :func:`repro.graph.pagerank.pagerank` takes."""
        return self.indptr, self.targets

    def out_degrees(self) -> np.ndarray:
        """Number of improving neighbours of every node (one ``indptr`` difference)."""
        return np.diff(self.indptr)

    def local_minima(self) -> np.ndarray:
        """Indices of nodes with no improving neighbour (the walk's absorbing states)."""
        return np.nonzero(self.out_degrees() == 0)[0]

    def minima_within(self, proportion: float) -> np.ndarray:
        """Local minima whose fitness is within ``(1 + proportion)`` of the optimum."""
        if proportion < 0:
            raise ReproError("proportion must be non-negative")
        minima = self.local_minima()
        threshold = (1.0 + proportion) * float(self.fitness.min())
        return minima[self.fitness[minima] <= threshold]


def _edges(space: Any, node_index: np.ndarray,
           fitness: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Improvement edges by digit-offset arithmetic against a sorted index table."""
    n = node_index.size
    digits = space.indices_to_digits(node_index)
    places = np.asarray(space.place_values, dtype=np.int64)

    order = np.argsort(node_index, kind="stable")
    sorted_index = node_index[order]

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for j, parameter in enumerate(space.parameters):
        v = parameter.cardinality
        if v < 2:
            continue
        own_digit = digits[:, j][:, None]                       # (n, 1)
        all_digits = np.arange(v, dtype=np.int64)[None, :]      # (1, v)
        candidates = node_index[:, None] + (all_digits - own_digit) * places[j]
        pos = np.searchsorted(sorted_index, candidates)
        pos[pos == n] = 0
        neighbor = order[pos]                                   # node id where found
        found = (sorted_index[pos] == candidates) & (all_digits != own_digit)
        improving = found & (fitness[neighbor] < fitness[:, None])
        r, c = np.nonzero(improving)
        rows.append(r)
        cols.append(neighbor[r, c])
    if rows:
        return np.concatenate(rows), np.concatenate(cols)
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


def build_ffg(cache: EvaluationCache) -> FitnessFlowGraph:
    """Build the fitness flow graph of a campaign cache.

    The valid rows of ``cache`` become the nodes, in insertion order, identified by
    their space indices (:meth:`~repro.core.cache.EvaluationCache.valid_arrays`).
    Edges cost one ``(n, v)`` index block and one sorted lookup per parameter.
    """
    indices, fitness = cache.valid_arrays()
    if not indices.size:
        raise ReproError(f"cache {cache.benchmark}/{cache.gpu} has no valid entries")
    rows, cols = _edges(cache.space, indices, fitness)
    indptr = np.zeros(indices.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=indices.size), out=indptr[1:])
    return FitnessFlowGraph(indptr=indptr, targets=cols[np.argsort(rows, kind="stable")],
                            fitness=fitness, indices=indices,
                            benchmark=cache.benchmark, gpu=cache.gpu)
