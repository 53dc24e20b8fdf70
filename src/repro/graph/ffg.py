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

Construction is pure index arithmetic on the cache's index column: two nodes are
Hamming-1 neighbours along a parameter when their indices differ by a digit offset
``d`` times that parameter's place value.  For each parameter and each offset ``d = 1
... v - 1``, the nodes whose digit plus ``d`` is still in range look up their
neighbour ``index + d * place`` in the sorted node-index table with one
:func:`numpy.searchsorted`, so every neighbour pair is searched once, from its lower
end -- no configuration dictionaries, no Python loop over nodes.  One fitness
comparison per found pair gives the edge its direction (equal fitness gives no edge).
Callers that want a node's configuration read ``space.configs_at(graph.indices)``.
One sort of the ``source * n + target`` keys lays the edges out in CSR order: sources
ascending and, within a source, targets ascending.
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


def _edges(space: Any, node_index: np.ndarray, fitness: np.ndarray) -> np.ndarray:
    """Sorted ``source * n + target`` keys of the improvement edges."""
    n = node_index.size
    order = np.argsort(node_index)
    sorted_index = node_index[order]
    digits = space.indices_to_digits(sorted_index)
    keys: list[np.ndarray] = []
    for j, place in enumerate(space.place_values):
        v = space.parameters[j].cardinality
        column = digits[:, j]
        for d in range(1, v):
            start = np.flatnonzero(column < v - d)
            wanted = sorted_index[start] + d * place
            pos = np.searchsorted(sorted_index, wanted)
            pos[pos == n] = 0
            found = sorted_index[pos] == wanted
            a, b = order[start[found]], order[pos[found]]
            fa, fb = fitness[a], fitness[b]
            down, up = fb < fa, fa < fb
            keys += [a[down] * n + b[down], b[up] * n + a[up]]
    if not keys:
        return np.empty(0, dtype=np.int64)
    out = np.concatenate(keys)
    out.sort()
    return out


def build_ffg(cache: EvaluationCache) -> FitnessFlowGraph:
    """Build the fitness flow graph of a campaign cache.

    The valid rows of ``cache`` become the nodes, in insertion order, identified by
    their space indices (:meth:`~repro.core.cache.EvaluationCache.valid_arrays`).
    Edges cost one sorted lookup per parameter and digit offset, over the nodes
    that offset keeps in range; the CSR arrays list each source's targets in
    ascending node order.
    """
    indices, fitness = cache.valid_arrays()
    if not indices.size:
        raise ReproError(f"cache {cache.benchmark}/{cache.gpu} has no valid entries")
    n = indices.size
    keys = _edges(cache.space, indices, fitness)
    sources = keys // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])
    return FitnessFlowGraph(indptr=indptr, targets=keys - sources * n,
                            fitness=fitness, indices=indices,
                            benchmark=cache.benchmark, gpu=cache.gpu)
