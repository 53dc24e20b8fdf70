"""PageRank by power iteration on a CSR adjacency structure.

PageRank gives the stationary distribution of a random surfer who follows a random
outgoing edge with probability ``damping`` and teleports uniformly otherwise; nodes
without outgoing edges (the local minima of a fitness flow graph) redistribute their
mass uniformly.  On the FFG this stationary mass is the "expected proportion of
arrivals" the proportion-of-centrality metric is built on.

The adjacency is a CSR ``(indptr, indices[, data])`` tuple, as
:meth:`repro.graph.ffg.FitnessFlowGraph.csr_arrays` returns it (unweighted without
``data``).  Each step is one :func:`numpy.bincount` over the edges in CSR order, and
the ranks are byte-identical to the SciPy power iteration this replaced
(``tests/pagerank_oracle.py``).  SciPy's ``(diags(inv) @ A).T.tocsr()`` matvec adds,
for each target, ``inv[i] * a_ij * rank[i]`` over its sources ``i`` in ascending order
from 0.0; ``bincount`` over the row-major CSR adds the same products in the same order
(with unit weights, ``inv[i] * rank[i]``: scaled per node, then gathered).  Out-degrees
are ``np.add.reduceat`` over the non-empty rows, the reduction ``A.sum(axis=1)`` makes
(a ``bincount`` adds long rows in another order).  ``indices`` is cast to ``intp`` once,
as ``bincount`` would convert an int32 array on every call, and ``(1.0 - damping) *
teleport`` is hoisted out of the loop: the same expression, so the same bits.
Duplicate ``(i, j)`` entries count as parallel edges (SciPy merged them first, so
there the two may differ in the last bit).
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ReproError

__all__ = ["pagerank"]


def _csr(adjacency: tuple) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(n, indptr, indices, data)`` of a CSR tuple, refusing malformed structure."""
    if not isinstance(adjacency, tuple) or len(adjacency) not in (2, 3):
        raise ReproError("adjacency must be a CSR (indptr, indices[, data]) tuple")
    indptr, indices = np.asarray(adjacency[0]), np.asarray(adjacency[1])
    n, m = indptr.size - 1, indices.size
    if indptr.ndim != 1 or indices.ndim != 1 or indptr.dtype.kind not in "iu" or (
            m and indices.dtype.kind not in "iu"):
        raise ReproError("CSR indptr and indices must be 1-D integer arrays")
    if n < 1:
        raise ReproError("cannot compute PageRank of an empty graph")
    if indptr[0] != 0 or indptr[-1] != m or np.any(indptr[1:] < indptr[:-1]):
        raise ReproError(f"CSR indptr must rise from 0 to len(indices) = {m}")
    if m and (indices.min() < 0 or indices.max() >= n):
        raise ReproError(f"CSR indices must lie in [0, {n})")
    data = np.ones(m) if len(adjacency) == 2 else np.asarray(adjacency[2], dtype=float)
    if data.shape != (m,) or not np.isfinite(data).all():
        raise ReproError(f"CSR data must hold {m} finite edge weights")
    return n, indptr, indices.astype(np.intp, copy=False), data


def pagerank(adjacency: tuple, damping: float = 0.85,
             tol: float = 1e-10, max_iterations: int = 200,
             personalization: np.ndarray | None = None) -> np.ndarray:
    """PageRank vector of a directed graph given its adjacency structure.

    Parameters
    ----------
    adjacency:
        CSR ``(indptr, indices[, data])`` tuple of an ``n``-node graph: ``data[k]``
        is the weight of the edge from ``i`` to ``indices[k]`` for ``indptr[i] <= k <
        indptr[i + 1]`` (edges unweighted when ``data`` is omitted).
    damping:
        Probability of following an edge instead of teleporting (the classic 0.85).
    tol:
        L1 convergence threshold on successive iterates.
    max_iterations:
        Hard cap on power-iteration steps.
    personalization:
        Optional teleport distribution (uniform if omitted).

    Returns
    -------
    np.ndarray
        The PageRank scores, normalised to sum to 1.
    """
    if not (0.0 < damping < 1.0):
        raise ReproError(f"damping must lie in (0, 1), got {damping}")
    n, indptr, targets, data = _csr(adjacency)
    counts = np.diff(indptr)
    sources = np.repeat(np.arange(n), counts)
    # Row-normalise the transition weights; dangling rows are handled separately.
    rows = np.flatnonzero(counts)
    out_degree = np.zeros(n)
    out_degree[rows] = np.add.reduceat(data, indptr[rows])
    dangling = out_degree == 0.0
    inv_degree = np.zeros(n)
    inv_degree[~dangling] = 1.0 / out_degree[~dangling]
    transition = inv_degree[sources] * data
    unit = bool((data == 1.0).all())

    if personalization is None:
        teleport = np.full(n, 1.0 / n)
    else:
        teleport = np.asarray(personalization, dtype=float).ravel()
        if teleport.shape[0] != n or teleport.sum() <= 0:
            raise ReproError("personalization must be a positive vector of length n")
        teleport = teleport / teleport.sum()
    restart = (1.0 - damping) * teleport

    rank = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        dangling_mass = float(rank[dangling].sum())
        mass = (inv_degree * rank)[sources] if unit else transition * rank[sources]
        flow = np.bincount(targets, weights=mass, minlength=n)
        new_rank = damping * flow + damping * dangling_mass * teleport + restart
        new_rank /= new_rank.sum()
        if np.abs(new_rank - rank).sum() < tol:
            return new_rank
        rank = new_rank
    return rank
