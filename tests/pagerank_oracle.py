"""SciPy power iteration, the reference for ``repro.graph.pagerank``.

The library's PageRank runs on NumPy alone: one ``np.bincount`` per step over the CSR
edges.  The :func:`pagerank` here is the ``scipy.sparse`` power iteration it replaced,
kept verbatim as the witness the library must equal byte for byte on every graph
without duplicate ``(i, j)`` entries.  SciPy is a test dependency only.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.errors import ReproError

#: Accepted array-native adjacency form: (indptr, indices) or (indptr, indices, data).
CsrArrays = tuple


def _as_csr(adjacency: sparse.spmatrix | CsrArrays) -> sparse.csr_matrix:
    """Normalise the adjacency input to a float64 CSR matrix."""
    if isinstance(adjacency, tuple):
        if len(adjacency) == 2:
            indptr, indices = adjacency
            data = np.ones(len(indices), dtype=np.float64)
        elif len(adjacency) == 3:
            indptr, indices, data = adjacency
        else:
            raise ReproError(
                "CSR adjacency tuple must be (indptr, indices) or (indptr, indices, data)")
        n = len(indptr) - 1
        return sparse.csr_matrix((np.asarray(data, dtype=np.float64),
                                  np.asarray(indices), np.asarray(indptr)), shape=(n, n))
    return sparse.csr_matrix(adjacency, dtype=np.float64)


def pagerank(adjacency: sparse.spmatrix | CsrArrays, damping: float = 0.85,
             tol: float = 1e-10, max_iterations: int = 200,
             personalization: np.ndarray | None = None) -> np.ndarray:
    """PageRank vector of a directed graph given its adjacency structure.

    Parameters
    ----------
    adjacency:
        ``(n, n)`` sparse matrix -- entry ``(i, j)`` is the weight of the edge
        ``i -> j`` -- or a raw CSR ``(indptr, indices[, data])`` tuple (edges
        unweighted when ``data`` is omitted).
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
    A = _as_csr(adjacency)
    n = A.shape[0]
    if n == 0:
        raise ReproError("cannot compute PageRank of an empty graph")
    if A.shape[0] != A.shape[1]:
        raise ReproError(f"adjacency must be square, got {A.shape}")

    out_degree = np.asarray(A.sum(axis=1)).ravel()
    dangling = out_degree == 0.0

    # Row-normalise the transition matrix; dangling rows are handled separately.  The
    # transpose is converted to CSR once so the per-iteration product is row-major.
    inv_degree = np.zeros(n)
    inv_degree[~dangling] = 1.0 / out_degree[~dangling]
    transition_t = (sparse.diags(inv_degree) @ A).T.tocsr()

    if personalization is None:
        teleport = np.full(n, 1.0 / n)
    else:
        teleport = np.asarray(personalization, dtype=float).ravel()
        if teleport.shape[0] != n or teleport.sum() <= 0:
            raise ReproError("personalization must be a positive vector of length n")
        teleport = teleport / teleport.sum()

    rank = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        dangling_mass = float(rank[dangling].sum())
        new_rank = (damping * (transition_t @ rank)
                    + damping * dangling_mass * teleport
                    + (1.0 - damping) * teleport)
        new_rank /= new_rank.sum()
        if np.abs(new_rank - rank).sum() < tol:
            rank = new_rank
            break
        rank = new_rank
    return rank
