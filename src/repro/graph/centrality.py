"""Proportion-of-centrality search-difficulty metric (paper Sec. II-B2, Fig. 3).

The metric of Schoonhoven et al. quantifies how hard a search space is for local
search: build the fitness flow graph, compute PageRank (the expected arrival
distribution of a randomised first-improvement local search), and measure what fraction
of the arrival mass that lands on local minima lands on *suitably good* ones -- minima
whose fitness is within ``(1 + p)`` of the optimum for a minimisation problem.  A value
near 1 means local search almost always ends up somewhere good (easy landscape); a
value near 0 means most basins of attraction lead to poor minima (hard landscape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


from repro.core.cache import EvaluationCache
from repro.core.errors import ReproError
from repro.graph.ffg import FitnessFlowGraph, build_ffg
from repro.graph.pagerank import pagerank

__all__ = ["CentralityReport", "proportion_of_centrality"]

#: Proportions used in the paper's Fig. 3 (fraction above the optimal runtime).
DEFAULT_PROPORTIONS: tuple[float, ...] = (0.01, 0.02, 0.05, 0.10, 0.20, 0.50)


@dataclass
class CentralityReport:
    """Proportion-of-centrality values of one (benchmark, GPU) landscape.

    Attributes
    ----------
    proportions:
        The ``p`` values evaluated.
    values:
        Metric value per ``p`` (same order).
    num_nodes / num_edges / num_minima:
        Size of the underlying fitness flow graph.
    benchmark / gpu:
        Provenance.
    """

    proportions: tuple[float, ...]
    values: tuple[float, ...]
    num_nodes: int
    num_edges: int
    num_minima: int
    benchmark: str = ""
    gpu: str = ""

    def as_dict(self) -> dict[float, float]:
        """Mapping of proportion to metric value."""
        return dict(zip(self.proportions, self.values))

    def value_at(self, proportion: float) -> float:
        """Metric value at one proportion (must be one of the evaluated ones)."""
        mapping = self.as_dict()
        if proportion not in mapping:
            raise ReproError(f"proportion {proportion} was not evaluated "
                             f"(available: {sorted(mapping)})")
        return mapping[proportion]


def proportion_of_centrality(cache: EvaluationCache,
                             proportions: Sequence[float] = DEFAULT_PROPORTIONS,
                             damping: float = 0.85,
                             ffg: FitnessFlowGraph | None = None) -> CentralityReport:
    """Compute the proportion-of-centrality metric for a campaign cache.

    Parameters
    ----------
    cache:
        Exhaustive (preferred) or sampled campaign data.
    proportions:
        The ``p`` values of the "suitably good" band ``fitness <= (1 + p) * optimum``.
    damping:
        PageRank damping factor.
    ffg:
        A pre-built fitness flow graph (to amortise graph construction across calls);
        built from the cache when omitted.
    """
    graph = ffg if ffg is not None else build_ffg(cache)
    ranks = pagerank(graph.csr_arrays(), damping=damping)
    minima = graph.local_minima()
    if minima.size == 0:
        raise ReproError("fitness flow graph has no local minima; "
                         "was the cache empty or degenerate?")
    minima_mass = float(ranks[minima].sum())

    values: list[float] = []
    for p in proportions:
        good = graph.minima_within(float(p))
        good_mass = float(ranks[good].sum())
        values.append(good_mass / minima_mass if minima_mass > 0 else 0.0)

    return CentralityReport(
        proportions=tuple(float(p) for p in proportions),
        values=tuple(values),
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_minima=int(minima.size),
        benchmark=cache.benchmark or graph.benchmark,
        gpu=cache.gpu or graph.gpu,
    )
