"""Proportion-of-centrality study (paper Fig. 3).

The paper computes the proportion-of-centrality search-difficulty metric for the
benchmarks whose exhaustive campaigns are affordable -- GEMM, Convolution and Pnpoly --
on each of the four GPUs, and observes that local search should fare better on
Convolution than on GEMM and Pnpoly.  This module wraps the graph substrate to produce
exactly that study from campaign caches.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.cache import EvaluationCache
from repro.graph.centrality import DEFAULT_PROPORTIONS, CentralityReport, proportion_of_centrality

__all__ = ["centrality_study", "CENTRALITY_BENCHMARKS"]

#: Benchmarks for which the paper reports Fig. 3 (exhaustive data small enough).
CENTRALITY_BENCHMARKS: tuple[str, ...] = ("gemm", "convolution", "pnpoly")


def centrality_study(caches: Mapping[tuple[str, str], EvaluationCache],
                     benchmark_names: Sequence[str] = CENTRALITY_BENCHMARKS,
                     proportions: Sequence[float] = DEFAULT_PROPORTIONS
                     ) -> dict[tuple[str, str], CentralityReport]:
    """Fig. 3: proportion of centrality for the selected benchmarks on every GPU.

    Parameters
    ----------
    caches:
        Campaign caches keyed by (benchmark, GPU).
    benchmark_names:
        Which benchmarks to analyse (the paper's three by default; the huge sampled
        campaigns are excluded exactly as the paper excludes them for lack of
        resources).
    proportions:
        Forwarded to :func:`repro.graph.centrality.proportion_of_centrality`.
    """
    selected = {key: cache for key, cache in caches.items() if key[0] in set(benchmark_names)}
    return {key: proportion_of_centrality(cache, proportions=proportions)
            for key, cache in selected.items()}
