"""Configuration performance distributions (paper Fig. 1).

Fig. 1 plots, for every benchmark and GPU, the distribution of configuration
performance *centred around the median configuration* and extending from the worst to
the best configuration.  We express each configuration's performance relative to the
median configuration (``median_runtime / runtime``): 1.0 is the median, values above 1
are faster than the median (the best configuration sits at the maximum, which equals
the Fig. 4 speedup), values below 1 are slower.

The summary captures everything needed to reproduce the figure as numbers: histogram
(density over relative performance), percentiles, and the shape diagnostics the paper
discusses (the fraction of configurations within 5% of the optimum, which is what makes
Hotspot's "cluster of very highly performing configurations" visible, and the skewness
of the distribution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.errors import ReproError

__all__ = ["DistributionSummary", "distribution_summary"]

#: Bins of the Fig. 1 relative-performance histogram.
HISTOGRAM_BINS = 50


@dataclass
class DistributionSummary:
    """Distribution of configuration performance for one (benchmark, GPU) campaign.

    All "relative performance" quantities are ``median_runtime / runtime`` (higher is
    better, median = 1.0).
    """

    benchmark: str
    gpu: str
    num_configs: int
    best_ms: float
    median_ms: float
    worst_ms: float
    relative_performance: np.ndarray
    histogram_edges: np.ndarray
    histogram_density: np.ndarray
    percentiles: dict[int, float]
    fraction_within_5pct_of_best: float
    fraction_within_10pct_of_best: float
    skewness: float

    @property
    def max_speedup_over_median(self) -> float:
        """Speedup of the best configuration over the median one (ties to Fig. 4)."""
        return self.median_ms / self.best_ms

    @property
    def worst_slowdown_vs_median(self) -> float:
        """How much slower than the median the worst configuration is."""
        return self.worst_ms / self.median_ms

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly summary (histogram arrays as lists)."""
        return {
            "benchmark": self.benchmark,
            "gpu": self.gpu,
            "num_configs": self.num_configs,
            "best_ms": self.best_ms,
            "median_ms": self.median_ms,
            "worst_ms": self.worst_ms,
            "max_speedup_over_median": self.max_speedup_over_median,
            "worst_slowdown_vs_median": self.worst_slowdown_vs_median,
            "percentiles": dict(self.percentiles),
            "fraction_within_5pct_of_best": self.fraction_within_5pct_of_best,
            "fraction_within_10pct_of_best": self.fraction_within_10pct_of_best,
            "skewness": self.skewness,
            "histogram_edges": self.histogram_edges.tolist(),
            "histogram_density": self.histogram_density.tolist(),
        }


def distribution_summary(cache: EvaluationCache) -> DistributionSummary:
    """Compute the Fig. 1 distribution summary of one campaign cache."""
    runtimes = cache.values(valid_only=True)
    if runtimes.size == 0:
        raise ReproError(f"cache {cache.benchmark}/{cache.gpu} has no valid entries")

    median = float(np.median(runtimes))
    relative = median / runtimes

    density, edges = np.histogram(relative, bins=HISTOGRAM_BINS, density=True)
    centred = relative - relative.mean()
    std = float(relative.std())
    skewness = float(np.mean(centred ** 3) / std ** 3) if std > 0 else 0.0

    best = float(runtimes.min())
    within_5 = float(np.mean(runtimes <= 1.05 * best))
    within_10 = float(np.mean(runtimes <= 1.10 * best))

    percentiles = {p: float(np.percentile(relative, p)) for p in (1, 5, 25, 50, 75, 95, 99)}

    return DistributionSummary(
        benchmark=cache.benchmark,
        gpu=cache.gpu,
        num_configs=int(runtimes.size),
        best_ms=best,
        median_ms=median,
        worst_ms=float(runtimes.max()),
        relative_performance=relative,
        histogram_edges=edges,
        histogram_density=density,
        percentiles=percentiles,
        fraction_within_5pct_of_best=within_5,
        fraction_within_10pct_of_best=within_10,
        skewness=skewness,
    )
