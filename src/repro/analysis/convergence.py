"""Random-search convergence curves (paper Fig. 2).

Fig. 2 plots the relative performance of the best configuration found so far
(``optimum / best_so_far``, so 1.0 means the optimum has been found) against the number
of function evaluations, where the evaluations are uniform random draws from the
campaign data and the curve is the *median over 100 repetitions*.

The computation is vectorised: one NumPy matrix of shape (repetitions, budget) holds
the randomly permuted runtimes, a running minimum along the budget axis gives every
repetition's trajectory at once, and the median across repetitions gives the curve.

:func:`tuner_convergence` produces the same curve shape from *real* optimizer runs
replayed against a campaign cache (the tuner-ablation companion of the random-search
curve): the replay problems answer through the cache's columnar index table and the
tuners run index-native, so 100-repetition campaigns cost milliseconds, not minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.errors import ReproError

__all__ = ["ConvergenceCurve", "random_search_convergence", "tuner_convergence",
           "evaluations_to_reach"]


@dataclass
class ConvergenceCurve:
    """Median random-search convergence of one (benchmark, GPU) campaign.

    Attributes
    ----------
    evaluations:
        1-based evaluation counts (x axis).
    median_relative_performance:
        Median over repetitions of ``optimum / best_so_far`` after that many
        evaluations (y axis).
    quartile_low / quartile_high:
        25th and 75th percentile trajectories (the spread across repetitions).
    repetitions / budget:
        Experiment size.
    """

    benchmark: str
    gpu: str
    evaluations: np.ndarray
    median_relative_performance: np.ndarray
    quartile_low: np.ndarray
    quartile_high: np.ndarray
    repetitions: int
    budget: int
    optimum_ms: float

    def evaluations_to_reach(self, threshold: float) -> int | None:
        """Evaluations needed for the median curve to reach ``threshold``, or None."""
        hits = np.nonzero(self.median_relative_performance >= threshold)[0]
        return int(self.evaluations[hits[0]]) if hits.size else None

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly representation."""
        return {
            "benchmark": self.benchmark,
            "gpu": self.gpu,
            "repetitions": self.repetitions,
            "budget": self.budget,
            "optimum_ms": self.optimum_ms,
            "evaluations": self.evaluations.tolist(),
            "median_relative_performance": self.median_relative_performance.tolist(),
        }


def random_search_convergence(cache: EvaluationCache, repetitions: int = 100,
                              budget: int | None = None,
                              seed: int = 0) -> ConvergenceCurve:
    """Simulate repeated random search over a campaign cache (the paper's Fig. 2).

    Parameters
    ----------
    cache:
        Campaign data (exhaustive or sampled).
    repetitions:
        Number of independent random-search runs (paper: 100).
    budget:
        Evaluations per run; defaults to the number of valid configurations, capped at
        1000 (the x-range of the paper's plots).
    seed:
        Seed of the permutation generator.
    """
    runtimes = cache.values(valid_only=True)
    if runtimes.size == 0:
        raise ReproError(f"cache {cache.benchmark}/{cache.gpu} has no valid entries")
    if repetitions < 1:
        raise ReproError("repetitions must be at least 1")

    n = runtimes.size
    if budget is None:
        budget = min(n, 1000)
    budget = int(min(budget, n))
    optimum = float(runtimes.min())

    rng = np.random.default_rng(seed)
    # Sampling without replacement per repetition: one permutation each.
    trajectories = np.empty((repetitions, budget))
    for r in range(repetitions):
        order = rng.permutation(n)[:budget]
        trajectories[r] = np.minimum.accumulate(runtimes[order])

    return _curve(cache, optimum / trajectories, optimum)


def tuner_convergence(cache: EvaluationCache, tuner_factory: Callable[..., object],
                      repetitions: int = 100, budget: int = 100,
                      base_seed: int = 0) -> ConvergenceCurve:
    """Convergence of a *real* optimizer replayed against a campaign cache.

    The tuner-ablation twin of :func:`random_search_convergence`: each repetition
    runs ``tuner_factory()`` for ``budget`` evaluations on a fresh cache-replay
    problem (seeded ``base_seed + repetition``), and the best-so-far traces are
    aggregated into the same median/quartile curve shape.  The replay problems
    answer through the cache's columnar index table and the tuners drive the
    index-native runtime, so a 100-repetition campaign is dominated by the
    optimizer logic itself rather than dictionary plumbing.

    Configurations missing from a sampled cache count as failed launches instead
    of raising (``to_problem(strict=False)``), which is what lets local searchers
    walk off the sampled subset without aborting the run.
    """
    from repro.core.budget import Budget

    if repetitions < 1:
        raise ReproError("repetitions must be at least 1")
    optimum = float(cache.optimum())

    trajectories = np.empty((repetitions, budget))
    for r in range(repetitions):
        problem = cache.to_problem(strict=False, memoize=True)
        result = tuner_factory().tune(problem, Budget(max_evaluations=budget),
                                      seed=base_seed + r)
        trace = result.best_value_trace()
        if trace.size < budget:  # tuner stopped early (space exhausted)
            tail = trace[-1] if trace.size else np.inf
            trace = np.concatenate([trace, np.full(budget - trace.size, tail)])
        trajectories[r] = trace[:budget]

    relative = np.zeros_like(trajectories)
    finite = np.isfinite(trajectories)
    relative[finite] = optimum / trajectories[finite]
    return _curve(cache, relative, optimum)


def _curve(cache: EvaluationCache, relative: np.ndarray, optimum: float) -> ConvergenceCurve:
    """The median/quartile curve of a ``(repetitions, budget)`` relative-performance
    block.  Both quartiles come from one :func:`numpy.percentile` call (the same
    floats as two); the median stays :func:`numpy.median`, whose float can differ
    from percentile 50's."""
    repetitions, budget = relative.shape
    quartile_low, quartile_high = np.percentile(relative, [25, 75], axis=0)
    return ConvergenceCurve(
        benchmark=cache.benchmark,
        gpu=cache.gpu,
        evaluations=np.arange(1, budget + 1),
        median_relative_performance=np.median(relative, axis=0),
        quartile_low=quartile_low,
        quartile_high=quartile_high,
        repetitions=repetitions,
        budget=budget,
        optimum_ms=optimum,
    )


def evaluations_to_reach(curves: Sequence[ConvergenceCurve],
                         threshold: float = 0.9) -> dict[tuple[str, str], int | None]:
    """Evaluations needed to reach ``threshold`` for several curves, keyed by (benchmark, gpu).

    This is the quantity the paper reads off Fig. 2 ("Expdist and Nbody achieve 90%
    after just 10 evaluations; Dedisp and PnPoly need around 100; Convolution and GEMM
    require hundreds").
    """
    return {(c.benchmark, c.gpu): c.evaluations_to_reach(threshold) for c in curves}
