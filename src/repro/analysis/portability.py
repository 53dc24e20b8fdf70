"""Performance portability of optimal configurations (paper Fig. 5).

Fig. 5 asks: if I tune a kernel on GPU *A* and simply reuse the resulting optimal
configuration on GPU *B*, what fraction of *B*'s own optimum do I get?  The paper
reports the full transfer matrix for the exhaustively searched benchmarks
(Convolution, Pnpoly, Nbody) and finds transfers within an architecture family are
nearly free (e.g. RTX 3060 <-> RTX 3090) while cross-family transfers can drop to
58.5% of the achievable performance.

The matrix entry at (source row, target column) is
``optimal_runtime_on_target / runtime_of_source_optimum_on_target`` -- 1.0 on the
diagonal by construction, lower values mean poor portability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.errors import ReproError, ResourceLimitError
from repro.gpus.specs import GPUSpec
from repro.kernels.base import KernelBenchmark

__all__ = ["PortabilityMatrix", "portability_matrix", "portability_study"]


@dataclass
class PortabilityMatrix:
    """Transfer matrix of optimal configurations across GPUs for one benchmark.

    Attributes
    ----------
    gpus:
        Device names, defining the row (source) and column (target) order.
    relative_performance:
        ``matrix[i, j]`` = relative performance on ``gpus[j]`` of the configuration
        that is optimal on ``gpus[i]`` (1.0 = as good as the target's own optimum).
    optimal_configs:
        The optimal configuration per source GPU.
    """

    benchmark: str
    gpus: tuple[str, ...]
    relative_performance: np.ndarray
    optimal_configs: dict[str, dict[str, object]]

    def worst_transfer(self) -> tuple[str, str, float]:
        """The (source, target, value) of the worst off-diagonal transfer."""
        worst = (self.gpus[0], self.gpus[0], 1.0)
        value = np.inf
        for i, src in enumerate(self.gpus):
            for j, dst in enumerate(self.gpus):
                if i != j and self.relative_performance[i, j] < value:
                    value = float(self.relative_performance[i, j])
                    worst = (src, dst, value)
        return worst

    def mean_off_diagonal(self) -> float:
        """Mean relative performance of all cross-device transfers."""
        n = len(self.gpus)
        mask = ~np.eye(n, dtype=bool)
        return float(self.relative_performance[mask].mean())

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly representation."""
        return {
            "benchmark": self.benchmark,
            "gpus": list(self.gpus),
            "relative_performance": self.relative_performance.tolist(),
        }


def portability_matrix(benchmark: KernelBenchmark,
                       caches: Mapping[str, EvaluationCache],
                       gpus: Mapping[str, GPUSpec]) -> PortabilityMatrix:
    """Compute the Fig. 5 transfer matrix of one benchmark.

    Parameters
    ----------
    benchmark:
        The benchmark (used to re-evaluate a source-optimal configuration on a target
        GPU when the target's cache does not contain it, e.g. for sampled campaigns).
    caches:
        Campaign caches keyed by GPU name.
    gpus:
        GPU specs keyed by name (must cover every cache).
    """
    gpu_names = tuple(sorted(caches))
    if not gpu_names:
        raise ReproError("portability analysis needs at least one cache")
    optima = {name: caches[name].best() for name in gpu_names}

    matrix = np.ones((len(gpu_names), len(gpu_names)))
    for i, source in enumerate(gpu_names):
        source_config = dict(optima[source].config)
        for j, target in enumerate(gpu_names):
            if source == target:
                continue
            target_best = optima[target].value
            cached = caches[target].get(source_config)
            if cached is not None and not cached.is_failure:
                transferred = cached.value
            else:
                # Not in the target's cache (sampled campaign) or invalid there:
                # evaluate through the model; a configuration that cannot launch on
                # the target is "not portable at all".
                try:
                    transferred = benchmark.model.time_ms(source_config, gpus[target])
                except ResourceLimitError:
                    transferred = float("inf")
            matrix[i, j] = target_best / transferred if np.isfinite(transferred) else 0.0

    return PortabilityMatrix(
        benchmark=benchmark.name,
        gpus=gpu_names,
        relative_performance=matrix,
        optimal_configs={name: dict(optima[name].config) for name in gpu_names},
    )


def portability_study(benchmarks: Mapping[str, KernelBenchmark],
                      caches: Mapping[tuple[str, str], EvaluationCache],
                      gpus: Mapping[str, GPUSpec],
                      benchmark_names: tuple[str, ...] = ("convolution", "pnpoly", "nbody"),
                      ) -> dict[str, PortabilityMatrix]:
    """Fig. 5 for the exhaustively searched benchmarks (Convolution, Pnpoly, Nbody)."""
    out: dict[str, PortabilityMatrix] = {}
    for name in benchmark_names:
        per_gpu = {gpu: cache for (bench, gpu), cache in caches.items() if bench == name}
        if not per_gpu:
            continue
        out[name] = portability_matrix(benchmarks[name], per_gpu, gpus)
    return out
