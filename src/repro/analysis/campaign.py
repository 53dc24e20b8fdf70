"""Measurement campaigns.

Everything in the paper's evaluation section is computed from per-(benchmark, GPU)
campaign caches.  The experimental design (Sec. V) is:

* **exhaustive** evaluation of the whole valid space for Pnpoly, Nbody, GEMM and
  Convolution;
* **10 000 unique random configurations** for Hotspot, Dedispersion and Expdist (their
  spaces have 1e7--1e8 points).

:class:`Campaign` reproduces that design against the simulated GPUs and memoises the
caches in memory (so one pytest/benchmark session never evaluates the same campaign
twice).  ``sample_size`` shrinks the sampled campaigns and ``exhaustive_limit`` swaps
exhaustive enumeration for sampling above a cardinality limit, which is what the unit
tests and the quick benchmark presets use.  The campaign CLI (``python -m repro.exec
run --output-dir``) writes cache files and :func:`repro.io.cachefile.load_cache`
reads them back.

Execution is delegated to the :mod:`repro.exec` subsystem: the campaign's design
decisions (which benchmarks are sampled, per-GPU seeds) live in
:class:`~repro.exec.planner.ShardPlanner`, and cache construction runs through an
:class:`~repro.exec.executors.Executor` -- the default :class:`SerialExecutor` keeps
the historical behaviour byte for byte, while a
:class:`~repro.exec.executors.ParallelExecutor` fans the same shards out over worker
processes.  An optional checkpoint directory makes long campaigns resumable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

from repro.core.cache import EvaluationCache
from repro.exec.checkpoint import CheckpointStore
from repro.exec.executors import Executor, SerialExecutor
from repro.exec.planner import (
    PAPER_SAMPLE_SIZE,
    PAPER_SAMPLED_BENCHMARKS,
    ShardPlanner,
)
from repro.core.registry import benchmark_suite
from repro.gpus.specs import GPUSpec, all_gpus
from repro.kernels import KernelBenchmark

__all__ = ["Campaign", "PAPER_SAMPLED_BENCHMARKS", "PAPER_SAMPLE_SIZE"]


class Campaign:
    """Runs and memoises the measurement campaigns of the paper.

    Parameters
    ----------
    benchmarks:
        Benchmarks to include (default: the full open-registry suite -- the seven
        paper kernels plus every benchmark registered through
        :func:`repro.core.registry.register_benchmark`, e.g. synthetic scenarios).
    gpus:
        Devices to include (default: the paper's four GPUs).
    sample_size:
        Number of unique random configurations for sampled campaigns
        (paper: 10 000).
    exhaustive_limit:
        Benchmarks whose *cardinality* exceeds this limit are sampled even if the
        paper enumerates them; ``None`` follows the paper exactly.  Tests use a small
        limit to stay fast.
    seed:
        Base seed of the sampled campaigns (each GPU gets ``seed + index``).
    with_noise:
        Whether the simulated measurements include the deterministic noise model.
    executor:
        Campaign executor (default: :class:`~repro.exec.executors.SerialExecutor`).
        Pass a :class:`~repro.exec.executors.ParallelExecutor` to evaluate shards
        across worker processes; the resulting caches are byte-identical.
    checkpoint:
        Optional checkpoint directory (or :class:`~repro.exec.checkpoint.CheckpointStore`):
        completed shards are persisted so an interrupted campaign resumes without
        re-evaluating.
    """

    def __init__(self, benchmarks: Mapping[str, KernelBenchmark] | None = None,
                 gpus: Mapping[str, GPUSpec] | None = None,
                 sample_size: int = PAPER_SAMPLE_SIZE,
                 exhaustive_limit: int | None = None,
                 seed: int = 2023, with_noise: bool = True,
                 executor: Executor | None = None,
                 checkpoint: CheckpointStore | str | Path | None = None):
        self.benchmarks = dict(benchmarks) if benchmarks is not None else benchmark_suite()
        self.gpus = dict(gpus) if gpus is not None else all_gpus()
        self.sample_size = int(sample_size)
        self.exhaustive_limit = exhaustive_limit
        self.seed = int(seed)
        self.with_noise = with_noise
        self.executor = executor if executor is not None else SerialExecutor()
        self.checkpoint = checkpoint
        self._planner = ShardPlanner(
            benchmarks=self.benchmarks, gpus=self.gpus, sample_size=self.sample_size,
            exhaustive_limit=self.exhaustive_limit, seed=self.seed,
            with_noise=self.with_noise)
        self._caches: dict[tuple[str, str], EvaluationCache] = {}

    # --------------------------------------------------------------------- caches

    def _execute(self, keys: Iterable[tuple[str, str]]) -> None:
        """Build the caches of ``keys`` through the execution subsystem.

        With a checkpoint directory the manifest always binds the *full* campaign
        plan (fragments need one stable plan to resume against) while only the
        requested units' shards execute -- per-pair laziness and resumability
        compose.
        """
        keys = list(keys)
        if not keys:
            return
        if self.checkpoint is not None:
            plan = self._planner.plan()
            only_units = keys
        else:
            plan = self._planner.plan(
                [self._planner.unit_for(benchmark_name, gpu_name)
                 for benchmark_name, gpu_name in keys])
            only_units = None
        self._caches.update(self.executor.run(
            plan, benchmarks=self.benchmarks, gpus=self.gpus,
            checkpoint=self.checkpoint, only_units=only_units))

    def cache(self, benchmark_name: str, gpu_name: str) -> EvaluationCache:
        """The campaign cache of one (benchmark, GPU) pair (built on first access)."""
        key = (benchmark_name, gpu_name)
        if key not in self._caches:
            self._execute([key])
        return self._caches[key]

    def all_caches(self) -> dict[tuple[str, str], EvaluationCache]:
        """Every (benchmark, GPU) cache of the campaign.

        Missing caches are built in a single executor pass, so a parallel executor's
        worker pool is spun up once for the whole campaign rather than per pair.
        """
        missing = [(benchmark_name, gpu_name)
                   for benchmark_name in self.benchmarks for gpu_name in self.gpus
                   if (benchmark_name, gpu_name) not in self._caches]
        self._execute(missing)
        return dict(self._caches)
