"""Tier-2 perf smoke checks (pytest marker ``perf``).

These guard the vectorized search-space engine against silent regressions to scalar
behaviour: the ceilings are *generous* (an order of magnitude above the engine's
typical timings on any reasonable machine) so they never flake, yet a fallback to
per-config Python loops -- which is 50--500x slower on these workloads -- trips them
immediately, without anyone having to run the full figure pipeline.

Run them with ``pytest -m perf`` (also included in plain ``pytest`` runs; see
``scripts/run_perf.sh --smoke``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graph.centrality import proportion_of_centrality
from repro.graph.ffg import build_ffg

pytestmark = pytest.mark.perf

#: Wall-clock ceilings in seconds, deliberately loose (see module docstring).
SAMPLE_10K_DEDISPERSION_CEILING_S = 10.0
FFG_2K_CEILING_S = 10.0
COUNT_GEMM_CEILING_S = 10.0
SHARDED_CAMPAIGN_10K_CEILING_S = 20.0
TUNER_CAMPAIGN_CEILING_S = 3.0
POPULATION_CAMPAIGN_CEILING_S = 3.0
EVALUATE_INDEX_20K_CEILING_S = 2.0
HASHED_BATCH_LOOKUP_CEILING_S = 10.0
CACHE_REPLAY_OPEN_CEILING_S = 2.0
MODEL_BATCH_GEMM_4GPU_CEILING_S = 1.5
GBDT_SURROGATE_FITS_CEILING_S = 3.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_batched_sampling_10k_dedispersion_under_ceiling(benchmarks):
    space = benchmarks["dedispersion"].space
    configs, elapsed = _timed(
        lambda: space.sample(10_000, rng=2023, valid_only=True, unique=True))
    assert len(configs) == 10_000
    assert elapsed < SAMPLE_10K_DEDISPERSION_CEILING_S, (
        f"sampling 10k Dedispersion configurations took {elapsed:.2f}s "
        f"(ceiling {SAMPLE_10K_DEDISPERSION_CEILING_S}s); the vectorized sampling "
        f"path has likely regressed to scalar rejection")


def test_ffg_and_pagerank_on_2k_cache_under_ceiling(benchmarks, gpu_3090):
    cache = benchmarks["hotspot"].build_cache(gpu_3090, sample_size=2_000, seed=1)
    (graph, report), elapsed = _timed(
        lambda: ((g := build_ffg(cache)), proportion_of_centrality(cache, ffg=g)))
    assert graph.num_nodes > 0 and report.num_minima > 0
    assert elapsed < FFG_2K_CEILING_S, (
        f"FFG + PageRank on a 2k-point cache took {elapsed:.2f}s "
        f"(ceiling {FFG_2K_CEILING_S}s); the index-arithmetic FFG build has likely "
        f"regressed to the dictionary loop")


def test_sharded_campaign_execution_under_ceiling(benchmarks, gpus):
    # One 10k-sample unit through the execution subsystem (plan -> shards ->
    # evaluate -> merge).  The ceiling guards the subsystem's per-shard and merge
    # overhead: a regression to per-config Python dispatch (or an accidental
    # re-sampling per shard) blows well past it.
    from repro.exec import SerialExecutor, ShardPlanner

    selected = {"hotspot": benchmarks["hotspot"]}
    gpu = {"RTX_3090": gpus["RTX_3090"]}
    planner = ShardPlanner(selected, gpu, sample_size=10_000, seed=2023)
    caches, elapsed = _timed(lambda: SerialExecutor().run(
        planner.plan(), benchmarks=selected, gpus=gpu))
    assert len(caches[("hotspot", "RTX_3090")]) == 10_000
    assert elapsed < SHARDED_CAMPAIGN_10K_CEILING_S, (
        f"sharded 10k hotspot campaign took {elapsed:.2f}s "
        f"(ceiling {SHARDED_CAMPAIGN_10K_CEILING_S}s); the execution subsystem's "
        f"shard or merge path has likely regressed to per-config dispatch")


def test_fault_tolerant_happy_path_overhead_under_ceiling(benchmarks, gpus,
                                                          tmp_path):
    # The same 10k-sample campaign with the fault-tolerance layer fully armed
    # (retry policy, shard timeout, checkpointing with checksummed fragments)
    # but no fault ever firing.  The machinery's no-fault overhead is a few
    # dict lookups per shard plus one SHA-256 per fragment; anything that makes
    # it per-config (or re-hashes rows per retry check) blows the ceiling.
    from repro.exec import CheckpointStore, RetryPolicy, SerialExecutor, ShardPlanner

    selected = {"hotspot": benchmarks["hotspot"]}
    gpu = {"RTX_3090": gpus["RTX_3090"]}
    planner = ShardPlanner(selected, gpu, sample_size=10_000, seed=2023)
    executor = SerialExecutor(retry_policy=RetryPolicy(max_retries=3),
                              shard_timeout=600.0)
    caches, elapsed = _timed(lambda: executor.run(
        planner.plan(), benchmarks=selected, gpus=gpu,
        checkpoint=CheckpointStore(tmp_path / "ckpt")))
    assert len(caches[("hotspot", "RTX_3090")]) == 10_000
    assert executor.retry_counts == {} and executor.quarantine == []
    assert elapsed < SHARDED_CAMPAIGN_10K_CEILING_S, (
        f"fault-tolerant 10k hotspot campaign took {elapsed:.2f}s "
        f"(ceiling {SHARDED_CAMPAIGN_10K_CEILING_S}s); the retry/checkpoint "
        f"layer is adding per-config overhead to the no-fault happy path")


def test_index_native_tuner_campaign_under_ceiling(benchmarks, gpu_3090):
    # A compressed version of the BENCH_perf tuner campaign: LocalSearch +
    # GreedyILS, 100 seeded runs each of 150 evaluations, replayed against a
    # sampled hotspot cache.  The index-native runtime finishes this in well under
    # half a second; a regression to the dictionary loop (config dicts per
    # neighbour, config-key hashing per evaluation, per-row constraint dispatch)
    # lands this campaign beyond the ceiling even on fast machines.
    from repro.core.budget import Budget
    from repro.tuners import GreedyILS, LocalSearch

    cache = benchmarks["hotspot"].build_cache(gpu_3090, sample_size=2_000, seed=1)
    cache.index_table()

    def campaign():
        evaluations = 0
        for factory in (LocalSearch, GreedyILS):
            for seed in range(100):
                problem = cache.to_problem(strict=False)
                result = factory().tune(problem, Budget(max_evaluations=150),
                                        seed=seed)
                evaluations += len(result)
        return evaluations

    evaluations, elapsed = _timed(campaign)
    assert evaluations == 2 * 100 * 150
    assert elapsed < TUNER_CAMPAIGN_CEILING_S, (
        f"200-run index-native tuner campaign took {elapsed:.2f}s "
        f"(ceiling {TUNER_CAMPAIGN_CEILING_S}s); the tuner hot loop has likely "
        f"regressed to the dictionary path")


def test_population_campaign_under_ceiling(benchmarks, gpu_3090):
    # A compressed version of the BENCH_perf population campaign: genetic /
    # differential evolution / particle swarm, 15 seeded runs each of 150
    # evaluations, replayed against a sampled gemm cache (feasible memo built
    # on demand -- gemm sits under the memoize threshold).  The
    # generation-batched runtime finishes this in well under half a second; a
    # regression to per-candidate budget charges, per-parameter decode scans or
    # constraint-eval repair draws lands beyond the ceiling even on fast
    # machines.
    from repro.core.budget import Budget
    from repro.tuners import (DifferentialEvolution, GeneticAlgorithm,
                              ParticleSwarm)

    cache = benchmarks["gemm"].build_cache(gpu_3090, sample_size=2_000, seed=1)
    cache.index_table()
    cache.space.feasible_indices()

    def campaign():
        evaluations = 0
        for factory in (GeneticAlgorithm, DifferentialEvolution, ParticleSwarm):
            for seed in range(15):
                problem = cache.to_problem(strict=False)
                result = factory().tune(problem, Budget(max_evaluations=150),
                                        seed=seed)
                evaluations += len(result)
        return evaluations

    evaluations, elapsed = _timed(campaign)
    # A GA run whose whole initial population replays as cache misses stops
    # after it (algorithm behaviour, identical to the sequential loop), so a
    # handful of the 45 runs may legitimately end early.
    assert evaluations >= 6_000
    assert elapsed < POPULATION_CAMPAIGN_CEILING_S, (
        f"45-run generation-batched population campaign took {elapsed:.2f}s "
        f"(ceiling {POPULATION_CAMPAIGN_CEILING_S}s); the batched population "
        f"runtime has likely regressed to per-candidate loops")


def test_evaluate_index_throughput_under_ceiling(benchmarks, gpu_3090):
    # 20k single-index evaluations against a replay problem: guards the scalar
    # fast path itself (columnar lookup, lazy configs, fast observation
    # construction) independently of any tuner's loop structure.
    cache = benchmarks["gemm"].build_cache(gpu_3090, sample_size=2_000, seed=1)
    cache.index_table()
    problem = cache.to_problem(strict=False)
    space = cache.space
    indices = np.random.default_rng(0).integers(0, space.cardinality, size=20_000)

    def evaluate_all():
        evaluate = problem.evaluate_index
        for index in indices.tolist():
            evaluate(index, _valid_hint=True)
        return problem.evaluation_count

    _, elapsed = _timed(evaluate_all)
    assert elapsed < EVALUATE_INDEX_20K_CEILING_S, (
        f"20k evaluate_index calls took {elapsed:.2f}s "
        f"(ceiling {EVALUATE_INDEX_20K_CEILING_S}s); the index-native evaluation "
        f"fast path has likely regressed to dictionary round-trips")


def test_hashed_batch_lookup_under_ceiling(benchmarks, gpu_3090):
    # 5M batched probes against a hashed (above-dense-ceiling) index table: the
    # searchsorted batch path answers this in well under a second, while the old
    # per-probe dict.get loop (or a regression back to it) takes several seconds.
    cache = benchmarks["dedispersion"].build_cache(gpu_3090, sample_size=5_000,
                                                   seed=1)
    table = cache.index_table()
    assert not table._dense  # dedispersion cardinality exceeds the dense ceiling
    space = cache.space
    stored = space.indices_of_configs([dict(o.config) for o in cache])
    rng = np.random.default_rng(3)
    probes = np.concatenate([
        np.tile(stored, 500),
        rng.integers(0, space.cardinality, size=2_500_000),
    ])

    def batch_lookup():
        values, failure, found = table.lookup(probes)
        return int(found.sum())

    hits, elapsed = _timed(batch_lookup)
    assert hits >= stored.size * 500
    assert elapsed < HASHED_BATCH_LOOKUP_CEILING_S, (
        f"5M hashed batch lookups took {elapsed:.2f}s "
        f"(ceiling {HASHED_BATCH_LOOKUP_CEILING_S}s); the searchsorted batch path "
        f"has likely regressed to per-probe dictionary lookups")


def test_columnar_replay_open_under_ceiling(benchmarks, gpu_3090, tmp_path):
    # A compressed version of the BENCH_perf cache_replay_open entry: open a
    # 20k-row columnar campaign cache and serve index-table probes off the
    # memory-mapped columns.  The columnar open is header + checksums + an
    # index-table build over three mapped arrays -- tens of milliseconds; any
    # regression that rehydrates the observation dictionary on open (the cost
    # the format exists to avoid) blows the ceiling.
    from repro.core.cache import EvaluationCache

    cache = benchmarks["hotspot"].build_cache(gpu_3090, sample_size=20_000,
                                              seed=1)
    path = cache.to_columnar(tmp_path / "replay.col")
    probe = cache.space.sample_indices(1_024, rng=7, valid_only=True,
                                       unique=True)

    def open_and_probe():
        loaded = EvaluationCache.from_columnar(path, space=cache.space)
        result = loaded.index_table().lookup(probe)
        assert loaded._lazy is not None  # probes must not have materialized
        return result

    (values, failure, found), elapsed = _timed(open_and_probe)
    assert found.size == probe.size
    assert elapsed < CACHE_REPLAY_OPEN_CEILING_S, (
        f"columnar mmap open + 1k probes took {elapsed:.2f}s "
        f"(ceiling {CACHE_REPLAY_OPEN_CEILING_S}s); the columnar open has "
        f"likely regressed to eager observation rehydration")


def test_exact_constrained_count_gemm_under_ceiling(benchmarks):
    space = benchmarks["gemm"].space
    count, elapsed = _timed(lambda: space.count_constrained(limit=None))
    assert count == 17_956  # paper Table VIII
    assert elapsed < COUNT_GEMM_CEILING_S, (
        f"exact GEMM constrained count took {elapsed:.2f}s "
        f"(ceiling {COUNT_GEMM_CEILING_S}s); the compiled constraint masks have "
        f"likely regressed to per-config evaluation")


def test_model_batch_gemm_on_four_gpus_under_ceiling(benchmarks, gpus):
    # The analytical model over GEMM's whole feasible set on every GPU (71,824
    # rows).  Per-config model calls take 2--5 s here; the column model well under 1.
    benchmark = benchmarks["gemm"]
    configs = benchmark.space.configs_at(benchmark.space.feasible_indices())
    rows, elapsed = _timed(lambda: [benchmark.evaluate_batch(gpu, configs)
                                    for gpu in gpus.values()])
    assert sum(len(r) for r in rows) == 4 * 17_956
    assert elapsed < MODEL_BATCH_GEMM_4GPU_CEILING_S, (
        f"evaluate_batch over 4 x 17,956 GEMM configurations took {elapsed:.2f}s "
        f"(ceiling {MODEL_BATCH_GEMM_4GPU_CEILING_S}s); the analytical model has "
        f"likely regressed to per-config evaluation")


def test_gbdt_surrogate_fits_under_ceiling():
    # Twenty fits at SurrogateSearch's GBDT shape (60 trees, depth 4) on a small
    # integer matrix, as the surrogate refits during a run.  The level-wise grower
    # takes about a second and a half; per-node, per-feature split loops take
    # about seven.
    from repro.ml.gbdt import GradientBoostingRegressor

    rng = np.random.default_rng(2023)
    X = rng.integers(0, 8, size=(150, 6)).astype(float)
    y = np.log1p(X[:, 0] * X[:, 1] + X[:, 2] ** 2 + 3.0 * X[:, 3])

    def fits():
        return [GradientBoostingRegressor(n_estimators=60, max_depth=4,
                                          learning_rate=0.15, random_state=0).fit(X, y)
                for _ in range(20)]

    models, elapsed = _timed(fits)
    assert models[-1].score(X, y) > 0.9
    assert elapsed < GBDT_SURROGATE_FITS_CEILING_S, (
        f"20 surrogate-shaped GBDT fits took {elapsed:.2f}s "
        f"(ceiling {GBDT_SURROGATE_FITS_CEILING_S}s); the tree grower has likely "
        f"regressed to per-node, per-feature split loops")
