"""Micro-benchmark harness for the vectorized search-space engine.

Times the hot paths the engine rewired -- batched unique sampling, fitness-flow graph
construction, exact constrained counting, sharded campaign execution, and the
index-native tuner runtime -- against faithful re-creations of the seed repository's
scalar/dictionary implementations (or the serial reference executor), asserts that
both produce identical results, and writes the timings to ``BENCH_perf.json`` so
before/after comparisons survive the run.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_suite.py [--output BENCH_perf.json]

or via ``scripts/run_perf.sh``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.budget import Budget
from repro.core.cache import EvaluationCache
from repro.core.searchspace import SearchSpace, config_key
from repro.exec import ParallelExecutor, SerialExecutor, ShardPlanner
from repro.io.cachefile import load_cache, save_cache
from repro.gpus.specs import RTX_3090, all_gpus
from repro.graph.centrality import proportion_of_centrality
from repro.graph.ffg import build_ffg
from repro.graph.pagerank import pagerank
from repro.kernels import all_benchmarks
from repro.tuners import (
    DifferentialEvolution,
    GeneticAlgorithm,
    GreedyILS,
    LocalSearch,
    ParticleSwarm,
)
from repro.tuners.base import Tuner

SAMPLE_N = 10_000
FFG_CACHE_POINTS = 2_000
CAMPAIGN_WORKERS = 4
TUNER_CAMPAIGN_RUNS = 50       # per optimizer; LocalSearch + GreedyILS = 100 runs
TUNER_CAMPAIGN_BUDGET = 100
TUNER_CAMPAIGN_CACHE_POINTS = 2_000
POPULATION_CAMPAIGN_RUNS = 15  # per optimizer; GA + DE + PSO = 45 runs
POPULATION_CAMPAIGN_BUDGET = 150
POPULATION_CAMPAIGN_CACHE_POINTS = 2_000
REPLAY_CACHE_POINTS = 100_000  # rows in the cache_replay_open cache


# ----------------------------------------------------------- scalar reference paths
#
# These reproduce the seed implementation's per-config Python loops so the "before"
# timings stay measurable after the scalar code paths were replaced.


def sample_scalar(space: SearchSpace, n: int, seed: int) -> list[dict]:
    """The seed's one-index-at-a-time rejection sampling (unique, valid)."""
    rng = np.random.default_rng(seed)
    out: list[dict] = []
    seen: set[int] = set()
    while len(out) < n:
        idx = int(rng.integers(0, space.cardinality))
        if idx in seen:
            continue
        config = space.config_at(idx)
        if not space.constraints.is_satisfied(config):
            continue
        seen.add(idx)
        out.append(config)
    return out


def count_constrained_scalar(space: SearchSpace) -> int:
    """The seed's exact count: full itertools enumeration, one eval per config."""
    names = space.parameter_names
    value_lists = [p.values for p in space.parameters]
    constraints = space.constraints
    return sum(1 for combo in itertools.product(*value_lists)
               if constraints.is_satisfied(dict(zip(names, combo))))


def _seed_mask(space: SearchSpace, digits: np.ndarray) -> np.ndarray:
    """The seed's constraint mask: every value column gathered eagerly before the
    batch evaluators run (the path lazy column gathering replaced)."""
    columns = space.columns_at(None, digits=digits)
    return space.constraints.satisfied_mask(columns, digits.shape[0])


def sample_one_seed(space: SearchSpace, rng: np.random.Generator) -> dict:
    """The seed's restart draw: size-1 index blocks through the eager-column mask
    (same random stream as the batched sampler and the scalar loop)."""
    while True:
        draws = rng.integers(0, space.cardinality, size=1)
        if bool(_seed_mask(space, space.indices_to_digits(draws))[0]):
            return space.configs_at(draws)[0]


def neighbors_seed(space: SearchSpace, config: dict, strategy: str = "hamming") -> list[dict]:
    """The seed's neighbourhood: per-candidate Python assembly, one eager-column
    mask over the block, one dictionary copy per surviving candidate."""
    candidates: list[tuple[str, object]] = []
    for p in space.parameters:
        current = config[p.name]
        others = (p.all_other_values(current) if strategy == "hamming"
                  else p.neighbors(current))
        candidates.extend((p.name, v) for v in others)
    if not candidates:
        return []
    base = space.indices_to_digits([space.index_of(config)])
    digits = np.repeat(base, len(candidates), axis=0)
    col_of = {p.name: j for j, p in enumerate(space.parameters)}
    for row, (name, value) in enumerate(candidates):
        digits[row, col_of[name]] = space.parameter(name).index_of(value)
    keep = _seed_mask(space, digits)
    out: list[dict] = []
    for ok, (name, value) in zip(keep.tolist(), candidates):
        if ok:
            neighbor = dict(config)
            neighbor[name] = value
            out.append(neighbor)
    return out


class _SeedDictTuner(Tuner):
    """Base of the seed dict-path re-creations: config_key duplicate accounting."""

    def evaluate(self, config):
        if self._budget.exhausted:
            return None
        observation = self._problem.evaluate(config)
        key = config_key(config)
        new_config = key not in self._seen
        simulated_seconds = (observation.value / 1e3
                             if math.isfinite(observation.value) else 0.0)
        self._budget.charge(simulated_seconds=simulated_seconds, new_config=new_config)
        self._seen.add(key)
        self._result.record(observation)
        return observation


class SeedLocalSearch(_SeedDictTuner):
    """The seed's dictionary-based first-improvement local search."""

    name = "local"

    def __init__(self, seed=None, neighborhood="hamming"):
        super().__init__(seed=seed)
        self.neighborhood = neighborhood

    def _run(self, problem, budget, rng):
        while not self.budget_exhausted:
            self._climb(problem, sample_one_seed(problem.space, rng), rng)

    def _climb(self, problem, start, rng):
        current = self.evaluate(start)
        if current is None:
            return
        while not self.budget_exhausted:
            neighbors = neighbors_seed(problem.space, current.config,
                                       strategy=self.neighborhood)
            if not neighbors:
                return
            order = rng.permutation(len(neighbors))
            improved = None
            for idx in order:
                obs = self.evaluate(neighbors[int(idx)])
                if obs is None:
                    return
                if not obs.is_failure and obs.value < current.value:
                    improved = obs
                    break
            if improved is None:
                return
            current = improved


class SeedGreedyILS(_SeedDictTuner):
    """The seed's dictionary-based greedy iterated local search."""

    name = "greedy_ils"

    def __init__(self, seed=None, perturbation_strength=2, neighborhood="hamming"):
        super().__init__(seed=seed)
        self.perturbation_strength = perturbation_strength
        self.neighborhood = neighborhood

    def _perturb(self, problem, config, rng):
        perturbed = dict(config)
        names = list(problem.space.parameter_names)
        chosen = rng.choice(len(names), size=min(self.perturbation_strength, len(names)),
                            replace=False)
        for idx in chosen:
            parameter = problem.space.parameter(names[int(idx)])
            perturbed[parameter.name] = parameter.sample(rng)
        if problem.space.is_valid(perturbed):
            return perturbed
        return sample_one_seed(problem.space, rng)

    def _run(self, problem, budget, rng):
        climber = SeedLocalSearch(neighborhood=self.neighborhood)
        climber._problem = self._problem
        climber._budget = self._budget
        climber._result = self._result
        climber._seen = self._seen
        incumbent = sample_one_seed(problem.space, rng)
        while not self.budget_exhausted:
            climber._climb(problem, incumbent, rng)
            best = self.best_so_far()
            base = dict(best.config) if best is not None else incumbent
            incumbent = self._perturb(problem, base, rng)


# -------------------------------------------- pre-batching population inner loops
#
# Faithful re-creations of the per-candidate population loops the
# generation-batched runtime replaced: one `evaluate_index` (one budget charge, one
# result record) per candidate, per-gene scalar crossover draws, nearest-value
# decoding through a per-parameter Python scan that re-materialises each
# parameter's numeric grid (and re-derives its numericness) on every candidate,
# eval-dispatched per-candidate feasibility, and repair draws through size-1
# membership blocks.  Same RNG streams, same trajectories -- only the loop
# structure and the per-candidate costs differ.


def is_numeric_seed(p) -> bool:
    """The seed's uncached numericness test (one isinstance scan per call)."""
    return all(isinstance(v, (int, float, np.integer, np.floating))
               for v in p.values)


def numeric_values_seed(p) -> np.ndarray:
    """The seed's uncached per-call numeric grid of one parameter."""
    if is_numeric_seed(p):
        return np.asarray(p.values, dtype=float)
    return np.arange(len(p.values), dtype=float)


def decode_index_seed(space, vector) -> int:
    """The seed's nearest-member decode: one Python argmin scan per parameter."""
    digits = np.empty(space.dimensions, dtype=np.int64)
    for j, (p, x) in enumerate(zip(space.parameters, vector)):
        digits[j] = int(np.argmin(np.abs(numeric_values_seed(p) - float(x))))
    return int(digits @ np.asarray(space.place_values))


def encode_indices_seed(space, indices) -> np.ndarray:
    """The seed's index encoder: per-parameter numericness re-derived per call."""
    digits = space.indices_to_digits(indices)
    out = np.empty((digits.shape[0], space.dimensions), dtype=float)
    for j, p in enumerate(space.parameters):
        if is_numeric_seed(p):
            out[:, j] = p.values_array()[digits[:, j]].astype(float)
        else:
            out[:, j] = digits[:, j].astype(float)
    return out


def index_is_feasible_seed(space, index) -> bool:
    """The seed's per-candidate feasibility: compiled-conjunction eval dispatch
    (no feasible-set membership shortcut)."""
    if not len(space.constraints):
        return True
    rows = space._feasibility_rows()
    if rows is None:
        return space.constraints.is_satisfied(space.config_at(index))
    return space.constraints.is_satisfied_fast(
        {name: values[(index // place) % radix]
         for name, values, place, radix in rows})


def sample_one_index_seed(space, rng) -> int:
    """The seed's repair draw: size-1 rejection blocks, membership by a
    fromnumeric searchsorted per attempt (the memoized-space path of the
    pre-batching sampler).  Random stream identical to the scalar loop."""
    feasible = space.feasible_indices()
    if feasible is None:
        return space.sample_one_index(rng=rng, valid_only=True)
    while True:
        draws = rng.integers(0, space.cardinality, size=1)
        pos = np.searchsorted(feasible, draws)
        pos[pos == feasible.size] = 0
        if bool((feasible[pos] == draws)[0]):
            return int(draws[0])


class SeedGeneticAlgorithm(Tuner):
    """The pre-batching steady-state GA: per-gene draws, per-child evaluation."""

    name = "genetic"

    def __init__(self, seed=None, population_size=20, tournament_size=3,
                 mutation_rate=0.1, elitism=2):
        super().__init__(seed=seed)
        self.population_size = population_size
        self.tournament_size = tournament_size
        self.mutation_rate = mutation_rate
        self.elitism = elitism

    def _tournament(self, population, rng):
        picks = rng.integers(0, len(population), size=self.tournament_size)
        contenders = [population[int(i)] for i in picks]
        return min(contenders, key=lambda ind: ind[2])

    def _run(self, problem, budget, rng):
        space = problem.space
        population = []  # (digits, index, value) triples
        initial = space.sample_indices(self.population_size, rng=rng,
                                       valid_only=True, unique=True)
        for index in initial.tolist():
            obs = self.evaluate_index(index, valid_hint=True)
            if obs is None:
                return
            if not obs.is_failure:
                population.append((space.digits_of_index(index), index, obs.value))
        if not population:
            return
        while not self.budget_exhausted:
            parent_a = self._tournament(population, rng)
            parent_b = self._tournament(population, rng)
            child = np.empty_like(parent_a[0])
            for j in range(child.size):
                child[j] = parent_a[0][j] if rng.random() < 0.5 else parent_b[0][j]
            for j, parameter in enumerate(space.parameters):
                if rng.random() < self.mutation_rate:
                    child[j] = parameter.sample_index(rng)
            index = int(space.digits_to_indices(child[None, :])[0])
            if not index_is_feasible_seed(space, index):
                index = sample_one_index_seed(space, rng)
                child = space.digits_of_index(index)
            obs = self.evaluate_index(index, valid_hint=True)
            if obs is None:
                return
            if obs.is_failure:
                continue
            population.sort(key=lambda ind: ind[2])
            protected = population[: self.elitism]
            rest = population[self.elitism:]
            if rest and obs.value < rest[-1][2]:
                rest[-1] = (child, index, obs.value)
            elif len(population) < self.population_size:
                rest.append((child, index, obs.value))
            population = protected + rest


class SeedDifferentialEvolution(Tuner):
    """The pre-batching DE/rand/1/bin: per-trial evaluation and decode scan."""

    name = "diff_evo"

    def __init__(self, seed=None, population_size=20, differential_weight=0.7,
                 crossover_probability=0.8):
        super().__init__(seed=seed)
        self.population_size = population_size
        self.differential_weight = differential_weight
        self.crossover_probability = crossover_probability

    def _run(self, problem, budget, rng):
        space = problem.space
        indices = space.sample_indices(self.population_size, rng=rng,
                                       valid_only=True, unique=True)
        population = encode_indices_seed(space, indices)
        fitness = np.full(indices.size, np.inf)
        for i, index in enumerate(indices.tolist()):
            obs = self.evaluate_index(index, valid_hint=True)
            if obs is None:
                return
            fitness[i] = obs.value if not obs.is_failure else np.inf
        n, dims = indices.size, space.dimensions
        while not self.budget_exhausted:
            for target in range(n):
                if self.budget_exhausted:
                    return
                choices = [i for i in range(n) if i != target]
                a, b, c = rng.choice(choices, size=3, replace=False)
                mutant = population[a] + self.differential_weight * (
                    population[b] - population[c])
                cross = rng.random(dims) < self.crossover_probability
                cross[int(rng.integers(0, dims))] = True
                trial_vector = np.where(cross, mutant, population[target])
                trial_index = decode_index_seed(space, trial_vector)
                if not index_is_feasible_seed(space, trial_index):
                    trial_index = sample_one_index_seed(space, rng)
                obs = self.evaluate_index(trial_index, valid_hint=True)
                if obs is None:
                    return
                value = obs.value if not obs.is_failure else np.inf
                if value <= fitness[target]:
                    population[target] = encode_indices_seed(space, [trial_index])[0]
                    fitness[target] = value


class SeedParticleSwarm(Tuner):
    """The pre-batching global-best PSO: two draws and one evaluation per particle."""

    name = "pso"

    def __init__(self, seed=None, swarm_size=16, inertia=0.7, cognitive=1.5,
                 social=1.5):
        super().__init__(seed=seed)
        self.swarm_size = swarm_size
        self.inertia = inertia
        self.cognitive = cognitive
        self.social = social

    def _run(self, problem, budget, rng):
        space = problem.space
        indices = space.sample_indices(self.swarm_size, rng=rng, valid_only=True,
                                       unique=True)
        positions = encode_indices_seed(space, indices)
        ranges = np.array([float(np.ptp(numeric_values_seed(p))) or 1.0
                           for p in space.parameters])
        velocities = rng.uniform(-0.1, 0.1, size=positions.shape) * ranges
        personal_best = positions.copy()
        personal_best_value = np.full(indices.size, np.inf)
        global_best = positions[0].copy()
        global_best_value = np.inf
        for i, index in enumerate(indices.tolist()):
            obs = self.evaluate_index(index, valid_hint=True)
            if obs is None:
                return
            value = obs.value if not obs.is_failure else np.inf
            personal_best_value[i] = value
            if value < global_best_value:
                global_best_value = value
                global_best = positions[i].copy()
        while not self.budget_exhausted:
            for i in range(indices.size):
                if self.budget_exhausted:
                    return
                r_cog = rng.random(positions.shape[1])
                r_soc = rng.random(positions.shape[1])
                velocities[i] = (self.inertia * velocities[i]
                                 + self.cognitive * r_cog * (personal_best[i] - positions[i])
                                 + self.social * r_soc * (global_best - positions[i]))
                positions[i] = positions[i] + velocities[i]
                candidate = decode_index_seed(space, positions[i])
                if not index_is_feasible_seed(space, candidate):
                    candidate = sample_one_index_seed(space, rng)
                    positions[i] = encode_indices_seed(space, [candidate])[0]
                obs = self.evaluate_index(candidate, valid_hint=True)
                if obs is None:
                    return
                value = obs.value if not obs.is_failure else np.inf
                if value < personal_best_value[i]:
                    personal_best_value[i] = value
                    personal_best[i] = positions[i].copy()
                if value < global_best_value:
                    global_best_value = value
                    global_best = positions[i].copy()


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default="BENCH_perf.json",
                        help="where to write the timing report")
    args = parser.parse_args()

    benchmarks = all_benchmarks()
    report: dict[str, dict] = {}

    # ------------------------------------------------------ batched unique sampling
    for name in ("dedispersion", "hotspot"):
        space = benchmarks[name].space
        vec, t_vec = timed(space.sample, SAMPLE_N, rng=2023, valid_only=True,
                           unique=True)
        scalar, t_scalar = timed(sample_scalar, space, SAMPLE_N, 2023)
        report[f"sample_10k_{name}"] = {
            "description": f"draw {SAMPLE_N} unique valid configurations of "
                           f"{name} (cardinality {space.cardinality})",
            "scalar_s": round(t_scalar, 4),
            "vectorized_s": round(t_vec, 4),
            "speedup": round(t_scalar / t_vec, 1),
            "identical": vec == scalar,
        }
        print(f"sample 10k {name:>12}: scalar {t_scalar:7.3f}s  "
              f"vectorized {t_vec:7.3f}s  {t_scalar / t_vec:6.1f}x  "
              f"identical={vec == scalar}")

    # ----------------------------------------------- FFG + PageRank on a 2k cache
    cache = benchmarks["hotspot"].build_cache(RTX_3090, sample_size=FFG_CACHE_POINTS,
                                              seed=1)
    graph_vec, t_vec = timed(build_ffg, cache, method="vector")
    graph_scalar, t_scalar = timed(build_ffg, cache, method="scalar")
    identical = (graph_vec.num_nodes == graph_scalar.num_nodes
                 and graph_vec.num_edges == graph_scalar.num_edges
                 and (graph_vec.adjacency != graph_scalar.adjacency).nnz == 0)
    _, t_rank = timed(pagerank, graph_vec.csr_arrays())
    _, t_centrality = timed(proportion_of_centrality, cache, ffg=graph_vec)
    report["build_ffg_2k_hotspot"] = {
        "description": f"fitness-flow graph over a {FFG_CACHE_POINTS}-point hotspot "
                       f"cache ({graph_vec.num_nodes} nodes, "
                       f"{graph_vec.num_edges} edges)",
        "scalar_s": round(t_scalar, 4),
        "vectorized_s": round(t_vec, 4),
        "speedup": round(t_scalar / t_vec, 1),
        "identical": identical,
        "pagerank_s": round(t_rank, 4),
        "centrality_s": round(t_centrality, 4),
    }
    print(f"build_ffg 2k hotspot  : scalar {t_scalar:7.3f}s  "
          f"vectorized {t_vec:7.3f}s  {t_scalar / t_vec:6.1f}x  "
          f"identical={identical}")

    # ------------------------------------------------- exact constrained counting
    gemm_space = benchmarks["gemm"].space
    count_vec, t_vec = timed(gemm_space.count_constrained, limit=None)
    count_scalar, t_scalar = timed(count_constrained_scalar, gemm_space)
    report["count_constrained_gemm"] = {
        "description": f"exact constrained count of GEMM "
                       f"(cardinality {gemm_space.cardinality}, Table VIII)",
        "scalar_s": round(t_scalar, 4),
        "vectorized_s": round(t_vec, 4),
        "speedup": round(t_scalar / t_vec, 1),
        "identical": count_vec == count_scalar,
        "count": count_vec,
    }
    print(f"count_constrained gemm: scalar {t_scalar:7.3f}s  "
          f"vectorized {t_vec:7.3f}s  {t_scalar / t_vec:6.1f}x  "
          f"identical={count_vec == count_scalar} (count={count_vec})")

    # ---------------------------------------------- value-column tiled sweeps
    # Feasibility sweep over a contiguous index range: digit codec + per-element
    # value gather (the PR 1 path) vs tiled value columns that never build a digit
    # matrix (only possible because every kernel constraint is vectorized).
    for name in ("gemm", "hotspot"):
        space = benchmarks[name].space
        stop = min(space.cardinality, 4_000_000)
        chunk = 1 << 17

        def sweep_gather(space=space, stop=stop):
            return [space.satisfied_mask(
                None, digits=space._digits_for_range(s, min(s + chunk, stop)))
                for s in range(0, stop, chunk)]

        def sweep_tiled(space=space, stop=stop):
            return [space._feasible_mask_range(s, min(s + chunk, stop))
                    for s in range(0, stop, chunk)]

        tiled, t_tiled = timed(sweep_tiled)
        gathered, t_gather = timed(sweep_gather)
        identical = all(np.array_equal(a, b) for a, b in zip(tiled, gathered))
        report[f"feasible_sweep_{name}"] = {
            "description": f"constraint mask over the first {stop} indices of "
                           f"{name}: digit-gather columns vs tiled value columns",
            "scalar_s": round(t_gather, 4),
            "vectorized_s": round(t_tiled, 4),
            "speedup": round(t_gather / t_tiled, 1),
            "identical": identical,
        }
        print(f"feasible_sweep {name:>8}: gather {t_gather:7.3f}s  "
              f"tiled {t_tiled:7.3f}s  {t_gather / t_tiled:6.1f}x  "
              f"identical={identical}")

    # ------------------------------------------------- index-native tuner runtime
    # The paper-style tuner campaign: LocalSearch + GreedyILS, 50 seeded runs each,
    # replayed against a sampled hotspot cache.  The baseline re-creates the seed's
    # dictionary loop (scalar restart rejection, per-candidate neighbour dicts with
    # scalar constraint dispatch, config-key hashing everywhere); the fast path is
    # the in-repo index-native runtime.  Same seeds, same random streams -- the
    # merged trajectories must serialize to identical JSON.
    cache = benchmarks["hotspot"].build_cache(
        RTX_3090, sample_size=TUNER_CAMPAIGN_CACHE_POINTS, seed=1)
    cache.index_table()  # build outside the timed region

    def tuner_campaign(factories, runs=TUNER_CAMPAIGN_RUNS):
        results = []
        for factory in factories:
            for seed in range(runs):
                problem = cache.to_problem(strict=False)
                results.append(factory().tune(
                    problem, Budget(max_evaluations=TUNER_CAMPAIGN_BUDGET),
                    seed=seed))
        return results

    def timed_best(fn, *args, repeats=3):
        """Best-of-N timing: the campaign is deterministic, so the minimum is the
        measurement least polluted by scheduler noise / GC on shared hosts."""
        best_result, best_time = None, math.inf
        for _ in range(repeats):
            gc.collect()
            result, elapsed = timed(fn, *args)
            if elapsed < best_time:
                best_result, best_time = result, elapsed
        return best_result, best_time

    # Warm both paths (imports, lazy caches) outside the timed region.
    tuner_campaign([LocalSearch, GreedyILS], runs=2)
    tuner_campaign([SeedLocalSearch, SeedGreedyILS], runs=2)
    index_results, t_index = timed_best(tuner_campaign, [LocalSearch, GreedyILS])
    seed_results, t_seed = timed_best(tuner_campaign,
                                      [SeedLocalSearch, SeedGreedyILS])
    identical = (json.dumps([r.to_dict() for r in index_results])
                 == json.dumps([r.to_dict() for r in seed_results]))
    n_runs = 2 * TUNER_CAMPAIGN_RUNS
    report["tuner_campaign_100runs_hotspot"] = {
        "description": f"{n_runs}-run LocalSearch+GreedyILS convergence campaign "
                       f"({TUNER_CAMPAIGN_BUDGET} evaluations/run) replayed on a "
                       f"{TUNER_CAMPAIGN_CACHE_POINTS}-point hotspot cache: seed "
                       f"dict-path loop vs index-native loop",
        "scalar_s": round(t_seed, 4),
        "vectorized_s": round(t_index, 4),
        "speedup": round(t_seed / t_index, 1),
        "identical": identical,
        "evaluations": sum(len(r) for r in index_results),
    }
    print(f"tuner_campaign hotspot: dict {t_seed:7.3f}s  "
          f"index-native {t_index:7.3f}s  {t_seed / t_index:6.1f}x  "
          f"identical={identical}")

    # ------------------------------------------- generation-batched population tuners
    # GA + DE + PSO replayed against a sampled hotspot cache: the pre-batching
    # per-candidate loops (one evaluate_index/budget charge/result record per
    # candidate, per-gene crossover draws, per-parameter decode scans, bisection
    # membership per repair attempt) vs the generation-batched runtime (peeked
    # candidates, one bulk-accounted run per generation, sized operator draws,
    # grid decode, bitmap membership).  The feasible set is pre-built outside the
    # timed region (`force=True`; hotspot sits above the memoize threshold) so
    # both paths draw repairs from the same memo and the entry isolates the
    # inner loops.  Same seeds, same random streams -- the merged trajectories
    # must serialize identically.
    population_cache = benchmarks["hotspot"].build_cache(
        RTX_3090, sample_size=POPULATION_CAMPAIGN_CACHE_POINTS, seed=1)
    population_cache.index_table()
    population_cache.space.feasible_indices(force=True)

    def population_campaign(factories, runs=POPULATION_CAMPAIGN_RUNS):
        results = []
        for factory in factories:
            for seed in range(runs):
                problem = population_cache.to_problem(strict=False)
                results.append(factory().tune(
                    problem, Budget(max_evaluations=POPULATION_CAMPAIGN_BUDGET),
                    seed=seed))
        return results

    batched_factories = [GeneticAlgorithm, DifferentialEvolution, ParticleSwarm]
    seed_factories = [SeedGeneticAlgorithm, SeedDifferentialEvolution,
                      SeedParticleSwarm]
    population_campaign(batched_factories, runs=2)   # warm both paths
    population_campaign(seed_factories, runs=2)
    batched_results, t_batched = timed_best(population_campaign, batched_factories)
    seed_results, t_scalar = timed_best(population_campaign, seed_factories)
    identical = (json.dumps([r.to_dict() for r in batched_results])
                 == json.dumps([r.to_dict() for r in seed_results]))
    n_runs = 3 * POPULATION_CAMPAIGN_RUNS
    report["population_campaign_45runs_hotspot"] = {
        "description": f"{n_runs}-run GA+DE+PSO campaign "
                       f"({POPULATION_CAMPAIGN_BUDGET} evaluations/run) replayed "
                       f"on a {POPULATION_CAMPAIGN_CACHE_POINTS}-point hotspot "
                       f"cache with a pre-built feasible memo: per-candidate "
                       f"scalar loops vs generation-batched runtime",
        "scalar_s": round(t_scalar, 4),
        "vectorized_s": round(t_batched, 4),
        "speedup": round(t_scalar / t_batched, 1),
        "identical": identical,
        "evaluations": sum(len(r) for r in batched_results),
    }
    print(f"population_campaign hotspot: scalar {t_scalar:7.3f}s  "
          f"generation-batched {t_batched:7.3f}s  {t_scalar / t_batched:6.1f}x  "
          f"identical={identical}")
    # The forced memo was a campaign-local knob; drop it so the sharded-campaign
    # entry below times the hotspot space in its default (streaming) state.
    population_cache.space.release_feasible_memo()

    # ------------------------------------------------ columnar cache replay open
    # Opening a finished campaign cache for replay: JSON loading parses every row
    # and decodes it into index/value/code columns; the columnar open reads the header,
    # verifies the column checksums, and builds the index table straight off the
    # memory-mapped columns.  Both opens then serve the same index-table probes,
    # and both loads must serialize to identical JSON (value-exactness).
    with tempfile.TemporaryDirectory() as replay_dir:
        replay_cache = benchmarks["hotspot"].build_cache(
            RTX_3090, sample_size=REPLAY_CACHE_POINTS, seed=1)
        json_path = save_cache(replay_cache, Path(replay_dir) / "replay.json")
        col_path = replay_cache.to_columnar(Path(replay_dir) / "replay.col")
        space = replay_cache.space
        probe = space.sample_indices(2048, rng=7, valid_only=True, unique=True)

        def open_json():
            cache = load_cache(json_path, space=space)
            return cache.index_table().lookup(probe)

        def open_columnar():
            cache = EvaluationCache.from_columnar(col_path, space=space)
            return cache.index_table().lookup(probe)

        open_json(), open_columnar()  # warm the page cache for both files
        json_probe, t_json = timed_best(open_json)
        col_probe, t_col = timed_best(open_columnar)
        identical = (
            all(np.array_equal(a, b) for a, b in zip(json_probe, col_probe))
            and json.dumps(load_cache(json_path, space=space).to_dict())
            == json.dumps(EvaluationCache.from_columnar(col_path,
                                                        space=space).to_dict()))
        report["cache_replay_open"] = {
            "description": f"open a {REPLAY_CACHE_POINTS}-row hotspot campaign "
                           f"cache for index-table replay: JSON load vs "
                           f"columnar mmap open (checksummed)",
            "scalar_s": round(t_json, 4),
            "vectorized_s": round(t_col, 4),
            "speedup": round(t_json / t_col, 1),
            "identical": identical,
        }
        print(f"cache_replay_open     : json {t_json:7.3f}s  "
              f"columnar-mmap {t_col:7.3f}s  {t_json / t_col:6.1f}x  "
              f"identical={identical}")

    # ------------------------------------------- sharded 10k-sample campaign
    # The paper's sampled campaign: hotspot/dedispersion/expdist, 10 000 unique
    # configurations each, on all four GPUs -- serial reference executor vs the
    # process-pool executor, merged caches byte-identical by contract.  Wall-clock
    # speedup is bounded by the cores the machine actually has, so the core count
    # is part of the record.
    gpus = all_gpus()
    sampled = {name: benchmarks[name]
               for name in ("hotspot", "dedispersion", "expdist")}
    planner = ShardPlanner(sampled, gpus, sample_size=SAMPLE_N, seed=2023)
    plan = planner.plan()
    serial_caches, t_serial = timed(
        SerialExecutor().run, plan, benchmarks=sampled, gpus=gpus)
    parallel_caches, t_parallel = timed(
        ParallelExecutor(workers=CAMPAIGN_WORKERS).run, plan,
        benchmarks=sampled, gpus=gpus)
    identical = all(
        json.dumps(serial_caches[key].to_dict())
        == json.dumps(parallel_caches[key].to_dict())
        for key in serial_caches)
    cpu_count = os.cpu_count() or 1
    report[f"parallel_campaign_10k_{CAMPAIGN_WORKERS}workers"] = {
        "description": f"paper 10k-sample campaign ({len(plan.units)} units, "
                       f"{plan.n_configs} evaluations in {len(plan.shards)} "
                       f"shards): SerialExecutor vs ParallelExecutor"
                       f"({CAMPAIGN_WORKERS} workers)",
        "serial_s": round(t_serial, 4),
        "parallel_s": round(t_parallel, 4),
        "speedup": round(t_serial / t_parallel, 2),
        "identical": identical,
        "cpu_count": cpu_count,
        "speedup_bound": min(CAMPAIGN_WORKERS, cpu_count),
    }
    print(f"campaign 10k x{len(plan.units):>2}  : serial {t_serial:7.3f}s  "
          f"parallel({CAMPAIGN_WORKERS}w) {t_parallel:7.3f}s  "
          f"{t_serial / t_parallel:6.2f}x  identical={identical}  "
          f"(host has {cpu_count} core(s))")
    if cpu_count < 2:
        print("  note: single-core host -- wall-clock speedup is bounded at 1x "
              "here; the >=2x criterion is checked on multi-core hosts")

    out_path = Path(args.output)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out_path}")

    mismatched = [k for k, v in report.items() if not v["identical"]]
    if mismatched:
        raise SystemExit(f"result mismatch between scalar and vectorized paths: "
                         f"{mismatched}")
    campaign = report[f"parallel_campaign_10k_{CAMPAIGN_WORKERS}workers"]
    # Only gate where the 2x bar sits comfortably below the theoretical ceiling:
    # on 2-3 (possibly hyperthreaded) cores the bound itself is ~2x and pool
    # overhead legitimately lands just under it.
    if campaign["cpu_count"] >= 4 and campaign["speedup"] < 2.0:
        raise SystemExit(
            f"parallel campaign speedup {campaign['speedup']}x is below the 2x "
            f"bar on a {campaign['cpu_count']}-core host")
    replay = report["cache_replay_open"]
    if replay["speedup"] < 5.0:
        raise SystemExit(
            f"columnar replay open speedup {replay['speedup']}x is below the "
            f"5x bar against JSON loading")


if __name__ == "__main__":
    main()
