"""The traced run: the workloads' steps, one layer call at a time, inside spans.

Each traced pass performs the same work as its untraced pass, but instead of one
call into a high-level entry point (``SerialExecutor.run``,
``feature_importance``, ``tuner_convergence``) it calls each layer's public
functions in turn -- ``unit_indices`` -> ``configs_at`` -> ``evaluate_batch`` ->
``save_shard`` -> ``new_cache``/``add`` -> ``save_cache`` -- and wraps every call
in a span named after the layer metric it feeds; the caller opens a new trace
before each pass, so the spans of one pass share a trace id.  The traced outputs are then
compared with the untraced ones, so a replica that drifted from the code path it
stands for fails the run instead of timing the wrong thing.

A few spans are *probes*: work the untraced pass does not do, timed to split a
layer (the noise hash out of the model, a second PageRank, GBDT fits at the
surrogate's shapes).  The tracing overhead excludes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

import repro
from repro.analysis import (
    portability_study,
    random_search_convergence,
    speedup_study,
)
from repro.analysis.centrality_report import CENTRALITY_BENCHMARKS
from repro.core.budget import Budget
from repro.core.cache import EvaluationCache
from repro.exec import CheckpointStore, ShardPlanner
from repro.exec.checkpoint import benchmark_fingerprint
from repro.exec.planner import unit_indices
from repro.gpus.noise import config_noise
from repro.graph import build_ffg, pagerank, proportion_of_centrality
from repro.io import load_cache, save_cache
from repro.io.columnar import concat_fragment_columns
from repro.ml import GradientBoostingRegressor, encode_cache, permutation_importance
from repro.tuners import SurrogateSearch, all_tuners

from passclock import PassClock
from metrics import layer_metrics
from spans import Tracer
from workloads import (
    INDEX_TUNERS,
    LEARN_GPU,
    PFI_BENCHMARKS,
    PFI_SETTINGS,
    SURROGATE_BENCHMARKS,
    TUNER_BUDGET,
    Campaign,
    Env,
    ReplayOutputs,
    best_traces_digest,
    campaign_pass,
    check_campaign,
    check_learn,
    check_replay,
    columnar_digest,
    combined_digest,
    file_digest,
    file_stem,
    importance_digest,
    learn_pass,
    paper_gpus,
    replay_inputs,
    replay_pass,
)

__all__ = ["traced_run", "traced_campaign_pass", "traced_replay_pass",
           "traced_learn_pass"]

#: Training-set sizes of the surrogate-shaped GBDT probes (the surrogate refits at
#: 20, 25, ..., ~150 rows; these span that range evenly).
SURROGATE_FIT_ROWS = (20, 50, 80, 110, 140)

#: Candidate rows the surrogate scores after each refit.
SURROGATE_PREDICT_ROWS = 500

#: The surrogate's GBDT hyper-parameters (``SurrogateSearch`` defaults).
SURROGATE_GBDT = {"n_estimators": 60, "max_depth": 4, "learning_rate": 0.15,
                  "random_state": 0}


def traced_campaign_pass(tracer: Tracer, env: Env, directory: Path) -> Campaign:
    """``campaign_pass`` as its layer calls: the same plan, fragments and exports."""
    with tracer.span("pass.campaign"):
        benchmarks = repro.benchmark_suite()
        gpus = paper_gpus()
        planner = ShardPlanner(benchmarks=benchmarks, gpus=gpus, seed=env.seed)
        # Enumerate the exhaustive spaces first so enumeration is timed on its own;
        # plan() then reads the memoized feasible sets instead of computing them.
        feasible = {}
        for name, benchmark in benchmarks.items():
            if not planner.is_sampled(name):
                with tracer.span("searchspace.enumerate") as span:
                    feasible[name] = benchmark.space.feasible_indices(force=True)
                    span.count = int(feasible[name].size)
        with tracer.span("exec.plan"):
            plan = planner.plan()
        store = CheckpointStore(directory / "checkpoint", fragment_format="columnar")
        with tracer.span("exec.checkpoint_init"):
            store.initialize(plan, fingerprints={
                name: benchmark_fingerprint(benchmarks[name])
                for name in {u.benchmark for u in plan.units}})

        caches: dict[tuple[str, str], EvaluationCache] = {}
        for unit in plan.units:
            benchmark, gpu = benchmarks[unit.benchmark], gpus[unit.gpu]
            if unit.exhaustive:
                indices = feasible[unit.benchmark]
            else:
                with tracer.span("searchspace.sample", count=unit.n_configs):
                    indices = unit_indices(benchmark.space, unit)
            configs: list = []
            rows: list = []
            for shard in plan.shards_of(unit):
                n = shard.n_configs
                with tracer.span("exec.shard", count=n):
                    with tracer.span("searchspace.decode", count=n):
                        shard_configs = benchmark.space.configs_at(
                            indices[shard.start:shard.stop])
                    with tracer.span("perfmodel.eval", count=n):
                        shard_rows = benchmark.evaluate_batch(
                            gpu, shard_configs, with_noise=unit.with_noise)
                    with tracer.span("exec.fragment_write", count=n) as span:
                        span.nbytes = store.save_shard(shard, shard_rows).stat().st_size
                with tracer.span("perfmodel.noise", count=n, probe=True):
                    model = benchmark.model
                    for config in shard_configs:
                        config_noise(gpu.name, model.name, config, sigma=model.noise_sigma)
                configs.extend(shard_configs)
                rows.extend(shard_rows)
            with tracer.span("cache.add", count=len(rows)):
                cache = benchmark.new_cache(gpu, sample_size=unit.sample_size)
                for config, (value, valid, error) in zip(configs, rows):
                    cache.add(config, value, valid=valid, error=error)
            caches[unit.key] = cache

        campaign = Campaign(plan, caches, directory / "checkpoint")
        for key, cache in caches.items():
            with tracer.span("io.json_save", count=len(cache)) as span:
                path = save_cache(cache, directory / f"{file_stem(key)}.json.gz")
                span.nbytes = path.stat().st_size
            campaign.exports[key] = path
    return campaign


class CountingModel:
    """A benchmark's model that counts its ``time_ms`` calls (Fig. 5's transfers)."""

    def __init__(self, model: Any) -> None:
        self._model = model
        self.calls = 0

    def time_ms(self, *args: Any, **kwargs: Any) -> float:
        self.calls += 1
        return self._model.time_ms(*args, **kwargs)


def traced_replay_pass(tracer: Tracer, env: Env, inputs: Campaign
                       ) -> tuple[ReplayOutputs, int]:
    """``replay_pass`` as its layer calls; also returns the model calls of Fig. 5."""
    with tracer.span("pass.replay"):
        benchmarks = repro.benchmark_suite()
        gpus = paper_gpus()

        resumed: dict[tuple[str, str], EvaluationCache] = {}
        with tracer.span("exec.resume") as resume:
            store = CheckpointStore(inputs.checkpoint)
            plan = store.load_plan()
            store.initialize(plan, fingerprints={
                name: benchmark_fingerprint(benchmarks[name])
                for name in {u.benchmark for u in plan.units}})
            exhaustive: dict[str, np.ndarray] = {}
            for unit in plan.units:
                benchmark = benchmarks[unit.benchmark]
                if unit.exhaustive and unit.benchmark in exhaustive:
                    indices = exhaustive[unit.benchmark]
                else:
                    name = "searchspace.enumerate" if unit.exhaustive else "searchspace.sample"
                    with tracer.span(name, count=unit.n_configs):
                        indices = unit_indices(benchmark.space, unit)
                    if unit.exhaustive:
                        exhaustive[unit.benchmark] = indices
                values, codes, errors = concat_fragment_columns(
                    [store.load_shard_columns(s) for s in plan.shards_of(unit)])
                with tracer.span("cache.attach", count=unit.n_configs):
                    cache = benchmark.new_cache(gpus[unit.gpu], sample_size=unit.sample_size)
                    cache.attach_columns(indices, values, codes, errors)
                resumed[unit.key] = cache
            resume.count = plan.n_configs

        loaded = {}
        for key, path in inputs.exports.items():
            with tracer.span("io.json_load") as span:
                loaded[key] = load_cache(path)
                span.count = len(loaded[key])
        with tracer.span("io.columnar_open"):
            mapped = {key: EvaluationCache.from_columnar(path, mmap=True)
                      for key, path in inputs.columnar.items()}
        with tracer.span("cache.index_table"):
            for cache in mapped.values():
                cache.index_table()

        # Fig. 2 is the first dictionary-keyed reader of the memory-mapped caches;
        # the rows it materialises are timed apart from the figure itself.
        with tracer.span("cache.materialize", count=sum(len(c) for c in mapped.values())):
            for cache in mapped.values():
                cache.observations
        with tracer.span("analysis.random_convergence"):
            curves = {key: random_search_convergence(cache, seed=env.seed)
                      for key, cache in mapped.items()}
        centrality = {}
        with tracer.span("analysis.centrality"):
            for key, cache in mapped.items():
                if key[0] not in CENTRALITY_BENCHMARKS:
                    continue
                with tracer.span("graph.ffg_build"):
                    graph = build_ffg(cache)
                with tracer.span("graph.pagerank", probe=True):
                    pagerank(graph.csr_arrays(), damping=0.85)
                with tracer.span("graph.centrality"):
                    centrality[key] = proportion_of_centrality(cache, ffg=graph)
        with tracer.span("analysis.speedup"):
            speedups = speedup_study(mapped)
        # portability_matrix reads only a benchmark's name and model.
        models = {name: CountingModel(b.model) for name, b in benchmarks.items()}
        views = {name: SimpleNamespace(name=name, model=models[name]) for name in benchmarks}
        with tracer.span("analysis.portability"):
            portability = portability_study(views, mapped, gpus)

        factories = all_tuners()
        runs = []
        for key, cache in mapped.items():
            for name in INDEX_TUNERS:
                with tracer.span(f"tuners.{name}") as span:
                    problem = cache.to_problem(strict=False, memoize=True)
                    result = factories[name]().tune(
                        problem, Budget(max_evaluations=TUNER_BUDGET), seed=env.seed)
                    span.count = len(result)
                runs.append((key, name, result))

    outputs = ReplayOutputs(resumed, loaded, mapped, curves, centrality, speedups,
                            portability, runs)
    return outputs, sum(m.calls for m in models.values())


@dataclass
class TracedLearn:
    importances: dict[str, dict[str, float]]
    results: dict[str, Any]


def traced_learn_pass(tracer: Tracer, env: Env,
                      caches: dict[tuple[str, str], EvaluationCache]) -> TracedLearn:
    """``learn_pass`` as its layer calls, plus GBDT probes at the surrogate's shapes."""
    importances: dict[str, dict[str, float]] = {}
    results: dict[str, Any] = {}
    with tracer.span("pass.learn"):
        for name in PFI_BENCHMARKS:
            cache = caches[(name, LEARN_GPU)]
            with tracer.span("analysis.feature_importance"):
                with tracer.span("ml.encode") as span:
                    matrix = encode_cache(cache, log_target=True)
                    X, y = matrix.X, matrix.y
                    limit = PFI_SETTINGS["max_samples"]
                    if matrix.n_samples > limit:
                        rng = np.random.default_rng(env.seed)
                        rows = rng.choice(matrix.n_samples, size=limit, replace=False)
                        X, y = X[rows], y[rows]
                    span.count = matrix.n_samples
                with tracer.span("ml.large_fit", count=len(y)):
                    model = GradientBoostingRegressor(
                        n_estimators=PFI_SETTINGS["n_estimators"],
                        max_depth=PFI_SETTINGS["max_depth"],
                        learning_rate=PFI_SETTINGS["learning_rate"],
                        random_state=env.seed).fit(X, y)
                with tracer.span("ml.large_predict", count=len(y)):
                    model.predict(X)
                with tracer.span("ml.pfi"):
                    pfi = permutation_importance(model, X, y,
                                                 n_repeats=PFI_SETTINGS["n_repeats"],
                                                 random_state=env.seed,
                                                 feature_names=matrix.feature_names)
            importances[name] = pfi.as_dict()

        for name in SURROGATE_BENCHMARKS:
            with tracer.span("tuners.surrogate") as span:
                problem = caches[(name, LEARN_GPU)].to_problem(strict=False, memoize=True)
                results[name] = SurrogateSearch().tune(
                    problem, Budget(max_evaluations=TUNER_BUDGET), seed=env.seed)
                span.count = len(results[name])

        # Probes: the surrogate's refit shapes, fitted directly on campaign rows.
        rng = np.random.default_rng(env.seed)
        for name in SURROGATE_BENCHMARKS:
            X, y = caches[(name, LEARN_GPU)].to_feature_matrix(valid_only=True)
            rows = rng.choice(len(y), size=max(SURROGATE_FIT_ROWS) + SURROGATE_PREDICT_ROWS,
                              replace=False)
            train, candidates = rows[:max(SURROGATE_FIT_ROWS)], rows[max(SURROGATE_FIT_ROWS):]
            for n in SURROGATE_FIT_ROWS:
                with tracer.span("ml.small_fit", count=1, probe=True):
                    model = GradientBoostingRegressor(**SURROGATE_GBDT).fit(
                        X[train[:n]], np.log(y[train[:n]]))
                with tracer.span("ml.small_predict", count=len(candidates), probe=True):
                    model.predict(X[candidates])
    return TracedLearn(importances, results)


def traced_run(env: Env, tracer: Tracer) -> dict[str, float]:
    """One untraced and one traced pass of each workload, their outputs compared.

    Returns every per-layer metric.  The inputs are set up once: the paper
    campaign on disk for ``replay``, whose RTX_3090 caches serve ``learn``.
    """
    ledger = env.ledger
    work = env.work
    trace_ids: dict[str, int] = {}
    untraced: dict[str, float] = {}
    facts: dict[str, float] = {}
    inputs = replay_inputs(env, work / "inputs", PassClock())
    fresh = {key: file_digest(path) for key, path in inputs.columnar.items()}
    learn_keys = [(name, LEARN_GPU) for name in PFI_BENCHMARKS + SURROGATE_BENCHMARKS]
    learn_caches = {key: inputs.caches[key] for key in learn_keys}
    inputs.caches = {}

    timing, campaign = campaign_pass(env, work / "campaign")
    untraced["campaign"] = timing.wall_s
    reference = check_campaign(env, campaign, None)
    env.pin("campaign.exports",
            combined_digest({file_stem(k): v for k, v in reference.items()}))
    del campaign
    trace_ids["campaign"] = tracer.new_trace()
    replica = traced_campaign_pass(tracer, env, work / "campaign-traced")
    for key, path in replica.exports.items():
        ledger.check("exported file", lambda: (
            file_digest(path) == reference[key],
            f"traced export {key} differs from SerialExecutor's"))
    facts["perfmodel.valid_frac"] = (sum(c.num_valid for c in replica.caches.values())
                                     / sum(len(c) for c in replica.caches.values()))
    del replica

    timing, outputs = replay_pass(env, inputs)
    untraced["replay"] = timing.wall_s
    check_replay(env, outputs, fresh)
    trace_ids["replay"] = tracer.new_trace()
    replica, model_calls = traced_replay_pass(tracer, env, inputs)
    for key, cache in replica.resumed.items():
        ledger.check("opened file", lambda: (
            columnar_digest(cache, work) == fresh[key],
            f"traced resume of {key} differs from the fresh campaign"))
    for (key, name, want), (_, _, got) in zip(outputs.runs, replica.runs):
        ledger.check("tuner run", lambda: (
            np.array_equal(want.best_value_trace(), got.best_value_trace()),
            f"traced {name} on {key} diverged from tuner_convergence"))
    ledger.check("analysis call", lambda: (
        {k: r.values for k, r in outputs.centrality.items()}
        == {k: r.values for k, r in replica.centrality.items()},
        "traced centrality differs from centrality_study"))
    env.pin("replay.best_traces", best_traces_digest(replica.runs))
    env.pin("replay.ffg", {file_stem(k): [r.num_nodes, r.num_edges]
                           for k, r in replica.centrality.items()})
    evals = sum(len(result) for _, _, result in replica.runs)
    facts["tuners.failed_eval_frac"] = sum(
        result.num_failures for _, _, result in replica.runs) / evals
    facts["graph.ffg_nodes"] = sum(r.num_nodes for r in replica.centrality.values())
    facts["graph.ffg_edges"] = sum(r.num_edges for r in replica.centrality.values())
    facts["analysis.portability_model_calls"] = model_calls
    del outputs, replica

    timing, reports, results = learn_pass(env, learn_caches)
    untraced["learn"] = timing.wall_s
    check_learn(env, learn_caches, reports, results)
    trace_ids["learn"] = tracer.new_trace()
    replica = traced_learn_pass(tracer, env, learn_caches)
    for name, report in reports.items():
        ledger.check("PFI report", lambda: (
            report.importances == replica.importances[name],
            f"traced PFI of {name} differs from feature_importance"))
    for name, result in results.items():
        ledger.check("surrogate run", lambda: (
            np.array_equal(result.best_value_trace(),
                           replica.results[name].best_value_trace()),
            f"traced surrogate on {name} diverged"))
    env.pin("learn.importances", importance_digest(reports))

    return layer_metrics(tracer, trace_ids, untraced, facts)
