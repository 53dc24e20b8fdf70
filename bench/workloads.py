"""The three workloads and their output checks.

Every workload is a closed loop with one client in one process: the runner
issues one step, waits for it to finish, then issues the next.  There is no
worker pool -- ``ParallelExecutor`` scaling stays out on purpose, because on a
small shared host its wall time measures the scheduler, not the suite.  Each
timed pass drives the public ``repro`` API the way a user of the suite would:

* ``campaign`` -- plan, serially evaluate and export the paper's campaign on
  RTX_3090 + RTX_2080_Ti.  The only workload that calls the analytical model.
* ``replay`` -- open an existing campaign three ways (resume its checkpoint, load
  its JSON exports, memory-map columnar copies), then draw Figs. 2-5 and replay
  the eight index-native tuners on every cache.
* ``learn`` -- the GBDT-backed jobs: Fig. 6 PFI on gemm and hotspot, and
  ``SurrogateSearch`` on the pnpoly and convolution replays.

Checks run after each pass, outside its timed region, and every operation they
cover (shard, exported or opened file, tuner run, analysis call, PFI report,
surrogate run) is counted in the run's :class:`~stats.Ledger`.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro
from repro.analysis import (
    centrality_study,
    feature_importance,
    portability_study,
    random_search_convergence,
    speedup_study,
)
from repro.analysis.convergence import tuner_convergence
from repro.core.budget import Budget
from repro.core.cache import EvaluationCache
from repro.exec import CheckpointStore, SerialExecutor, ShardPlanner, resume_campaign
from repro.io import load_cache, save_cache
from repro.tuners import SurrogateSearch, all_tuners

from passclock import PassClock, PassTiming
from refclock import RefClock
from stats import Ledger, percentile, tail_percentile

__all__ = ["WORKLOADS", "Env", "Campaign"]

#: The paper campaign's devices (sorted, as the planner seeds them).
PAPER_GPUS = ("RTX_2080_Ti", "RTX_3090")

#: Tuners that run index-native on a cache replay.
INDEX_TUNERS = ("random", "grid", "local", "greedy_ils", "annealing", "genetic",
                "diff_evo", "pso")

#: Evaluations per tuner run (replay tuners and the surrogate alike).
TUNER_BUDGET = 150

#: The figure pipeline's Fig. 6 settings.
PFI_SETTINGS = {"n_estimators": 150, "max_depth": 5, "learning_rate": 0.1,
                "n_repeats": 2, "max_samples": 6000}

#: One exhaustive and one sampled campaign for PFI; the ablation's surrogate targets.
PFI_BENCHMARKS = ("gemm", "hotspot")
SURROGATE_BENCHMARKS = ("pnpoly", "convolution")
LEARN_GPU = "RTX_3090"

#: Set-ups per run; the report gives their median.  A campaign set-up is only
#: the imports and registry build, so it is repeated more to steady the median.
SETUP_REPEATS = {"campaign": 9, "replay": 3, "learn": 3}

Key = tuple[str, str]


def paper_gpus() -> dict[str, Any]:
    catalog = repro.gpu_catalog()
    return {name: catalog[name] for name in PAPER_GPUS}


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def columnar_digest(cache: EvaluationCache, scratch: Path) -> str:
    """Digest of a cache's columnar bytes: equal digests mean equal rows, in order."""
    path = cache.to_columnar(scratch / "digest.col")
    try:
        return file_digest(path)
    finally:
        path.unlink()


def combined_digest(parts: dict[Any, str]) -> str:
    text = "".join(f"{key}={value}\n" for key, value in parts.items())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_stem(key: Key) -> str:
    return f"{key[0]}@{key[1]}"


@dataclass
class Env:
    """What a workload needs from the run: its seed, scratch space and ledger."""

    seed: int
    work: Path
    ledger: Ledger
    pins: dict[str, Any] | None = None  # expected digests, for the default seed only
    observed: dict[str, Any] = field(default_factory=dict)
    refclock: RefClock | None = None  # host speed, measured during untraced runs

    def pass_clock(self) -> PassClock:
        """A clock for one timed pass, measuring host speed when ``refclock`` runs."""
        if self.refclock is None:
            return PassClock()
        return PassClock(self.refclock.now, self.refclock.speed)

    def pin(self, name: str, value: Any) -> None:
        """Record an output digest and check it against the pinned one."""
        self.observed[name] = value
        if self.pins is not None:
            expected = self.pins.get(name)
            self.ledger.record("pinned digest", expected == value,
                               f"{name}: expected {expected}, got {value}")


def pooled(timings: list[PassTiming], prefix: str) -> list[float]:
    """Seconds of every operation whose label starts with ``prefix``, all passes."""
    return [v for t in timings for k, v in t.ops.items() if k.startswith(prefix)]


def tail_note(samples: list[float]) -> str:
    tail = tail_percentile(len(samples))
    if tail is None:
        return f"n={len(samples)}"
    return f"n={len(samples)}, highest percentile with >=10 beyond: p{tail:g}"


# --------------------------------------------------------------------- campaigns


@dataclass
class Campaign:
    """One campaign: its plan and caches, and the files it left on disk."""

    plan: Any
    caches: dict[Key, EvaluationCache]
    checkpoint: Path
    exports: dict[Key, Path] = field(default_factory=dict)
    columnar: dict[Key, Path] = field(default_factory=dict)


def run_paper_campaign(seed: int, directory: Path, clock: PassClock,
                       units: list[Key] | None = None) -> Campaign:
    """Plan and serially run the paper campaign (or some of its units), lapping
    ``clock`` once per shard (the first lap includes the registry build and plan)
    and once for the executor's merge."""
    benchmarks, gpus = repro.benchmark_suite(), paper_gpus()
    planner = ShardPlanner(benchmarks=benchmarks, gpus=gpus, seed=seed)
    plan = planner.plan(None if units is None
                        else [planner.unit_for(b, g) for b, g in units])
    checkpoint = directory / "checkpoint"
    shard_ids = iter(range(len(plan.shards)))
    caches = SerialExecutor().run(
        plan, benchmarks=benchmarks, gpus=gpus,
        checkpoint=CheckpointStore(checkpoint, fragment_format="columnar"),
        progress=lambda _line: clock.lap(f"shard:{next(shard_ids)}"))
    clock.lap("merge")
    return Campaign(plan, caches, checkpoint)


def export_json(campaign: Campaign, directory: Path, clock: PassClock) -> None:
    """Export every cache as JSON.gz, one lap each."""
    for key, cache in campaign.caches.items():
        campaign.exports[key] = save_cache(cache, directory / f"{file_stem(key)}.json.gz")
        clock.lap(f"export:{file_stem(key)}")


def check_shard(store: CheckpointStore, shard: Any) -> tuple[bool, str]:
    """A fragment holds one row per config; every failure carries its error string."""
    rows = store.load_shard(shard)
    if len(rows) != shard.n_configs:
        return False, f"shard {shard.shard_id}: {len(rows)} rows, expected {shard.n_configs}"
    for value, valid, error in rows:
        if valid and (error or not (math.isfinite(value) and value > 0)):
            return False, f"shard {shard.shard_id}: valid row {value!r} {error!r}"
        if not valid and not error:
            return False, f"shard {shard.shard_id}: failure without an error string"
    return True, ""


def check_campaign(env: Env, campaign: Campaign,
                   reference: dict[Key, str] | None) -> dict[Key, str]:
    """Check a pass's shards and exports; returns the export digests.

    ``reference`` holds the digests of an earlier pass with the same seed, whose
    exports must be byte-identical; without it the exports are checked by a JSON
    round trip against the in-memory caches.
    """
    store = CheckpointStore(campaign.checkpoint)
    for shard in campaign.plan.shards:
        env.ledger.check("shard", lambda: check_shard(store, shard))
    digests: dict[Key, str] = {}
    for unit in campaign.plan.units:
        key = unit.key

        def check_export() -> tuple[bool, str]:
            cache = campaign.caches[key]
            if len(cache) != unit.n_configs:
                return False, f"{key}: {len(cache)} rows, plan has {unit.n_configs}"
            digests[key] = file_digest(campaign.exports[key])
            if reference is not None:
                return digests[key] == reference.get(key), f"{key}: export bytes differ"
            same = (columnar_digest(load_cache(campaign.exports[key]), env.work)
                    == columnar_digest(cache, env.work))
            return same, f"{key}: JSON round trip changed rows"

        env.ledger.check("exported file", check_export)
    return digests


# ---------------------------------------------------------------------- campaign


def campaign_pass(env: Env, directory: Path) -> tuple[PassTiming, Campaign]:
    clock = env.pass_clock()
    campaign = run_paper_campaign(env.seed, directory, clock)
    export_json(campaign, directory, clock)
    return clock.finish(evaluations=campaign.plan.n_configs), campaign


class CampaignWorkload:
    name = "campaign"

    def __init__(self, env: Env) -> None:
        self.env = env
        self.reference: dict[Key, str] | None = None

    def setup(self, directory: Path, clock: PassClock) -> None:
        """Registry build only: the campaign itself is the timed pass."""
        repro.benchmark_suite()
        paper_gpus()
        clock.lap("registry")

    def run_pass(self, index: int) -> PassTiming:
        directory = self.env.work / f"pass-{index}"
        timing, campaign = campaign_pass(self.env, directory)
        digests = check_campaign(self.env, campaign, self.reference)
        if self.reference is None:
            self.reference = digests
            self.env.pin("campaign.exports", combined_digest(
                {file_stem(k): v for k, v in digests.items()}))
        shutil.rmtree(directory)
        return timing

    @staticmethod
    def figures(timings: list[PassTiming]) -> dict[str, tuple[float, str]]:
        shards = pooled(timings, "shard:")
        return {"configs_per_s": (statistics.median(t.evaluations / t.wall_s
                                                    for t in timings), ""),
                "shard_ms_p50": (1e3 * percentile(shards, 50), tail_note(shards))}


# ------------------------------------------------------------------------ replay


def replay_inputs(env: Env, directory: Path, clock: PassClock) -> Campaign:
    """The replay's prerequisite: the paper campaign, its JSON exports and
    columnar copies, on disk."""
    campaign = run_paper_campaign(env.seed, directory, clock)
    export_json(campaign, directory, clock)
    for key, cache in campaign.caches.items():
        campaign.columnar[key] = cache.to_columnar(directory / f"{file_stem(key)}.col")
        clock.lap(f"columnar:{file_stem(key)}")
    return campaign


def recording(factory: Callable[[], Any], sink: list) -> Callable[[], Any]:
    """Wrap a tuner factory so each run's :class:`TuningResult` lands in ``sink``.

    ``tuner_convergence`` returns only the aggregated curve; the per-run results
    are what the budget check and the pinned best-value traces need.
    """
    def make() -> Any:
        tuner = factory()
        tune = tuner.tune

        def tune_and_keep(*args: Any, **kwargs: Any) -> Any:
            result = tune(*args, **kwargs)
            sink.append(result)
            return result

        tuner.tune = tune_and_keep
        return tuner
    return make


@dataclass
class ReplayOutputs:
    resumed: dict[Key, EvaluationCache]
    loaded: dict[Key, EvaluationCache]
    mapped: dict[Key, EvaluationCache]
    curves: dict[Key, Any]
    centrality: dict[Key, Any]
    speedups: list
    portability: dict[str, Any]
    runs: list[tuple[Key, str, Any]]  # (cache key, tuner, TuningResult)


def replay_pass(env: Env, inputs: Campaign) -> tuple[PassTiming, ReplayOutputs]:
    clock = env.pass_clock()

    def timed(label: str, call: Callable[[], Any]) -> Any:
        result = call()
        clock.lap(label)
        return result

    benchmarks = timed("registry", repro.benchmark_suite)
    gpus = paper_gpus()
    resumed = timed("open.resume", lambda: resume_campaign(
        inputs.checkpoint, benchmarks=benchmarks, gpus=gpus))
    loaded = {key: timed(f"open.json:{file_stem(key)}", lambda: load_cache(path))
              for key, path in inputs.exports.items()}
    mapped = timed("open.columnar", lambda: {
        key: EvaluationCache.from_columnar(path, mmap=True)
        for key, path in inputs.columnar.items()})
    timed("open.index_tables", lambda: [c.index_table() for c in mapped.values()])

    curves = timed("figure.2", lambda: {key: random_search_convergence(cache, seed=env.seed)
                                        for key, cache in mapped.items()})
    centrality = timed("figure.3", lambda: centrality_study(mapped))
    speedups = timed("figure.4", lambda: speedup_study(mapped))
    portability = timed("figure.5", lambda: portability_study(benchmarks, mapped, gpus))

    factories = all_tuners()
    runs: list[tuple[Key, str, Any]] = []
    for key, cache in mapped.items():
        for name in INDEX_TUNERS:
            results: list = []
            timed(f"tuner:{name}@{file_stem(key)}", lambda: tuner_convergence(
                cache, recording(factories[name], results), repetitions=1,
                budget=TUNER_BUDGET, base_seed=env.seed))
            runs.append((key, name, results[0]))

    timing = clock.finish(evaluations=sum(len(result) for _, _, result in runs))
    outputs = ReplayOutputs(resumed, loaded, mapped, curves, centrality, speedups,
                            portability, runs)
    return timing, outputs


def check_curve(curve: Any) -> tuple[bool, str]:
    y = curve.median_relative_performance
    ok = bool(np.all(np.diff(y) >= 0) and y[0] > 0 and y[-1] <= 1.0)
    return ok, f"{curve.benchmark}/{curve.gpu}: median curve not monotone in (0, 1]"


def check_centrality(reports: dict[Key, Any]) -> tuple[bool, str]:
    if not reports:
        return False, "no centrality reports"
    for key, report in reports.items():
        values = np.asarray(report.values)
        order = np.argsort(report.proportions)
        if not (np.all((values >= 0) & (values <= 1))
                and np.all(np.diff(values[order]) >= 0) and report.num_nodes > 0):
            return False, f"{key}: centrality {report.values} not monotone in [0, 1]"
    return True, ""


def check_speedups(entries: list) -> tuple[bool, str]:
    bad = [e for e in entries if not (math.isfinite(e.speedup) and e.speedup >= 1.0)]
    return not bad and bool(entries), f"speedups below 1: {bad[:2]}"


def check_portability(matrices: dict[str, Any]) -> tuple[bool, str]:
    for name, matrix in matrices.items():
        m = matrix.relative_performance
        if not (np.all(np.diag(m) == 1.0) and np.all((m >= 0) & (m <= 1))):
            return False, f"{name}: transfer matrix outside [0, 1] or diagonal != 1"
    return bool(matrices), "no portability matrices"


def check_tuner_run(key: Key, name: str, result: Any) -> tuple[bool, str]:
    n = len(result)
    return 0 < n <= TUNER_BUDGET, f"{name} on {key}: {n} evaluations, budget {TUNER_BUDGET}"


def best_traces_digest(runs: list[tuple[Key, str, Any]]) -> str:
    h = hashlib.sha256()
    for _key, _name, result in runs:
        h.update(np.ascontiguousarray(result.best_value_trace(), dtype="<f8").tobytes())
    return h.hexdigest()


def check_replay(env: Env, outputs: ReplayOutputs, fresh: dict[Key, str]) -> None:
    """Every opened cache matches the campaign row for row; figures and tuner runs
    pass their checks."""
    ledger = env.ledger
    for label, caches in (("resumed", outputs.resumed), ("json", outputs.loaded),
                          ("columnar", outputs.mapped)):
        for key, want in fresh.items():
            ledger.check("opened file", lambda: (
                columnar_digest(caches[key], env.work) == want,
                f"{label} {key} differs from the fresh campaign"))
    for curve in outputs.curves.values():
        ledger.check("analysis call", lambda: check_curve(curve))
    ledger.check("analysis call", lambda: check_centrality(outputs.centrality))
    ledger.check("analysis call", lambda: check_speedups(outputs.speedups))
    ledger.check("analysis call", lambda: check_portability(outputs.portability))
    for key, name, result in outputs.runs:
        ledger.check("tuner run", lambda: check_tuner_run(key, name, result))


class ReplayWorkload:
    name = "replay"

    def __init__(self, env: Env) -> None:
        self.env = env
        self.inputs: Campaign | None = None
        self.fresh: dict[Key, str] = {}

    def setup(self, directory: Path, clock: PassClock) -> None:
        self.inputs = replay_inputs(self.env, directory, clock)
        self.inputs.caches = {}  # the files are the replay's input, not the objects

    def run_pass(self, index: int) -> PassTiming:
        if index == 0:
            self.fresh = {key: file_digest(path) for key, path in self.inputs.columnar.items()}
        timing, outputs = replay_pass(self.env, self.inputs)
        check_replay(self.env, outputs, self.fresh)
        if index == 0:
            self.env.pin("replay.best_traces", best_traces_digest(outputs.runs))
            self.env.pin("replay.ffg", {file_stem(k): [r.num_nodes, r.num_edges]
                                        for k, r in outputs.centrality.items()})
        return timing

    @staticmethod
    def figures(timings: list[PassTiming]) -> dict[str, tuple[float, str]]:
        runs = pooled(timings, "tuner:")
        return {
            "open_s": (statistics.median(t.total("open.") for t in timings), ""),
            "tuner_evals_per_s": (sum(t.evaluations for t in timings) / sum(runs), ""),
            "tuner_run_ms_p50": (1e3 * percentile(runs, 50), tail_note(runs)),
            "tuner_run_ms_p90": (1e3 * percentile(runs, 90), tail_note(runs)),
            "figures_s": (statistics.median(t.total("figure.") for t in timings), ""),
        }


# ------------------------------------------------------------------------- learn


def learn_inputs(env: Env, directory: Path, clock: PassClock) -> Campaign:
    """The RTX_3090 units of the paper campaign that the learned models read."""
    units = [(name, LEARN_GPU) for name in PFI_BENCHMARKS + SURROGATE_BENCHMARKS]
    return run_paper_campaign(env.seed, directory, clock, units=units)


def importance_digest(reports: dict[str, Any]) -> str:
    """Digest of the PFI scores, rounded so that last-bit float noise cannot move it."""
    rounded = {name: {p: round(v, 6) for p, v in report.importances.items()}
               for name, report in reports.items()}
    return combined_digest(rounded)


def check_report(cache: EvaluationCache, report: Any) -> tuple[bool, str]:
    values = np.asarray(list(report.importances.values()))
    expected_rows = min(cache.num_valid, PFI_SETTINGS["max_samples"])
    ok = (len(values) == cache.space.dimensions and bool(np.all(np.isfinite(values)))
          and report.n_samples == expected_rows and math.isfinite(report.r2))
    return ok, f"PFI {cache.benchmark}: {report.n_samples} rows, r2={report.r2}"


def check_surrogate(cache: EvaluationCache, result: Any) -> tuple[bool, str]:
    n = len(result)
    best = result.best_value
    ok = 0 < n <= TUNER_BUDGET and math.isfinite(best) and best >= cache.optimum()
    return ok, f"surrogate on {cache.benchmark}: {n} evaluations, best {best}"


def check_learn(env: Env, caches: dict[Key, EvaluationCache], reports: dict[str, Any],
                results: dict[str, Any]) -> None:
    for name, report in reports.items():
        cache = caches[(name, LEARN_GPU)]
        env.ledger.check("PFI report", lambda: check_report(cache, report))
    for name, result in results.items():
        cache = caches[(name, LEARN_GPU)]
        env.ledger.check("surrogate run", lambda: check_surrogate(cache, result))


def learn_pass(env: Env, caches: dict[Key, EvaluationCache]
               ) -> tuple[PassTiming, dict[str, Any], dict[str, Any]]:
    clock = env.pass_clock()
    reports: dict[str, Any] = {}
    for name in PFI_BENCHMARKS:
        reports[name] = feature_importance(caches[(name, LEARN_GPU)],
                                           random_state=env.seed, **PFI_SETTINGS)
        clock.lap(f"pfi:{name}")
    results: dict[str, Any] = {}
    for name in SURROGATE_BENCHMARKS:
        problem = caches[(name, LEARN_GPU)].to_problem(strict=False, memoize=True)
        results[name] = SurrogateSearch().tune(problem, Budget(max_evaluations=TUNER_BUDGET),
                                               seed=env.seed)
        clock.lap(f"surrogate:{name}")
    return clock.finish(), reports, results


class LearnWorkload:
    name = "learn"

    def __init__(self, env: Env) -> None:
        self.env = env
        self.caches: dict[Key, EvaluationCache] = {}

    def setup(self, directory: Path, clock: PassClock) -> None:
        self.caches = learn_inputs(self.env, directory, clock).caches

    def run_pass(self, index: int) -> PassTiming:
        timing, reports, results = learn_pass(self.env, self.caches)
        check_learn(self.env, self.caches, reports, results)
        if index == 0:
            self.env.pin("learn.importances", importance_digest(reports))
        return timing

    @staticmethod
    def figures(timings: list[PassTiming]) -> dict[str, tuple[float, str]]:
        reports, runs = pooled(timings, "pfi:"), pooled(timings, "surrogate:")
        return {"pfi_report_s_p50": (percentile(reports, 50), f"n={len(reports)}"),
                "surrogate_run_s_p50": (percentile(runs, 50), f"n={len(runs)}")}


WORKLOADS = {"campaign": CampaignWorkload, "replay": ReplayWorkload,
             "learn": LearnWorkload}
