"""Micro-benchmark harness for the columnar search-space engine.

Times the hot paths the engine rewired -- batched unique sampling, exact constrained
counting, columnar replay opens and sharded campaign execution -- against faithful
re-creations of the seed repository's scalar/dictionary implementations (or the
feasible-set sweep, the JSON load, or the serial reference executor), asserts that
both produce identical results, and writes the timings to ``BENCH_perf.json`` so
before/after comparisons survive the run.  The fitness-flow graph, PageRank, restart
draw, JSON export, feasible-set sweep and GBDT entries are absolute costs per item
(each has one implementation, so no ratio): a repeat-k median with a bootstrap 95%
confidence interval of that median.  The JSON export and the sweep also record the
traced peak of one call, the transient working set a campaign pays for them.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_suite.py [--output BENCH_perf.json]

or via ``scripts/run_perf.sh``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.searchspace import SearchSpace
from repro.exec import ParallelExecutor, SerialExecutor, ShardPlanner
from repro.io.cachefile import load_cache, save_cache
from repro.gpus.specs import RTX_3090, all_gpus
from repro.graph.ffg import build_ffg
from repro.graph.pagerank import pagerank
from repro.kernels import all_benchmarks
from repro.ml.gbdt import GradientBoostingRegressor
from repro.ml.permutation_importance import permutation_importance

SAMPLE_N = 10_000
FFG_REPEATS = 21        # FFG builds timed for ffg_build_gemm
PAGERANK_REPEATS = 11   # PageRank calls timed for pagerank_gemm
PAGERANK_ITERATIONS = 50  # power-iteration steps per timed PageRank call
RESTART_REPEATS = 21    # batches timed for restart_draw_expdist
RESTART_DRAWS = 200     # restart draws per timed batch
CAMPAIGN_WORKERS = 4
REPLAY_CACHE_POINTS = 100_000  # rows in the cache_replay_open cache
GBDT_FIT_REPEATS = 21   # surrogate-shaped fits timed for gbdt_surrogate_fit
PFI_REPEATS = 11        # PFI reports timed for pfi_gemm_shape
JSON_EXPORT_REPEATS = 11  # save_cache calls timed for json_export_gemm
FEASIBLE_REPEATS = 21   # fresh-space sweeps timed for feasible_gemm
BOOTSTRAP_SAMPLES = 2000


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


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def timed_best(fn, *args, repeats=3):
    """Best-of-N timing: the measured work is deterministic, so the minimum is the
    measurement least polluted by scheduler noise / GC on shared hosts."""
    best_result, best_time = None, math.inf
    for _ in range(repeats):
        gc.collect()
        result, elapsed = timed(fn, *args)
        if elapsed < best_time:
            best_result, best_time = result, elapsed
    return best_result, best_time


def median_ci(samples: list[float], seed: int = 2023) -> tuple[float, float, float]:
    """``(median, low, high)``: the median and a bootstrap 95% interval of it,
    resampled from a seeded generator."""
    values = np.asarray(samples, dtype=float)
    rng = np.random.default_rng(seed)
    resampled = rng.choice(values, size=(BOOTSTRAP_SAMPLES, len(values)), replace=True)
    low, high = np.percentile(np.median(resampled, axis=1), [2.5, 97.5])
    return float(np.median(values)), float(low), float(high)


def repeat_timings(fn, repeats: int) -> list[float]:
    """Seconds of ``repeats`` calls of ``fn``, each after a collection."""
    timings = []
    for _ in range(repeats):
        gc.collect()
        timings.append(timed(fn)[1])
    return timings


def absolute_entry(description: str, unit: str, per_item: list[float], k: int) -> dict:
    median, low, high = median_ci(per_item)
    return {"description": description, "unit": unit, "median": round(median, 2),
            "ci95": [round(low, 2), round(high, 2)], "repeats": k}


def traced_peak_mb(fn) -> float:
    """Peak traced allocations of one call of ``fn``, after a collection, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def working_set_entries(benchmarks: dict) -> dict[str, dict]:
    """The campaign's two transient working sets on gemm, its largest exhaustive
    space: the JSON export of the RTX_3090 cache and the feasible-set sweep of a
    fresh space (truth tables built outside the timer).  Each entry records the
    traced peak of one call next to its time per item."""
    cache = benchmarks["gemm"].build_cache(RTX_3090, seed=2023)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "gemm.json.gz"
        save_cache(cache, path)
        saves = repeat_timings(lambda: save_cache(cache, path), JSON_EXPORT_REPEATS)
        save_peak = traced_peak_mb(lambda: save_cache(cache, path))

    gemm = benchmarks["gemm"].space

    def fresh_space() -> SearchSpace:
        space = SearchSpace(gemm.parameters, gemm.constraints)
        space.satisfied_mask([0])
        return space

    sweeps = []
    for _ in range(FEASIBLE_REPEATS):
        space = fresh_space()
        gc.collect()
        sweeps.append(timed(space.feasible_indices, force=True)[1])
    space = fresh_space()
    sweep_peak = traced_peak_mb(lambda: space.feasible_indices(force=True))
    entries = {
        "json_export_gemm": {**absolute_entry(
            f"save_cache of the gemm RTX_3090 export ({len(cache)} rows, level-9 gzip): "
            f"time per row", "us/row",
            [t / len(cache) * 1e6 for t in saves], JSON_EXPORT_REPEATS),
            "traced_peak_mb": save_peak},
        "feasible_gemm": {**absolute_entry(
            f"feasible_indices(force=True) of a fresh gemm space ({gemm.cardinality} "
            f"raw points): time per raw point", "ns/point",
            [t / gemm.cardinality * 1e9 for t in sweeps], FEASIBLE_REPEATS),
            "traced_peak_mb": sweep_peak},
    }
    print_entries(entries)
    return entries


def graph_entries(benchmarks: dict) -> dict[str, dict]:
    """FFG build and PageRank at the Fig. 3 gemm RTX_3090 shape (the exhaustive
    cache).  PageRank runs a fixed number of steps (``tol=0``), so its cost per edge
    per iteration includes the one-off set-up spread over those steps."""
    cache = benchmarks["gemm"].build_cache(RTX_3090, seed=2023)
    graph = build_ffg(cache)
    shape = f"gemm RTX_3090 ({graph.num_nodes} nodes, {graph.num_edges} edges)"
    builds = repeat_timings(lambda: build_ffg(cache), FFG_REPEATS)
    ranks = repeat_timings(lambda: pagerank(graph.csr_arrays(), tol=0.0,
                                            max_iterations=PAGERANK_ITERATIONS),
                           PAGERANK_REPEATS)
    per_step = graph.num_edges * PAGERANK_ITERATIONS
    entries = {
        "ffg_build_gemm": absolute_entry(
            f"fitness-flow graph build of the Fig. 3 {shape}: time per graph",
            "ms/graph", [t * 1e3 for t in builds], FFG_REPEATS),
        "pagerank_gemm": absolute_entry(
            f"PageRank on the FFG of the Fig. 3 {shape}, {PAGERANK_ITERATIONS} power "
            f"iterations: time per edge per iteration", "ns/edge/iteration",
            [t / per_step * 1e9 for t in ranks], PAGERANK_REPEATS),
    }
    print_entries(entries)
    return entries


def restart_entries(benchmarks: dict) -> dict[str, dict]:
    """The tuners' restart draw (``sample_one_index``) on Expdist, the sparsest
    kernel space, from one seeded generator."""
    space = benchmarks["expdist"].space
    feasible = space.count_constrained() / space.cardinality
    rng = np.random.default_rng(2023)

    def batch():
        for _ in range(RESTART_DRAWS):
            space.sample_one_index(rng=rng)

    batches = repeat_timings(batch, RESTART_REPEATS)
    entries = {"restart_draw_expdist": absolute_entry(
        f"restart draw (sample_one_index) on expdist (cardinality {space.cardinality}, "
        f"{feasible:.1%} feasible), {RESTART_DRAWS} draws per repeat: time per draw",
        "us/draw", [t / RESTART_DRAWS * 1e6 for t in batches], RESTART_REPEATS)}
    print_entries(entries)
    return entries


def print_entries(entries: dict[str, dict]) -> None:
    for name, entry in entries.items():
        peak = entry.get("traced_peak_mb")
        print(f"{name:<22}: {entry['median']:9.2f} {entry['unit']}  "
              f"95% CI [{entry['ci95'][0]:.2f}, {entry['ci95'][1]:.2f}]"
              + ("" if peak is None else f"  traced peak {peak:.2f} MB"))


def gbdt_entries() -> dict[str, dict]:
    """The learn workload's two GBDT shapes, timed on the perf-smoke gates' data."""
    rng = np.random.default_rng(2023)
    X = rng.integers(0, 8, size=(150, 6)).astype(float)
    y = np.log1p(X[:, 0] * X[:, 1] + X[:, 2] ** 2 + 3.0 * X[:, 3])
    n_trees = 60
    fits = repeat_timings(lambda: GradientBoostingRegressor(
        n_estimators=n_trees, max_depth=4, learning_rate=0.15, random_state=0).fit(X, y),
        GBDT_FIT_REPEATS)
    entries = {"gbdt_surrogate_fit": absolute_entry(
        f"SurrogateSearch-shaped GBDT fit ({n_trees} trees, depth 4, 150 x 6 integer "
        f"matrix): time per tree", "us/tree",
        [t / n_trees * 1e6 for t in fits], GBDT_FIT_REPEATS)}

    rng = np.random.default_rng(2023)
    X = rng.integers(0, 6, size=(6000, 10)).astype(float) * rng.integers(1, 5, size=10)
    y = np.log1p(X[:, 0] * X[:, 1] + X[:, 2] ** 1.5 + X[:, 3] * X[:, 4]
                 + 0.1 * X[:, 5:].sum(axis=1))
    model = GradientBoostingRegressor(n_estimators=150, max_depth=5, random_state=0).fit(X, y)
    reports = repeat_timings(
        lambda: permutation_importance(model, X, y, n_repeats=2, random_state=0), PFI_REPEATS)
    entries["pfi_gemm_shape"] = absolute_entry(
        "permutation importance at the learn workload's gemm shape (150 trees, depth 5, "
        "6000 x 10, 2 repeats): time per report", "ms/report",
        [t * 1e3 for t in reports], PFI_REPEATS)
    print_entries(entries)
    return entries


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
        vec, t_vec = timed(lambda: space.configs_at(space.sample_indices(
            SAMPLE_N, rng=2023, valid_only=True, unique=True)))
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

    # ------------------------------ FFG build and PageRank, absolute costs (Fig. 3)
    report.update(graph_entries(benchmarks))
    report.update(restart_entries(benchmarks))
    report.update(working_set_entries(benchmarks))

    # ------------------------------------------------- exact constrained counting
    # Variable elimination over the truth tables vs the sweep of the feasible set
    # (on a copy of the space, so no memo answers for it).
    gemm_space = benchmarks["gemm"].space
    count_elim, t_elim = timed(gemm_space.count_constrained)
    swept = SearchSpace(gemm_space.parameters, gemm_space.constraints)
    feasible, t_sweep = timed(swept.feasible_indices, force=True)
    report["count_constrained_gemm"] = {
        "description": f"exact constrained count of GEMM "
                       f"(cardinality {gemm_space.cardinality}, Table VIII): "
                       f"feasible-set sweep vs variable elimination",
        "sweep_s": round(t_sweep, 4),
        "eliminated_s": round(t_elim, 4),
        "speedup": round(t_sweep / t_elim, 1),
        "identical": count_elim == feasible.size,
        "count": count_elim,
    }
    print(f"count_constrained gemm: sweep {t_sweep:7.3f}s  "
          f"eliminated {t_elim:7.3f}s  {t_sweep / t_elim:6.1f}x  "
          f"identical={count_elim == feasible.size} (count={count_elim})")

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

        def probe_all(cache):
            table = cache.index_table()
            return [table.lookup_one(index) for index in probe.tolist()]

        def open_json():
            return probe_all(load_cache(json_path, space=space))

        def open_columnar():
            return probe_all(EvaluationCache.from_columnar(col_path, space=space))

        open_json(), open_columnar()  # warm the page cache for both files
        json_probe, t_json = timed_best(open_json)
        col_probe, t_col = timed_best(open_columnar)
        identical = (
            json_probe == col_probe
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

    # ------------------------------------------ GBDT fit and PFI, absolute costs
    report.update(gbdt_entries())

    out_path = Path(args.output)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out_path}")

    # Entries without a reference path (the absolute costs) have nothing to mismatch.
    mismatched = [k for k, v in report.items() if not v.get("identical", True)]
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
