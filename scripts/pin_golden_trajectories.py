"""Pin golden tuner trajectories for the trajectory-equivalence test suite.

Runs every in-repo tuner on every kernel benchmark (analytical-model problems on the
RTX 3090, plus cache-replay problems for one exhaustive-style and one sampled space)
and records each run's full observation sequence in compact form:
``[space_index, value, valid, error, evaluation_index]`` per observation.

The golden file was generated **at the seed (pre-index-native) revision** and is the
reference the parametrized test in ``tests/test_index_native.py`` compares against:
the index-native tuner runtime must reproduce every trajectory byte-for-byte (same
RNG streams, same configurations, same values, same error strings, same ordering).
Re-running this script on a revision that changes tuner semantics would silently
re-pin the goldens -- only do that deliberately, with a CHANGES.md note.

Usage::

    PYTHONPATH=src python scripts/pin_golden_trajectories.py
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

from repro.core.runner import run_tuning
from repro.gpus.specs import RTX_3090
from repro.kernels import all_benchmarks
from repro.tuners import (
    DifferentialEvolution,
    GeneticAlgorithm,
    GreedyILS,
    GridSearch,
    LocalSearch,
    ParticleSwarm,
    RandomSearch,
    SimulatedAnnealing,
    SurrogateSearch,
)

BUDGET = 40
SEED = 2023
REPLAY_CACHE_POINTS = 400

OUT_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / \
    "golden_trajectories.json.gz"


def tuner_matrix() -> dict[str, object]:
    """The tuner configurations whose trajectories are pinned."""
    return {
        "random": lambda: RandomSearch(),
        "grid_shuffled": lambda: GridSearch(stride=7919, shuffle=True),
        "local_first": lambda: LocalSearch(strategy="first"),
        "local_best": lambda: LocalSearch(strategy="best"),
        "greedy_ils": lambda: GreedyILS(perturbation_strength=2),
        "annealing": lambda: SimulatedAnnealing(),
        "genetic": lambda: GeneticAlgorithm(population_size=10),
        "diff_evo": lambda: DifferentialEvolution(population_size=8),
        "pso": lambda: ParticleSwarm(swarm_size=8),
        "surrogate": lambda: SurrogateSearch(initial_samples=12, batch_size=4,
                                             candidate_pool=120, n_estimators=15),
    }


def problem_matrix() -> dict[str, object]:
    """Name -> zero-argument problem factory (fresh problem per tuning run)."""
    benchmarks = all_benchmarks()
    problems: dict[str, object] = {}
    for name, benchmark in benchmarks.items():
        problems[f"model:{name}"] = (
            lambda b=benchmark: b.problem(RTX_3090))
    for name in ("hotspot", "gemm"):
        cache = benchmarks[name].build_cache(RTX_3090,
                                             sample_size=REPLAY_CACHE_POINTS, seed=5)
        problems[f"replay:{name}"] = (
            lambda c=cache: c.to_problem(strict=True, memoize=True))
    return problems


def encode_run(result, space) -> list[list]:
    rows = []
    for obs in result.observations:
        value = None if not math.isfinite(obs.value) else obs.value
        rows.append([int(space.index_of(obs.config)), value, bool(obs.valid),
                     obs.error, int(obs.evaluation_index)])
    return rows


def main() -> None:
    golden: dict[str, dict] = {
        "_meta": {"budget": BUDGET, "seed": SEED, "gpu": "RTX_3090",
                  "replay_cache_points": REPLAY_CACHE_POINTS,
                  "format": "[space_index, value|null, valid, error, evaluation_index]"},
        "runs": {},
    }
    tuners = tuner_matrix()
    for problem_name, make_problem in problem_matrix().items():
        for tuner_name, make_tuner in tuners.items():
            problem = make_problem()
            result = run_tuning(make_tuner(), problem, max_evaluations=BUDGET,
                                seed=SEED)
            key = f"{tuner_name}@{problem_name}"
            golden["runs"][key] = encode_run(result, problem.space)
            print(f"{key:>40}: {len(result)} observations, "
                  f"best {result.best_value:.4g}")

    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(golden, separators=(",", ":"), sort_keys=True)
    with gzip.GzipFile(OUT_PATH, "wb", mtime=0) as fh:
        fh.write(payload.encode("utf-8"))
    print(f"\nwrote {OUT_PATH} ({OUT_PATH.stat().st_size} bytes, "
          f"{len(golden['runs'])} runs)")


if __name__ == "__main__":
    main()
