"""Experiment runner: the glue between tuners, problems and budgets.

The runner is intentionally small -- the heavy lifting lives in the tuners and the
kernel models -- but it is the single place where seeding, budget accounting and result
bookkeeping happen, so every experiment in the paper reproduction goes through it and
is therefore reproducible from a (tuner, problem, budget, seed) quadruple.
"""

from __future__ import annotations

from typing import Any, Mapping


from repro.core.budget import Budget
from repro.core.errors import ReproError
from repro.core.problem import TuningProblem
from repro.core.result import TuningResult

__all__ = ["run_tuning", "run_repetitions", "run_matrix"]


def _make_budget(budget: Budget | None, max_evaluations: int | None) -> Budget:
    """Normalise the two ways of specifying a budget."""
    if budget is not None:
        return budget.copy()
    return Budget(max_evaluations=max_evaluations)


def run_tuning(tuner: "Tuner", problem: TuningProblem, budget: Budget | None = None,
               max_evaluations: int | None = None, seed: int | None = None) -> TuningResult:
    """Run one tuner on one problem under one budget.

    Parameters
    ----------
    tuner:
        Any object implementing the :class:`repro.tuners.base.Tuner` interface.
    problem:
        The tuning problem (benchmark on a specific simulated GPU).
    budget:
        Explicit budget object; mutually exclusive with ``max_evaluations``.
    max_evaluations:
        Shorthand for ``Budget(max_evaluations=...)``.
    seed:
        Seed for the tuner's random generator.  If omitted the tuner's own seed (set
        at construction) is used.

    Returns
    -------
    TuningResult
        Ordered observations with benchmark/GPU/tuner metadata filled in.
    """
    run_budget = _make_budget(budget, max_evaluations)
    result = tuner.tune(problem, run_budget, seed=seed)
    result.benchmark = result.benchmark or problem.name
    result.gpu = result.gpu or problem.gpu
    result.tuner = result.tuner or tuner.name
    result.metadata.setdefault("budget", run_budget.to_dict())
    return result


def run_repetitions(tuner_factory, problem: TuningProblem, repetitions: int,
                    max_evaluations: int, base_seed: int = 0) -> list[TuningResult]:
    """Run ``repetitions`` independent tuning runs with distinct seeds.

    ``tuner_factory`` is called with ``seed=`` for each repetition so that stateful
    tuners start fresh.  This is the machinery behind the paper's Fig. 2 (the median
    over 100 random-search repetitions).
    """
    results: list[TuningResult] = []
    for rep in range(repetitions):
        seed = base_seed + rep
        tuner = tuner_factory(seed=seed)
        results.append(run_tuning(tuner, problem, max_evaluations=max_evaluations, seed=seed))
    return results


def _resolve_problem_spec(value: Any) -> TuningProblem:
    """Resolve a ``run_matrix`` problem entry through the open registry.

    Strings of the form ``"benchmark@gpu"`` (e.g. ``"gemm@RTX_3090"``, or a
    runtime-registered custom scenario ``"syn_coupled_001@rtx-3090"``) resolve via
    :func:`repro.core.registry.get_benchmark` / :func:`~repro.core.registry.get_gpu`
    with their usual name normalization; anything else is returned unchanged.
    """
    if not isinstance(value, str):
        return value
    from repro.core.registry import get_benchmark, get_gpu

    benchmark_name, sep, gpu_name = value.partition("@")
    if not sep or not benchmark_name or not gpu_name:
        raise ReproError(
            f"problem spec {value!r} must look like 'benchmark@gpu' "
            f"(e.g. 'gemm@RTX_3090')")
    return get_benchmark(benchmark_name).problem(get_gpu(gpu_name))


def run_matrix(tuners: Mapping[str, Any], problems: Mapping[str, Any],
               max_evaluations: int, seed: int = 0
               ) -> dict[tuple[str, str], TuningResult]:
    """Run every tuner on every problem once.

    Returns a dictionary keyed by ``(tuner_name, problem_name)``, in tuner-major
    order.  Used by the tuner comparison example and the ablation benchmark.
    Runs go problem by problem, and each problem's memo is reset before every
    run, so no run sees another's evaluations.

    Parameters
    ----------
    problems:
        Mapping of problem name to :class:`TuningProblem` -- or to a
        ``"benchmark@gpu"`` string resolved through the open benchmark registry
        (built-in kernels and runtime-registered scenarios alike), which is how
        matrix sweeps name hundreds of generated scenarios without constructing
        problem objects by hand.
    """
    problems = {name: _resolve_problem_spec(value)
                for name, value in problems.items()}
    results: dict[tuple[str, str], TuningResult] = {}
    for problem_name, problem in problems.items():
        for tuner_name, tuner_factory in tuners.items():
            tuner = tuner_factory(seed=seed) if callable(tuner_factory) else tuner_factory
            problem.reset_cache()
            results[(tuner_name, problem_name)] = run_tuning(
                tuner, problem, max_evaluations=max_evaluations, seed=seed)
    return {(tuner_name, problem_name): results[(tuner_name, problem_name)]
            for tuner_name in tuners for problem_name in problems}
