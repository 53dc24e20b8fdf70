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

__all__ = ["run_tuning", "run_matrix"]


def run_tuning(tuner: "Tuner", problem: TuningProblem, max_evaluations: int | None = None,
               seed: int | None = None) -> TuningResult:
    """Run one tuner on one problem under an evaluation budget.

    Parameters
    ----------
    tuner:
        Any object implementing the :class:`repro.tuners.base.Tuner` interface.
    problem:
        The tuning problem (benchmark on a specific simulated GPU).
    max_evaluations:
        The run's ``Budget(max_evaluations=...)`` (None = unlimited).
    seed:
        Seed for the tuner's random generator.  If omitted the tuner's own seed (set
        at construction) is used.

    Returns
    -------
    TuningResult
        Ordered observations with benchmark/GPU/tuner metadata filled in.
    """
    run_budget = Budget(max_evaluations=max_evaluations)
    result = tuner.tune(problem, run_budget, seed=seed)
    result.benchmark = result.benchmark or problem.name
    result.gpu = result.gpu or problem.gpu
    result.tuner = result.tuner or tuner.name
    result.metadata.setdefault("budget", run_budget.to_dict())
    return result


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
    order.  ``examples/custom_benchmark.py`` sweeps its generated scenarios with it.
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
