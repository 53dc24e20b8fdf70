"""Experiment runner: the glue between tuners, problems and budgets.

The runner is intentionally small -- the heavy lifting lives in the tuners and the
kernel models -- but it is the single place where seeding, budget accounting and result
bookkeeping happen, so every experiment in the paper reproduction goes through it and
is therefore reproducible from a (tuner, problem, budget, seed) quadruple.
"""

from __future__ import annotations

import pickle
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
               max_evaluations: int, seed: int = 0,
               executor: Any = None) -> dict[tuple[str, str], TuningResult]:
    """Run every tuner on every problem once.

    Returns a dictionary keyed by ``(tuner_name, problem_name)``.  Used by the tuner
    comparison example and the ablation benchmark.

    Parameters
    ----------
    problems:
        Mapping of problem name to :class:`TuningProblem` -- or to a
        ``"benchmark@gpu"`` string resolved through the open benchmark registry
        (built-in kernels and runtime-registered scenarios alike), which is how
        matrix sweeps name hundreds of generated scenarios without constructing
        problem objects by hand.
    executor:
        Optional task mapper with a ``map(fn, iterable)`` method (e.g. a
        :class:`concurrent.futures.ThreadPoolExecutor`).  The matrix is partitioned
        *by problem* -- every tuner runs serially against its problem object, so the
        per-problem memoization/reset semantics are exactly those of the serial loop
        -- and the problem columns are dispatched through the executor.  Results are
        identical to the serial run (each run is deterministic given ``seed``); only
        wall-clock changes.  Process-pool mappers require picklable problems, which
        the closure-based kernel problems are not -- use thread- or in-process
        mappers for those.  Tuner *instances* (as opposed to ``seed=``-callable
        factories) carry per-run state on ``self``, so a concurrent mapper would
        race them across columns -- the matrix falls back to inline execution
        whenever a non-callable tuner is present.
    """
    problems = {name: _resolve_problem_spec(value)
                for name, value in problems.items()}
    if executor is not None and any(not callable(f) for f in tuners.values()):
        executor = None

    def run_column(item: tuple[str, TuningProblem]) -> dict[tuple[str, str], TuningResult]:
        problem_name, problem = item
        column: dict[tuple[str, str], TuningResult] = {}
        for tuner_name, tuner_factory in tuners.items():
            tuner = tuner_factory(seed=seed) if callable(tuner_factory) else tuner_factory
            problem.reset_cache()
            column[(tuner_name, problem_name)] = run_tuning(
                tuner, problem, max_evaluations=max_evaluations, seed=seed)
        return column

    if executor is None:
        columns = [run_column(item) for item in problems.items()]
    else:
        try:
            columns = list(executor.map(run_column, list(problems.items())))
        except (pickle.PicklingError, AttributeError) as exc:
            # Submission-side pickling of the local closure is the only failure
            # translated here ("Can't pickle local object 'run_matrix...'"); any
            # other AttributeError is a genuine bug and propagates untouched.
            if (isinstance(exc, AttributeError)
                    and "pickle local object" not in str(exc)):
                raise
            raise ReproError(
                "run_matrix's column runner closes over tuners and problems and "
                "cannot be shipped to worker processes; use a thread-based or "
                "in-process mapper (e.g. concurrent.futures.ThreadPoolExecutor, "
                "or executor=None)") from exc
    merged: dict[tuple[str, str], TuningResult] = {}
    for column in columns:
        merged.update(column)
    # Preserve the historical tuner-major key order of the serial loop.
    return {(tuner_name, problem_name): merged[(tuner_name, problem_name)]
            for tuner_name in tuners for problem_name in problems}
