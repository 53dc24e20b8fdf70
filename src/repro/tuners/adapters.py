"""External-tuner adapter protocol.

The paper's framework "facilitates easy integration of new autotuners ... by defining a
shared problem interface" and ships adapters for Optuna, SMAC3, Kernel Tuner and KTT.
None of those frameworks are available in this offline reproduction, so this module
provides (a) the adapter protocol itself -- the thin translation layer an external
framework needs in order to consume a :class:`~repro.core.problem.TuningProblem` -- and
(b) an adapter slot for each framework the paper names: the in-repo optimizer that
stands in for the framework's search behaviour, run under the framework's name.

The protocol is intentionally tiny.  An external framework integration needs three
things, and nothing else:

1. a *space translation*: :func:`space_to_choices` renders the search space as the
   "categorical choices per parameter name" structure every HPO framework understands;
2. an *objective callback*: :func:`objective_callback` wraps the problem's evaluation
   (invalid configurations return ``inf``, matching how the paper's tuners penalise
   failed compilations);
3. a *result translation*: the adapter returns a standard
   :class:`~repro.core.result.TuningResult`, so every downstream analysis works
   unchanged.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

from repro.core.problem import TuningProblem
from repro.tuners.genetic import GeneticAlgorithm
from repro.tuners.random_search import RandomSearch
from repro.tuners.surrogate import SurrogateSearch

__all__ = [
    "space_to_choices",
    "objective_callback",
    "OptunaAdapter",
    "SMAC3Adapter",
    "KernelTunerAdapter",
    "KTTAdapter",
]


def space_to_choices(problem: TuningProblem) -> dict[str, list[Any]]:
    """Render the search space as ``{parameter_name: [allowed values]}``.

    This is the lowest common denominator all hyper-parameter-optimization frameworks
    accept (Optuna's ``suggest_categorical``, SMAC's ``CategoricalHyperparameter``,
    Kernel Tuner's ``tune_params`` dictionary, KTT's ``AddParameter``).
    """
    return {p.name: list(p.values) for p in problem.space.parameters}


def objective_callback(problem: TuningProblem) -> Callable[[Mapping[str, Any]], float]:
    """An objective function ``config -> runtime`` suitable for external frameworks.

    Invalid configurations return ``math.inf`` instead of raising, because most HPO
    frameworks abort a study on exceptions but handle infinite losses gracefully.
    """
    def _objective(config: Mapping[str, Any]) -> float:
        observation = problem.evaluate(config)
        return observation.value if not observation.is_failure else math.inf

    return _objective


class OptunaAdapter(SurrogateSearch):
    """Adapter slot for Optuna (TPE sampler), run by the GBDT surrogate search."""

    name = "optuna"


class SMAC3Adapter(SurrogateSearch):
    """Adapter slot for SMAC3 (random-forest SMBO), run by the GBDT surrogate search."""

    name = "smac3"


class KernelTunerAdapter(GeneticAlgorithm):
    """Adapter slot for Kernel Tuner, run by the genetic algorithm.

    Kernel Tuner's default strategy portfolio is dominated by evolutionary methods,
    so the GA is the closest in-repo stand-in.
    """

    name = "kernel_tuner"


class KTTAdapter(RandomSearch):
    """Adapter slot for the Kernel Tuning Toolkit (KTT), run by random search.

    KTT's reference searcher is uniform random sampling, which the stand-in matches.
    """

    name = "ktt"
