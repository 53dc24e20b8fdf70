"""External-tuner adapter protocol.

The paper's framework "facilitates easy integration of new autotuners ... by defining a
shared problem interface" and ships adapters for Optuna, SMAC3, Kernel Tuner and KTT.
None of those frameworks are available in this offline reproduction, so this module
provides (a) the adapter protocol itself -- the thin translation layer an external
framework needs in order to consume a :class:`~repro.core.problem.TuningProblem` -- and
(b) concrete adapters for the frameworks the paper names, each of which transparently
falls back to an equivalent in-repo optimizer when its framework cannot be imported.

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

import importlib
import math
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.budget import Budget
from repro.core.problem import TuningProblem
from repro.tuners.base import Tuner
from repro.tuners.genetic import GeneticAlgorithm
from repro.tuners.random_search import RandomSearch
from repro.tuners.surrogate import SurrogateSearch

__all__ = [
    "space_to_choices",
    "objective_callback",
    "ExternalTunerAdapter",
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


class ExternalTunerAdapter(Tuner):
    """Base adapter: use an external framework if importable, else a fallback tuner.

    Subclasses set :attr:`framework_module` (the import that must succeed) and
    :attr:`fallback_factory` (the in-repo optimizer that emulates the framework's
    search behaviour).  A subclass with a native driver overrides
    :meth:`_run_external`, which runs when the framework imports; the framework is
    probed only for such a subclass, so an adapter without a driver runs its
    fallback without importing anything -- as every adapter does in this offline
    reproduction.
    """

    #: Name of the module whose importability signals that the framework is installed.
    framework_module: str = ""

    #: Factory for the in-repo optimizer used when the framework is unavailable.
    fallback_factory: Callable[..., Tuner] = RandomSearch

    def __init__(self, seed: int | None = None, **fallback_options: Any):
        super().__init__(seed=seed)
        self._fallback_options = fallback_options

    # ------------------------------------------------------------------ capability

    @classmethod
    def framework_available(cls) -> bool:
        """True when the external framework can be imported in this environment."""
        if not cls.framework_module:
            return False
        try:
            importlib.import_module(cls.framework_module)
        except ImportError:
            return False
        return True

    # ------------------------------------------------------------------- execution

    def _run_external(self, problem: TuningProblem, budget: Budget,
                      rng: np.random.Generator) -> None:
        """Drive the external framework (only called when it is importable)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement a native driver; "
            "the in-repo fallback optimizer is used instead")

    def _run(self, problem: TuningProblem, budget: Budget, rng: np.random.Generator) -> None:
        if (type(self)._run_external is not ExternalTunerAdapter._run_external
                and self.framework_available()):
            try:
                self._run_external(problem, budget, rng)
                return
            except NotImplementedError:
                pass
        fallback = self.fallback_factory(**self._fallback_options)
        self._share_run_state(fallback)
        try:
            fallback._run(problem, budget, rng)
        finally:
            self._clear_run_state(fallback)


class OptunaAdapter(ExternalTunerAdapter):
    """Adapter slot for Optuna (TPE sampler); falls back to the GBDT surrogate search."""

    name = "optuna"
    framework_module = "optuna"
    fallback_factory = SurrogateSearch


class SMAC3Adapter(ExternalTunerAdapter):
    """Adapter slot for SMAC3 (random-forest SMBO); falls back to the GBDT surrogate search."""

    name = "smac3"
    framework_module = "smac"
    fallback_factory = SurrogateSearch


class KernelTunerAdapter(ExternalTunerAdapter):
    """Adapter slot for Kernel Tuner; falls back to the genetic algorithm.

    Kernel Tuner's default strategy portfolio is dominated by evolutionary methods,
    so the GA is the closest in-repo stand-in.
    """

    name = "kernel_tuner"
    framework_module = "kernel_tuner"
    fallback_factory = GeneticAlgorithm


class KTTAdapter(ExternalTunerAdapter):
    """Adapter slot for the Kernel Tuning Toolkit (KTT); falls back to random search.

    KTT's reference searcher is uniform random sampling, which the fallback matches.
    """

    name = "ktt"
    framework_module = "pyktt"
    fallback_factory = RandomSearch

