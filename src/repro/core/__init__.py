"""Core problem interface shared by all benchmarks and all tuners.

This subpackage implements what the paper calls the "standardized problem interface":
general configuration-space and kernel-handler classes that both the benchmarks and the
autotuners program against, so that a new tuner or a new benchmark only has to implement
one small contract to participate in the suite.
"""

from repro.core.parameter import Parameter
from repro.core.constraints import Constraint, ConstraintSet
from repro.core.searchspace import SearchSpace
from repro.core.problem import TuningProblem
from repro.core.result import Observation, TuningResult
from repro.core.budget import Budget
from repro.core.cache import EvaluationCache

__all__ = [
    "Parameter",
    "Constraint",
    "ConstraintSet",
    "SearchSpace",
    "TuningProblem",
    "Observation",
    "TuningResult",
    "Budget",
    "EvaluationCache",
]
