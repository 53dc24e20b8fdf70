"""Unit tests for observations, tuning results, budgets and the problem interface."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.budget import Budget
from repro.core.errors import BudgetExhaustedError, ReproError, ResourceLimitError
from repro.core.problem import ObjectiveDirection, TuningProblem
from repro.core.result import Observation, TuningResult, merge_results
from repro.core.searchspace import SearchSpace
from repro.core.parameter import Parameter


def _toy_problem(evaluate=None, memoize=True):
    space = SearchSpace([Parameter("x", (1, 2, 3, 4)), Parameter("y", (1, 2, 3, 4))],
                        ["x * y <= 12"])
    if evaluate is None:
        def evaluate(cfg):
            return float(cfg["x"] * 10 + cfg["y"])
    return TuningProblem("toy", space, evaluate, gpu="SIM", memoize=memoize)


class TestObservation:
    def test_basic_fields(self):
        obs = Observation({"x": 1}, 2.5, evaluation_index=3, gpu="g", benchmark="b")
        assert obs.value == 2.5
        assert not obs.is_failure
        assert obs.key == (("x", 1),)

    def test_failure_detection(self):
        assert Observation({"x": 1}, math.inf).is_failure
        assert Observation({"x": 1}, 1.0, valid=False).is_failure

    def test_serialization_round_trip(self):
        obs = Observation({"x": 1, "y": 2}, 3.5, evaluation_index=7, gpu="g", benchmark="b")
        restored = Observation.from_dict(obs.to_dict())
        assert restored.config == {"x": 1, "y": 2}
        assert restored.value == 3.5
        assert restored.evaluation_index == 7

    def test_invalid_serializes_value_as_none(self):
        obs = Observation({"x": 1}, math.inf, valid=False, error="boom")
        data = obs.to_dict()
        assert data["value"] is None
        restored = Observation.from_dict(data)
        assert restored.is_failure and restored.error == "boom"


class TestTuningResult:
    def _result(self, values):
        result = TuningResult(benchmark="b", gpu="g", tuner="t", seed=0)
        for i, v in enumerate(values):
            valid = math.isfinite(v)
            result.record(Observation({"x": i}, v if valid else math.inf, valid=valid,
                                      evaluation_index=i))
        return result

    def test_best_and_counts(self):
        result = self._result([5.0, 3.0, math.inf, 4.0])
        assert result.num_evaluations == 4
        assert result.num_valid == 3
        assert result.num_failures == 1
        assert result.best_value == 3.0
        assert result.best_config == {"x": 1}

    def test_best_of_empty_run_raises(self):
        result = TuningResult()
        with pytest.raises(ReproError):
            _ = result.best_observation
        assert result.best_value == math.inf

    def test_best_value_trace_monotone(self):
        result = self._result([5.0, 7.0, 3.0, 4.0])
        trace = result.best_value_trace()
        assert list(trace) == [5.0, 5.0, 3.0, 3.0]
        assert np.all(np.diff(trace) <= 0)

    def test_relative_performance_trace(self):
        result = self._result([6.0, 3.0])
        rel = result.relative_performance_trace(optimum=3.0)
        np.testing.assert_allclose(rel, [0.5, 1.0])

    def test_relative_performance_requires_positive_optimum(self):
        result = self._result([6.0])
        with pytest.raises(ReproError):
            result.relative_performance_trace(0.0)

    def test_evaluations_to_reach(self):
        result = self._result([6.0, 4.0, 3.0])
        assert result.evaluations_to_reach(0.74, optimum=3.0) == 2
        assert result.evaluations_to_reach(0.99, optimum=3.0) == 3
        assert self._result([6.0]).evaluations_to_reach(0.9, optimum=3.0) is None

    def test_serialization_round_trip(self):
        result = self._result([5.0, math.inf, 2.0])
        result.metadata["note"] = "hello"
        restored = TuningResult.from_dict(result.to_dict())
        assert restored.num_evaluations == 3
        assert restored.best_value == 2.0
        assert restored.metadata["note"] == "hello"

    def test_merge_results(self):
        a = self._result([5.0])
        b = self._result([2.0])
        merged = merge_results([a, b])
        assert merged.num_evaluations == 2
        assert merged.best_value == 2.0

    def test_merge_rejects_mixed_benchmarks(self):
        a = TuningResult(benchmark="a")
        b = TuningResult(benchmark="b")
        with pytest.raises(ReproError):
            merge_results([a, b])

    def test_unique_configs(self):
        result = TuningResult()
        result.record(Observation({"x": 1}, 1.0))
        result.record(Observation({"x": 1}, 1.0))
        result.record(Observation({"x": 2}, 1.0))
        assert result.unique_configs() == 2


class TestBudget:
    def test_evaluation_limit(self):
        budget = Budget(max_evaluations=2)
        budget.charge()
        assert not budget.exhausted
        budget.charge()
        assert budget.exhausted
        with pytest.raises(BudgetExhaustedError):
            budget.charge()

    def test_remaining_evaluations(self):
        budget = Budget(max_evaluations=3)
        assert budget.remaining_evaluations == 3
        budget.charge()
        assert budget.remaining_evaluations == 2
        assert Budget().remaining_evaluations == math.inf

    def test_simulated_time_limit(self):
        budget = Budget(max_simulated_seconds=0.5, compile_overhead_seconds=0.0)
        budget.charge(simulated_seconds=0.3)
        assert not budget.exhausted
        budget.charge(simulated_seconds=0.3)
        assert budget.exhausted

    def test_unique_config_limit(self):
        budget = Budget(max_unique_configs=1)
        budget.charge(new_config=True)
        assert budget.exhausted

    def test_reset_and_copy(self):
        budget = Budget(max_evaluations=5)
        budget.charge()
        fresh = budget.copy()
        assert fresh.evaluations_used == 0
        budget.reset()
        assert budget.evaluations_used == 0

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(max_evaluations=-1)

    def test_charge_bulk_exactly_remaining_is_fine(self):
        budget = Budget(max_evaluations=5)
        budget.charge_bulk(3)
        budget.charge_bulk(2)  # exactly the remaining allowance
        assert budget.evaluations_used == 5
        assert budget.exhausted

    def test_charge_bulk_overshoot_raises(self):
        budget = Budget(max_evaluations=5)
        budget.charge_bulk(3)
        with pytest.raises(BudgetExhaustedError):
            budget.charge_bulk(3)  # one past the remaining allowance
        # The failed bulk charge must not have recorded anything.
        assert budget.evaluations_used == 3
        fresh = Budget(max_evaluations=5)
        with pytest.raises(BudgetExhaustedError):
            fresh.charge_bulk(6)
        assert fresh.evaluations_used == 0

    def test_charge_bulk_unlimited_budget_never_overshoots(self):
        budget = Budget()
        budget.charge_bulk(10_000)
        assert budget.evaluations_used == 10_000

    def test_affordable_evaluations_protocol(self):
        assert Budget().affordable_evaluations() == math.inf
        budget = Budget(max_evaluations=7)
        assert budget.affordable_evaluations() == 7
        budget.charge_bulk(5)
        assert budget.affordable_evaluations() == 2
        # Outcome-dependent limits cannot precompute an affordable prefix.
        assert Budget(max_unique_configs=3).affordable_evaluations() is None
        assert Budget(max_simulated_seconds=1.0).affordable_evaluations() is None
        assert Budget(max_evaluations=5,
                      max_unique_configs=5).affordable_evaluations() is None


class TestObjectiveDirection:
    def test_better(self):
        assert ObjectiveDirection.MINIMIZE.better(1.0, 2.0)
        assert ObjectiveDirection.MAXIMIZE.better(2.0, 1.0)

    def test_worst_value(self):
        assert ObjectiveDirection.MINIMIZE.worst_value == math.inf
        assert ObjectiveDirection.MAXIMIZE.worst_value == -math.inf


class TestTuningProblem:
    def test_valid_evaluation(self):
        problem = _toy_problem()
        obs = problem.evaluate({"x": 2, "y": 3})
        assert obs.value == 23.0
        assert obs.valid
        assert obs.gpu == "SIM" and obs.benchmark == "toy"

    def test_constraint_violation_becomes_invalid_observation(self):
        problem = _toy_problem()
        obs = problem.evaluate({"x": 4, "y": 4})
        assert obs.is_failure
        assert "constraint" in obs.error

    def test_resource_limit_becomes_invalid_observation(self):
        def evaluate(cfg):
            raise ResourceLimitError("too big", resource="shared_memory")
        problem = _toy_problem(evaluate)
        obs = problem.evaluate({"x": 1, "y": 1})
        assert obs.is_failure
        assert "resource limit" in obs.error

    def test_non_finite_objective_is_failure(self):
        problem = _toy_problem(lambda cfg: float("nan"))
        assert problem.evaluate({"x": 1, "y": 1}).is_failure

    def test_memoization_counts_distinct_calls_once(self):
        calls = []
        def evaluate(cfg):
            calls.append(dict(cfg))
            return 1.0
        problem = _toy_problem(evaluate)
        problem.evaluate({"x": 1, "y": 1})
        problem.evaluate({"x": 1, "y": 1})
        assert len(calls) == 1
        assert problem.evaluation_count == 1
        assert problem.cache_size == 1

    def test_memoization_disabled(self):
        calls = []
        def evaluate(cfg):
            calls.append(1)
            return 1.0
        problem = _toy_problem(evaluate, memoize=False)
        problem.evaluate({"x": 1, "y": 1})
        problem.evaluate({"x": 1, "y": 1})
        assert len(calls) == 2

    def test_reset_cache(self):
        problem = _toy_problem()
        problem.evaluate({"x": 1, "y": 1})
        problem.reset_cache()
        assert problem.evaluation_count == 0
        assert problem.cache_size == 0

    def test_objective_shortcut(self):
        problem = _toy_problem()
        assert problem.objective({"x": 1, "y": 2}) == 12.0
        assert problem.objective({"x": 4, "y": 4}) == math.inf

    def test_evaluate_indices(self):
        problem = _toy_problem()
        space = problem.space
        indices = [space.index_of({"x": 1, "y": 1}), space.index_of({"x": 2, "y": 2}),
                   space.index_of({"x": 4, "y": 4})]  # the last violates x*y <= 12
        observations = problem.evaluate_indices(indices)
        assert [o.value for o in observations] == [11.0, 22.0, math.inf]
        assert [o.valid for o in observations] == [True, True, False]
        assert [o.evaluation_index for o in observations] == [0, 1, 2]
