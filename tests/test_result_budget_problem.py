"""Unit tests for observations, tuning results, budgets and the problem interface."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.budget import Budget
from repro.core.errors import BudgetExhaustedError, ReproError, ResourceLimitError
from repro.core.problem import TuningProblem
from repro.core.result import Observation, TuningResult
from repro.core.searchspace import SearchSpace, config_key
from repro.core.parameter import Parameter


def _toy_problem(evaluate=None, memoize=True):
    """A problem whose index objective is ``evaluate`` of the index's config."""
    space = SearchSpace([Parameter("x", (1, 2, 3, 4)), Parameter("y", (1, 2, 3, 4))],
                        ["x * y <= 12"])
    if evaluate is None:
        def evaluate(cfg):
            return float(cfg["x"] * 10 + cfg["y"])
    return TuningProblem("toy", space, lambda i: evaluate(space.config_at(i)),
                         gpu="SIM", memoize=memoize)


class TestObservation:
    def test_basic_fields(self):
        obs = Observation({"x": 1}, 2.5, evaluation_index=3, gpu="g", benchmark="b")
        assert obs.value == 2.5
        assert not obs.is_failure
        assert config_key(obs.config) == (("x", 1),)

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


    def test_slotted_fast_path_equals_the_constructor(self):
        import dataclasses
        import pickle

        config = {"x": 1, "y": 2}
        fast = Observation.fast(config, 1.5, True, "", 3, "GPU", "bench")
        built = Observation(config=config, value=1.5, valid=True, error="",
                            evaluation_index=3, gpu="GPU", benchmark="bench")
        assert not hasattr(fast, "__dict__") and not hasattr(built, "__dict__")
        assert fast == built
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.value = 2.0
        assert pickle.loads(pickle.dumps(fast)) == fast
        replaced = dataclasses.replace(fast, value=2.5, valid=False, error="oom")
        assert (replaced.value, replaced.valid, replaced.error) == (2.5, False, "oom")
        assert dataclasses.replace(replaced, value=1.5, valid=True, error="") == fast


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
        assert result.best_observation.config == {"x": 1}

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
        budget.charge()
        budget.charge()
        assert budget.remaining_evaluations == 0
        assert Budget().remaining_evaluations == math.inf

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            Budget(max_evaluations=-1)

    def test_unlimited_budget_is_never_exhausted(self):
        budget = Budget()
        for _ in range(1000):
            budget.charge()
        assert not budget.exhausted
        assert budget.evaluations_used == 1000

    def test_to_dict_holds_limit_and_usage_only(self):
        budget = Budget(max_evaluations=4)
        for _ in range(3):
            budget.charge()
        assert budget.to_dict() == {"max_evaluations": 4, "evaluations_used": 3}
        assert Budget().to_dict() == {"max_evaluations": None, "evaluations_used": 0}

    @pytest.mark.parametrize("option", ["max_unique_configs", "max_simulated_seconds",
                                        "compile_overhead_seconds"])
    def test_non_count_limits_are_refused(self, option):
        # A budget is an evaluation count; no caller set these, so none is accepted.
        with pytest.raises(TypeError):
            Budget(max_evaluations=10, **{option: 1})

    def test_charges_take_no_cost_arguments(self):
        budget = Budget(max_evaluations=10)
        with pytest.raises(TypeError):
            budget.charge(simulated_seconds=0.1)
        assert budget.evaluations_used == 0


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

    def test_every_failure_kind_carries_inf(self):
        # Problems minimize kernel time, so a failure must never look like a good value.
        def evaluate(cfg):
            if cfg["x"] == 1:
                raise ResourceLimitError("too big", resource="registers")
            if cfg["x"] == 2:
                raise RuntimeError("launch failed")
            return float("nan")
        problem = _toy_problem(evaluate)
        configs = [{"x": 4, "y": 4}, {"x": 1, "y": 1}, {"x": 2, "y": 1}, {"x": 3, "y": 1}]
        observations = [problem.evaluate(c) for c in configs]
        assert [o.is_failure for o in observations] == [True] * 4
        assert [o.value for o in observations] == [math.inf] * 4

    def test_direction_option_is_refused(self):
        # The objective is always minimized; an unread direction= must not be accepted.
        space = _toy_problem().space
        with pytest.raises(TypeError):
            TuningProblem("toy", space, lambda i: 1.0, direction="maximize")

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

    def test_evaluate_indices(self):
        problem = _toy_problem()
        space = problem.space
        indices = [space.index_of({"x": 1, "y": 1}), space.index_of({"x": 2, "y": 2}),
                   space.index_of({"x": 4, "y": 4})]  # the last violates x*y <= 12
        observations = [problem.evaluate_index(i) for i in indices]
        assert [o.value for o in observations] == [11.0, 22.0, math.inf]
        assert [o.valid for o in observations] == [True, True, False]
        assert [o.evaluation_index for o in observations] == [0, 1, 2]

    def test_an_index_objective_alone_answers_both_calls(self):
        # evaluate(config) is a view of evaluate_index, and a non-member is a
        # violation that no objective sees.
        space = _toy_problem().space
        calls = []

        def objective(index):
            calls.append(index)
            return float(index + 1)

        problem = TuningProblem("toy", space, objective, gpu="SIM")
        index = space.index_of({"x": 2, "y": 3})
        assert problem.evaluate({"x": 2.0, "y": 3}).value == index + 1
        assert problem.evaluate_index(index).value == index + 1
        outsider = problem.evaluate({"x": 5, "y": 1})
        assert outsider.is_failure and not outsider.valid
        assert calls == [index] and problem.evaluation_count == 2
