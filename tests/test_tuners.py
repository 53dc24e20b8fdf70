"""Tests of the optimizers and the shared ask/tell interface."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from repro.core.errors import ResourceLimitError
from repro.core.parameter import Parameter
from repro.core.problem import TuningProblem
from repro.core.runner import run_matrix, run_tuning
from repro.core.searchspace import SearchSpace, config_key
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
    all_tuners,
)
from repro.tuners.adapters import (
    KTTAdapter,
    KernelTunerAdapter,
    OptunaAdapter,
    SMAC3Adapter,
    objective_callback,
    space_to_choices,
)

ALL_TUNER_CLASSES = [
    RandomSearch,
    GridSearch,
    LocalSearch,
    GreedyILS,
    SimulatedAnnealing,
    GeneticAlgorithm,
    DifferentialEvolution,
    ParticleSwarm,
    SurrogateSearch,
]


def _quadratic(cfg):
    return 1.0 + (cfg["a"] - 16) ** 2 + (cfg["b"] - 4) ** 2 + (cfg["c"] - 8) ** 2


def _quadratic_problem(evaluate=_quadratic):
    """A small separable problem with a unique known optimum at (16, 4, 8)."""
    space = SearchSpace(
        [Parameter("a", (1, 2, 4, 8, 16)),
         Parameter("b", (1, 2, 3, 4, 5, 6)),
         Parameter("c", (1, 2, 4, 8, 16, 32))],
        ["a * b <= 64"],
        name="quadratic",
    )
    return TuningProblem("quadratic", space, lambda i: evaluate(space.config_at(i)),
                         gpu="SIM")


@pytest.fixture()
def quadratic():
    return _quadratic_problem()


@pytest.fixture()
def pnpoly_problem(pnpoly, gpu_3090):
    return pnpoly.problem(gpu_3090)


@pytest.fixture(scope="module")
def pnpoly_replay_cache(pnpoly, gpu_3090):
    return pnpoly.build_cache(gpu_3090, seed=4)


class TestTunerContract:
    @pytest.mark.parametrize("tuner_cls", ALL_TUNER_CLASSES)
    def test_respects_budget(self, tuner_cls, quadratic):
        result = run_tuning(tuner_cls(seed=0), quadratic, max_evaluations=30)
        assert result.num_evaluations == 30

    @pytest.mark.parametrize("tuner_cls", ALL_TUNER_CLASSES)
    def test_finds_valid_configuration(self, tuner_cls, quadratic):
        result = run_tuning(tuner_cls(seed=1), quadratic, max_evaluations=40)
        assert result.num_valid > 0
        assert quadratic.space.is_valid(result.best_observation.config)
        assert math.isfinite(result.best_value)

    @pytest.mark.parametrize("tuner_cls", ALL_TUNER_CLASSES)
    def test_reproducible_given_seed(self, tuner_cls):
        a = run_tuning(tuner_cls(seed=7), _quadratic_problem(), max_evaluations=25)
        b = run_tuning(tuner_cls(seed=7), _quadratic_problem(), max_evaluations=25)
        assert [o.value for o in a] == [o.value for o in b]

    @pytest.mark.parametrize("tuner_cls",
                             [cls for cls in ALL_TUNER_CLASSES if cls is not GridSearch])
    def test_beats_single_random_draw_on_average(self, tuner_cls, quadratic):
        # GridSearch is excluded: a truncated lexicographic sweep only covers the
        # first corner of the space by design.
        result = run_tuning(tuner_cls(seed=3), quadratic, max_evaluations=60)
        # With 60 evaluations on a ~150-point valid space every optimizer should get
        # far below the space's median objective (~200) and close to the optimum of 1.
        assert result.best_value <= 40.0

    @pytest.mark.parametrize("tuner_cls", ALL_TUNER_CLASSES)
    def test_result_metadata_filled(self, tuner_cls, quadratic):
        result = run_tuning(tuner_cls(seed=0), quadratic, max_evaluations=10)
        assert result.benchmark == "quadratic"
        assert result.gpu == "SIM"
        assert result.tuner

    @pytest.mark.parametrize("tuner_cls", ALL_TUNER_CLASSES)
    def test_best_is_minimum_and_failures_carry_inf(self, tuner_cls):
        # Every tuner minimizes: its best value is the least valid one it saw, and the
        # configurations whose launch fails (c >= 16 here) carry math.inf.
        def evaluate(cfg):
            if cfg["c"] >= 16:
                raise ResourceLimitError("too big", resource="shared_memory")
            return _quadratic(cfg)

        result = run_tuning(tuner_cls(seed=2), _quadratic_problem(evaluate),
                            max_evaluations=40)
        failures = [o.value for o in result if o.is_failure]
        valid = [o.value for o in result if not o.is_failure]
        assert failures and valid
        assert failures == [math.inf] * len(failures)
        assert result.best_value == min(valid)
        trace = result.best_value_trace()
        assert np.all(np.diff(trace) <= 0)
        assert trace[-1] == result.best_value

    @pytest.mark.parametrize("tuner_cls", ALL_TUNER_CLASSES)
    def test_peekable_run_spends_exactly_its_budget(self, tuner_cls,
                                                    pnpoly_replay_cache):
        # On a replay every tuner settles each candidate through
        # evaluate_index; a budget that ends mid-generation or mid-block must be
        # charged exactly, never overdrawn.
        problem = pnpoly_replay_cache.to_problem()
        result = run_tuning(tuner_cls(seed=5), problem, max_evaluations=37)
        assert result.num_evaluations == 37
        assert result.metadata["budget"] == {"max_evaluations": 37,
                                             "evaluations_used": 37}

    def test_run_tuning_takes_no_budget_object(self, quadratic):
        # The run's budget is built from max_evaluations alone.
        from repro.core.budget import Budget

        with pytest.raises(TypeError):
            run_tuning(RandomSearch(seed=0), quadratic, budget=Budget(max_evaluations=5))

    def test_evaluate_outside_tune_raises(self):
        with pytest.raises(RuntimeError):
            RandomSearch(seed=0).evaluate_index(0)


class TestSpecificTuners:
    def test_grid_search_is_deterministic_enumeration(self, quadratic):
        result = run_tuning(GridSearch(), quadratic, max_evaluations=50)
        values = [o.value for o in result.observations]
        again = run_tuning(GridSearch(), _quadratic_problem(), max_evaluations=50)
        assert values == [o.value for o in again.observations]

    def test_grid_search_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            GridSearch(stride=0)

    def test_random_search_without_replacement_unique(self, quadratic):
        result = run_tuning(RandomSearch(seed=0), quadratic, max_evaluations=60)
        assert len({config_key(o.config) for o in result}) == result.num_evaluations

    def test_random_search_exhausts_small_space(self):
        space = SearchSpace([Parameter("a", (1, 2, 3)), Parameter("b", (1, 2))])
        problem = TuningProblem(
            "tiny", space, lambda i: float(sum(space.config_at(i).values())))
        result = run_tuning(RandomSearch(seed=0), problem, max_evaluations=100)
        # Only 6 unique configurations exist; the tuner stops instead of spinning.
        assert result.num_evaluations == 6

    def test_local_search_finds_local_optimum_of_unimodal_problem(self, quadratic):
        result = run_tuning(LocalSearch(seed=2, strategy="best"), quadratic,
                            max_evaluations=120)
        assert result.best_value == pytest.approx(1.0)

    def test_local_search_invalid_strategy(self):
        with pytest.raises(ValueError):
            LocalSearch(strategy="sideways")

    def test_simulated_annealing_parameter_validation(self):
        with pytest.raises(ValueError):
            SimulatedAnnealing(cooling_rate=1.5)
        with pytest.raises(ValueError):
            SimulatedAnnealing(initial_temperature=-1)

    def test_genetic_parameter_validation(self):
        with pytest.raises(ValueError):
            GeneticAlgorithm(population_size=1)
        with pytest.raises(ValueError):
            GeneticAlgorithm(mutation_rate=2.0)

    def test_differential_evolution_needs_four(self):
        with pytest.raises(ValueError):
            DifferentialEvolution(population_size=3)

    def test_pso_swarm_size_validation(self):
        with pytest.raises(ValueError):
            ParticleSwarm(swarm_size=1)

    def test_surrogate_uses_model_after_initial_samples(self, quadratic):
        tuner = SurrogateSearch(seed=0, initial_samples=10, batch_size=4, candidate_pool=60,
                                n_estimators=20)
        result = run_tuning(tuner, quadratic, max_evaluations=40)
        assert result.best_value <= 6.0

class TestOnRealBenchmark:
    def test_all_registered_tuners_run_on_pnpoly(self, pnpoly_problem):
        for name, factory in all_tuners().items():
            pnpoly_problem.reset_cache()
            result = run_tuning(factory(seed=0), pnpoly_problem, max_evaluations=25)
            assert result.num_evaluations == 25, name
            assert result.num_valid > 0, name

    def test_tuners_improve_over_median_configuration(self, pnpoly, gpu_3090,
                                                      pnpoly_cache_3090):
        median = pnpoly_cache_3090.median()
        problem = pnpoly.problem(gpu_3090)
        for factory in (RandomSearch, GeneticAlgorithm, LocalSearch):
            problem.reset_cache()
            result = run_tuning(factory(seed=5), problem, max_evaluations=60)
            assert result.best_value < median

    def test_run_matrix(self, pnpoly_problem):
        matrix = run_matrix({"random": RandomSearch, "grid": GridSearch},
                            {"pnpoly": pnpoly_problem}, max_evaluations=8)
        assert set(matrix) == {("random", "pnpoly"), ("grid", "pnpoly")}


class TestAdapters:
    def test_space_to_choices(self, quadratic):
        choices = space_to_choices(quadratic)
        assert choices["a"] == [1, 2, 4, 8, 16]
        assert set(choices) == {"a", "b", "c"}

    def test_objective_callback_handles_invalid(self, quadratic):
        objective = objective_callback(quadratic)
        assert objective({"a": 16, "b": 4, "c": 8}) == pytest.approx(1.0)
        assert objective({"a": 16, "b": 6, "c": 8}) == math.inf  # violates a*b <= 64

    @pytest.mark.parametrize("adapter_cls", [OptunaAdapter, SMAC3Adapter,
                                             KernelTunerAdapter, KTTAdapter])
    def test_adapters_fall_back_to_in_repo_optimizers(self, adapter_cls, quadratic):
        result = run_tuning(adapter_cls(seed=0), quadratic, max_evaluations=20)
        assert result.num_evaluations == 20
        assert result.num_valid > 0

    @pytest.mark.parametrize("adapter_cls", [OptunaAdapter, SMAC3Adapter,
                                             KernelTunerAdapter, KTTAdapter])
    def test_adapter_without_driver_imports_nothing(self, adapter_cls, quadratic):
        # No adapter has a native driver, so tune must not import its framework.
        framework = {OptunaAdapter: "optuna", SMAC3Adapter: "smac",
                     KernelTunerAdapter: "kernel_tuner", KTTAdapter: "pyktt"}[adapter_cls]
        before = set(sys.modules)
        result = run_tuning(adapter_cls(seed=0), quadratic, max_evaluations=20)
        assert result.num_evaluations == 20
        loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
        assert framework not in loaded

    @pytest.mark.parametrize("adapter_cls, stand_in", [
        (OptunaAdapter, SurrogateSearch), (SMAC3Adapter, SurrogateSearch),
        (KernelTunerAdapter, GeneticAlgorithm), (KTTAdapter, RandomSearch)])
    def test_adapter_runs_its_stand_in(self, adapter_cls, stand_in):
        adapted = run_tuning(adapter_cls(seed=3), _quadratic_problem(),
                             max_evaluations=30).to_dict()
        reference = run_tuning(stand_in(seed=3), _quadratic_problem(),
                               max_evaluations=30).to_dict()
        assert adapted.pop("tuner") == adapter_cls.name
        assert reference.pop("tuner") == stand_in.name
        assert adapted == reference
