"""Tests of the optimizer portfolio and the shared ask/tell interface."""

from __future__ import annotations

import importlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.budget import Budget
from repro.core.errors import ResourceLimitError
from repro.core.parameter import Parameter
from repro.core.problem import TuningProblem
from repro.core.runner import run_matrix, run_tuning
from repro.core.searchspace import SearchSpace
from repro.tuners import (
    DifferentialEvolution,
    GeneticAlgorithm,
    GreedyILS,
    GridSearch,
    LocalSearch,
    ParticleSwarm,
    PortfolioTuner,
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
    return TuningProblem("quadratic", space, evaluate, gpu="SIM")


@pytest.fixture()
def quadratic():
    return _quadratic_problem()


@pytest.fixture()
def pnpoly_problem(pnpoly, gpu_3090):
    return pnpoly.problem(gpu_3090)


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

    def test_evaluate_outside_tune_raises(self):
        with pytest.raises(RuntimeError):
            RandomSearch(seed=0).evaluate({"a": 1})


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
        assert len({o.key for o in result}) == result.num_evaluations

    def test_random_search_exhausts_small_space(self):
        space = SearchSpace([Parameter("a", (1, 2, 3)), Parameter("b", (1, 2))])
        problem = TuningProblem("tiny", space, lambda c: float(c["a"] + c["b"]))
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

    def test_portfolio_combines_members(self, quadratic):
        portfolio = PortfolioTuner([RandomSearch(), LocalSearch(), GeneticAlgorithm()], seed=0)
        result = run_tuning(portfolio, quadratic, max_evaluations=45)
        assert result.num_evaluations == 45
        assert "portfolio" in result.tuner

    def test_portfolio_requires_members(self):
        with pytest.raises(ValueError):
            PortfolioTuner([])


class TestPortfolioBudgetSlice:
    """The portfolio's budget slice must satisfy the full bulk protocol."""

    def test_bulk_charges_reach_the_parent_budget(self):
        # Regression for the pre-fix hole: _BudgetSlice overrode charge() but
        # inherited Budget.charge_bulk, so a bulk-accounted member would have
        # charged the slice's own (unlimited) counters -- never the shared
        # parent, never the slice cap.
        from repro.tuners.portfolio import _BudgetSlice

        parent = Budget(max_evaluations=20)
        budget_slice = _BudgetSlice(parent, 10)
        budget_slice.charge_bulk(4, simulated_seconds=[0.1] * 4, new_configs=4)
        assert parent.evaluations_used == 4
        assert parent.unique_used == 4
        assert budget_slice._used_in_slice == 4
        assert budget_slice.remaining_evaluations == 6
        assert budget_slice.affordable_evaluations() == 6

    def test_bulk_charge_clamps_to_the_slice(self):
        from repro.core.errors import BudgetExhaustedError
        from repro.tuners.portfolio import _BudgetSlice

        parent = Budget(max_evaluations=100)
        budget_slice = _BudgetSlice(parent, 10)
        budget_slice.charge_bulk(10)  # exactly the slice
        assert budget_slice.exhausted and not parent.exhausted
        fresh = _BudgetSlice(Budget(max_evaluations=100), 10)
        with pytest.raises(BudgetExhaustedError):
            fresh.charge_bulk(11)
        assert fresh._parent.evaluations_used == 0  # nothing leaked through

    def test_scalar_charge_raises_when_slice_is_spent(self):
        from repro.core.errors import BudgetExhaustedError
        from repro.tuners.portfolio import _BudgetSlice

        budget_slice = _BudgetSlice(Budget(max_evaluations=100), 1)
        budget_slice.charge()
        with pytest.raises(BudgetExhaustedError):
            budget_slice.charge()

    def test_affordable_follows_the_narrower_limit(self):
        from repro.tuners.portfolio import _BudgetSlice

        parent = Budget(max_evaluations=6)
        budget_slice = _BudgetSlice(parent, 10)
        assert budget_slice.affordable_evaluations() == 6  # parent narrower
        assert _BudgetSlice(Budget(), 10).affordable_evaluations() == 10
        # A parent that cannot precompute a prefix poisons the slice too.
        seconds = Budget(max_simulated_seconds=1.0)
        assert _BudgetSlice(seconds, 10).affordable_evaluations() is None

    def test_bulk_member_charges_shared_budget_and_respects_slice(self,
                                                                  benchmarks,
                                                                  gpu_3090):
        # End to end: generation-batched members inside a portfolio on a
        # peekable replay problem take the bulk path against their slice.
        cache = benchmarks["gemm"].build_cache(gpu_3090, sample_size=300, seed=4)
        problem = cache.to_problem(strict=False)
        assert problem.peekable
        budget = Budget(max_evaluations=40)
        portfolio = PortfolioTuner([GeneticAlgorithm(population_size=6),
                                    DifferentialEvolution(population_size=6)],
                                   seed=0)
        result = portfolio.tune(problem, budget, seed=0)
        assert budget.evaluations_used == 40  # every charge hit the parent
        assert result.num_evaluations == 40


class TestPortfolioMemberFailures:
    class _Boom(RandomSearch):
        name = "boom"

        def _run(self, problem, budget, rng):
            raise RuntimeError("member exploded")

    class _SliceBurner(RandomSearch):
        name = "burner"

        def _run(self, problem, budget, rng):
            # Evaluate straight past the slice so the budget itself raises.
            for index in range(problem.space.cardinality):
                self.evaluate_index(index)
                self._budget.charge()  # force an over-slice charge

    def test_misbehaving_member_warns_and_run_continues(self, pnpoly, gpu_3090):
        portfolio = PortfolioTuner([self._Boom(), RandomSearch()], seed=0)
        budget = Budget(max_evaluations=20)
        with pytest.warns(RuntimeWarning, match="boom"):
            result = portfolio.tune(pnpoly.problem(gpu_3090), budget, seed=0)
        # The surviving member still ran its (and the failed member's) slice.
        assert result.num_evaluations == 20

    def test_budget_exhaustion_is_not_a_member_failure(self, pnpoly, gpu_3090,
                                                       recwarn):
        portfolio = PortfolioTuner([self._SliceBurner(), RandomSearch()], seed=0)
        budget = Budget(max_evaluations=20)
        result = portfolio.tune(pnpoly.problem(gpu_3090), budget, seed=0)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, RuntimeWarning)]
        # The burner's slice raised (half its charges were evaluation-free),
        # the remaining member still consumed everything left in the budget.
        assert budget.evaluations_used == 20
        assert result.num_evaluations == 15


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


class TestBudgetSemantics:
    def test_simulated_time_budget_stops_early(self, pnpoly_problem):
        budget = Budget(max_simulated_seconds=0.05, compile_overhead_seconds=1e-3)
        result = run_tuning(RandomSearch(seed=0), pnpoly_problem, budget=budget)
        assert 0 < result.num_evaluations < 60

    def test_budget_object_is_not_mutated(self, quadratic):
        budget = Budget(max_evaluations=10)
        run_tuning(RandomSearch(seed=0), quadratic, budget=budget)
        assert budget.evaluations_used == 0  # the runner works on a copy


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
    def test_adapter_without_driver_imports_nothing(self, adapter_cls, quadratic,
                                                    monkeypatch):
        # No adapter overrides _run_external, so tune must not probe the framework.
        from repro.tuners import adapters
        imports = []
        monkeypatch.setattr(adapters, "importlib", SimpleNamespace(
            import_module=lambda name: imports.append(name) or importlib.import_module(name)))
        result = run_tuning(adapter_cls(seed=0), quadratic, max_evaluations=20)
        assert result.num_evaluations == 20
        assert imports == []

    def test_adapter_with_driver_probes_the_framework(self, quadratic, monkeypatch):
        from repro.tuners import adapters
        imports = []
        monkeypatch.setattr(adapters, "importlib", SimpleNamespace(import_module=imports.append))

        class Driven(KTTAdapter):
            def _run_external(self, problem, budget, rng):
                raise NotImplementedError

        result = run_tuning(Driven(seed=0), quadratic, max_evaluations=20)
        assert result.num_evaluations == 20
        assert imports == ["pyktt"]
