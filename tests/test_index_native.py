"""Tests of the index-native tuner runtime.

Three layers of protection:

* **Trajectory equivalence** -- every migrated tuner, run on every kernel space
  (analytical-model problems plus cache replays), must reproduce the pinned
  pre-refactor golden trajectories byte for byte: same space indices, same values,
  same validity flags, same error strings, same evaluation order.  The goldens in
  ``tests/data/golden_trajectories.json.gz`` were generated at the seed revision by
  ``scripts/pin_golden_trajectories.py``.
* **Pairwise path equivalence** -- the index-native primitives (digit-arithmetic
  neighbourhoods, columnar cache lookups, ``evaluate_index``, scalar feasibility
  fast paths, tiled sweeps, pre-validated runs) agree element-wise with their
  dictionary-based counterparts on every kernel space.
* **Lazy-configuration semantics** -- :class:`repro.core.result.LazyConfig` is
  observably identical to the dictionary it defers.
* **Restart draws** -- ``sample_one_index`` in its block and scalar forms returns
  the indices, the failure text and the generator state of the one-draw-per-attempt
  loop in ``tests/constraint_oracle.py`` (hypothesis diff test, plus the seven
  kernel spaces).
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.budget import Budget
from repro.core.cache import EvaluationCache
from repro.core import searchspace
from repro.core.errors import EmptySearchSpaceError
from repro.core.parameter import Parameter
from repro.core.result import LazyConfig, Observation, TuningResult
from repro.core.runner import run_tuning
from repro.core.searchspace import SearchSpace, config_key
from repro.gpus.specs import RTX_3090
from repro.kernels.synthetic import FAMILIES, create_benchmark
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
)

from constraint_oracle import StreamingSpace, restart_draw_reference
from neighbor_oracle import oracle_neighbors
from problem_oracle import assert_measures_like, campaign_measurement, replay_measurement

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trajectories.json.gz"

GOLDEN_TUNERS = {
    "random": lambda: RandomSearch(),
    "grid_shuffled": lambda: GridSearch(stride=7919, shuffle=True),
    "local_first": lambda: LocalSearch(strategy="first"),
    "local_best": lambda: LocalSearch(strategy="best"),
    "greedy_ils": lambda: GreedyILS(perturbation_strength=2),
    "annealing": lambda: SimulatedAnnealing(),
    "genetic": lambda: GeneticAlgorithm(population_size=10),
    "diff_evo": lambda: DifferentialEvolution(population_size=8),
    "pso": lambda: ParticleSwarm(swarm_size=8),
    "surrogate": lambda: SurrogateSearch(initial_samples=12, batch_size=4,
                                         candidate_pool=120, n_estimators=15),
}


@pytest.fixture(scope="module")
def golden():
    with gzip.open(GOLDEN_PATH) as fh:
        return json.loads(fh.read())


@pytest.fixture(scope="module")
def golden_problems(benchmarks):
    """Fresh-problem factories matching scripts/pin_golden_trajectories.py."""
    factories = {}
    for name, benchmark in benchmarks.items():
        factories[f"model:{name}"] = (
            lambda b=benchmark: b.problem(RTX_3090))
    for name in ("hotspot", "gemm"):
        cache = benchmarks[name].build_cache(RTX_3090, sample_size=400, seed=5)
        factories[f"replay:{name}"] = (
            lambda c=cache: c.to_problem(strict=True, memoize=True))
    return factories


class TestGoldenTrajectories:
    """Every migrated tuner reproduces the pinned seed trajectories exactly."""

    @pytest.mark.parametrize("tuner_name", sorted(GOLDEN_TUNERS))
    def test_byte_identical_to_seed_run(self, tuner_name, golden, golden_problems):
        budget = golden["_meta"]["budget"]
        seed = golden["_meta"]["seed"]
        for problem_name, make_problem in golden_problems.items():
            key = f"{tuner_name}@{problem_name}"
            problem = make_problem()
            result = run_tuning(GOLDEN_TUNERS[tuner_name](), problem,
                                max_evaluations=budget, seed=seed)
            space = problem.space
            got = []
            for obs in result.observations:
                value = None if not math.isfinite(obs.value) else obs.value
                got.append([space.index_of(obs.config), value, bool(obs.valid),
                            obs.error, obs.evaluation_index])
            assert got == golden["runs"][key], key
            # The recorded configurations (lazily materialised) must equal the
            # decoded golden indices, dictionary for dictionary.
            for obs, row in zip(result.observations, golden["runs"][key]):
                assert dict(obs.config) == space.config_at(row[0]), key


class TestLazyConfig:
    def test_behaves_like_the_materialised_dict(self, small_space):
        lazy = LazyConfig(small_space, 17)
        concrete = small_space.config_at(17)
        assert lazy == concrete
        assert concrete == lazy
        assert dict(lazy) == concrete
        assert len(lazy) == len(concrete)
        assert set(lazy) == set(concrete)
        assert lazy["block"] == concrete["block"]
        assert lazy.get("tile") == concrete["tile"]
        assert "vector" in lazy
        assert config_key(lazy) == config_key(concrete)
        assert json.dumps(dict(lazy)) == json.dumps(concrete)

    def test_materialises_once_and_only_on_demand(self, small_space):
        lazy = LazyConfig(small_space, 3)
        assert lazy._config is None  # nothing read yet
        first = lazy["block"]
        assert lazy._config is not None
        assert lazy._materialize() is lazy._materialize()
        assert first == small_space.config_at(3)["block"]

    def test_observation_keeps_lazy_config_unmaterialised(self, small_space):
        obs = Observation(config=LazyConfig(small_space, 5), value=1.0)
        assert isinstance(obs.config, LazyConfig)
        assert obs.to_dict()["config"] == small_space.config_at(5)
        plain = Observation(config=small_space.config_at(5), value=1.0)
        assert obs == plain

    def test_observation_fast_matches_constructor(self, small_space):
        config = small_space.config_at(9)
        a = Observation(config=config, value=2.5, valid=True, error="",
                        evaluation_index=4, gpu="g", benchmark="b")
        b = Observation.fast(dict(config), 2.5, True, "", 4, "g", "b")
        assert a == b
        assert a.to_dict() == b.to_dict()


class TestNeighborhoodKernels:
    @pytest.mark.parametrize("strategy", ["hamming", "adjacent"])
    def test_matches_dict_neighborhood_on_kernel_spaces(self, benchmarks, strategy):
        rng = np.random.default_rng(7)
        for name in ("gemm", "hotspot", "pnpoly"):
            space = benchmarks[name].space
            for _ in range(5):
                index = space.sample_one_index(rng=rng, valid_only=True)
                for valid_only in (True, False):
                    got = space.neighbor_indices(index, strategy=strategy,
                                                 valid_only=valid_only)
                    config = space.config_at(index)
                    expected = oracle_neighbors(space, config, strategy=strategy,
                                                valid_only=valid_only)
                    assert space.configs_at(got) == expected, (name, index)
                    assert space.neighbors(config, strategy=strategy,
                                           valid_only=valid_only) == expected

    def test_neighbor_memo_returns_consistent_arrays(self, small_space):
        a = small_space.neighbor_indices(5, strategy="hamming")
        b = small_space.neighbor_indices(5, strategy="hamming")
        assert a is b  # memoized
        assert not a.flags.writeable

    def test_unknown_strategy_raises(self, small_space):
        from repro.core.errors import InvalidConfigurationError
        with pytest.raises(InvalidConfigurationError):
            small_space.neighbor_indices(0, strategy="sideways")


class TestScalarFeasibilityFastPaths:
    def test_index_is_feasible_matches_is_valid(self, benchmarks):
        rng = np.random.default_rng(11)
        for name, benchmark in benchmarks.items():
            space = benchmark.space
            indices = rng.integers(0, space.cardinality, size=50)
            for index in indices.tolist():
                assert space.index_is_feasible(index) == \
                    space.is_valid(space.config_at(index)), (name, index)

    def test_fast_path_with_callable_falls_back(self):
        space = SearchSpace([Parameter("a", (1, 2, 3, 4))],
                            [lambda c: c["a"] != 3])
        assert space.index_is_feasible(0)
        assert not space.index_is_feasible(2)

    def test_fast_path_survives_trailing_comments(self):
        # A trailing comment is a valid standalone expression; its truth table
        # comes from the scalar evaluator like any other.
        space = SearchSpace([Parameter("a", (1, 2, 3, 4))],
                            ["a > 1  # must exceed one"])
        assert not space.index_is_feasible(0)
        assert space.index_is_feasible(2)
        assert space.sample_one_index(rng=np.random.default_rng(0)) in range(4)

    def test_sample_one_index_matches_sample(self, benchmarks):
        for name in ("hotspot", "gemm"):
            space = benchmarks[name].space
            a = space.sample_one_index(rng=np.random.default_rng(3))
            b = space.configs_at(space.sample_indices(
                1, rng=np.random.default_rng(3), unique=False))[0]
            assert space.config_at(a) == b, name


class TestColumnarCacheLookups:
    def _build_cache(self, space, n=60, seed=0):
        cache = EvaluationCache("bench", "GPU", space)
        rng = np.random.default_rng(seed)
        indices = rng.choice(space.cardinality, size=n, replace=False)
        for k, index in enumerate(indices.tolist()):
            valid = k % 5 != 0
            cache.add(space.config_at(index), float(k + 1) if valid else math.inf,
                      valid=valid, error="" if valid else "boom")
        return cache, indices

    def test_lookup_agrees_with_dict_store(self, small_space):
        cache, indices = self._build_cache(small_space)
        table = cache.index_table()
        probe = np.concatenate([indices, [0, 1, 2, 3]])
        for index in probe.tolist():
            value, fail, hit = table.lookup_one(index)
            obs = cache.get(small_space.config_at(index))
            assert hit == (obs is not None)
            if obs is not None:
                assert fail == obs.is_failure
                if not obs.is_failure:
                    assert value == obs.value

    def test_mutations_after_build_stay_in_sync(self, small_space):
        cache, _ = self._build_cache(small_space)
        table = cache.index_table()
        config = small_space.config_at(7)
        cache.add(config, 123.0)           # fresh entry after the build
        cache.add(config, 124.0)           # overwrite, same index
        value, fail, found = cache.index_table().lookup_one(7)
        assert (value, fail, found) == (124.0, False, True)
        assert cache.index_table() is table  # same table, synced in place

    def test_out_of_range_probes_are_misses(self, small_space, benchmarks,
                                            gpu_3090):
        dense_cache, _ = self._build_cache(small_space)
        hashed_cache = benchmarks["hotspot"].build_cache(gpu_3090, sample_size=20,
                                                         seed=8)
        for cache in (dense_cache, hashed_cache):
            table = cache.index_table()
            assert table.lookup_one(-1) == (math.inf, True, False)
            for index in (-95, cache.space.cardinality, cache.space.cardinality + 5):
                assert table.lookup_one(index) == (math.inf, True, False)

    def test_duplicate_indices_in_one_batch_do_not_leak_rows(self, small_space):
        cache = EvaluationCache("bench", "GPU", small_space)
        table = cache.index_table()  # built empty; adds now queue as pending
        config = small_space.config_at(5)
        cache.add(config, 1.0)
        cache.add(config, 2.0)  # overwrite inside the same pending flush
        table = cache.index_table()
        assert len(table) == 1
        assert table.lookup_one(5) == (2.0, False, True)

    def test_hashed_table_for_huge_spaces(self, benchmarks, gpu_3090):
        cache = benchmarks["hotspot"].build_cache(gpu_3090, sample_size=50, seed=2)
        table = cache.index_table()
        assert not table._dense  # hotspot cardinality exceeds the dense ceiling
        space = cache.space
        for obs in cache:
            index = space.index_of(obs.config)
            value, fail, found = table.lookup_one(index)
            assert found and fail == obs.is_failure


class TestEvaluateIndex:
    def test_matches_dict_evaluation(self, benchmarks, gpu_3090):
        # Both calls of the live problem equal the campaign's column path.
        benchmark = benchmarks["pnpoly"]
        rng = np.random.default_rng(5)
        indices = rng.integers(0, benchmark.space.cardinality, size=40).tolist()
        reference = campaign_measurement(benchmark, gpu_3090, indices)
        index_problem = benchmark.problem(gpu_3090)
        assert_measures_like([index_problem.evaluate_index(i) for i in indices],
                             indices, reference)
        dict_problem = benchmark.problem(gpu_3090)
        assert_measures_like(
            [dict_problem.evaluate(benchmark.space.config_at(i)) for i in indices],
            indices, reference)

    def test_spelling_is_one_measurement_in_either_call_order(self, pnpoly, gpu_3090,
                                                                pnpoly_cache_3090):
        # A member configuration spelled otherwise than the space declares it
        # (320.0 for 320) is the same measurement through evaluate, through
        # evaluate_index and in the campaign cache, whichever path asks first.
        space, problem = pnpoly.space, pnpoly.problem(gpu_3090)
        table = pnpoly_cache_3090.index_table()
        for index, dict_first in ((1234, True), (1235, False)):
            config = space.config_at(index)
            spelled = dict(config, block_size_x=float(config["block_size_x"]))
            if dict_first:
                by_dict = problem.evaluate(spelled)
                by_index = problem.evaluate_index(index)
            else:
                by_index = problem.evaluate_index(index)
                by_dict = problem.evaluate(spelled)
            value, failure, found = table.lookup_one(index)
            assert found and not failure
            assert by_dict.value == by_index.value == value, (index, dict_first)
            assert by_dict.evaluation_index == by_index.evaluation_index
            assert type(by_dict.config["block_size_x"]) is float  # the caller's dict
        assert problem.evaluation_count == problem.cache_size == 2

    def test_replay_matches_dict_evaluation_including_misses(self, benchmarks,
                                                             gpu_3090):
        cache = benchmarks["gemm"].build_cache(gpu_3090, sample_size=100, seed=9)
        space = cache.space
        stored = space.indices_of_configs([dict(o.config) for o in cache])[:20]
        rng = np.random.default_rng(1)
        probes = np.concatenate([stored,
                                 rng.integers(0, space.cardinality, 20)]).tolist()
        for strict in (True, False):
            # Both calls of a replay equal a dictionary-loaded copy of the cache.
            reference = replay_measurement(cache, strict)
            index_problem = cache.to_problem(strict=strict)
            assert_measures_like([index_problem.evaluate_index(i) for i in probes],
                                 probes, reference)
            dict_problem = cache.to_problem(strict=strict)
            assert_measures_like(
                [dict_problem.evaluate(space.config_at(i)) for i in probes],
                probes, reference)

    def test_mixed_paths_share_one_memo(self, benchmarks, gpu_3090):
        # A config evaluated through the dict path then the index path (or the
        # reverse) on one memoized problem must be measured exactly once, even
        # for a non-deterministic objective.
        space = SearchSpace([Parameter("x", (1, 2, 3, 4))])
        calls = []

        def noisy(index):
            calls.append(index)
            return float(len(calls))

        from repro.core.problem import TuningProblem
        problem = TuningProblem("t", space, noisy, memoize=True)
        a = problem.evaluate({"x": 2})
        b = problem.evaluate_index(space.index_of({"x": 2}))
        c = problem.evaluate({"x": 2})
        assert len(calls) == 1
        assert a.value == b.value == c.value == 1.0
        assert problem.evaluation_count == 1
        assert problem.cache_size == 1  # one memo entry, not one per path
        # And the reverse order, plus the pre-validated form tuners settle with.
        problem.reset_cache()
        calls.clear()
        d = problem.evaluate_index(space.index_of({"x": 3}))
        e = problem.evaluate({"x": 3})
        f = problem.evaluate_index(space.index_of({"x": 3}), _valid_hint=True)
        assert len(calls) == 1
        assert d.value == e.value == f.value
        assert problem.cache_size == 1
        # A configuration outside the space keys the memo by its config tuple.
        outside = problem.evaluate({"x": 9})
        again = problem.evaluate({"x": 9})
        assert problem.evaluation_count == 2 and problem.cache_size == 2
        assert outside.to_dict() == again.to_dict()
        assert outside.error == "configuration not a member of the search space"

        # A pre-validated run, evaluate_index_run, records the same
        # observations, evaluation count and budget charge as evaluate_index in
        # a loop on a memo-warm replay, including misses, duplicates and a
        # budget-truncated tail.
        cache = benchmarks["pnpoly"].build_cache(gpu_3090, sample_size=50, seed=4)
        space = cache.space
        stored = space.indices_of_configs([dict(o.config) for o in cache])
        misses = np.setdiff1d(np.arange(40), stored)[:3]
        order = np.concatenate([stored[:12], misses, stored[:4], stored[20:30]])
        warm = stored[:6].tolist() + misses[:1].tolist()

        def settle(mode, max_evaluations):
            tuner = GeneticAlgorithm(seed=0)
            budget = Budget(max_evaluations=max_evaluations)
            tuner._problem = cache.to_problem(strict=True)
            for index in warm:
                tuner._problem.evaluate_index(index, _valid_hint=True)
            tuner._budget = budget
            tuner._result = TuningResult()
            tuner._track = [None, math.inf]
            settled = (tuner.evaluate_index_run(order) if mode == "run"
                       else [tuner.evaluate_index(i) for i in order.tolist()])
            settled = [obs for obs in settled if obs is not None]
            go_on = len(settled) == order.size and not budget.exhausted
            return (go_on, [o.to_dict() for o in tuner._result.observations],
                    tuner._problem.evaluation_count, budget.to_dict(),
                    tuner._track)

        for max_evaluations in (order.size + 5, order.size - 7):
            run = settle("run", max_evaluations)
            assert run == settle("loop", max_evaluations)
            assert run[0] == (max_evaluations > order.size)


class TestTunerConvergence:
    def test_curve_from_real_tuner_runs(self, pnpoly_cache_3090):
        from repro.analysis.convergence import tuner_convergence

        curve = tuner_convergence(pnpoly_cache_3090, lambda: LocalSearch(),
                                  repetitions=5, budget=30, base_seed=3)
        assert curve.evaluations.tolist() == list(range(1, 31))
        assert curve.median_relative_performance.shape == (30,)
        # Best-so-far relative performance is monotone non-decreasing and <= 1.
        diffs = np.diff(curve.median_relative_performance)
        assert (diffs >= -1e-12).all()
        assert curve.median_relative_performance.max() <= 1.0 + 1e-12
        # Deterministic given the base seed.
        again = tuner_convergence(pnpoly_cache_3090, lambda: LocalSearch(),
                                  repetitions=5, budget=30, base_seed=3)
        assert np.array_equal(curve.median_relative_performance,
                              again.median_relative_performance)


# ---------------------------------------------------------------- restart draws

def _restart_run(draw_one, space, seed, draws):
    """``(values, error text, final generator state)`` of ``draws`` restart draws
    from one generator; a failure ends the run."""
    rng = np.random.default_rng(seed)
    values, error = [], None
    try:
        for _ in range(draws):
            values.append(draw_one(space, rng))
    except EmptySearchSpaceError as exc:
        error = str(exc)
    return values, error, rng.bit_generator.state


def _library_draw(space, rng):
    return space.sample_one_index(rng=rng)


#: ``_RESTART_BLOCK_MIN_DRAWS`` settings: blocks wherever the count is known, the
#: shipped choice, and the scalar loop wherever a point is feasible.
RESTART_FORMS = {"block": 1, "shipped": searchspace._RESTART_BLOCK_MIN_DRAWS,
                 "scalar": 2**62}


def diff_restart_draws(space, seed, draws):
    """Diff-test the restart draw against the scalar reference loop: every form of
    ``sample_one_index`` must return the same indices, raise the same text and
    leave the generator in the same state.  Returns the mismatches."""
    baseline = _restart_run(restart_draw_reference, space, seed, draws)
    mismatches = []
    for form, min_draws in RESTART_FORMS.items():
        with mock.patch.object(searchspace, "_RESTART_BLOCK_MIN_DRAWS", min_draws):
            variant = _restart_run(_library_draw, space, seed, draws)
        if variant != baseline:
            mismatches.append({"form": form, "seed": seed, "baseline": baseline[:2],
                               "variant": variant[:2]})
    return mismatches


@st.composite
def restart_spaces(draw):
    """A synthetic space, tabled, with a callable constraint (untabled) or with no
    feasible point at all, as a streaming twin (table probes) or a memoized one
    (bitmap probes)."""
    dimensions = draw(st.integers(1, 4))
    benchmark = create_benchmark(
        name="restart", family=draw(st.sampled_from(FAMILIES)), dimensions=dimensions,
        radix_profile=draw(st.lists(st.integers(2, 6), min_size=dimensions,
                                    max_size=dimensions)),
        constraint_density=draw(st.sampled_from((0.0, 1.0, 2.5))),
        seed=draw(st.integers(0, 2**16)), max_radix=6)
    parameters = benchmark.space.parameters
    constraints = list(benchmark.space.constraints)
    first = parameters[0]
    kind = draw(st.sampled_from(("tabled", "callable", "infeasible")))
    if draw(st.booleans()):  # sparse: one value of the first parameter
        constraints.append(f"{first.name} == {first.values[-1]!r}")
    if kind == "callable":
        banned = draw(st.sampled_from(first.values))
        constraints.append(lambda config: config[first.name] != banned)
    if kind == "infeasible":
        constraints.append(draw(st.sampled_from(
            (f"{first.name} != {first.name}", lambda config: False))))
    if draw(st.booleans()):
        space = SearchSpace(parameters, constraints)
        space.feasible_indices()
        return space
    return StreamingSpace(parameters, constraints)


class TestRestartDraw:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(space=restart_spaces(), seed=st.integers(0, 2**32 - 1),
           draws=st.integers(1, 8))
    def test_block_and_scalar_forms_equal_the_reference_loop(self, space, seed, draws):
        assert diff_restart_draws(space, seed, draws) == []

    @pytest.mark.parametrize("memo", [False, True])
    def test_infeasible_spaces_fail_with_the_reference_text(self, memo):
        for constraint in ("a < 0", lambda config: False):
            space = (SearchSpace if memo else StreamingSpace)(
                [Parameter("a", (1, 2, 3))], [constraint])
            if memo:
                space.feasible_indices()
            for seed in (0, 1):
                assert diff_restart_draws(space, seed, 1) == []
                values, error, _ = _restart_run(_library_draw, space, seed, 1)
                assert values == [] and "after 1000 attempts (found 0)" in error

    @pytest.mark.parametrize("memo", [False, True])
    @pytest.mark.parametrize("seed", [0, 2023])
    def test_unconstrained_space_draws_one_scalar_index(self, memo, seed):
        # Every index is feasible, so the restart draw is exactly one scalar
        # draw, memo or not, and leaves the generator where that draw does.
        parameters = [Parameter("a", (1, 2, 4, 8)), Parameter("b", tuple(range(7))),
                      Parameter("c", (3, 5, 9))]
        space = (SearchSpace if memo else StreamingSpace)(parameters, [])
        if memo:
            space.feasible_indices()
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert space.sample_one_index(rng=rng) == int(reference.integers(0, 84))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_kernel_spaces_draw_the_reference_stream(self, benchmarks):
        # The paper's seven spaces, streaming and (where small enough) memoized:
        # Expdist, Hotspot and Nbody take the block form as shipped.
        for name, benchmark in benchmarks.items():
            space = benchmark.space
            twins = [StreamingSpace(space.parameters, space.constraints)]
            memoized = SearchSpace(space.parameters, space.constraints)
            if memoized.feasible_indices() is not None:
                twins.append(memoized)
            for twin in twins:
                assert diff_restart_draws(twin, 2023, 30) == [], name
