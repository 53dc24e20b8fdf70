"""Differential suite for the column readers of :class:`EvaluationCache`.

A cache opened from a columnar file adopts its index/value/code columns and
answers its statistics readers (``values``, ``best``/``worst``, ``median``,
``optimum``, ``statistics``, ``get``, ``valid_arrays``, ``to_feature_matrix``,
``to_dict``) straight from them.  The contract under test: every such reader on
a fresh memory-mapped cache is bit-for-bit what the per-row oracle
(:class:`cache_oracle.OracleCache`) returns, whether that oracle was filled one
``add`` at a time from the evaluated rows or from the mapped cache's own
observations, and the paper's figures plus the tuner replays on a mapped cache
match those on a cache filled one ``add_observation`` at a time.  Every campaign
write path -- ``build_cache``, fresh serial and parallel executor runs, a resume
that re-executes shards -- exports JSON that loads back to the same export.

The caches cover an exhaustive kernel (Convolution: dense index table, failed
launches) and sampled kernels (Hotspot: hashed index table, failed launches;
PnPoly: dense index table with absent members).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis import (
    centrality_study,
    portability_study,
    random_search_convergence,
    speedup_study,
)
from repro.analysis.convergence import tuner_convergence
from repro.core.cache import EvaluationCache
from repro.core.searchspace import config_key
from repro.exec import ParallelExecutor, SerialExecutor, ShardPlanner, resume_campaign
from repro.io import load_cache, save_cache
from repro.tuners import all_tuners

from cache_oracle import OracleCache

#: (benchmark, GPU, sample size or None for an exhaustive campaign).
UNITS = (("convolution", "RTX_3090", None),
         ("convolution", "RTX_2080_Ti", None),
         ("hotspot", "RTX_3090", 400),
         ("pnpoly", "RTX_3090", 300))

#: The caches the reader comparisons run on (one per table/campaign kind).
READER_UNITS = (("convolution", "RTX_3090"), ("hotspot", "RTX_3090"),
                ("pnpoly", "RTX_3090"))

INDEX_TUNERS = ("random", "grid", "local", "greedy_ils", "annealing", "genetic",
                "diff_evo", "pso")


def eager_build(benchmark, gpu, sample_size, seed):
    """The rows ``build_cache`` evaluates, added one at a time to the oracle."""
    space = benchmark.space
    if sample_size is None:
        configs = list(space.enumerate(valid_only=True))
    else:
        configs = space.configs_at(space.sample_indices(sample_size, rng=seed))
    template = benchmark.new_cache(gpu, sample_size=sample_size)
    cache = OracleCache(template.benchmark, template.gpu, template.space,
                        template.exhaustive)
    cache.metadata.update(template.metadata)
    for config, (value, valid, error) in zip(configs,
                                             benchmark.evaluate_batch(gpu, configs)):
        cache.add(config, value, valid=valid, error=error)
    return cache


@pytest.fixture(scope="module")
def campaign(benchmarks, gpus, tmp_path_factory):
    """Oracles of :data:`UNITS` and the columnar files written from them."""
    directory = tmp_path_factory.mktemp("columns")
    eager, paths = {}, {}
    for name, gpu, sample_size in UNITS:
        cache = eager_build(benchmarks[name], gpus[gpu], sample_size, seed=5)
        eager[name, gpu] = cache
        paths[name, gpu] = cache.to_columnar(directory / f"{name}_{gpu}.col")
    return eager, paths


def open_mapped(path):
    return EvaluationCache.from_columnar(path, mmap=True)


def materialised(path):
    """The oracle of a mapped cache's observations."""
    cache = OracleCache.from_rows(open_mapped(path))
    assert cache.observations
    return cache


def row_built(path):
    """A mapped cache's observations, inserted one ``add_observation`` at a time."""
    mapped = open_mapped(path)
    cache = EvaluationCache(mapped.benchmark, mapped.gpu, mapped.space,
                            mapped.exhaustive)
    cache.metadata.update(mapped.metadata)
    for observation in mapped.observations:
        cache.add_observation(observation)
    return cache


@pytest.fixture(params=READER_UNITS, ids=lambda key: key[0])
def unit(request):
    return request.param


@pytest.fixture(params=["materialised", "eager"])
def pair(request, campaign, unit):
    """``(mapped, reference)``: a fresh mapped cache and an oracle of its rows."""
    eager, paths = campaign
    mapped = open_mapped(paths[unit])
    reference = eager[unit] if request.param == "eager" else materialised(paths[unit])
    return mapped, reference


def same_array(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def same_observation(a, b):
    return (list(a.config.items()) == list(b.config.items())
            and same_float(a.value, b.value) and a.valid == b.valid
            and a.error == b.error and a.evaluation_index == b.evaluation_index
            and a.gpu == b.gpu and a.benchmark == b.benchmark)


class TestReaders:
    def test_campaign_has_failures(self, campaign):
        eager, _ = campaign
        assert eager["convolution", "RTX_3090"].num_invalid > 0
        assert eager["hotspot", "RTX_3090"].num_invalid > 0
        assert eager["convolution", "RTX_3090"].exhaustive

    @pytest.mark.parametrize("valid_only", [True, False])
    def test_values(self, pair, valid_only):
        mapped, reference = pair
        assert same_array(mapped.values(valid_only=valid_only),
                          reference.values(valid_only=valid_only))

    def test_values_is_a_writable_copy(self, pair):
        mapped, _ = pair
        for valid_only in (True, False):
            values = mapped.values(valid_only=valid_only)
            assert values.flags.writeable
            values[:] = -1.0
        assert (mapped.values(valid_only=False) != -1.0).all()

    def test_median_optimum_statistics(self, pair):
        mapped, reference = pair
        assert same_float(mapped.median(), reference.median())
        assert same_float(mapped.optimum(), reference.optimum())
        got, want = mapped.statistics(), reference.statistics()
        assert got.keys() == want.keys()
        assert all(same_float(got[k], want[k]) for k in want)

    @pytest.mark.parametrize("valid_only", [True, False])
    def test_feature_matrix(self, pair, valid_only):
        mapped, reference = pair
        X, y = mapped.to_feature_matrix(valid_only=valid_only)
        X_ref, y_ref = reference.to_feature_matrix(valid_only=valid_only)
        assert same_array(X, X_ref)
        assert same_array(y, y_ref)

    def test_valid_arrays(self, pair):
        mapped, reference = pair
        indices, values = mapped.valid_arrays()
        ref_indices, ref_values = reference.valid_arrays()
        assert same_array(indices, ref_indices)
        assert same_array(values, ref_values)
        configs = mapped.configs()
        assert [list(c.items()) for c in configs] == [list(c.items())
                                                      for c in reference.configs()]
        assert all(type(c) is dict for c in configs)
        assert mapped.space.configs_at(indices) == configs

    def test_to_dict(self, pair):
        mapped, reference = pair
        got, want = mapped.to_dict(), reference.to_dict()
        assert got == want
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("reader", ["best", "worst"])
    def test_best_and_worst(self, pair, reader):
        mapped, reference = pair
        assert same_observation(getattr(mapped, reader)(), getattr(reference, reader)())

    def test_readers_match_an_observation_scan(self, pair):
        # The scan below restates the oracle's readers by hand.
        mapped, reference = pair
        observations = reference.observations
        valid = [o for o in observations if not o.is_failure]
        assert same_array(mapped.values(), np.array([o.value for o in valid]))
        assert same_array(mapped.values(valid_only=False),
                          np.array([o.value for o in observations]))
        assert same_observation(mapped.best(), min(valid, key=lambda o: o.value))
        assert same_observation(mapped.worst(), max(valid, key=lambda o: o.value))
        X, _ = mapped.to_feature_matrix()
        assert same_array(X, reference.space.encode_batch([o.config for o in valid]))
        indices, _ = mapped.valid_arrays()
        assert indices.tolist() == [reference.space.index_of(o.config) for o in valid]
        assert mapped.configs() == [dict(o.config) for o in valid]


class TestGet:
    def _cases(self, cache, sampled_absent):
        observations = cache.observations
        valid = next(o for o in observations if not o.is_failure)
        config = dict(valid.config)
        name = cache.space.parameter_names[0]
        missing = {k: v for k, v in config.items() if k != name}
        cases = {
            "valid member": config,
            "unknown key": {**config, "no_such_parameter": 1},
            "missing key": missing,
            "out-of-range value": {**config, name: -123_456_789},
        }
        failed = [o for o in observations if o.is_failure]
        if failed:
            cases["failed member"] = dict(failed[0].config)
        if sampled_absent:
            stored = {config_key(o.config) for o in observations}
            rng = np.random.default_rng(0)
            for index in cache.space.sample_indices(64, rng=rng, valid_only=True).tolist():
                absent = cache.space.config_at(int(index))
                if tuple(sorted(absent.items())) not in stored:
                    cases["absent member"] = absent
                    break
        return cases

    def test_get_matches_the_oracle(self, campaign, unit):
        eager, paths = campaign
        reference = materialised(paths[unit])
        cases = self._cases(reference, sampled_absent=not eager[unit].exhaustive)
        expected_kinds = {"valid member", "unknown key", "missing key",
                          "out-of-range value"}
        if unit[0] != "pnpoly":
            expected_kinds.add("failed member")
        if not eager[unit].exhaustive:
            expected_kinds.add("absent member")
        assert set(cases) == expected_kinds
        mapped = open_mapped(paths[unit])
        for kind, config in cases.items():
            got, want = mapped.get(config), reference.get(config)
            if want is None:
                assert got is None, kind
            else:
                assert got is not None and same_observation(got, want), kind
            assert (config in mapped) == (config in reference), kind
        assert mapped.get(cases["valid member"]).valid


class TestFiguresMatchRowBuiltCaches:
    def test_figures(self, campaign, benchmarks, gpus):
        eager, paths = campaign
        mapped = {key: open_mapped(path) for key, path in paths.items()}
        forced = {key: row_built(path) for key, path in paths.items()}

        for key in mapped:
            curve = random_search_convergence(mapped[key], repetitions=20, seed=3)
            ref = random_search_convergence(forced[key], repetitions=20, seed=3)
            assert same_array(curve.median_relative_performance,
                              ref.median_relative_performance)
        reports = centrality_study(mapped)
        ref_reports = centrality_study(forced)
        assert set(reports) == {("convolution", "RTX_3090"),
                                ("convolution", "RTX_2080_Ti"), ("pnpoly", "RTX_3090")}
        for key, report in reports.items():
            assert report.num_nodes == ref_reports[key].num_nodes
            assert report.num_edges == ref_reports[key].num_edges
            assert same_array(report.values, ref_reports[key].values)
        speedups = speedup_study(mapped)
        assert [(e.speedup, e.median_ms) for e in speedups] == [
            (e.speedup, e.median_ms) for e in speedup_study(forced)]
        matrices = portability_study(benchmarks, mapped, gpus)
        ref_matrices = portability_study(benchmarks, forced, gpus)
        assert matrices["convolution"].relative_performance.shape == (2, 2)
        for name, matrix in matrices.items():
            assert same_array(matrix.relative_performance,
                              ref_matrices[name].relative_performance)

    @pytest.mark.parametrize("name", INDEX_TUNERS)
    def test_tuner_replays(self, campaign, name):
        _, paths = campaign
        factory = all_tuners()[name]
        for key, path in paths.items():
            mapped, forced = open_mapped(path), row_built(path)
            curve = tuner_convergence(mapped, factory, repetitions=2, budget=40,
                                      base_seed=11)
            ref = tuner_convergence(forced, factory, repetitions=2, budget=40,
                                    base_seed=11)
            assert same_array(curve.median_relative_performance,
                              ref.median_relative_performance), key


class TestWritePaths:
    @pytest.fixture(scope="class")
    def planner(self, benchmarks, gpus):
        """An exhaustive and a sampled unit, several shards each."""
        return ShardPlanner({"pnpoly": benchmarks["pnpoly"],
                             "hotspot": benchmarks["hotspot"]},
                            {"RTX_3090": gpus["RTX_3090"]}, sample_size=300, seed=5,
                            shard_size=1000)

    def _assert_exports_reload(self, caches, directory):
        assert caches
        for key, cache in caches.items():
            path = save_cache(cache, directory / f"{key[0]}_{key[1]}.json.gz")
            assert json.dumps(load_cache(path).to_dict()) == json.dumps(cache.to_dict()), key

    def test_build_cache_matches_the_row_oracle(self, campaign, benchmarks, gpus,
                                                tmp_path):
        eager, _ = campaign
        built = {(name, gpu): benchmarks[name].build_cache(
                     gpus[gpu], sample_size=sample_size, seed=5)
                 for name, gpu, sample_size in UNITS}
        for key, cache in built.items():
            assert json.dumps(cache.to_dict()) == json.dumps(eager[key].to_dict())
        self._assert_exports_reload(built, tmp_path)

    def test_fresh_serial_and_parallel_runs(self, planner, tmp_path):
        plan = planner.plan()
        assert max(len(plan.shards_of(unit)) for unit in plan.units) > 1
        for label, executor in (("serial", SerialExecutor()),
                                ("parallel", ParallelExecutor(workers=2))):
            directory = tmp_path / label
            directory.mkdir()
            caches = executor.run(plan, benchmarks=planner.benchmarks,
                                  gpus=planner.gpus)
            self._assert_exports_reload(caches, directory)

    def test_resume_that_re_executes_shards(self, planner, tmp_path):
        plan = planner.plan()
        store = tmp_path / "ckpt"
        SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                             gpus=planner.gpus, checkpoint=store)
        for shard in plan.shards[::2]:
            (store / shard.fragment_name).unlink()
        caches = resume_campaign(store, benchmarks=planner.benchmarks,
                                 gpus=planner.gpus)
        self._assert_exports_reload(caches, tmp_path)
