"""Tests of the fitness flow graph, PageRank and the proportion-of-centrality metric.

``TestFFGOracle`` is the differential suite of the index-native graph construction:
edge sets, the within-source target order, fitness and node indices against the
dictionary hash-map construction in ``tests/neighbor_oracle.py``.
``TestPageRankOracle`` holds the NumPy PageRank to the SciPy power iteration in
``tests/pagerank_oracle.py``, byte for byte.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.core.cache import EvaluationCache
from repro.core.errors import ReproError
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.graph.centrality import proportion_of_centrality
from repro.graph.ffg import build_ffg
from repro.graph.pagerank import pagerank

from neighbor_oracle import oracle_ffg
from pagerank_oracle import pagerank as oracle_pagerank


def _line_cache(values):
    """Cache over a 1-D space whose fitness profile is the given list."""
    space = SearchSpace([Parameter("x", tuple(range(len(values))))], name="line")
    cache = EvaluationCache("line", "SIM", space, exhaustive=True)
    for i, v in enumerate(values):
        cache.add({"x": i}, float(v))
    return cache


def _edge_list(graph):
    """``(sources, targets)`` of every edge, read from the CSR arrays."""
    indptr, targets = graph.csr_arrays()
    return np.repeat(np.arange(graph.num_nodes), np.diff(indptr)), targets


def _csr(dense):
    """CSR ``(indptr, indices, data)`` tuple of a dense adjacency matrix."""
    matrix = sparse.csr_matrix(np.asarray(dense, dtype=float))
    return matrix.indptr, matrix.indices, matrix.data


def _grid_cache(fn, nx_=5, ny=5):
    """Cache over a 2-D grid with fitness fn(x, y)."""
    space = SearchSpace([Parameter("x", tuple(range(nx_))), Parameter("y", tuple(range(ny)))],
                        name="grid")
    cache = EvaluationCache("grid", "SIM", space, exhaustive=True)
    for config in space.enumerate(valid_only=False):
        cache.add(config, float(fn(config["x"], config["y"])))
    return cache


class TestFitnessFlowGraph:
    def test_monotone_line_has_single_minimum(self):
        ffg = build_ffg(_line_cache([5, 4, 3, 2, 1]))
        assert ffg.num_nodes == 5
        assert list(ffg.local_minima()) == [4]
        assert int(np.argmin(ffg.fitness)) == 4

    def test_two_basins(self):
        # 2-D grid with two separated basins: (0, 0) is the global optimum and (3, 3)
        # is a worse local minimum -- they are Hamming distance 2 apart, so neither
        # sees the other in the fitness-flow neighbourhood.
        def fitness(x, y):
            if (x, y) == (0, 0):
                return 1.0
            if (x, y) == (3, 3):
                return 1.5
            return 10.0 + x + y
        cache = _grid_cache(fitness, nx_=5, ny=5)
        ffg = build_ffg(cache)
        minima_configs = {tuple(sorted(c.items()))
                          for c in cache.space.configs_at(ffg.indices[ffg.local_minima()])}
        assert minima_configs == {(("x", 0), ("y", 0)), (("x", 3), ("y", 3))}
        optimum = ffg.indices[np.argmin(ffg.fitness)]
        assert cache.space.config_at(optimum) == {"x": 0, "y": 0}

    def test_edges_point_downhill(self):
        cache = _grid_cache(lambda x, y: (x - 2) ** 2 + (y - 3) ** 2)
        ffg = build_ffg(cache)
        rows, cols = _edge_list(ffg)
        assert np.all(ffg.fitness[cols] < ffg.fitness[rows])

    def test_unimodal_grid_single_minimum(self):
        cache = _grid_cache(lambda x, y: (x - 2) ** 2 + (y - 3) ** 2)
        ffg = build_ffg(cache)
        minima = ffg.local_minima()
        assert len(minima) == 1
        assert cache.space.configs_at(ffg.indices[minima]) == [{"x": 2, "y": 3}]

    def test_minima_within_band(self):
        # Same two-basin grid as above, with the secondary minimum only 5% worse.
        def fitness(x, y):
            if (x, y) == (0, 0):
                return 1.0
            if (x, y) == (3, 3):
                return 1.05
            return 10.0 + x + y
        ffg = build_ffg(_grid_cache(fitness, nx_=5, ny=5))
        assert len(ffg.minima_within(0.10)) == 2
        assert len(ffg.minima_within(0.01)) == 1
        with pytest.raises(ReproError):
            ffg.minima_within(-0.1)

    def test_empty_cache_raises(self):
        space = SearchSpace([Parameter("x", (0, 1))])
        with pytest.raises(ReproError):
            build_ffg(EvaluationCache("b", "g", space))

    def test_invalid_entries_excluded(self):
        cache = _line_cache([3, 2, 1])
        cache.add({"x": 0}, float("inf"), valid=False)
        ffg = build_ffg(cache)
        assert ffg.num_nodes == 2


FIG3_SCENARIOS = [(name, gpu) for name in ("gemm", "convolution", "pnpoly")
                  for gpu in ("RTX_3090", "RTX_2080_Ti")]


def assert_matches_oracle(cache):
    """``build_ffg(cache)`` against the hash-map construction over the valid rows."""
    graph = build_ffg(cache)
    valid = cache.valid_observations()
    configs = [dict(o.config) for o in valid]
    fitness = np.array([o.value for o in valid], dtype=float)
    rows, cols = _edge_list(graph)
    assert graph.indptr.dtype == graph.targets.dtype == np.int64
    assert graph.indptr[0] == 0 and np.all(np.diff(graph.indptr) >= 0)
    # The CSR contract: within each source, targets strictly ascend.
    same_source = rows[1:] == rows[:-1]
    assert np.all(np.diff(cols)[same_source] > 0)
    expected = oracle_ffg(cache.space, configs, fitness)
    assert set(zip(rows.tolist(), cols.tolist())) == expected
    assert graph.num_edges == len(expected)
    np.testing.assert_array_equal(graph.fitness, fitness)
    assert graph.indices.dtype == np.int64
    np.testing.assert_array_equal(graph.indices,
                                  [cache.space.index_of(c) for c in configs])
    assert cache.space.configs_at(graph.indices) == cache.configs()
    return graph


@pytest.fixture(scope="module")
def fig3_caches(benchmarks, gpus):
    return {(name, gpu): benchmarks[name].build_cache(gpus[gpu], seed=2023)
            for name, gpu in FIG3_SCENARIOS}


class TestFFGOracle:
    @pytest.mark.parametrize("scenario", FIG3_SCENARIOS,
                             ids=["@".join(s) for s in FIG3_SCENARIOS])
    def test_fig3_caches(self, fig3_caches, scenario):
        cache = fig3_caches[scenario]
        assert cache.exhaustive
        assert assert_matches_oracle(cache).num_edges > 0

    def test_sampled_hotspot_cache(self, benchmarks, gpu_3090):
        cache = benchmarks["hotspot"].build_cache(gpu_3090, sample_size=2000, seed=1)
        assert_matches_oracle(cache)

    def test_failed_and_override_rows(self, benchmarks, gpu_3090):
        # Columns attached by build_cache, then rewritten row by row: re-adds
        # (override rows), a value spelled as a float, valid rows turned into
        # failures, a failure turned valid, and appended rows.
        cache = benchmarks["pnpoly"].build_cache(gpu_3090, sample_size=600, seed=11)
        space = cache.space
        observations = cache.observations
        for obs in observations[:40:4]:
            cache.add(dict(obs.config), obs.value * 0.5 if obs.valid else 1.0)
        for obs in observations[1:40:4]:
            cache.add(dict(obs.config), float("inf"), valid=False, error="launch failed")
        spelled = dict(observations[2].config)
        name = space.parameters[0].name
        spelled[name] = float(spelled[name])
        cache.add(spelled, 1e-3)
        stored = {space.index_of(o.config) for o in observations}
        fresh = [i for i in space.sample_indices(50, rng=3, valid_only=True, unique=True)
                 .tolist() if i not in stored]
        for k, index in enumerate(fresh):
            cache.add(space.config_at(index), 0.1 + k * 1e-3)
        assert cache.num_invalid >= 10
        assert_matches_oracle(cache)

    def test_one_value_parameter(self):
        space = SearchSpace([Parameter("x", tuple(range(6))), Parameter("fixed", (7,)),
                             Parameter("y", (1, 2, 4))], ["x != y"], name="narrow")
        cache = EvaluationCache("narrow", "SIM", space, exhaustive=True)
        rng = np.random.default_rng(5)
        for config in space.enumerate():
            cache.add(config, float(rng.integers(1, 6)))
        graph = assert_matches_oracle(cache)
        assert graph.num_nodes == len(cache)

    def test_pagerank_accepts_raw_csr_arrays(self, benchmarks, gpu_3090):
        cache = benchmarks["nbody"].build_cache(gpu_3090, sample_size=400, seed=5)
        graph = build_ffg(cache)
        assert (pagerank(graph.csr_arrays()).tobytes()
                == oracle_pagerank(graph.csr_arrays()).tobytes())


@st.composite
def csr_graphs(draw):
    """A random weighted CSR graph with dangling nodes, plus a teleport vector."""
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < density
    mask[rng.random(n) < 0.2] = False                    # dangling rows
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    # Targets in a shuffled order within each row: PageRank must not lean on the
    # FFG builder's ascending order.
    indices = np.concatenate([rng.permutation(np.flatnonzero(row)) for row in mask]
                             + [np.empty(0, dtype=np.int64)])
    data = rng.choice([1.0, 0.5, 3.0, 1e-3], size=indices.size) * rng.random(indices.size)
    if draw(st.booleans()):
        data[rng.random(indices.size) < 0.1] = 0.0      # zero-weight edges
    personalization = rng.random(n) if draw(st.booleans()) else None
    return (indptr, indices, data), personalization


class TestPageRankOracle:
    @pytest.mark.parametrize("scenario", FIG3_SCENARIOS,
                             ids=["@".join(s) for s in FIG3_SCENARIOS])
    def test_fig3_graphs(self, fig3_caches, scenario):
        arrays = build_ffg(fig3_caches[scenario]).csr_arrays()
        assert pagerank(arrays).tobytes() == oracle_pagerank(arrays).tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(graph=csr_graphs(), damping=st.sampled_from([0.5, 0.85, 0.99]),
           int32=st.booleans())
    def test_random_weighted_graphs(self, graph, damping, int32):
        (indptr, indices, data), personalization = graph
        if int32:
            indptr, indices = indptr.astype(np.int32), indices.astype(np.int32)
        kwargs = dict(damping=damping, tol=1e-12, personalization=personalization)
        for arrays in ((indptr, indices, data), (indptr, indices)):
            assert (pagerank(arrays, **kwargs).tobytes()
                    == oracle_pagerank(arrays, **kwargs).tobytes())


class TestPageRank:
    def test_uniform_on_symmetric_cycle(self):
        # Directed 4-cycle: all nodes equivalent -> uniform PageRank.
        ranks = pagerank(_csr(np.roll(np.eye(4), 1, axis=1)))
        np.testing.assert_allclose(ranks, 0.25, atol=1e-8)

    def test_sink_accumulates_mass(self):
        # Star pointing at node 0: node 0 must have the highest rank.
        ranks = pagerank(_csr([
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [1, 0, 0, 0],
            [1, 0, 0, 0],
        ]))
        assert ranks[0] == max(ranks)
        assert ranks.sum() == pytest.approx(1.0)

    def test_matches_networkx(self):
        rng = np.random.default_rng(0)
        dense = (rng.random((30, 30)) < 0.1).astype(float)
        np.fill_diagonal(dense, 0.0)
        adjacency = sparse.csr_matrix(dense)
        ours = pagerank(_csr(dense), damping=0.85, tol=1e-12)
        graph = nx.from_scipy_sparse_array(adjacency, create_using=nx.DiGraph)
        reference = nx.pagerank(graph, alpha=0.85, tol=1e-12)
        np.testing.assert_allclose(ours, [reference[i] for i in range(30)], atol=1e-6)

    def test_personalization_and_validation(self):
        adjacency = _csr([[0, 1], [1, 0]])
        ranks = pagerank(adjacency, personalization=np.array([1.0, 0.0]))
        assert ranks.sum() == pytest.approx(1.0)
        with pytest.raises(ReproError):
            pagerank(adjacency, damping=1.5)
        with pytest.raises(ReproError):
            pagerank(adjacency, personalization=np.array([0.0, 0.0]))
        with pytest.raises(ReproError):
            pagerank((np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)))


class TestCsrValidation:
    """Malformed CSR structure is refused with a ReproError (SciPy's constructor
    used to refuse it, with its own exception types)."""

    # Two nodes: 0 -> 1 and 1 -> 0.
    INDPTR, INDICES, DATA = np.array([0, 1, 2]), np.array([1, 0]), np.array([1.0, 2.0])

    def test_well_formed_input_is_accepted(self):
        assert pagerank((self.INDPTR, self.INDICES, self.DATA)).sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("indptr", [
        np.array([1, 1, 2]), np.array([0, 3, 2]), np.array([0, 3, 2], dtype=np.uint64),
        np.array([0, 1, 1])],
        ids=["starts-above-0", "decreasing", "decreasing-unsigned", "ends-short"])
    def test_indptr(self, indptr):
        with pytest.raises(ReproError, match="indptr"):
            pagerank((indptr, self.INDICES))

    @pytest.mark.parametrize("indices", [[1, 2], [-1, 0]], ids=["past-n", "negative"])
    def test_indices_out_of_range(self, indices):
        with pytest.raises(ReproError, match="indices"):
            pagerank((self.INDPTR, np.array(indices)))

    def test_data_length_mismatch(self):
        with pytest.raises(ReproError, match="data"):
            pagerank((self.INDPTR, self.INDICES, np.array([1.0, 2.0, 3.0])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data(self, bad):
        with pytest.raises(ReproError, match="data"):
            pagerank((self.INDPTR, self.INDICES, np.array([1.0, bad])))

    @pytest.mark.parametrize("adjacency", [
        "not a graph", (np.array([0, 1, 2]),), (np.array([0, 1, 2]), np.array([1, 0]),
                                                 np.ones(2), np.ones(2))],
        ids=["string", "one-array", "four-arrays"])
    def test_not_a_csr_tuple(self, adjacency):
        with pytest.raises(ReproError, match="CSR"):
            pagerank(adjacency)

    def test_non_integer_index_arrays(self):
        with pytest.raises(ReproError, match="integer"):
            pagerank((self.INDPTR, np.array([1.0, 0.0])))


class TestProportionOfCentrality:
    def test_single_good_minimum_gives_one(self):
        report = proportion_of_centrality(_line_cache([5, 4, 3, 2, 1]), proportions=(0.05, 0.5))
        assert report.values == pytest.approx((1.0, 1.0))
        assert report.num_minima == 1

    def test_poor_minimum_lowers_metric(self):
        # Two basins on a grid: the poor minimum (3x the optimum) has a large basin,
        # so at a tight proportion the metric is well below 1 and it recovers to 1
        # once the band is wide enough to include both minima.
        def fitness(x, y):
            if (x, y) == (0, 0):
                return 1.0
            if (x, y) == (4, 4):
                return 3.0
            # Slope towards (4, 4): most of the landscape drains into the poor basin.
            return 20.0 - x - y
        report = proportion_of_centrality(_grid_cache(fitness, nx_=6, ny=6),
                                          proportions=(0.05, 20.0))
        assert report.value_at(0.05) < report.value_at(20.0)
        assert report.value_at(20.0) == pytest.approx(1.0)
        assert 0.0 < report.value_at(0.05) < 1.0

    def test_monotone_in_proportion(self, pnpoly_cache_3090):
        report = proportion_of_centrality(pnpoly_cache_3090,
                                          proportions=(0.01, 0.05, 0.2, 0.5))
        values = list(report.values)
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)
        assert report.num_nodes == pnpoly_cache_3090.num_valid

    def test_value_at_unknown_proportion(self):
        report = proportion_of_centrality(_line_cache([2, 1]), proportions=(0.1,))
        with pytest.raises(ReproError):
            report.value_at(0.3)

    def test_as_dict(self):
        report = proportion_of_centrality(_line_cache([2, 1]), proportions=(0.1, 0.2))
        assert set(report.as_dict()) == {0.1, 0.2}
