"""Tests of the benchmark search-space definitions against the paper's tables.

Tables I--VII fix the parameter lists and value counts of every benchmark, and Table
VIII's "Cardinality" column fixes the product.  These tests pin the reproduction to the
paper exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.searchspace import SearchSpace
from repro.kernels import BENCHMARK_NAMES, all_benchmarks

#: Cardinality column of Table VIII.
PAPER_CARDINALITIES = {
    "pnpoly": 4_092,
    "nbody": 9_408,
    "convolution": 18_432,
    "gemm": 82_944,
    "expdist": 9_732_096,
    "hotspot": 22_200_000,
    "dedispersion": 123_863_040,
}

#: Per-parameter value counts from Tables I--VII (the "#" column).
PAPER_PARAMETER_COUNTS = {
    "gemm": {"MWG": 4, "NWG": 4, "MDIMC": 3, "NDIMC": 3, "MDIMA": 3, "NDIMB": 3,
             "VWM": 4, "VWN": 4, "SA": 2, "SB": 2},
    "nbody": {"block_size": 4, "outer_unroll_factor": 4, "inner_unroll_factor1": 7,
              "inner_unroll_factor2": 7, "use_soa": 2, "local_mem": 2, "vector_type": 3},
    "hotspot": {"block_size_x": 37, "block_size_y": 6, "tile_size_x": 10, "tile_size_y": 10,
                "temporal_tiling_factor": 10, "loop_unroll_factor_t": 10, "sh_power": 2,
                "blocks_per_sm": 5},
    "pnpoly": {"block_size_x": 31, "tile_size": 11, "between_method": 4, "use_method": 3},
    "convolution": {"block_size_x": 12, "block_size_y": 6, "tile_size_x": 8, "tile_size_y": 8,
                    "use_padding": 2, "read_only": 2},
    "expdist": {"block_size_x": 6, "block_size_y": 6, "tile_size_x": 8, "tile_size_y": 8,
                "use_shared_mem": 3, "loop_unroll_factor_x": 8, "loop_unroll_factor_y": 8,
                "use_column": 2, "n_y_blocks": 11},
    "dedispersion": {"block_size_x": 36, "block_size_y": 32, "tile_size_x": 16,
                     "tile_size_y": 16, "tile_stride_x": 2, "tile_stride_y": 2,
                     "loop_unroll_factor_channel": 21, "blocks_per_sm": 5},
}


@pytest.fixture(scope="module")
def suite():
    return all_benchmarks()


class TestSuiteComposition:
    def test_all_seven_benchmarks_present(self, suite):
        assert set(suite) == set(BENCHMARK_NAMES)
        assert len(suite) == 7

    def test_benchmark_metadata(self, suite):
        for name, benchmark in suite.items():
            assert benchmark.name == name
            assert benchmark.display_name
            assert benchmark.paper_table.startswith("Table")
            assert benchmark.application_domain
            assert benchmark.workload.sizes

    def test_parameter_table_rows(self, suite):
        for benchmark in suite.values():
            table = benchmark.parameter_table()
            assert len(table) == benchmark.space.dimensions
            for row in table:
                assert row["count"] == len(row["values"])


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestAgainstPaperTables:
    def test_cardinality_matches_table8(self, suite, name):
        assert suite[name].space.cardinality == PAPER_CARDINALITIES[name]

    def test_parameter_names_and_counts_match_tables(self, suite, name):
        expected = PAPER_PARAMETER_COUNTS[name]
        space = suite[name].space
        assert set(space.parameter_names) == set(expected)
        for parameter in space.parameters:
            assert parameter.cardinality == expected[parameter.name], parameter.name

    def test_constraints_leave_nonempty_space(self, suite, name):
        space = suite[name].space
        # A random sample of the product must contain at least one valid configuration.
        assert space.configs_at(space.sample_indices(5, rng=0, valid_only=True, unique=True))

    def test_index_config_round_trip(self, suite, name):
        # Both ends of the index range plus random interior points: every index names
        # a member configuration, and index_of gives the same index back.
        space = suite[name].space
        rng = np.random.default_rng(11)
        indices = [0, space.cardinality - 1,
                   *rng.integers(0, space.cardinality, size=20).tolist()]
        for index in indices:
            config = space.config_at(index)
            space.validate_membership(config)
            assert space.index_of(config) == index


class TestKnownConstrainedCounts:
    def test_gemm_constrained_matches_paper_exactly(self, suite):
        # The CLBlast divisibility rules reproduce the paper's 17 956 exactly.
        assert suite["gemm"].space.count_constrained() == 17_956

    def test_pnpoly_unconstrained(self, suite):
        assert suite["pnpoly"].space.count_constrained() == 4_092

    def test_nbody_constrained_same_order_as_paper(self, suite):
        # Paper reports 1 568; the reconstructed constraints land in the same order.
        assert suite["nbody"].space.count_constrained() == 896

    def test_convolution_constrained_same_order_as_paper(self, suite):
        assert suite["convolution"].space.count_constrained() == 12_032  # paper: 9 400

    def test_large_spaces_count_exactly_without_a_sweep(self, suite, monkeypatch):
        # Paper: expdist 540 000, hotspot 21 850 147, dedispersion 107 011 905.
        counts = {"expdist": 302_400, "hotspot": 2_106_000, "dedispersion": 19_138_560}
        reduced = {name: suite[name].space.reduced(suite[name].space.parameter_names[:4])
                   for name in counts}
        swept = {name: space.feasible_indices(force=True).size
                 for name, space in reduced.items()}

        def no_sweep(self, *args, **kwargs):
            raise AssertionError(f"{self.name} swept its indices to count")

        monkeypatch.setattr(SearchSpace, "_iter_feasible_blocks", no_sweep)
        for name, count in counts.items():
            assert suite[name].space.count_constrained() == count
            # Reduced spaces (Table VIII's Reduce-Constrained) count the same way.
            fresh = suite[name].space.reduced(suite[name].space.parameter_names[:4])
            assert fresh.count_constrained() == swept[name]

    def test_workload_overrides(self):
        suite = all_benchmarks(gemm={"matrix_size": 1024}, nbody={"n_bodies": 4096})
        assert suite["gemm"].workload["m"] == 1024
        assert suite["nbody"].workload["n_bodies"] == 4096
        # Overrides never change the search space itself.
        assert suite["gemm"].space.cardinality == PAPER_CARDINALITIES["gemm"]
