"""Unit and property tests for repro.core.searchspace."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import EmptySearchSpaceError, InvalidConfigurationError
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace, config_key

from constraint_oracle import StreamingSpace


class TestBasics:
    def test_cardinality_is_product(self, small_space):
        assert small_space.cardinality == 4 * 3 * 4 * 2
        assert len(small_space) == small_space.cardinality
        assert small_space.dimensions == 4

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            SearchSpace([Parameter("a", (1, 2)), Parameter("a", (3, 4))])

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(EmptySearchSpaceError):
            SearchSpace([])

    def test_space_beyond_int64_indices_rejected(self):
        # 10**22 points: the mixed-radix place values no longer fit an int64 index.
        parameters = [Parameter(f"p{j}", tuple(range(10))) for j in range(22)]
        with pytest.raises(InvalidConfigurationError, match=r"2\*\*63 - 1"):
            SearchSpace(parameters)
        # 10**18 points still fit.
        assert SearchSpace(parameters[:18]).cardinality == 10**18


class TestIndexing:
    def test_round_trip_all_indices(self, small_space):
        for idx in range(small_space.cardinality):
            config = small_space.config_at(idx)
            assert small_space.index_of(config) == idx

    def test_index_out_of_range(self, small_space):
        with pytest.raises(InvalidConfigurationError):
            small_space.config_at(small_space.cardinality)
        with pytest.raises(InvalidConfigurationError):
            small_space.config_at(-1)

    def test_configs_at(self, small_space):
        configs = small_space.configs_at([0, 1, 2])
        assert len(configs) == 3
        assert configs[0] != configs[1]


class TestValidation:
    def test_membership_errors(self, small_space):
        config = small_space.config_at(0)
        missing = dict(config)
        missing.pop("block")
        with pytest.raises(InvalidConfigurationError):
            small_space.validate_membership(missing)
        extra = dict(config, unknown=1)
        with pytest.raises(InvalidConfigurationError):
            small_space.validate_membership(extra)
        wrong_value = dict(config, block=999)
        with pytest.raises(InvalidConfigurationError):
            small_space.validate_membership(wrong_value)

    def test_is_valid_applies_constraints(self, small_space):
        valid = {"block": 32, "tile": 4, "vector": 8, "cache": 1}
        invalid = {"block": 256, "tile": 4, "vector": 8, "cache": 1}  # 256*4 > 512
        assert small_space.is_valid(valid)
        assert not small_space.is_valid(invalid)
        assert valid in small_space
        assert invalid not in small_space


class TestEnumerationAndCounting:
    def test_enumerate_valid_only(self, small_space):
        valid = list(small_space.enumerate(valid_only=True))
        everything = list(small_space.enumerate(valid_only=False))
        assert len(everything) == small_space.cardinality
        assert 0 < len(valid) < len(everything)
        assert all(small_space.is_valid(c) for c in valid)

    def test_count_constrained_matches_enumeration(self, small_space):
        exact = small_space.count_constrained()
        assert exact == sum(1 for _ in small_space.enumerate(valid_only=True))

    def test_unconstrained_count_is_cardinality(self):
        space = SearchSpace([Parameter("a", (1, 2, 3))])
        assert space.count_constrained() == 3


class TestSampling:
    def test_sample_unique_and_valid(self, small_space, rng):
        configs = small_space.configs_at(
            small_space.sample_indices(20, rng=rng, valid_only=True, unique=True))
        assert len(configs) == 20
        keys = {config_key(c) for c in configs}
        assert len(keys) == 20
        assert all(small_space.is_valid(c) for c in configs)

    def test_sample_reproducible(self, small_space):
        a = small_space.configs_at(small_space.sample_indices(10, rng=5))
        b = small_space.configs_at(small_space.sample_indices(10, rng=5))
        assert a == b

    def test_sample_zero(self, small_space):
        assert small_space.configs_at(small_space.sample_indices(0)) == []

    def test_sample_negative_raises(self, small_space):
        with pytest.raises(InvalidConfigurationError):
            small_space.sample_indices(-1)

    def test_sample_too_many_unique_raises(self):
        space = SearchSpace([Parameter("a", (1, 2))])
        with pytest.raises(EmptySearchSpaceError):
            space.sample_indices(5, rng=0, unique=True, max_attempts_factor=10)


class TestNeighborhoods:
    def test_hamming_neighbors_differ_in_one_parameter(self, small_space):
        config = {"block": 64, "tile": 2, "vector": 2, "cache": 0}
        for neighbor in small_space.neighbors(config, strategy="hamming"):
            diffs = [k for k in config if config[k] != neighbor[k]]
            assert len(diffs) == 1

    def test_adjacent_is_subset_of_hamming(self, small_space):
        config = {"block": 64, "tile": 2, "vector": 2, "cache": 0}
        hamming = {config_key(n) for n in small_space.neighbors(config, "hamming")}
        adjacent = {config_key(n) for n in small_space.neighbors(config, "adjacent")}
        assert adjacent <= hamming
        assert len(adjacent) < len(hamming)

    def test_neighbors_respect_constraints(self, small_space):
        config = {"block": 128, "tile": 4, "vector": 8, "cache": 0}
        for neighbor in small_space.neighbors(config, valid_only=True):
            assert small_space.is_valid(neighbor)

    def test_unknown_strategy_raises(self, small_space):
        config = small_space.config_at(0)
        with pytest.raises(InvalidConfigurationError):
            small_space.neighbors(config, strategy="bogus")

    def test_non_member_raises(self, small_space):
        with pytest.raises(InvalidConfigurationError):
            small_space.neighbors({"block": 48, "tile": 2, "vector": 2, "cache": 0})

    def test_adjacent_neighbors_interior_and_endpoints(self):
        # One step down and up in declared order; an end value has one neighbour.
        space = SearchSpace([Parameter("vw", (1, 2, 4, 8))])
        assert space.neighbors({"vw": 2}, "adjacent") == [{"vw": 1}, {"vw": 4}]
        assert space.neighbors({"vw": 1}, "adjacent") == [{"vw": 2}]
        assert space.neighbors({"vw": 8}, "adjacent") == [{"vw": 4}]

    def test_neighbors_carry_declared_values(self):
        # Every value comes back as the space declares it, the unchanged ones too.
        space = SearchSpace([Parameter("a", (8, 16, 32)), Parameter("b", (1, 2))])
        neighbors = space.neighbors({"b": 1, "a": 16.0})
        assert neighbors == [{"a": 8, "b": 1}, {"a": 32, "b": 1}, {"a": 16, "b": 2}]
        assert [type(n["a"]) for n in neighbors] == [int, int, int]
        assert [list(n) for n in neighbors] == [["a", "b"]] * 3


class TestReduction:
    def test_reduced_keeps_only_selected(self, small_space):
        reduced = small_space.reduced(["block", "tile"])
        assert reduced.parameter_names == ("block", "tile")
        assert reduced.cardinality == 12

    def test_reduced_constraints_use_fixed_values(self, small_space):
        # Freeze vector=8; the constraint "vector <= tile * 4" then requires tile >= 2.
        reduced = small_space.reduced(["block", "tile"], fixed={"vector": 8, "cache": 0})
        assert not reduced.is_valid({"block": 32, "tile": 1})
        assert reduced.is_valid({"block": 32, "tile": 2})

    def test_reduced_unknown_parameter(self, small_space):
        with pytest.raises(InvalidConfigurationError):
            small_space.reduced(["nope"])

    def test_reduced_empty_keep(self, small_space):
        with pytest.raises(EmptySearchSpaceError):
            small_space.reduced([])


class TestConstraintSetGrowth:
    """Feasibility must follow ``space.constraints.add(...)`` made after first use."""

    @staticmethod
    def _space():
        return SearchSpace([Parameter("a", (1, 2, 3, 4)), Parameter("b", (1, 2, 3))],
                           ["a * b <= 6"])

    def test_every_feasibility_path_sees_an_added_constraint(self):
        space = self._space()
        assert space.count_constrained() == 9
        assert space.feasible_indices().size == 9  # memoizes the feasible set
        assert space.index_is_feasible(0)      # builds the bitmap
        assert 0 in space.neighbor_indices(3).tolist()
        space.constraints.add("a != 1")
        assert space.count_constrained() == 6
        np.testing.assert_array_equal(space.feasible_indices(), [3, 4, 5, 6, 7, 9])
        assert not space.index_is_feasible(0)
        assert not space.satisfied_mask([0])[0]
        assert 0 not in space.neighbor_indices(3).tolist()
        drawn = space.sample_indices(6, rng=1)
        assert sorted(drawn.tolist()) == [3, 4, 5, 6, 7, 9]
        assert space.sample_one_index(rng=np.random.default_rng(0)) >= 3
        assert all(space.is_valid(c) for c in space.enumerate())

    def test_streaming_paths_see_an_added_constraint(self):
        space = StreamingSpace(self._space().parameters, ["a * b <= 6"])
        assert space.sample_indices(9, rng=0).size == 9
        space.constraints.add("a != 1")
        assert space.count_constrained() == 6
        assert not space.index_is_feasible(0)
        assert set(space.sample_indices(20, rng=0, unique=False).tolist()) <= \
            {3, 4, 5, 6, 7, 9}


class TestEncoding:
    def test_encode_batch_matches_encode(self, small_space, rng):
        configs = small_space.configs_at(small_space.sample_indices(8, rng=rng))
        batch = small_space.encode_batch(configs)
        assert batch.shape == (8, small_space.dimensions)
        np.testing.assert_array_equal(
            batch, small_space.encode_indices(small_space.indices_of_configs(configs)))

    def test_decode_inverts_encode(self, small_space, rng):
        for index in small_space.sample_indices(10, rng=rng).tolist():
            vector = small_space.encode_indices([index])[0]
            assert small_space.decode_index(vector) == index

    def test_decode_wrong_length(self, small_space):
        with pytest.raises(InvalidConfigurationError):
            small_space.decode_index([1.0, 2.0])


class TestSerialization:
    def test_round_trip(self, small_space):
        restored = SearchSpace.from_dict(small_space.to_dict())
        assert restored.parameter_names == small_space.parameter_names
        assert restored.cardinality == small_space.cardinality
        sample = {"block": 32, "tile": 4, "vector": 8, "cache": 1}
        assert restored.is_valid(sample) == small_space.is_valid(sample)


# --------------------------------------------------------------------------- property


@st.composite
def _spaces(draw):
    n_params = draw(st.integers(min_value=1, max_value=4))
    params = []
    for i in range(n_params):
        n_values = draw(st.integers(min_value=1, max_value=5))
        params.append(Parameter(f"p{i}", tuple(range(n_values))))
    return SearchSpace(params)


@given(space=_spaces(), data=st.data())
@settings(max_examples=50, deadline=None)
def test_property_index_config_bijection(space, data):
    """config_at / index_of form a bijection over [0, cardinality)."""
    idx = data.draw(st.integers(min_value=0, max_value=space.cardinality - 1))
    config = space.config_at(idx)
    assert space.index_of(config) == idx


@given(space=_spaces(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_property_hamming_neighbors_symmetry(space, data):
    """If B is a Hamming-1 neighbour of A then A is a Hamming-1 neighbour of B."""
    idx = data.draw(st.integers(min_value=0, max_value=space.cardinality - 1))
    config = space.config_at(idx)
    for neighbor in space.neighbors(config, strategy="hamming", valid_only=False):
        back = space.neighbors(neighbor, strategy="hamming", valid_only=False)
        assert any(config_key(b) == config_key(config) for b in back)
