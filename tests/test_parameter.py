"""Unit tests for repro.core.parameter."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.errors import InvalidConfigurationError
from repro.core.parameter import Parameter


class TestConstruction:
    def test_basic_properties(self):
        p = Parameter("block", (32, 64, 128))
        assert p.name == "block"
        assert p.cardinality == 3
        assert len(p) == 3
        assert list(p) == [32, 64, 128]
        assert p.default == 32

    def test_explicit_default(self):
        p = Parameter("block", (32, 64, 128), default=128)
        assert p.default == 128

    def test_default_must_be_allowed(self):
        with pytest.raises(InvalidConfigurationError):
            Parameter("block", (32, 64), default=12)

    def test_rejects_empty_values(self):
        with pytest.raises(InvalidConfigurationError):
            Parameter("block", ())

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidConfigurationError):
            Parameter("block", (32, 32, 64))

    def test_rejects_empty_name(self):
        with pytest.raises(InvalidConfigurationError):
            Parameter("", (1, 2))

    def test_string_values_supported(self):
        p = Parameter("method", ("crossing", "winding"))
        assert "crossing" in p
        assert not p.is_numeric

    def test_equality_by_name_and_values(self):
        assert Parameter("a", (1, 2)) == Parameter("a", (1, 2))
        assert Parameter("a", (1, 2)) != Parameter("a", (1, 3))
        assert Parameter("a", (1, 2)) != Parameter("b", (1, 2))

    def test_hashable(self):
        assert len({Parameter("a", (1, 2)), Parameter("a", (1, 2))}) == 1


class TestQueries:
    def test_index_round_trip(self):
        p = Parameter("vw", (1, 2, 4, 8))
        for i, v in enumerate(p.values):
            assert p.index_of(v) == i
            assert p.value_at(i) == v

    def test_index_of_unknown_value(self):
        with pytest.raises(InvalidConfigurationError):
            Parameter("vw", (1, 2)).index_of(3)

    def test_value_at_out_of_range(self):
        with pytest.raises(InvalidConfigurationError):
            Parameter("vw", (1, 2)).value_at(5)

    def test_contains(self):
        p = Parameter("sw", (0, 1))
        assert 0 in p and 1 in p and 2 not in p


class TestSamplingAndEncoding:
    def test_sample_only_allowed_values(self, rng):
        p = Parameter("block", (32, 64, 128))
        for _ in range(50):
            assert p.sample(rng) in p

    def test_sample_reproducible(self):
        p = Parameter("block", tuple(range(100)))
        a = [p.sample(np.random.default_rng(3)) for _ in range(10)]
        b = [p.sample(np.random.default_rng(3)) for _ in range(10)]
        assert a == b

    def test_numeric_encoding_uses_values(self):
        p = Parameter("vw", (1, 2, 4, 8))
        assert p.encode(4) == 4.0
        np.testing.assert_allclose(p.numeric_values(), [1, 2, 4, 8])

    def test_string_encoding_uses_ordinals(self):
        p = Parameter("method", ("a", "b", "c"))
        assert p.encode("b") == 1.0
        np.testing.assert_allclose(p.numeric_values(), [0, 1, 2])


class TestSerialization:
    def test_round_trip(self):
        p = Parameter("block", (32, 64, 128), default=64, description="threads")
        q = Parameter.from_dict(p.to_dict())
        assert q == p
        assert q.default == 64
        assert q.description == "threads"


@given(values=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1,
                       max_size=30, unique=True))
def test_property_index_round_trip(values):
    """index_of and value_at are inverse bijections for any unique value list."""
    p = Parameter("x", values)
    for i, v in enumerate(values):
        assert p.index_of(v) == i
        assert p.value_at(i) == v
    assert p.cardinality == len(values)
