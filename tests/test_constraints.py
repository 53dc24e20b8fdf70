"""Unit tests for repro.core.constraints."""

from __future__ import annotations

import pytest

from repro.core.constraints import Constraint, ConstraintSet
from repro.core.errors import ConstraintViolationError, InvalidConfigurationError


class TestConstraint:
    def test_expression_satisfied(self):
        c = Constraint("block_size_x * block_size_y <= 1024")
        assert c.is_satisfied({"block_size_x": 32, "block_size_y": 32})
        assert not c.is_satisfied({"block_size_x": 64, "block_size_y": 32})

    def test_callable_constraint(self):
        c = Constraint(lambda cfg: cfg["a"] % cfg["b"] == 0)
        assert c({"a": 8, "b": 4})
        assert not c({"a": 9, "b": 4})

    def test_expression_with_builtins(self):
        c = Constraint("max(a, b) <= 16 and min(a, b) >= 2")
        assert c.is_satisfied({"a": 4, "b": 16})
        assert not c.is_satisfied({"a": 1, "b": 4})

    def test_missing_parameter_raises(self):
        # A typo'd parameter name is a programming error, not a constraint violation.
        c = Constraint("a + b > 0")
        with pytest.raises(InvalidConfigurationError):
            c.is_satisfied({"a": 1})
        c_callable = Constraint(lambda cfg: cfg["missing"] > 0)
        with pytest.raises(InvalidConfigurationError):
            c_callable.is_satisfied({"a": 1})

    def test_division_by_zero_counts_as_violation(self):
        # A constraint that blows up on a degenerate combination behaves like a
        # failed compilation, not like a crash of the tuner.
        c = Constraint("32 % (a // b) == 0")
        assert not c.is_satisfied({"a": 1, "b": 8})

    def test_rejects_empty_expression(self):
        with pytest.raises(InvalidConfigurationError):
            Constraint("   ")

    def test_rejects_wrong_type(self):
        with pytest.raises(InvalidConfigurationError):
            Constraint(42)  # type: ignore[arg-type]

    def test_serialization_round_trip(self):
        c = Constraint("a % b == 0", description="divisibility")
        d = Constraint.from_dict(c.to_dict())
        assert d.expression == c.expression
        assert d.description == "divisibility"
        assert d.is_satisfied({"a": 8, "b": 2})


class TestConstraintSet:
    def test_conjunction_semantics(self):
        cs = ConstraintSet(["a > 0", "b > 0", "a * b <= 100"])
        assert cs.is_satisfied({"a": 5, "b": 10})
        assert not cs.is_satisfied({"a": 5, "b": 30})
        assert not cs.is_satisfied({"a": -1, "b": 1})

    def test_empty_set_accepts_everything(self):
        assert ConstraintSet().is_satisfied({"anything": 1})
        assert len(ConstraintSet()) == 0

    def test_violated_lists_expressions(self):
        cs = ConstraintSet(["a > 0", "b > 0"])
        assert cs.violated({"a": -1, "b": -1}) == ("a > 0", "b > 0")
        assert cs.violated({"a": 1, "b": 1}) == ()

    def test_check_raises_with_details(self):
        cs = ConstraintSet(["a > 0"])
        with pytest.raises(ConstraintViolationError) as exc:
            cs.check({"a": -1})
        assert "a > 0" in exc.value.violated

    def test_add_accepts_strings_callables_and_constraints(self):
        cs = ConstraintSet()
        cs.add("a > 0").add(lambda cfg: cfg["a"] < 10).add(Constraint("a != 5"))
        assert len(cs) == 3
        assert cs.is_satisfied({"a": 3})
        assert not cs.is_satisfied({"a": 5})
        assert not cs.is_satisfied({"a": 50})

    def test_iteration_and_indexing(self):
        cs = ConstraintSet(["a > 0", "b > 0"])
        assert [c.expression for c in cs] == ["a > 0", "b > 0"]
        assert cs[0].expression == "a > 0"

    def test_serialization_round_trip(self):
        cs = ConstraintSet(["a % b == 0", "a <= 64"])
        restored = ConstraintSet.from_list(cs.to_list())
        assert len(restored) == 2
        assert restored.is_satisfied({"a": 64, "b": 8})
        assert not restored.is_satisfied({"a": 65, "b": 8})
