"""Equivalence tests for the columnar index engine: truth tables vs the scalar path.

The batch paths (mixed-radix codecs, constraint truth-table masks, batched sampling)
must be drop-in replacements for the scalar implementations: every test here asserts
element-wise agreement between the two on all registered kernel spaces -- over the
whole product where it is small enough, and on random indices everywhere -- the
contract the analysis layer's reproducibility rests on.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.searchspace as searchspace_module
from repro.core.constraints import ConstraintSet
from repro.core.errors import EmptySearchSpaceError, InvalidConfigurationError
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace

from constraint_oracle import StreamingSpace, oracle_mask

KERNEL_NAMES = ("pnpoly", "nbody", "convolution", "gemm", "expdist", "hotspot",
                "dedispersion")

N_RANDOM = 1000


@pytest.fixture(scope="module", params=KERNEL_NAMES)
def kernel_space(request, benchmarks):
    return benchmarks[request.param].space


@pytest.fixture(scope="module")
def random_indices(kernel_space):
    rng = np.random.default_rng(20230711)
    return rng.integers(0, kernel_space.cardinality, size=N_RANDOM)


class TestBatchCodecs:
    def test_digits_round_trip(self, kernel_space, random_indices):
        digits = kernel_space.indices_to_digits(random_indices)
        assert digits.shape == (N_RANDOM, kernel_space.dimensions)
        np.testing.assert_array_equal(
            kernel_space.digits_to_indices(digits), random_indices)

    def test_configs_at_matches_scalar_config_at(self, kernel_space, random_indices):
        batch = kernel_space.configs_at(random_indices)
        for i in (0, 1, 17, 500, N_RANDOM - 1):
            assert batch[i] == kernel_space.config_at(int(random_indices[i]))

    def test_indices_of_configs_matches_scalar_index_of(self, kernel_space,
                                                        random_indices):
        configs = kernel_space.configs_at(random_indices)
        np.testing.assert_array_equal(
            kernel_space.indices_of_configs(configs), random_indices)
        for i in (0, 42, N_RANDOM - 1):
            assert kernel_space.index_of(configs[i]) == int(random_indices[i])

    def test_configs_hold_native_python_values(self, kernel_space, random_indices):
        config = kernel_space.configs_at(random_indices[:1])[0]
        for parameter in kernel_space.parameters:
            assert type(config[parameter.name]) is type(parameter.values[0])


def _whole_product_equals_scalar(space):
    """Table mask, digit-form mask and scalar lookups over the whole product all
    equal the per-configuration scalar evaluation."""
    idx = np.arange(space.cardinality)
    scalar = [space.constraints.is_satisfied(c) for c in space.configs_at(idx)]
    mask = space.satisfied_mask(idx)
    np.testing.assert_array_equal(mask, scalar)
    np.testing.assert_array_equal(
        space.satisfied_mask(None, digits=space.indices_to_digits(idx)), scalar)
    assert [space.index_is_feasible(i) for i in idx.tolist()] == scalar
    return mask


class TestSatisfiedMask:
    def test_mask_agrees_with_scalar_elementwise(self, kernel_space, random_indices):
        mask = kernel_space.satisfied_mask(random_indices)
        configs = kernel_space.configs_at(random_indices)
        scalar = np.fromiter(
            (kernel_space.constraints.is_satisfied(c) for c in configs),
            dtype=bool, count=N_RANDOM)
        np.testing.assert_array_equal(mask, scalar)
        np.testing.assert_array_equal(
            kernel_space.satisfied_mask(
                None, digits=kernel_space.indices_to_digits(random_indices)), scalar)

    def test_scalar_lookup_agrees_with_mask(self, kernel_space, random_indices):
        fresh = StreamingSpace(kernel_space.parameters,
                               kernel_space.constraints)  # no bitmap shortcut
        assert [fresh.index_is_feasible(i) for i in random_indices.tolist()] == \
            kernel_space.satisfied_mask(random_indices).tolist()

    @pytest.mark.parametrize("name", ["pnpoly", "nbody", "convolution", "gemm"])
    def test_whole_product_of_enumerable_kernels(self, name, benchmarks):
        space = benchmarks[name].space
        mask = _whole_product_equals_scalar(space)
        assert space.count_constrained() == int(mask.sum())
        np.testing.assert_array_equal(space.feasible_indices(), np.flatnonzero(mask))

    def test_every_kernel_constraint_has_a_truth_table(self, kernel_space):
        # The suite's restriction lists all stay inside the table cap; a
        # regression here silently degrades every hot path to per-row checks.
        _, gathers, _, scalar = kernel_space._constraint_tables()
        assert scalar == ()
        assert all(table.size <= 1_152 for table, _, _ in gathers)

    def test_opaque_callable_falls_back_to_scalar(self):
        space = SearchSpace(
            [Parameter("a", (1, 2, 3, 4)), Parameter("b", (1, 2, 3, 4))],
            ConstraintSet([lambda c: c["a"] * c["b"] <= 6, "a != 3"]))
        _whole_product_equals_scalar(space)
        _, gathers, _, scalar = space._constraint_tables()
        assert len(gathers) == 1 and scalar == (space.constraints[0],)

    def test_division_by_zero_counts_as_violated(self):
        space = SearchSpace(
            [Parameter("x", (0, 1, 2, 4)), Parameter("y", (0, 2, 4))],
            ConstraintSet(["y % x == 0"]))
        idx = np.arange(space.cardinality)
        mask = space.satisfied_mask(idx)
        scalar = [space.constraints.is_satisfied(c) for c in space.configs_at(idx)]
        np.testing.assert_array_equal(mask, scalar)
        assert not mask[:3].any()  # the x == 0 rows (one per value of y)

    def test_or_short_circuit_shields_failing_operand(self):
        # "x == 0 or y % x == 0": for x == 0 the scalar path never evaluates the
        # division, so those rows are satisfied, not poisoned.
        space = SearchSpace(
            [Parameter("x", (0, 1, 2, 3)), Parameter("y", (0, 2, 4))],
            ConstraintSet(["x == 0 or y % x == 0"]))
        idx = np.arange(space.cardinality)
        mask = space.satisfied_mask(idx)
        scalar = [space.constraints.is_satisfied(c) for c in space.configs_at(idx)]
        np.testing.assert_array_equal(mask, scalar)
        assert mask[:3].all()  # the x == 0 rows

    def test_raising_restriction_is_a_false_cell(self):
        # 32 % (a // b) raises ZeroDivisionError whenever a < b.
        space = SearchSpace(
            [Parameter("a", (1, 2, 4, 8)), Parameter("b", (1, 2, 4))],
            ConstraintSet(["32 % (a // b) == 0"]))
        mask = _whole_product_equals_scalar(space)
        assert not mask[[1, 2, 5]].any()  # (1, 2), (1, 4), (2, 4)

    def test_ternary_matches_scalar_including_branch_failures(self):
        # "y % x == 0 if x > 0 else y == 0": the scalar path never evaluates the
        # division on the x == 0 rows, so those rows must not be poisoned.
        space = SearchSpace(
            [Parameter("x", (0, 1, 2, 3)), Parameter("y", (0, 2, 4))],
            ConstraintSet(["y % x == 0 if x > 0 else y == 0"]))
        idx = np.arange(space.cardinality)
        mask = space.satisfied_mask(idx)
        scalar = [space.constraints.is_satisfied(c) for c in space.configs_at(idx)]
        np.testing.assert_array_equal(mask, scalar)

    def test_ternary_value_branches(self):
        # Ternary producing values (not booleans), consumed by a comparison.
        space = SearchSpace(
            [Parameter("x", (1, 2, 4)), Parameter("y", (1, 2, 4, 8))],
            ConstraintSet(["(x if x > y else y) <= 4"]))
        idx = np.arange(space.cardinality)
        scalar = [space.constraints.is_satisfied(c) for c in space.configs_at(idx)]
        np.testing.assert_array_equal(space.satisfied_mask(idx), scalar)

    @pytest.mark.parametrize("expression", [
        "x in (1, 2, 4)",
        "x not in (0, 3)",
        "y in [2, 4]",
        "x in (1, 'mixed', 4)",
        "x in (2,) or y in (0, 4)",
    ])
    def test_membership_over_literal_tuples_matches_scalar(self, expression):
        space = SearchSpace(
            [Parameter("x", (0, 1, 2, 3, 4)), Parameter("y", (0, 2, 4))],
            ConstraintSet([expression]))
        _whole_product_equals_scalar(space)

    @pytest.mark.parametrize("expression", [
        "x in y",              # y is not iterable: raises, so violated
        "x in (1, y)",         # container with a non-constant element
        "all(v % 2 == 0 for v in (x, y))",  # a comprehension's own name
        "{0: True, 2: False}.get(y, x > 0)",
    ])
    def test_any_expression_syntax_matches_scalar(self, expression):
        space = SearchSpace(
            [Parameter("x", (0, 1, 2)), Parameter("y", (0, 2))],
            ConstraintSet([expression]))
        _whole_product_equals_scalar(space)

    def test_tables_read_only_referenced_columns(self, small_space):
        _, gathers, _, _ = small_space._constraint_tables()
        read = {small_space.parameters[j].name
                for _, columns, _ in gathers for j in columns}
        assert read == {"block", "tile", "vector"}  # "cache" is never decoded

    def test_tables_over_the_same_columns_are_anded(self):
        space = SearchSpace(
            [Parameter("a", (1, 2, 3, 4)), Parameter("b", (1, 2, 3))],
            ConstraintSet(["a * b <= 6", "a + b != 5", "b > 1"]))
        _, gathers, lookups, _ = space._constraint_tables()
        assert [columns for _, columns, _ in gathers] == [(0, 1), (1,)]
        assert [len(table) for table, _ in lookups] == [12, 3]
        _whole_product_equals_scalar(space)

    def test_parameter_named_like_a_builtin(self):
        # The parameter shadows the builtin in the scalar namespace, so
        # "max(a, 2)" calls an int there (raises, so violated) and the table
        # must read column "max" to agree.
        space = SearchSpace(
            [Parameter("a", (1, 2, 3)), Parameter("max", (0, 5))],
            ConstraintSet(["max(a, 2) > 2", "a <= max"]))
        mask = _whole_product_equals_scalar(space)
        assert not mask.any()

    def test_constant_expression(self):
        space = SearchSpace([Parameter("a", (1, 2, 3))], ConstraintSet(["1 > 2"]))
        assert not _whole_product_equals_scalar(space).any()
        assert space.count_constrained() == 0

    def test_unknown_name_keeps_the_scalar_path_and_raises(self):
        space = SearchSpace([Parameter("a", (1, 2, 3))],
                            ConstraintSet(["a < limit"]))
        _, gathers, _, scalar = space._constraint_tables()
        assert gathers == [] and len(scalar) == 1
        with pytest.raises(InvalidConfigurationError, match="missing parameter"):
            space.satisfied_mask([0])
        with pytest.raises(InvalidConfigurationError, match="missing parameter"):
            space.index_is_feasible(0)

    def test_key_error_inside_an_expression_keeps_the_scalar_path(self):
        # A KeyError surfaces as "missing parameter" from is_satisfied, so no
        # table can hold the verdict; the rows that hit it still raise.
        space = SearchSpace([Parameter("a", (1, 2, 3))],
                            ConstraintSet(["{1: True, 2: False}[a]"]))
        assert len(space._constraint_tables()[3]) == 1
        np.testing.assert_array_equal(space.satisfied_mask([0, 1]), [True, False])
        with pytest.raises(InvalidConfigurationError):
            space.satisfied_mask([2])

    def test_table_past_the_cap_keeps_the_scalar_path(self, monkeypatch):
        space = SearchSpace(
            [Parameter("a", tuple(range(6))), Parameter("b", tuple(range(5))),
             Parameter("c", (0, 1))],
            ConstraintSet(["a * b <= 8", "c == 0 or a != b"]))
        expected = oracle_mask(space, np.arange(space.cardinality))
        # 30 cells for "a * b <= 8" fit; the 60 of the second restriction do not.
        monkeypatch.setattr(searchspace_module, "_TABLE_MAX_CELLS", 30)
        capped = SearchSpace(space.parameters, space.constraints)
        _, gathers, _, scalar = capped._constraint_tables()
        assert [columns for _, columns, _ in gathers] == [(0, 1)]
        assert scalar == (space.constraints[1],)
        np.testing.assert_array_equal(_whole_product_equals_scalar(capped), expected)

    def test_tables_are_built_once_and_rebuilt_after_add(self):
        space = SearchSpace(
            [Parameter("a", (1, 2, 3, 4)), Parameter("b", (1, 2, 3))],
            ConstraintSet(["a * b <= 6"]))
        first = space._constraint_tables()
        assert space._constraint_tables() is first
        space.constraints.add("a != 1")
        second = space._constraint_tables()
        assert second is not first and second[0] == 2
        _whole_product_equals_scalar(space)


class TestSampling:
    def _sample_reference(self, space, n, seed):
        """The seed repository's scalar rejection-sampling loop, verbatim."""
        rng = np.random.default_rng(seed)
        out, seen, attempts = [], set(), 0
        max_attempts = max(200 * n, 1000)
        while len(out) < n:
            attempts += 1
            assert attempts <= max_attempts
            idx = int(rng.integers(0, space.cardinality))
            if idx in seen:
                continue
            config = space.config_at(idx)
            if not space.constraints.is_satisfied(config):
                continue
            seen.add(idx)
            out.append(config)
        return out, rng

    @pytest.mark.parametrize("seed", [0, 7, 2023])
    def test_sample_matches_seed_implementation(self, kernel_space, seed):
        n = 50
        new = kernel_space.configs_at(
            kernel_space.sample_indices(n, rng=seed, valid_only=True, unique=True))
        ref, _ = self._sample_reference(kernel_space, n, seed)
        assert new == ref

    def test_sample_preserves_generator_stream(self, kernel_space):
        rng_new = np.random.default_rng(99)
        new = kernel_space.configs_at(kernel_space.sample_indices(30, rng=rng_new))
        ref, rng_ref = self._sample_reference(kernel_space, 30, 99)
        assert new == ref
        # A generator shared with the caller must end up at the same position.
        assert int(rng_new.integers(0, 2**62)) == int(rng_ref.integers(0, 2**62))

    def test_memoized_feasible_set_prevents_sampling_pathology(self):
        # Only 4 of 64 points are feasible; the seed implementation's rejection loop
        # raised EmptySearchSpaceError for draws close to the feasible count.
        space = SearchSpace(
            [Parameter("a", tuple(range(8))), Parameter("b", tuple(range(8)))],
            ConstraintSet(["a == b", "a < 4"]))
        feasible = space.feasible_indices()
        assert feasible is not None and feasible.size == 4
        configs = space.configs_at(space.sample_indices(
            4, rng=0, valid_only=True, unique=True, max_attempts_factor=2))
        assert len({tuple(sorted(c.items())) for c in configs}) == 4

    def test_pathology_fix_needs_no_priming(self):
        # The memo is computed on demand when rejection patience runs out, so even a
        # fresh space below the threshold can never spuriously fail.
        space = SearchSpace(
            [Parameter("a", tuple(range(8))), Parameter("b", tuple(range(8)))],
            ConstraintSet(["a == b", "a < 4"]))
        assert space._feasible is None
        configs = space.configs_at(space.sample_indices(
            4, rng=0, valid_only=True, unique=True, max_attempts_factor=2))
        assert len(configs) == 4

    def test_infeasible_request_fails_fast_with_feasible_fraction(self):
        space = SearchSpace(
            [Parameter("a", tuple(range(8))), Parameter("b", tuple(range(8)))],
            ConstraintSet(["a == b", "a < 4"]))
        space.feasible_indices()
        with pytest.raises(EmptySearchSpaceError, match="feasible fraction"):
            space.sample_indices(5, rng=0, valid_only=True, unique=True)


def _grid_space(cls=SearchSpace, constraints=("a % 2 == 0 or b > 3",)):
    return cls([Parameter("a", tuple(range(8))), Parameter("b", tuple(range(6)))],
               list(constraints))


_RANGE_CHECKED = {
    "satisfied_mask": lambda space, index: space.satisfied_mask([0, index]),
    "indices_to_digits": lambda space, index: space.indices_to_digits([0, index]),
    "index_is_feasible": lambda space, index: space.index_is_feasible(index),
    "digits_of_index": lambda space, index: space.digits_of_index(index),
}


class TestRangeChecks:
    @pytest.mark.parametrize("constrained", [True, False])
    @pytest.mark.parametrize("past_end", [False, True])  # -1, cardinality
    @pytest.mark.parametrize("entry", sorted(_RANGE_CHECKED))
    def test_out_of_range_index_raises(self, entry, past_end, constrained):
        space = _grid_space(constraints=("a % 2 == 0 or b > 3",) if constrained else ())
        index = space.cardinality if past_end else -1
        with pytest.raises(InvalidConfigurationError, match="out of range"):
            _RANGE_CHECKED[entry](space, index)


class TestMemoPolicy:
    def test_forced_sweep_above_the_threshold_is_not_kept(self):
        from repro.exec.planner import CampaignUnit, unit_indices

        space = _grid_space(StreamingSpace)
        expected = np.flatnonzero(oracle_mask(space, np.arange(space.cardinality)))
        np.testing.assert_array_equal(space.feasible_indices(force=True), expected)
        assert space._feasible_memo() is None
        assert space.feasible_indices() is None
        unit = CampaignUnit(benchmark="grid", gpu="any", sample_size=None, seed=0,
                            with_noise=False, n_configs=int(expected.size))
        np.testing.assert_array_equal(unit_indices(space, unit), expected)
        assert space._feasible_memo() is None

    def test_empty_memo_single_draw_fails_like_the_streaming_twin(self):
        memoized = _grid_space(constraints=("a < 0",))
        assert memoized.feasible_indices().size == 0
        streaming = _grid_space(StreamingSpace, constraints=("a < 0",))
        errors, states = [], []
        for space in (memoized, streaming):
            rng = np.random.default_rng(5)
            with pytest.raises(EmptySearchSpaceError) as caught:
                space.sample_indices(1, rng=rng, unique=False)
            errors.append(str(caught.value))
            states.append(rng.bit_generator.state)
        # The general path's failure after as many size-1 blocks, verbatim.
        reference = np.random.default_rng(5)
        for _ in range(1000):
            reference.integers(0, memoized.cardinality, size=1)
        assert errors == [
            f"could not draw 1 valid configurations from space of cardinality "
            f"{memoized.cardinality} after 1000 attempts (found 0); observed "
            f"feasible fraction 0.000% over 1000 draws"] * 2
        assert states == [reference.bit_generator.state] * 2
