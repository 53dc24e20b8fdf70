"""Differential witness for the constraint truth tables.

Every feasibility answer a :class:`~repro.core.searchspace.SearchSpace` gives --
``satisfied_mask`` over the whole product, over random indices and in digit form,
``index_is_feasible``, ``feasible_indices``, ``count_constrained`` -- must equal the
per-configuration :meth:`ConstraintSet.is_satisfied` oracle, and ``sample_indices``
must return what one-draw-at-a-time rejection sampling returns while leaving the
generator in the same state (``tests/constraint_oracle.py``).  The property test
draws generated scenarios from :func:`repro.kernels.synthetic.create_benchmark`
(family, dimensions, radix profile, constraint density, seed), a constraint added
after first use and a reduced space of each; the hand-written cases cover what the
generator never emits: raising restrictions, callables, callables mixed with
expressions, one-value parameters and reduced spaces of those.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.constraints import ConstraintSet
from repro.core.errors import EmptySearchSpaceError
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.kernels.synthetic import FAMILIES, create_benchmark

from constraint_oracle import StreamingSpace, oracle_mask, sample_reference

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def check_feasibility(space, constraints=None, fixed=None, seed=0):
    """Assert every feasibility path of ``space`` equals the oracle; return it."""
    everything = np.arange(space.cardinality)
    expected = oracle_mask(space, everything, constraints, fixed)
    np.testing.assert_array_equal(space.satisfied_mask(everything), expected)
    np.testing.assert_array_equal(
        space.satisfied_mask(None, digits=space.indices_to_digits(everything)),
        expected)
    random = np.random.default_rng(seed).integers(0, space.cardinality, size=64)
    np.testing.assert_array_equal(space.satisfied_mask(random), expected[random])
    streaming = StreamingSpace(space.parameters, space.constraints)
    assert [streaming.index_is_feasible(i) for i in everything.tolist()] == \
        expected.tolist()
    assert streaming.count_constrained() == int(expected.sum())
    np.testing.assert_array_equal(space.feasible_indices(), np.flatnonzero(expected))
    assert space.count_constrained() == int(expected.sum())
    assert [space.index_is_feasible(i) for i in everything.tolist()] == \
        expected.tolist()  # through the memo's bitmap
    return expected


def check_sampling(space, feasible, seed=0):
    """Assert ``sample_indices`` equals the per-draw reference in every mode,
    on a streaming copy of ``space`` and on a memoized one."""
    memoized = SearchSpace(space.parameters, space.constraints)
    memoized.feasible_indices()
    streaming = StreamingSpace(space.parameters, space.constraints)
    for unique, valid_only in itertools.product((True, False), repeat=2):
        pool = feasible if valid_only else space.cardinality
        sizes = {1, 7, 40} if not unique else {min(pool, 1), min(pool, 7), min(pool, 40)}
        for n in sorted(sizes - {0}):
            reference_rng = np.random.default_rng(seed + n)
            reference = sample_reference(space, n, reference_rng,
                                         valid_only=valid_only, unique=unique)
            if reference is None:
                continue  # patience ran out: the sampler's own rules take over
            for candidate in (streaming, memoized):
                rng = np.random.default_rng(seed + n)
                drawn = candidate.sample_indices(n, rng=rng, valid_only=valid_only,
                                                 unique=unique)
                assert drawn.tolist() == reference, (n, unique, valid_only)
                assert rng.bit_generator.state == reference_rng.bit_generator.state


def check_space(space, seed=0):
    expected = check_feasibility(space, seed=seed)
    check_sampling(space, int(expected.sum()), seed=seed)
    return expected


@st.composite
def synthetic_spaces(draw):
    dimensions = draw(st.integers(1, 5))
    profile = draw(st.none() | st.lists(st.integers(2, 6), min_size=dimensions,
                                        max_size=dimensions))
    benchmark = create_benchmark(
        name="fuzz", family=draw(st.sampled_from(FAMILIES)), dimensions=dimensions,
        radix_profile=profile,
        constraint_density=draw(st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.5))),
        seed=draw(st.integers(0, 2**16)), max_radix=5)
    return benchmark.space


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(space=synthetic_spaces(), data=st.data())
def test_synthetic_spaces_match_the_oracle(space, data):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    check_space(space, seed=seed)

    # A constraint added after first use reaches every path (and the memos).
    first = space.parameters[0]
    dropped = data.draw(st.sampled_from(first.values), label="dropped")
    space.constraints.add(f"{first.name} != {dropped!r}")
    check_space(space, seed=seed)

    names = list(space.parameter_names)
    keep = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True),
                     label="keep")
    fixed = {p.name: data.draw(st.sampled_from(p.values), label=p.name)
             for p in space.parameters if p.name not in keep}
    reduced = space.reduced(keep, fixed=fixed)
    assert reduced._constraint_tables()[3] == ()  # no per-row fallback
    check_feasibility(reduced, space.constraints, fixed, seed=seed)


def _two_ints(a=(1, 2, 4, 8), b=(1, 2, 4)):
    return [Parameter("a", a), Parameter("b", b)]


def _cases():
    return {
        "raising": SearchSpace(_two_ints(), ["32 % (a // b) == 0"]),
        "callable": SearchSpace(_two_ints(), [lambda c: c["a"] * c["b"] <= 8]),
        "mixed": SearchSpace(
            _two_ints() + [Parameter("c", (0, 1))],
            ConstraintSet([lambda c: c["a"] != c["b"] * 2, "c == 1 or a <= 2",
                           lambda c: c["c"] + c["b"] < 5, "a // b != 2"])),
        "one_value": SearchSpace(
            [Parameter("a", (4,)), Parameter("b", (1, 2, 3)), Parameter("c", (7,))],
            ["a % b == 0", "c > a"]),
        "unconstrained": SearchSpace(_two_ints()),
        "infeasible": SearchSpace(_two_ints(), ["a < 0"]),
    }


@pytest.mark.parametrize("name", sorted(_cases()))
def test_hand_written_spaces_match_the_oracle(name):
    space = _cases()[name]
    check_space(space, seed=len(name))


@pytest.mark.parametrize("name", ["raising", "mixed", "one_value"])
def test_reduced_spaces_match_the_oracle(name):
    space = _cases()[name]
    for keep in (["b"], ["a", "b"]):
        fixed = {p.name: p.values[-1] for p in space.parameters if p.name not in keep}
        reduced = space.reduced(keep, fixed=fixed)
        check_feasibility(reduced, space.constraints, fixed)
    # A reduced space of a reduced space pins both sets of values.
    again = reduced.reduced(["a"], fixed={"b": 2})
    check_feasibility(again, space.constraints, dict(fixed, b=2))


def test_reduced_spaces_table_their_expressions():
    space = _cases()["mixed"]
    reduced = space.reduced(["a", "b"], fixed={"c": 0})
    _, gathers, _, scalar = reduced._constraint_tables()
    # The two expressions become tables over (a,) and (a, b); the callables,
    # whose reads are unknown, keep the row path.
    assert sorted(columns for _, columns, _ in gathers) == [(0,), (0, 1)]
    assert len(scalar) == 2


def test_infeasible_space_fails_every_draw():
    space = _cases()["infeasible"]
    with pytest.raises(EmptySearchSpaceError):
        space.sample_indices(1, rng=0)
    with pytest.raises(EmptySearchSpaceError):
        space.sample_indices(1, rng=0, unique=False)
