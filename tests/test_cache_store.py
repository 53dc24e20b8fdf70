"""Property test: the column store of :class:`EvaluationCache` against the oracle.

Random sequences of ``add``/``add_observation`` on a small space -- re-added
configurations, failures, foreign ``evaluation_index``/gpu/benchmark values,
``1.0``/``True`` spellings of ``1``, reordered config keys, non-float values,
non-bool ``valid`` flags and non-string errors -- go into a fresh cache and into
:class:`cache_oracle.OracleCache`, the dictionary-of-observations reference.
Every reader must then answer bit for bit like the oracle, ``to_columnar``
must refuse exactly the caches the oracle finds not campaign-shaped (and write
the oracle's bytes otherwise), and a ``save_cache`` -> ``load_cache`` ->
``save_cache`` round trip must reproduce its bytes (whenever every value is a
float and every ``valid`` a bool, which is what JSON rows reload as).  Each
sequence runs against the dense index table and, with ``_DENSE_LOOKUP_MAX``
patched to -1, against the hashed one.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core import cache as cache_module
from repro.core.cache import EvaluationCache
from repro.core.errors import ReproError, SerializationError
from repro.core.parameter import Parameter
from repro.core.result import Observation
from repro.core.searchspace import SearchSpace
from repro.io.cachefile import load_cache, save_cache

from cache_oracle import OracleCache

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: Value types int/str/int read the same reversed, so only the key-order check
#: tells a reversed config from the space's own.
SPACE = SearchSpace([Parameter("x", (1, 2, 4)), Parameter("mode", ("a", "b")),
                     Parameter("y", (3, 5))], name="store")
GPU, BENCHMARK = "SIM_GPU", "store"

#: One operation: ``(kind, index, value, valid, error, evaluation_index, gpu,
#: benchmark, spelling, reversed_keys)``.  ``evaluation_index`` None means "the
#: row the observation lands on", gpu/benchmark None mean this cache's.
operation = st.tuples(
    st.sampled_from(["add", "add_observation"]),
    st.integers(0, SPACE.cardinality - 1),
    st.sampled_from([0.5, 1.0, 2.5, 7.25, math.inf, 3]),
    st.sampled_from([True, True, True, False, 1]),
    st.sampled_from(["", "", "oom", "timeout", 42, None]),
    st.one_of(st.none(), st.none(), st.integers(-1, 12)),
    st.sampled_from([None, None, None, "OTHER_GPU"]),
    st.sampled_from([None, None, None, "other"]),
    st.sampled_from([None, None, None, 1.0, True]),
    st.booleans(),
)


def config_of(index, spelling, reversed_keys):
    config = SPACE.config_at(index)
    if spelling is not None and config["x"] == 1:
        config["x"] = spelling
    return dict(reversed(config.items())) if reversed_keys else config


def apply(cache, oracle, op):
    kind, index, value, valid, error, evaluation_index, gpu, benchmark, spelling, rev = op
    config = config_of(index, spelling, rev)
    if kind == "add":
        cache.add(config, value, valid=valid, error=error)
        oracle.add(config, value, valid=valid, error=error)
        return
    if evaluation_index is None:
        hit = oracle.get(config)
        evaluation_index = (len(oracle) if hit is None
                            else [o.key for o in oracle].index(hit.key))
    obs = Observation(config=config, value=value, valid=valid, error=error,
                      evaluation_index=evaluation_index, gpu=gpu or GPU,
                      benchmark=benchmark or BENCHMARK)
    cache.add_observation(obs)
    oracle.add_observation(obs)


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def same_array(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_observation(a, b):
    """Field for field, value types and config key order included."""
    return ([(k, type(v), v) for k, v in a.config.items()]
            == [(k, type(v), v) for k, v in b.config.items()]
            and type(a.value) is type(b.value) and same_float(a.value, b.value)
            and type(a.valid) is type(b.valid) and a.valid == b.valid
            and type(a.error) is type(b.error) and a.error == b.error
            and a.evaluation_index == b.evaluation_index
            and a.gpu == b.gpu and a.benchmark == b.benchmark)


def outcome(reader):
    try:
        return reader()
    except ReproError as exc:
        return type(exc)


def check_lookups(cache, oracle):
    probe = np.arange(SPACE.cardinality)
    wanted = oracle.lookup_indices(probe)
    # Scalar probes first: a batch lookup folds the hashed table's pending inserts.
    table = cache.index_table()
    for index in probe.tolist():
        value, failure, found = table.lookup_one(index)
        assert (type(value), type(failure), type(found)) == (float, bool, bool)
        assert same_float(value, wanted[0][index])
        assert (failure, found) == (wanted[1][index], wanted[2][index])
    for got, want in zip(table.lookup(probe), wanted):
        assert same_array(got, want)


def check_against_oracle(cache, oracle, directory):
    assert len(cache.observations) == len(oracle.observations)
    assert all(same_observation(a, b)
               for a, b in zip(cache.observations, oracle.observations))
    assert json.dumps(cache.to_dict()) == json.dumps(oracle.to_dict())
    assert (len(cache), cache.num_valid, cache.num_invalid) == (
        len(oracle), oracle.num_valid, oracle.num_invalid)

    for valid_only in (True, False):
        assert same_array(cache.values(valid_only), oracle.values(valid_only))
        got = [[(k, type(v), v) for k, v in c.items()] for c in cache.configs(valid_only)]
        assert got == [[(k, type(v), v) for k, v in c.items()]
                       for c in oracle.configs(valid_only)]
        matrix, want = (outcome(lambda: cache.to_feature_matrix(valid_only)),
                        outcome(lambda: oracle.to_feature_matrix(valid_only)))
        if isinstance(want, tuple):
            assert same_array(matrix[0], want[0]) and same_array(matrix[1], want[1])
        else:
            assert matrix is want
    for reader in ("best", "worst"):
        got, want = outcome(getattr(cache, reader)), outcome(getattr(oracle, reader))
        assert (same_observation(got, want) if isinstance(want, Observation)
                else got is want)
    got, want = outcome(cache.statistics), outcome(oracle.statistics)
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        assert all(same_float(got[k], want[k]) for k in want)
    else:
        assert got is want

    for index in range(SPACE.cardinality):
        for probe in (SPACE.config_at(index), config_of(index, 1.0, True)):
            got, want = cache.get(probe), oracle.get(probe)
            assert (got is None) == (want is None)
            assert want is None or same_observation(got, want)
    check_lookups(cache, oracle)
    assert not cache.index_table().lookup(np.array([-1, SPACE.cardinality]))[2].any()

    if oracle.campaign_shaped():
        got = cache.to_columnar(directory / "cache.col").read_bytes()
        assert got == oracle.to_columnar(directory / "oracle.col").read_bytes()
    else:
        with pytest.raises(SerializationError, match="JSON"):
            cache.to_columnar(directory / "cache.col")

    # JSON keeps what Observation.from_dict restores: a value of 3 reloads as
    # 3.0 and a ``valid`` of 1 as true, so only those rows may change spelling.
    first = save_cache(cache, directory / "first.json.gz").read_bytes()
    loaded = load_cache(directory / "first.json.gz")
    assert loaded.to_dict() == oracle.to_dict()
    if all(type(o.value) is float and type(o.valid) is bool for o in oracle):
        assert save_cache(loaded, directory / "second.json.gz").read_bytes() == first


@pytest.mark.parametrize("table", ["dense", "hashed"])
def test_column_store_matches_the_oracle(table, tmp_path_factory):
    directory = tmp_path_factory.mktemp(f"store_{table}")

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(ops=st.lists(operation, max_size=30))
    def run(ops):
        with pytest.MonkeyPatch.context() as patch:
            if table == "hashed":
                patch.setattr(cache_module, "_DENSE_LOOKUP_MAX", -1)
            cache = EvaluationCache(BENCHMARK, GPU, SPACE, exhaustive=True)
            oracle = OracleCache(BENCHMARK, GPU, SPACE, exhaustive=True)
            for op in ops:
                apply(cache, oracle, op)
                check_lookups(cache, oracle)  # batch lookups between inserts
            assert cache.index_table()._dense == (table == "dense")
            check_against_oracle(cache, oracle, directory)

    run()


def test_hash_equal_errors_keep_their_types():
    # ``1`` and ``True`` share one slot of the interned error table; the rows
    # whose error is not a string keep their exact observation.
    cache = EvaluationCache(BENCHMARK, GPU, SPACE)
    oracle = OracleCache(BENCHMARK, GPU, SPACE)
    for index, error in enumerate([1, True, "oom", 1.0]):
        for store in (cache, oracle):
            store.add(SPACE.config_at(index), math.inf, valid=False, error=error)
    assert all(same_observation(a, b)
               for a, b in zip(cache.observations, oracle.observations))
    assert json.dumps(cache.to_dict()) == json.dumps(oracle.to_dict())


def test_overwrite_leaves_no_stale_error_in_the_columnar_table(tmp_path):
    # Row 0's "oom" is overwritten in place, so the file's error table must
    # list only the errors still referenced, in first-occurrence order.
    cache = EvaluationCache(BENCHMARK, GPU, SPACE)
    oracle = OracleCache(BENCHMARK, GPU, SPACE)
    for store in (cache, oracle):
        store.add(SPACE.config_at(0), math.inf, valid=False, error="oom")
        store.add(SPACE.config_at(1), math.inf, valid=False, error="timeout")
        store.add_observation(Observation(config=SPACE.config_at(0), value=2.0,
                                          evaluation_index=0, gpu=GPU,
                                          benchmark=BENCHMARK))
    got = cache.to_columnar(tmp_path / "cache.col").read_bytes()
    assert got == oracle.to_columnar(tmp_path / "oracle.col").read_bytes()
    assert json.dumps(EvaluationCache.from_columnar(tmp_path / "cache.col").to_dict()) \
        == json.dumps(oracle.to_dict())
