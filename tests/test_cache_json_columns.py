"""Differential suite for JSON cache loads that adopt columns.

:func:`repro.io.load_cache` decodes a campaign-shaped JSON export -- row ``i``
with ``evaluation_index == i``, the cache's gpu and benchmark, a config of the
space's own parameters and value types, a string error, no repeated
configuration -- straight into index, value and failure-code columns, so the
loaded cache is column-backed like a memory-mapped columnar one.  The contract
under test:

* a campaign export loads into columns, re-saves to its original bytes,
  writes the same columnar bytes and answers every reader exactly like a
  per-row oracle built one :class:`Observation` at a time;
* every payload the columns alone cannot represent (a re-added config, foreign
  rows, a repeated config, values that only compare equal to the space's, a
  config in another key order, a non-string error) is inserted row by row and
  loads equal to that oracle, and so does an export of a parameter mixing
  value types;
* a row whose config lies outside the space is refused, naming the row, and a
  payload that is not a cache (or a malformed row) is refused naming the file.

The oracle (:func:`oracle`) is the scalar witness:
:class:`cache_oracle.OracleCache`, ``Observation.from_dict`` plus
``add_observation`` per row into a dictionary keyed by configuration.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.cache import EvaluationCache
from repro.core.errors import SerializationError
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.io.cachefile import atomic_write_json, load_cache, read_json, save_cache

from cache_oracle import OracleCache

#: (benchmark, sample size or None for an exhaustive campaign): the seven paper
#: kernels sampled (hashed index tables for the huge spaces, failed launches on
#: several), plus one exhaustive unit (ascending indices, dense table).
UNITS = (("gemm", 300), ("nbody", 300), ("hotspot", 300), ("pnpoly", 300),
         ("convolution", 300), ("expdist", 300), ("dedispersion", 300),
         ("pnpoly", None))


def unit_id(unit):
    name, size = unit
    return f"{name}-{'all' if size is None else size}"


def oracle(payload, space=None):
    """The per-row oracle: one ``Observation.from_dict`` + ``add_observation`` per row."""
    return OracleCache.from_payload(payload["cache"], space)


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


def exported(cache):
    """The JSON text a cache exports (key order and value types included)."""
    return json.dumps(cache.to_dict())


@pytest.fixture(scope="module")
def exports(benchmarks, gpus, tmp_path_factory):
    """JSON exports of :data:`UNITS` on the RTX 3090."""
    directory = tmp_path_factory.mktemp("json_columns")
    paths = {}
    for name, size in UNITS:
        cache = benchmarks[name].build_cache(gpus["RTX_3090"], sample_size=size, seed=5)
        paths[name, size] = save_cache(cache, directory / f"{unit_id((name, size))}.json.gz")
    return paths


@pytest.fixture(params=UNITS, ids=unit_id)
def unit(request):
    return request.param


@pytest.fixture()
def pair(exports, unit):
    """``(loaded, reference)``: a fresh ``load_cache`` and its per-row oracle."""
    path = exports[unit]
    return load_cache(path), oracle(read_json(path))


class TestCampaignExports:
    def test_exports_have_failures(self, exports):
        failures = {key: oracle(read_json(path)).num_invalid
                    for key, path in exports.items()}
        assert failures["convolution", 300] > 0 and failures["hotspot", 300] > 0

    def test_counters(self, pair):
        loaded, reference = pair
        assert (len(loaded), loaded.num_valid, loaded.num_invalid) == (
            len(reference), reference.num_valid, reference.num_invalid)
        assert (loaded.benchmark, loaded.gpu, loaded.exhaustive, loaded.metadata) == (
            reference.benchmark, reference.gpu, reference.exhaustive, reference.metadata)
        assert loaded.space.to_dict() == reference.space.to_dict()

    def test_columnar_bytes_match_the_oracle(self, pair, tmp_path):
        loaded, reference = pair
        got = loaded.to_columnar(tmp_path / "loaded.col").read_bytes()
        assert got == reference.to_columnar(tmp_path / "oracle.col").read_bytes()

    @pytest.mark.parametrize("valid_only", [True, False])
    def test_values_and_feature_matrix(self, pair, valid_only):
        loaded, reference = pair
        assert same_array(loaded.values(valid_only=valid_only),
                          reference.values(valid_only=valid_only))
        X, y = loaded.to_feature_matrix(valid_only=valid_only)
        X_ref, y_ref = reference.to_feature_matrix(valid_only=valid_only)
        assert same_array(X, X_ref) and same_array(y, y_ref)

    def test_statistics(self, pair):
        loaded, reference = pair
        assert same_observation(loaded.best(), reference.best())
        assert same_observation(loaded.worst(), reference.worst())
        assert same_float(loaded.median(), reference.median())
        got, want = loaded.statistics(), reference.statistics()
        assert got.keys() == want.keys()
        assert all(same_float(got[k], want[k]) for k in want)

    def test_valid_arrays(self, pair):
        loaded, reference = pair
        indices, values = loaded.valid_arrays()
        ref_indices, ref_values = reference.valid_arrays()
        assert same_array(indices, ref_indices)
        assert same_array(values, ref_values)
        configs = loaded.configs()
        assert [list(c.items()) for c in configs] == [list(c.items())
                                                      for c in reference.configs()]

    def test_get(self, pair):
        loaded, reference = pair
        observations = reference.observations
        first = dict(observations[0].config)
        name = reference.space.parameter_names[0]
        probes = [dict(o.config) for o in observations[:: max(1, len(observations) // 25)]]
        probes += [dict(o.config) for o in observations if o.is_failure][:5]
        probes += [{**first, "no_such_parameter": 1},
                   {k: v for k, v in first.items() if k != name},
                   {**first, name: -123_456_789}]
        for config in probes:
            got, want = loaded.get(config), reference.get(config)
            assert (got is None) == (want is None), config
            if want is not None:
                assert same_observation(got, want), config

    def test_resave_is_byte_identical(self, exports, unit, tmp_path):
        path = exports[unit]
        loaded, reference = load_cache(path), oracle(read_json(path))
        assert save_cache(loaded, tmp_path / "again.json.gz").read_bytes() == path.read_bytes()
        assert exported(loaded) == exported(reference)
        assert all(same_observation(a, b)
                   for a, b in zip(loaded.observations, reference.observations))


# ----------------------------------------------------------------------- fallbacks


@pytest.fixture()
def toy():
    """A hand-built campaign-shaped cache: space values 1/2/3 and a failed row."""
    space = SearchSpace([Parameter("x", (1, 2, 3)), Parameter("y", (1, 2))], name="toy")
    cache = EvaluationCache("toy", "SIM_GPU", space, exhaustive=True)
    for config in space.enumerate(valid_only=False):
        if config == {"x": 3, "y": 2}:
            cache.add(config, math.inf, valid=False, error="launch failed")
        else:
            cache.add(config, float(config["x"] * 2 + config["y"]))
    return cache


def payload_of(cache):
    """The JSON payload ``save_cache`` writes, as ``load_cache`` reads it back."""
    return json.loads(json.dumps({"format_version": 1, "cache": cache.to_dict()}))


def load_payload(payload, tmp_path):
    path = atomic_write_json(payload, tmp_path / "edited.json.gz")
    return load_cache(path), path


#: Edits of a campaign-shaped toy export's rows that columns cannot represent.
FALLBACKS = {
    "foreign evaluation_index": lambda rows: rows[2].update(evaluation_index=7),
    "missing evaluation_index": lambda rows: rows[0].pop("evaluation_index"),
    "foreign gpu": lambda rows: rows[1].update(gpu="OTHER_GPU"),
    "foreign benchmark": lambda rows: rows[4].update(benchmark="other"),
    "repeated config": lambda rows: rows[3].update(config=dict(rows[0]["config"])),
    "1.0 for 1": lambda rows: rows[0]["config"].update(x=1.0),
    "True for 1": lambda rows: rows[2]["config"].update(y=True),
    "config keys out of space order": lambda rows: rows[3].update(
        config=dict(reversed(rows[3]["config"].items()))),
    "non-string error": lambda rows: rows[5].update(error=42),
    "null error": lambda rows: rows[0].update(error=None),
}


class TestFallbacks:
    @pytest.mark.parametrize("case", list(FALLBACKS))
    def test_non_campaign_payload_loads_like_the_oracle(self, toy, tmp_path, case):
        payload = payload_of(toy)
        FALLBACKS[case](payload["cache"]["observations"])
        loaded, _ = load_payload(payload, tmp_path)
        reference = oracle(payload)
        assert loaded.to_dict() == reference.to_dict()
        assert exported(loaded) == exported(reference)
        assert (len(loaded), loaded.num_invalid) == (len(reference), reference.num_invalid)
        again = save_cache(loaded, tmp_path / "again.json.gz")
        assert again.read_bytes() == save_cache(reference, tmp_path / "oracle.json.gz").read_bytes()

    def test_re_added_config(self, toy, tmp_path):
        # The dict keeps the first key position but records the later row's
        # evaluation_index, so row 0 carries evaluation_index 6.
        toy.add({"x": 1, "y": 1}, 100.0)
        payload = payload_of(toy)
        assert payload["cache"]["observations"][0]["evaluation_index"] == 6
        loaded, path = load_payload(payload, tmp_path)
        assert exported(loaded) == exported(oracle(payload)) == exported(toy)
        assert save_cache(loaded, tmp_path / "again.json.gz").read_bytes() == path.read_bytes()

    def test_parameter_mixing_value_types(self, tmp_path):
        space = SearchSpace([Parameter("unroll", (1, "auto")), Parameter("y", (1, 2))],
                            name="mixed")
        cache = EvaluationCache("mixed", "SIM_GPU", space, exhaustive=True)
        for k, config in enumerate(space.enumerate(valid_only=False)):
            cache.add(config, float(k + 1))
        path = save_cache(cache, tmp_path / "mixed.json.gz")
        loaded = load_cache(path)
        assert exported(loaded) == exported(oracle(read_json(path))) == exported(cache)

    def test_repeated_config_keeps_the_last_row(self, toy, tmp_path):
        payload = payload_of(toy)
        FALLBACKS["repeated config"](payload["cache"]["observations"])
        loaded, _ = load_payload(payload, tmp_path)
        assert len(loaded) == len(toy) - 1
        assert loaded.get({"x": 1, "y": 1}).evaluation_index == 3


#: Edits that put a row's config outside the toy space.
OUTSIDE_THE_SPACE = {
    "extra config key": lambda rows: rows[1]["config"].update(z=4),
    "missing config key": lambda rows: rows[1]["config"].pop("y"),
    "value outside the parameter": lambda rows: rows[1]["config"].update(x=9),
}


@pytest.mark.parametrize("case", list(OUTSIDE_THE_SPACE))
def test_config_outside_the_space_is_refused(toy, tmp_path, case):
    payload = payload_of(toy)
    OUTSIDE_THE_SPACE[case](payload["cache"]["observations"])
    path = atomic_write_json(payload, tmp_path / "outside.json.gz")
    with pytest.raises(SerializationError, match="observation 1 "):
        load_cache(path)
    with pytest.raises(SerializationError, match="observation 1 "):
        EvaluationCache.from_dict(payload["cache"])


def _set_row(rows, value):
    rows[1] = value


#: Edits that leave a payload that is not a cache, and the row each one names.
MALFORMED = {
    "cache is a list": (lambda payload: payload.update(cache=[]), None),
    "no space key": (lambda payload: payload["cache"].pop("space"), None),
    "observations is a number": (
        lambda payload: payload["cache"].update(observations=5), None),
    "row is not a dict": (
        lambda payload: _set_row(payload["cache"]["observations"], 5), 1),
    "value is not a number": (
        lambda payload: payload["cache"]["observations"][1].update(value="abc"), 1),
    "row without a config": (
        lambda payload: payload["cache"]["observations"][1].pop("config"), 1),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_payload_is_refused_naming_the_file(toy, tmp_path, case):
    payload = payload_of(toy)
    edit, row = MALFORMED[case]
    edit(payload)
    path = atomic_write_json(payload, tmp_path / "malformed.json.gz")
    with pytest.raises(SerializationError) as raised:
        load_cache(path)
    assert str(path) in str(raised.value)
    if row is not None:
        assert f"observation {row} " in str(raised.value)


class TestCampaignShapedEdges:
    def test_toy_export_adopts_columns(self, toy, tmp_path):
        path = save_cache(toy, tmp_path / "toy.json.gz")
        loaded = load_cache(path)
        assert exported(loaded) == exported(toy)
        assert save_cache(loaded, tmp_path / "again.json.gz").read_bytes() == path.read_bytes()

    def test_null_value_marked_valid(self, toy, tmp_path):
        payload = payload_of(toy)
        payload["cache"]["observations"][2].update(value=None, valid=True, error="")
        loaded, path = load_payload(payload, tmp_path)
        reference = oracle(payload)
        assert same_array(loaded.values(valid_only=False),
                          reference.values(valid_only=False))
        assert math.isinf(loaded.values(valid_only=False)[2])
        assert (loaded.num_valid, loaded.num_invalid) == (
            reference.num_valid, reference.num_invalid) == (4, 2)
        assert same_observation(loaded.best(), reference.best())
        assert exported(loaded) == exported(reference)
        assert save_cache(loaded, tmp_path / "again.json.gz").read_bytes() == path.read_bytes()

    def test_defaulted_fields(self, toy, tmp_path):
        # ``valid``, ``error`` and ``value`` default as in Observation.from_dict.
        payload = payload_of(toy)
        for od in payload["cache"]["observations"][:3]:
            del od["valid"], od["error"]
        del payload["cache"]["observations"][4]["value"]
        loaded, _ = load_payload(payload, tmp_path)
        reference = oracle(payload)
        assert exported(loaded) == exported(reference)
        assert (loaded.num_valid, loaded.num_invalid) == (
            reference.num_valid, reference.num_invalid)

    def test_empty_observations(self, toy, tmp_path):
        empty = EvaluationCache("toy", "SIM_GPU", toy.space)
        payload = payload_of(empty)
        assert payload["cache"]["observations"] == []
        loaded, path = load_payload(payload, tmp_path)
        assert len(loaded) == 0 and loaded.num_valid == 0
        assert exported(loaded) == exported(oracle(payload))
        assert save_cache(loaded, tmp_path / "again.json.gz").read_bytes() == path.read_bytes()

    def test_live_space_is_kept(self, toy, tmp_path):
        path = save_cache(toy, tmp_path / "toy.json.gz")
        live = toy.space
        restored = load_cache(path, space=live)
        assert restored.space is live
        assert exported(restored) == exported(toy)
