"""Unit tests for the evaluation cache and the persistence layer."""

from __future__ import annotations

import gzip
import math
import re
import zlib

import numpy as np
import pytest

from repro.core.cache import EvaluationCache
from repro.core.constraints import ConstraintSerializationWarning, ConstraintSet
from repro.core.errors import (CacheMissError, InvalidConfigurationError, ReproError,
                               SerializationError)
from repro.core.parameter import Parameter
from repro.core.result import Observation, TuningResult
from repro.core.searchspace import SearchSpace
from repro.io.cachefile import load_cache, save_cache
from repro.io.results_io import load_results, save_results


@pytest.fixture()
def toy_cache():
    space = SearchSpace([Parameter("x", (1, 2, 3)), Parameter("y", (1, 2))], name="toy")
    cache = EvaluationCache("toy", "SIM_GPU", space, exhaustive=True)
    for config in space.enumerate(valid_only=False):
        value = float(config["x"] * 2 + config["y"])
        cache.add(config, value)
    return cache


class TestEvaluationCache:
    def test_lengths_and_lookup(self, toy_cache):
        assert len(toy_cache) == 6
        assert toy_cache.num_valid == 6
        obs = toy_cache.lookup({"x": 1, "y": 1})
        assert obs.value == 3.0
        assert {"x": 1, "y": 1} in toy_cache

    def test_lookup_miss_raises(self, toy_cache):
        with pytest.raises(CacheMissError):
            toy_cache.lookup({"x": 99, "y": 1})
        assert toy_cache.get({"x": 99, "y": 1}) is None

    def test_statistics(self, toy_cache):
        stats = toy_cache.statistics()
        assert stats["best"] == 3.0
        assert stats["worst"] == 8.0
        assert stats["valid"] == 6
        assert toy_cache.optimum() == 3.0
        assert toy_cache.best().config == {"x": 1, "y": 1}
        assert toy_cache.worst().value == 8.0
        assert toy_cache.median() == pytest.approx(np.median(toy_cache.values()))

    def test_invalid_entries_excluded_from_stats(self, toy_cache):
        toy_cache.add({"x": 3, "y": 2}, math.inf, valid=False, error="launch failed")
        assert toy_cache.num_invalid == 1
        assert toy_cache.num_valid == 5
        assert math.isfinite(toy_cache.values().max())

    @pytest.mark.parametrize("config", [{"x": 9, "y": 1}, {"x": 1},
                                        {"x": 1, "y": 1, "z": 0}],
                             ids=["value outside x", "missing y", "unknown z"])
    def test_add_outside_the_space_is_refused(self, toy_cache, config):
        before = toy_cache.to_dict()
        with pytest.raises(InvalidConfigurationError):
            toy_cache.add(config, 1.0)
        with pytest.raises(InvalidConfigurationError):
            toy_cache.add_observation(Observation(config=config, value=1.0))
        assert toy_cache.to_dict() == before
        assert len(toy_cache.index_table()) == len(toy_cache) == 6
        assert toy_cache.to_feature_matrix()[0].shape == (6, 2)

    def test_overwrite_same_config(self, toy_cache):
        toy_cache.add({"x": 1, "y": 1}, 100.0)
        assert toy_cache.lookup({"x": 1, "y": 1}).value == 100.0
        assert len(toy_cache) == 6

    def test_feature_matrix_alignment(self, toy_cache):
        X, y = toy_cache.to_feature_matrix()
        assert X.shape == (6, 2)
        assert y.shape == (6,)
        # Column order follows the space's parameter order (x, y).
        np.testing.assert_allclose(y, X[:, 0] * 2 + X[:, 1])

    def test_empty_cache_errors(self):
        space = SearchSpace([Parameter("x", (1,))])
        cache = EvaluationCache("b", "g", space)
        with pytest.raises(ReproError):
            cache.best()
        with pytest.raises(ReproError):
            cache.median()
        with pytest.raises(ReproError):
            cache.to_feature_matrix()

    def test_replay_problem(self, toy_cache):
        problem = toy_cache.to_problem()
        assert problem.evaluate({"x": 1, "y": 1}).value == 3.0
        missing = problem.evaluate({"x": 3, "y": 2} if {"x": 3, "y": 2} not in toy_cache
                                   else {"x": 99, "y": 1})
        # Unknown configurations become failures, never crashes.
        assert missing.is_failure or not missing.is_failure

    def test_replay_problem_non_strict(self, toy_cache):
        problem = toy_cache.to_problem(strict=False)
        # A member configuration missing from the cache is reported invalid.
        obs = problem.evaluate({"x": 2, "y": 2})
        assert obs.value == toy_cache.lookup({"x": 2, "y": 2}).value

    def test_dict_round_trip(self, toy_cache):
        restored = EvaluationCache.from_dict(toy_cache.to_dict())
        assert len(restored) == len(toy_cache)
        assert restored.optimum() == toy_cache.optimum()
        assert restored.benchmark == "toy" and restored.gpu == "SIM_GPU"
        assert restored.exhaustive


class TestCacheFiles:
    def test_save_load_json(self, toy_cache, tmp_path):
        path = save_cache(toy_cache, tmp_path / "toy.json")
        restored = load_cache(path)
        assert len(restored) == len(toy_cache)
        assert restored.optimum() == toy_cache.optimum()

    def test_save_load_gzip(self, toy_cache, tmp_path):
        path = save_cache(toy_cache, tmp_path / "toy.json.gz")
        restored = load_cache(path)
        assert len(restored) == len(toy_cache)

    def test_load_with_live_space(self, toy_cache, tmp_path):
        path = save_cache(toy_cache, tmp_path / "toy.json")
        restored = load_cache(path, space=toy_cache.space)
        assert restored.space is toy_cache.space

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_cache(tmp_path / "nope.json")

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"something\": 1}")
        with pytest.raises(SerializationError):
            load_cache(bad)

    def test_save_is_byte_deterministic(self, toy_cache, tmp_path):
        # Atomic writes + gzip mtime=0: the same cache always produces the same
        # bytes, including through the compressed path.
        a = save_cache(toy_cache, tmp_path / "a.json.gz")
        b = save_cache(toy_cache, tmp_path / "b.json.gz")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("suffix", [".json", ".json.gz"])
    @pytest.mark.parametrize("poison", ["metadata", "error"])
    def test_failed_render_leaves_target_untouched(self, toy_cache, tmp_path,
                                                   suffix, poison):
        # The export streams row chunks; a value json.dumps refuses -- in the
        # header, or in an override row after earlier chunks were written --
        # raises SerializationError, removes the temporary sibling and keeps
        # the previous file.
        from unittest import mock
        from repro.core import cache as cache_module

        path = save_cache(toy_cache, tmp_path / f"toy{suffix}")
        before = path.read_bytes()
        if poison == "metadata":
            toy_cache.metadata["handle"] = object()
        else:
            toy_cache.add({"x": 3, "y": 2}, 1.0, valid=False, error=object())
        with mock.patch.object(cache_module, "_JSON_CHUNK_ROWS", 1), \
                pytest.raises(SerializationError, match="could not serialize"):
            save_cache(toy_cache, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        assert path.read_bytes() == before

    def test_failed_render_creates_no_file(self, toy_cache, tmp_path):
        toy_cache.metadata["handle"] = object()
        with pytest.raises(SerializationError):
            save_cache(toy_cache, tmp_path / "new.json.gz")
        assert list(tmp_path.iterdir()) == []

    def test_gzip_header_has_no_mtime_or_name(self, toy_cache, tmp_path):
        header = save_cache(toy_cache, tmp_path / "toy.json.gz").read_bytes()[:10]
        # RFC 1952: flags byte 3 (FNAME = 0x08), mtime bytes 4-7, XFL 2 = level 9.
        assert header[3] == 0 and header[4:8] == bytes(4) and header[8] == 2


class TestCallableConstraintRoundTrip:
    """Callable constraints cannot survive JSON; the degradation must be loud."""

    def _cache_with_callable_constraint(self):
        space = SearchSpace(
            [Parameter("x", (1, 2, 3, 4)), Parameter("y", (1, 2))],
            ConstraintSet([lambda c: c["x"] * c["y"] <= 6, "x != 3"]),
            name="mixed")
        cache = EvaluationCache("mixed", "SIM_GPU", space)
        for config in space.enumerate(valid_only=True):
            cache.add(config, float(config["x"] + config["y"]))
        return space, cache

    @pytest.mark.parametrize("suffix", [".json", ".json.gz"])
    def test_load_without_space_warns_and_drops_callable(self, tmp_path, suffix):
        space, cache = self._cache_with_callable_constraint()
        path = save_cache(cache, tmp_path / f"mixed{suffix}")
        with pytest.warns(ConstraintSerializationWarning, match="callable constraint"):
            restored = load_cache(path)
        # The string constraint survives, the callable is gone -- explicitly.
        assert [c.expression for c in restored.space.constraints] == ["x != 3"]
        assert len(restored) == len(cache)

    def test_load_with_live_space_keeps_callable(self, tmp_path, recwarn):
        space, cache = self._cache_with_callable_constraint()
        path = save_cache(cache, tmp_path / "mixed.json.gz")
        restored = load_cache(path, space=space)
        assert restored.space is space
        assert len(restored.space.constraints) == 2
        assert not [w for w in recwarn.list
                    if isinstance(w.message, ConstraintSerializationWarning)]

    def test_callable_flag_serialized(self):
        space, _ = self._cache_with_callable_constraint()
        entries = space.constraints.to_list()
        assert entries[0].get("callable") is True
        assert "callable" not in entries[1]

    def test_legacy_lambda_name_warns_instead_of_crashing(self):
        # Old cache files carry "<lambda>" without the callable flag; loading them
        # must warn and drop, not raise SyntaxError.
        with pytest.warns(ConstraintSerializationWarning, match="unparseable"):
            restored = ConstraintSet.from_list(
                [{"expression": "<lambda>", "description": ""}])
        assert len(restored) == 0

    def test_legacy_named_callable_warns_instead_of_degrading(self):
        # A named callable serialized pre-flag as {"expression": "power_of_two"}
        # parses as a Name expression referencing no parameter; space loading must
        # drop it loudly rather than keep a constraint that raises on first use.
        data = {
            "name": "legacy",
            "parameters": [Parameter("x", (1, 2, 4)).to_dict()],
            "constraints": [{"expression": "power_of_two", "description": ""},
                            {"expression": "x <= 4", "description": ""}],
        }
        with pytest.warns(ConstraintSerializationWarning, match="power_of_two"):
            space = SearchSpace.from_dict(data)
        assert [c.expression for c in space.constraints] == ["x <= 4"]
        assert space.is_valid({"x": 2})

    def test_bare_parameter_name_expression_survives_round_trip(self):
        # Truthiness-of-a-parameter expressions are legitimate bare Names and must
        # not be confused with degraded callables.
        space = SearchSpace([Parameter("flag", (0, 1)), Parameter("x", (1, 2))],
                            ConstraintSet(["flag"]))
        restored = SearchSpace.from_dict(space.to_dict())
        assert [c.expression for c in restored.constraints] == ["flag"]
        assert not restored.is_valid({"flag": 0, "x": 1})

    def test_written_files_honor_umask(self, toy_cache, tmp_path):
        import os as _os
        path = save_cache(toy_cache, tmp_path / "perm.json")
        umask = _os.umask(0)
        _os.umask(umask)
        assert (path.stat().st_mode & 0o777) == (0o666 & ~umask)


class TestResultFiles:
    def _result(self):
        result = TuningResult(benchmark="b", gpu="g", tuner="t", seed=1)
        result.record(Observation({"x": 1}, 2.0, evaluation_index=0))
        result.record(Observation({"x": 2}, 1.0, evaluation_index=1))
        return result

    def test_save_load_single(self, tmp_path):
        path = save_results(self._result(), tmp_path / "run.json")
        restored = load_results(path)
        assert len(restored) == 1
        assert restored[0].best_value == 1.0

    def test_save_load_many_gzip(self, tmp_path):
        path = save_results([self._result(), self._result()], tmp_path / "runs.json.gz")
        restored = load_results(path)
        assert len(restored) == 2

    def test_load_missing(self, tmp_path):
        with pytest.raises(SerializationError):
            load_results(tmp_path / "missing.json")

    def test_truncated_gzip_names_the_file(self, tmp_path):
        path = save_results(self._result(), tmp_path / "runs.json.gz")
        path.write_bytes(path.read_bytes()[:-12])  # no end-of-stream marker
        with pytest.raises(SerializationError, match=re.escape(str(path))) as info:
            load_results(path)
        assert isinstance(info.value.__cause__, EOFError)

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "runs.json"
        path.write_bytes(b'{"format_version": 1, "results": ["\xff\xfe"]}')
        with pytest.raises(SerializationError, match=re.escape(str(path))) as info:
            load_results(path)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_gzipped_file_with_odd_cased_suffix_reads(self, tmp_path):
        gz = save_results([self._result(), self._result()], tmp_path / "runs.json.gz")
        odd = tmp_path / "runs.json.GZ"
        odd.write_bytes(gz.read_bytes())
        assert [r.to_dict() for r in load_results(odd)] == [
            r.to_dict() for r in load_results(gz)]

    def test_repeated_saves_are_byte_identical(self, tmp_path, monkeypatch):
        # gzip headers carry neither the wall clock nor the file name.
        import time as _time

        a = save_results(self._result(), tmp_path / "a.json.gz").read_bytes()
        clock = _time.time() + 3600.0
        monkeypatch.setattr(_time, "time", lambda: clock)
        b = save_results(self._result(), tmp_path / "b.json.gz").read_bytes()
        assert a == b
        assert gzip.decompress(a) == save_results(
            self._result(), tmp_path / "c.json").read_bytes()

    @pytest.mark.parametrize("suffix", [".json", ".json.gz"])
    def test_failed_write_leaves_no_file(self, tmp_path, suffix):
        bad = self._result()
        bad.metadata["handle"] = object()
        path = tmp_path / f"runs{suffix}"
        with pytest.raises(SerializationError):
            save_results(bad, path)
        assert list(tmp_path.iterdir()) == []
        save_results(self._result(), path)
        before = path.read_bytes()
        with pytest.raises(SerializationError):
            save_results([self._result(), bad], path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        assert path.read_bytes() == before


class TestGzipSniffing:
    """Compression is detected by content (the ``1f 8b`` magic), never by suffix."""

    def test_gzipped_file_with_plain_suffix_reads(self, toy_cache, tmp_path):
        gz = save_cache(toy_cache, tmp_path / "toy.json.gz")
        disguised = tmp_path / "toy.json"
        disguised.write_bytes(gz.read_bytes())
        restored = load_cache(disguised)
        assert len(restored) == len(toy_cache)

    def test_gzipped_file_with_odd_cased_suffix_reads(self, toy_cache, tmp_path):
        gz = save_cache(toy_cache, tmp_path / "toy.json.gz")
        odd = tmp_path / "toy.json.GZ"
        odd.write_bytes(gz.read_bytes())
        restored = load_cache(odd)
        assert len(restored) == len(toy_cache)

    def test_mislabelled_gz_names_the_mismatch(self, toy_cache, tmp_path):
        plain = save_cache(toy_cache, tmp_path / "toy.json")
        liar = tmp_path / "toy.json.gz"
        liar.write_bytes(plain.read_bytes())
        with pytest.raises(SerializationError, match="gzip magic"):
            load_cache(liar)

    def test_truncated_gzip_names_the_file(self, toy_cache, tmp_path):
        gz = save_cache(toy_cache, tmp_path / "toy.json.gz")
        gz.write_bytes(gz.read_bytes()[:-12])  # no end-of-stream marker
        with pytest.raises(SerializationError, match=re.escape(str(gz))) as info:
            load_cache(gz)
        assert isinstance(info.value.__cause__, EOFError)

    def test_corrupt_deflate_stream_names_the_file(self, toy_cache, tmp_path):
        gz = save_cache(toy_cache, tmp_path / "toy.json.gz")
        data = bytearray(gz.read_bytes())
        data[10] ^= 0xFF  # first byte after the 10-byte gzip member header
        gz.write_bytes(bytes(data))
        with pytest.raises(SerializationError, match=re.escape(str(gz))) as info:
            load_cache(gz)
        assert isinstance(info.value.__cause__, zlib.error)

    @pytest.mark.parametrize("suffix", [".json", ".json.gz"])
    def test_non_utf8_bytes_name_the_file(self, tmp_path, suffix):
        raw = b'{"format_version": 1, "cache": "\xff\xfe"}'
        path = tmp_path / f"latin{suffix}"
        path.write_bytes(gzip.compress(raw, mtime=0) if suffix.endswith(".gz") else raw)
        with pytest.raises(SerializationError, match=re.escape(str(path))) as info:
            load_cache(path)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)


class TestFailureCounters:
    """``num_valid``/``num_invalid`` are O(1) running counters, kept exact by ``add``."""

    def _scan(self, cache):
        failures = sum(1 for obs in cache.observations if obs.is_failure)
        return len(cache) - failures, failures

    def test_counters_match_scan(self, toy_cache):
        assert (toy_cache.num_valid, toy_cache.num_invalid) == self._scan(toy_cache)
        toy_cache.add({"x": 1, "y": 2}, math.inf, valid=False, error="oom")
        assert (toy_cache.num_valid, toy_cache.num_invalid) == self._scan(toy_cache)

    def test_overwrite_valid_with_invalid(self, toy_cache):
        config = {"x": 1, "y": 1}
        assert not toy_cache.lookup(config).is_failure
        toy_cache.add(config, math.inf, valid=False, error="oom")
        assert (toy_cache.num_valid, toy_cache.num_invalid) == self._scan(toy_cache)
        assert toy_cache.num_invalid == 1

    def test_overwrite_invalid_with_valid(self, toy_cache):
        config = {"x": 2, "y": 2}
        toy_cache.add(config, math.inf, valid=False, error="oom")
        toy_cache.add(config, 4.0, valid=True)
        assert (toy_cache.num_valid, toy_cache.num_invalid) == self._scan(toy_cache)
        assert toy_cache.num_invalid == 0

    def test_overwrite_invalid_with_invalid(self, toy_cache):
        config = {"x": 3, "y": 1}
        toy_cache.add(config, math.inf, valid=False, error="oom")
        toy_cache.add(config, math.inf, valid=False, error="timeout")
        assert (toy_cache.num_valid, toy_cache.num_invalid) == self._scan(toy_cache)
        assert toy_cache.num_invalid == 1

    def test_counters_survive_dict_round_trip(self, toy_cache):
        toy_cache.add({"x": 1, "y": 2}, math.inf, valid=False, error="oom")
        restored = EvaluationCache.from_dict(toy_cache.to_dict(),
                                             space=toy_cache.space)
        assert restored.num_valid == toy_cache.num_valid
        assert restored.num_invalid == toy_cache.num_invalid
