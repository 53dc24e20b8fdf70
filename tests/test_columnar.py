"""Differential suite for the columnar memory-mapped cache store.

The standing contract under test: the columnar format is a *performance twin* of
the JSON interchange format, never a semantic fork.  Every scenario here runs the
same campaign (or the same hand-built cache) through both paths and asserts that
the JSON serialization -- the canonical byte-identity currency of the repo -- is
exactly equal.  On top of that: the codec round-trips adversarial inputs
(hypothesis fuzz with ``+inf`` sentinels and non-ASCII error strings), any
truncation or bit damage to any column raises
:class:`~repro.core.errors.FragmentIntegrityError`, and columnar checkpoint
fragments merge byte-identically regardless of shard completion order.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.cache import EvaluationCache
from repro.core.errors import FragmentIntegrityError, SerializationError
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.exec import (
    CheckpointStore,
    SerialExecutor,
    ShardPlanner,
    corrupt_fragment,
    resume_campaign,
)
from repro.exec.cli import main as exec_main
from repro.exec.planner import unit_indices
from repro.io.columnar import (
    COLUMNAR_MAGIC,
    cache_digest,
    concat_fragment_columns,
    decode_failure_strings,
    encode_failure_codes,
    fragment_columns,
    load_columnar_fragment_columns,
    peek_columnar_header,
    read_columnar,
    save_columnar_fragment_columns,
    write_columnar,
)

from cache_oracle import OracleCache

SAMPLE_N = 120
SHARD_SIZE = 40


def cache_bytes(cache) -> str:
    """Canonical serialized form used for byte-identity assertions."""
    return json.dumps(cache.to_dict())


def load_fragment_rows(path):
    """``(shard, rows)`` of a fragment, rows decoded to ``(value, valid, error)``."""
    shard, values, codes, errors = load_columnar_fragment_columns(path)
    valid, messages = decode_failure_strings(codes, errors)
    return shard, list(zip(values.tolist(), valid.tolist(), messages))


def write_legacy_manifest(directory, plan):
    """A manifest as earlier releases wrote it for JSON-fragment checkpoints."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "manifest.json").write_text(json.dumps(
        {"manifest_version": 1, "plan": plan.to_dict(), "fingerprints": {}}))


@pytest.fixture(scope="module")
def planner(benchmarks, gpus):
    selected = {name: benchmarks[name] for name in ("hotspot", "pnpoly")}
    return ShardPlanner(selected, {"RTX_3090": gpus["RTX_3090"]},
                        sample_size=SAMPLE_N, exhaustive_limit=5_000,
                        seed=41, shard_size=SHARD_SIZE)


@pytest.fixture(scope="module")
def plan(planner):
    return planner.plan()


@pytest.fixture(scope="module")
def reference(planner, plan):
    """Serial no-checkpoint caches: what every columnar path must reproduce."""
    caches = SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                                  gpus=planner.gpus)
    return {key: cache_bytes(cache) for key, cache in caches.items()}


@pytest.fixture(scope="module")
def campaign_cache(planner, plan):
    """One executed campaign cache (hotspot / RTX 3090), reused across tests."""
    caches = SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                                  gpus=planner.gpus)
    return caches[("hotspot", "RTX_3090")]


def columnar_copy(cache, tmp_path, name="cache.col", mmap=True):
    path = tmp_path / name
    cache.to_columnar(path)
    return EvaluationCache.from_columnar(path, space=cache.space, mmap=mmap)


class TestCacheRoundTrip:
    def test_json_bytes_identical_after_columnar_round_trip(self, campaign_cache,
                                                            tmp_path):
        loaded = columnar_copy(campaign_cache, tmp_path)
        assert cache_bytes(loaded) == cache_bytes(campaign_cache)

    def test_round_trip_without_live_space_rebuilds_from_header(self,
                                                                campaign_cache,
                                                                tmp_path):
        path = tmp_path / "cache.col"
        campaign_cache.to_columnar(path)
        loaded = EvaluationCache.from_columnar(path)
        assert cache_bytes(loaded) == cache_bytes(campaign_cache)

    def test_re_save_is_byte_identical(self, campaign_cache, tmp_path):
        first = tmp_path / "a.col"
        campaign_cache.to_columnar(first)
        loaded = EvaluationCache.from_columnar(first, space=campaign_cache.space)
        second = tmp_path / "b.col"
        loaded.to_columnar(second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_cache_stays_lazy_through_index_replay(self, campaign_cache,
                                                          tmp_path):
        loaded = columnar_copy(campaign_cache, tmp_path)
        table = loaded.index_table()
        reference_table = campaign_cache.index_table()
        probe = np.array([obs.evaluation_index for obs in
                          campaign_cache.observations[:7]])
        indices = np.array([campaign_cache.space.index_of(obs.config)
                            for obs in campaign_cache.observations[:7]])
        values, failure, found = table.lookup(indices)
        ref_values, ref_failure, ref_found = reference_table.lookup(indices)
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(failure, ref_failure)
        np.testing.assert_array_equal(found, ref_found)
        assert probe.size  # the probe really exercised rows

    def test_len_and_counters_lazy(self, campaign_cache, tmp_path):
        loaded = columnar_copy(campaign_cache, tmp_path)
        assert len(loaded) == len(campaign_cache)
        assert loaded.num_valid == campaign_cache.num_valid
        assert loaded.num_invalid == campaign_cache.num_invalid

    def test_mutation_after_mmap_load_copies_columns(self, campaign_cache,
                                                     tmp_path):
        path = tmp_path / "cache.col"
        campaign_cache.to_columnar(path)
        before = path.read_bytes()
        loaded = EvaluationCache.from_columnar(path, space=campaign_cache.space)
        oracle = OracleCache.from_rows(loaded)
        extra = campaign_cache.observations[0]
        config = dict(extra.config)
        loaded.add(config, 0.5, valid=True)
        assert loaded.lookup(config).value == 0.5
        space = campaign_cache.space
        stored = set(space.indices_of_configs([o.config for o in loaded]).tolist())
        fresh = next(space.config_at(int(index)) for index in
                     space.sample_indices(64, rng=3, valid_only=True).tolist()
                     if int(index) not in stored)
        loaded.add(fresh, 0.25, valid=True)
        oracle.add(config, 0.5, valid=True)
        oracle.add(fresh, 0.25, valid=True)
        assert (len(loaded), loaded.num_valid, loaded.num_invalid) == (
            len(oracle), oracle.num_valid, oracle.num_invalid)
        for valid_only in (True, False):
            np.testing.assert_array_equal(loaded.values(valid_only),
                                          oracle.values(valid_only))
        assert loaded.best() == oracle.best() and loaded.worst() == oracle.worst()
        assert loaded.statistics() == oracle.statistics()
        probe = np.arange(-2, space.cardinality, max(1, space.cardinality // 4096))
        probe = np.concatenate([probe, sorted(stored), [space.index_of(fresh)]])
        for got, want in zip(loaded.index_table().lookup(probe),
                             oracle.lookup_indices(np.clip(probe, 0, None))):
            np.testing.assert_array_equal(got[probe >= 0], want[probe >= 0])
        assert json.dumps(loaded.to_dict()) == json.dumps(oracle.to_dict())
        assert path.read_bytes() == before  # the mapped file never changes

    def test_best_and_statistics_match(self, campaign_cache, tmp_path):
        loaded = columnar_copy(campaign_cache, tmp_path)
        assert loaded.best().value == campaign_cache.best().value
        assert loaded.statistics() == campaign_cache.statistics()

    def test_non_campaign_cache_refuses_columnar(self, tmp_path):
        space = SearchSpace([Parameter("x", (1, 2, 3))], name="toy")
        cache = EvaluationCache("toy", "SIM", space)
        cache.add({"x": 2}, 1.0)
        cache.add({"x": 1}, 2.0)
        # overwrite breaks the evaluation_index == row invariant
        cache.add({"x": 2}, 3.0)
        with pytest.raises(SerializationError, match="JSON"):
            cache.to_columnar(tmp_path / "bad.col")


class TestIntegrity:
    @pytest.mark.parametrize("mode", ["truncate", "bitflip", "tamper"])
    def test_cache_file_damage_detected(self, campaign_cache, tmp_path, mode):
        path = tmp_path / "cache.col"
        campaign_cache.to_columnar(path)
        corrupt_fragment(path, mode)
        with pytest.raises(FragmentIntegrityError):
            EvaluationCache.from_columnar(path, space=campaign_cache.space)

    def test_bitflip_any_column_detected(self, campaign_cache, tmp_path):
        path = tmp_path / "cache.col"
        campaign_cache.to_columnar(path)
        pristine = path.read_bytes()
        header = peek_columnar_header(path)
        assert {entry["name"] for entry in header["columns"]} == {
            "index", "value", "code"}
        for entry in header["columns"]:
            buffer = bytearray(pristine)
            buffer[int(entry["offset"])] ^= 0x10
            path.write_bytes(bytes(buffer))
            with pytest.raises(FragmentIntegrityError):
                read_columnar(path)

    def test_wrong_magic_and_version(self, campaign_cache, tmp_path):
        path = tmp_path / "cache.col"
        campaign_cache.to_columnar(path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(data))
        with pytest.raises(SerializationError):
            peek_columnar_header(path)
        data = bytearray(campaign_cache.to_columnar(path).read_bytes())
        data[8] = 99  # version little-endian low byte
        path.write_bytes(bytes(data))
        with pytest.raises(SerializationError, match="version"):
            peek_columnar_header(path)

    def test_short_file_is_integrity_error(self, tmp_path):
        path = tmp_path / "stub.col"
        path.write_bytes(COLUMNAR_MAGIC[:4])
        with pytest.raises(FragmentIntegrityError):
            peek_columnar_header(path)

    def test_verify_false_skips_checksums(self, campaign_cache, tmp_path):
        path = tmp_path / "cache.col"
        campaign_cache.to_columnar(path)
        corrupt_fragment(path, "tamper")
        loaded = EvaluationCache.from_columnar(path, space=campaign_cache.space,
                                               verify=False)
        assert len(loaded) == len(campaign_cache)

    def test_out_of_range_failure_code_detected(self):
        with pytest.raises(FragmentIntegrityError):
            decode_failure_strings(np.array([5], dtype=np.int32), ["only-slot"])

    def test_out_of_range_failure_code_refused_on_attach(self, pnpoly):
        with pytest.raises(FragmentIntegrityError, match="error-string slots"):
            EvaluationCache("pnpoly", "RTX_3090", pnpoly.space).attach_columns(
                np.array([5, 7]), np.array([1.0, np.inf]),
                np.array([-1, 3], dtype=np.int32), [""])

    @pytest.mark.parametrize("indices, duplicate, row", [
        ([5, 7, 5], 5, 2),
        ([9, 5, 9, 5], 9, 2),  # the first repeat in row order, not the smallest
    ])
    def test_duplicate_space_index_refused(self, pnpoly, indices, duplicate, row):
        n = len(indices)
        with pytest.raises(FragmentIntegrityError,
                           match=fr"space index {duplicate} twice \(again at row {row}\)"):
            EvaluationCache("pnpoly", "RTX_3090", pnpoly.space).attach_columns(
                np.array(indices), np.arange(1.0, n + 1),
                np.full(n, -1, dtype=np.int32), [""])

    def test_duplicate_space_index_refused_on_columnar_open(self, pnpoly, tmp_path):
        space = pnpoly.space.to_dict()
        meta = {"benchmark": "pnpoly", "gpu": "RTX_3090", "exhaustive": False,
                "metadata": {}, "space": space,
                "digest": cache_digest("pnpoly", "RTX_3090", space)}
        path = write_columnar(
            tmp_path / "dup.col", "cache", meta,
            {"index": np.array([5, 7, 5]), "value": np.array([1.0, 2.0, 3.0]),
             "code": np.full(3, -1, dtype=np.int32)}, [""])
        with pytest.raises(FragmentIntegrityError, match="space index 5 twice"):
            EvaluationCache.from_columnar(path, space=pnpoly.space)


class TestFragmentsAndMerge:
    def _rows(self, seed, n=25):
        rng = np.random.default_rng(seed)
        rows = []
        for i in range(n):
            if rng.random() < 0.3:
                rows.append((float("inf"), False, f"err-{int(rng.integers(3))}"))
            else:
                rows.append((float(rng.random()), True, ""))
        return rows

    def test_fragment_round_trip(self, tmp_path):
        shard = {"shard_id": 3, "benchmark": "hotspot", "gpu": "RTX_3090",
                 "start": 0, "stop": 25}
        rows = self._rows(0)
        path = save_columnar_fragment_columns(tmp_path / "frag.col", shard,
                                              *fragment_columns(rows))
        got_shard, got_rows = load_fragment_rows(path)
        assert got_shard == shard
        assert got_rows == rows

    def test_concat_matches_row_concat(self, tmp_path):
        parts = [self._rows(seed) for seed in range(4)]
        columns = []
        for i, rows in enumerate(parts):
            path = save_columnar_fragment_columns(
                tmp_path / f"frag_{i}.col",
                {"shard_id": i, "start": i, "stop": i + 1}, *fragment_columns(rows))
            _, values, codes, errors = load_columnar_fragment_columns(path)
            columns.append((values, codes, errors))
        values, codes, errors = concat_fragment_columns(columns)
        valid, messages = decode_failure_strings(codes, errors)
        flat = [row for rows in parts for row in rows]
        assert [(v, bool(ok), msg) for v, ok, msg in
                zip(values.tolist(), valid.tolist(), messages)] == flat

    def test_merged_error_table_matches_single_shard_encoding(self, tmp_path):
        # Two fragments interning the same strings in different slot orders must
        # merge to the first-occurrence table a single serial shard would build.
        rows_a = [(float("inf"), False, "oom"), (1.0, True, "")]
        rows_b = [(float("inf"), False, "timeout"), (float("inf"), False, "oom")]
        columns = []
        for i, rows in enumerate((rows_b, rows_a)):
            path = save_columnar_fragment_columns(tmp_path / f"f{i}.col",
                                                  {"shard_id": i}, *fragment_columns(rows))
            _, values, codes, errors = load_columnar_fragment_columns(path)
            columns.append((values, codes, errors))
        # merge in evaluation order b-then-a
        _, _, merged = concat_fragment_columns(columns)
        expected_codes, expected_table = encode_failure_codes(
            [v for _, v, _ in rows_b + rows_a],
            [e for _, _, e in rows_b + rows_a])
        assert merged == expected_table

    def test_checkpointed_run_matches_reference(self, planner, plan, reference,
                                                tmp_path):
        store = CheckpointStore(tmp_path / "ck", fragment_format="columnar")
        caches = SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                                      gpus=planner.gpus, checkpoint=store)
        assert {key: cache_bytes(c) for key, c in caches.items()} == reference

    def test_resume_merges_columns_byte_identically(self, planner, plan,
                                                    reference, tmp_path):
        directory = tmp_path / "ck"
        SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                             gpus=planner.gpus,
                             checkpoint=CheckpointStore(directory,
                                                        fragment_format="columnar"))
        store = CheckpointStore(directory)
        caches = resume_campaign(store, executor=SerialExecutor())
        for key, cache in caches.items():
            assert cache_bytes(cache) == reference[key]

    def test_merge_is_shard_order_independent(self, planner, plan, reference,
                                              tmp_path):
        # Complete the shards in reverse order; the merged bytes must not care.
        directory = tmp_path / "ck"
        store = CheckpointStore(directory, fragment_format="columnar")
        store.initialize(plan)
        indices = {unit.key: unit_indices(planner.benchmarks[unit.benchmark].space, unit)
                   for unit in plan.units}
        for shard in reversed(plan.shards):
            unit = next(u for u in plan.units if u.key == shard.unit_key)
            benchmark = planner.benchmarks[shard.benchmark]
            configs = benchmark.space.configs_at(
                indices[unit.key][shard.start:shard.stop])
            rows = benchmark.evaluate_batch(planner.gpus[shard.gpu], configs,
                                            with_noise=unit.with_noise)
            store.save_shard(shard, rows)
        caches = resume_campaign(CheckpointStore(directory),
                                 executor=SerialExecutor())
        assert {key: cache_bytes(c) for key, c in caches.items()} == reference

    def test_damaged_columnar_fragment_heals_on_resume(self, planner, plan,
                                                       reference, tmp_path):
        directory = tmp_path / "ck"
        SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                             gpus=planner.gpus,
                             checkpoint=CheckpointStore(directory,
                                                        fragment_format="columnar"))
        victim = sorted(directory.glob("shard_*.col"))[1]
        corrupt_fragment(victim, "tamper")
        caches = resume_campaign(CheckpointStore(directory),
                                 executor=SerialExecutor())
        assert {key: cache_bytes(c) for key, c in caches.items()} == reference

    def test_bad_format_name_rejected(self, tmp_path):
        # Fragments are columnar only; JSON is no longer a fragment format.
        for name in ("parquet", "json"):
            with pytest.raises(ValueError):
                CheckpointStore(tmp_path, fragment_format=name)

    def test_legacy_json_checkpoint_refused(self, planner, plan, tmp_path):
        directory = tmp_path / "ck"
        store = CheckpointStore(directory)
        store.initialize(plan)
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["fragment_format"] == "columnar"

        legacy = tmp_path / "legacy"
        write_legacy_manifest(legacy, plan)
        store = CheckpointStore(legacy)
        calls = (store.load_plan, lambda: store.initialize(plan),
                 store.status, store.verify_fragments,
                 lambda: resume_campaign(store, executor=SerialExecutor()))
        for call in calls:
            with pytest.raises(SerializationError,
                               match="previous release") as excinfo:
                call()
            assert str(legacy) in str(excinfo.value)


class TestHypothesisFuzz:
    def test_fragment_round_trip_fuzz(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        given, settings, st = (hypothesis.given, hypothesis.settings,
                               hypothesis.strategies)

        errors = st.sampled_from(["", "oom", "время вышло", "制約違反", "a" * 100])
        row = st.one_of(
            st.tuples(st.floats(min_value=0.0, max_value=1e9,
                                allow_nan=False, allow_infinity=False),
                      st.just(True), st.just("")),
            st.tuples(st.just(float("inf")), st.just(False), errors),
            # valid row carrying a non-empty note (negative-code encoding)
            st.tuples(st.floats(min_value=0.0, max_value=1e9,
                                allow_nan=False, allow_infinity=False),
                      st.just(True), errors),
        )

        @settings(max_examples=60, deadline=None)
        @given(rows=st.lists(row, min_size=0, max_size=40),
               shard_id=st.integers(min_value=0, max_value=10_000))
        def round_trips(rows, shard_id):
            path = tmp_path / f"fuzz_{shard_id}.col"
            shard = {"shard_id": shard_id, "start": 0, "stop": len(rows)}
            save_columnar_fragment_columns(path, shard, *fragment_columns(rows))
            got_shard, got_rows = load_fragment_rows(path)
            assert got_shard == shard
            assert got_rows == rows
            path.unlink()

        round_trips()

    def test_rejects_nan_and_negative_infinity(self, tmp_path):
        for poison in (float("nan"), float("-inf")):
            with pytest.raises(SerializationError):
                save_columnar_fragment_columns(tmp_path / "bad.col", {"shard_id": 0},
                                               *fragment_columns([(poison, True, "")]))


class TestCli:
    def _run(self, *args):
        out = io.StringIO()
        code = exec_main(list(args), out=out)
        return code, out.getvalue()

    def test_run_resume_doctor_columnar(self, tmp_path):
        ck, out_dir = tmp_path / "ck", tmp_path / "out"
        code, text = self._run(
            "run", "--benchmarks", "pnpoly", "--gpus", "RTX_3090",
            "--sample-size", "60", "--shard-size", "20",
            "--checkpoint-dir", str(ck), "--output-dir", str(out_dir),
            "--cache-format", "columnar")
        assert code == 0, text
        outputs = sorted(out_dir.glob("*.col"))
        assert outputs and sorted(ck.glob("shard_*.col"))

        # doctor: plant stale tmp litter + damage a fragment
        (ck / "shard_x.4242.cafef00d.tmp").write_text("half-written")
        corrupt_fragment(sorted(ck.glob("shard_*.col"))[0], "bitflip")
        code, text = self._run("doctor", "--checkpoint-dir", str(ck))
        assert code == 1
        assert "stale tmp" in text and "damaged" in text
        code, text = self._run("doctor", "--checkpoint-dir", str(ck), "--fix")
        assert code == 0
        assert "swept" in text
        assert not list(ck.glob("*.tmp"))

        # resume re-executes the healed shard and reproduces the same bytes
        out2 = tmp_path / "out2"
        code, text = self._run("resume", "--checkpoint-dir", str(ck),
                               "--output-dir", str(out2),
                               "--cache-format", "columnar")
        assert code == 0, text
        assert outputs[0].read_bytes() == (out2 / outputs[0].name).read_bytes()

    def test_legacy_json_checkpoint_exits_one(self, plan, tmp_path):
        ck = tmp_path / "legacy"
        write_legacy_manifest(ck, plan)
        for command in ("resume", "status", "doctor"):
            code, text = self._run(command, "--checkpoint-dir", str(ck))
            assert code == 1, (command, text)
            assert str(ck) in text and "previous release" in text

    def test_columnar_output_refuses_compress(self, tmp_path):
        code, text = self._run(
            "run", "--benchmarks", "pnpoly", "--gpus", "RTX_3090",
            "--sample-size", "30", "--output-dir", str(tmp_path / "out"),
            "--cache-format", "columnar", "--compress")
        assert code != 0

    def test_doctor_clean_checkpoint_exits_zero(self, tmp_path):
        ck = tmp_path / "ck"
        code, text = self._run(
            "run", "--benchmarks", "pnpoly", "--gpus", "RTX_3090",
            "--sample-size", "30", "--checkpoint-dir", str(ck),
            "--cache-format", "columnar")
        assert code == 0, text
        code, text = self._run("doctor", "--checkpoint-dir", str(ck))
        assert code == 0, text
        assert "0 stale tmp" in text


def test_writes_never_leave_tmp_litter(campaign_cache, tmp_path):
    campaign_cache.to_columnar(tmp_path / "cache.col")
    shard = {"shard_id": 0, "start": 0, "stop": 1}
    save_columnar_fragment_columns(tmp_path / "frag.col", shard,
                                   *fragment_columns([(1.0, True, "")]))
    assert not list(tmp_path.glob("*.tmp"))
