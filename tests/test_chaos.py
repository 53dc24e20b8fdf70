"""Chaos suite for the fault-tolerant execution layer.

Every test here injects a fault -- a crashed worker process, a shard hung past its
timeout, a transient or permanent exception, a corrupted checkpoint fragment -- and
asserts the standing contract of :mod:`repro.exec`: the campaign either completes
with merged caches *byte-identical* to the serial no-fault reference, or
quarantines the affected shards deterministically (same shards, same records, every
run).  Fault injection is seeded and declarative (:class:`repro.exec.faults
.FaultPlan`), so each failure scenario is exactly reproducible.
"""

from __future__ import annotations

import io
import json
import os
import random

import numpy as np
import pytest

from repro.core.errors import (
    ExecutionError,
    FragmentIntegrityError,
    ReproError,
    ShardTimeoutError,
    TransientExecutionError,
    WorkerCrashError,
    is_transient,
)
from repro.exec import (
    CheckpointStore,
    Fault,
    FaultPlan,
    ParallelExecutor,
    RetryPolicy,
    SerialExecutor,
    ShardPlanner,
    corrupt_fragment,
    resume_campaign,
)
from repro.exec.cli import main as exec_main
from repro.exec.progress import ShardProgressReporter
from repro.exec.retry import unit_uniform
from repro.io.columnar import peek_columnar_header, write_columnar

SAMPLE_N = 120
SHARD_SIZE = 40
EXHAUSTIVE_LIMIT = 5_000

#: Fast, deterministic backoff for tests: retries are effectively immediate.
FAST_RETRY = RetryPolicy(max_retries=3, base_delay=0.001, max_delay=0.01, seed=7)


def cache_bytes(cache) -> str:
    """Canonical serialized form used for byte-identity assertions."""
    return json.dumps(cache.to_dict())


def random_fault_plan(seed: int, shard_ids, rate: float,
                      kinds=("transient", "crash")) -> FaultPlan:
    """Seeded chaos: each shard independently draws a first-attempt worker fault
    with ``rate``.

    Same ``(seed, shard_ids, rate, kinds)`` -> same plan, in every process: the
    draws are blake2b digests of the seed (``unit_uniform``), never
    ``random``/``numpy`` state.
    """
    if not 0.0 <= rate <= 1.0:
        raise ReproError(f"rate must be in [0, 1], got {rate}")
    faults = []
    for shard_id in shard_ids:
        if unit_uniform("fault-hit", seed, shard_id) >= rate:
            continue
        pick = int(unit_uniform("fault-kind", seed, shard_id) * len(kinds))
        faults.append(Fault(site="worker", kind=kinds[min(pick, len(kinds) - 1)],
                            shard_id=shard_id))
    return FaultPlan(faults)


@pytest.fixture(scope="module")
def planner(benchmarks, gpus):
    """Two units (hotspot sampled, gemm sampled via the limit), 3 shards each."""
    selected = {name: benchmarks[name] for name in ("hotspot", "gemm")}
    return ShardPlanner(selected, {"RTX_3090": gpus["RTX_3090"]},
                        sample_size=SAMPLE_N, exhaustive_limit=EXHAUSTIVE_LIMIT,
                        seed=99, shard_size=SHARD_SIZE)


@pytest.fixture(scope="module")
def plan(planner):
    return planner.plan()


@pytest.fixture(scope="module")
def reference(planner, plan):
    """The serial no-fault caches every chaos scenario must reproduce."""
    caches = SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                                  gpus=planner.gpus)
    return {key: cache_bytes(cache) for key, cache in caches.items()}


def assert_byte_identical(caches, reference):
    assert set(caches) == set(reference)
    for key in reference:
        assert cache_bytes(caches[key]) == reference[key], key


class _RecordingSerialExecutor(SerialExecutor):
    """Serial executor that records which shards it actually evaluated."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.executed_shards: list[int] = []

    def _run_shards(self, tasks, on_complete):
        self.executed_shards.extend(t.shard.shard_id for t in tasks)
        super()._run_shards(tasks, on_complete)


class TestWorkerFaultClasses:
    """One test per injected fault class, parallel and serial, vs the reference."""

    def test_transient_faults_are_retried_to_byte_identity(self, planner, plan,
                                                           reference):
        fault_plan = FaultPlan([
            Fault(site="worker", kind="transient", shard_id=1),
            Fault(site="worker", kind="transient", shard_id=4, attempts=(0, 1)),
        ])
        for executor in (ParallelExecutor(workers=2, retry_policy=FAST_RETRY,
                                          fault_plan=fault_plan),
                         SerialExecutor(retry_policy=FAST_RETRY,
                                        fault_plan=fault_plan)):
            caches = executor.run(plan, benchmarks=planner.benchmarks,
                                  gpus=planner.gpus)
            assert_byte_identical(caches, reference)
            assert executor.retry_counts == {1: 1, 4: 2}
            assert executor.quarantine == []

    def test_worker_crash_is_retried_to_byte_identity(self, planner, plan,
                                                      reference):
        fault_plan = FaultPlan([Fault(site="worker", kind="crash", shard_id=0)])
        executor = ParallelExecutor(workers=2, retry_policy=FAST_RETRY,
                                    fault_plan=fault_plan)
        caches = executor.run(plan, benchmarks=planner.benchmarks,
                              gpus=planner.gpus)
        assert_byte_identical(caches, reference)
        assert executor.retry_counts == {0: 1}
        assert executor.quarantine == []

    def test_hung_worker_is_killed_and_retried(self, planner, plan, reference):
        fault_plan = FaultPlan([Fault(site="worker", kind="hang", shard_id=2,
                                      hang_seconds=60.0)])
        executor = ParallelExecutor(workers=2, retry_policy=FAST_RETRY,
                                    shard_timeout=1.0, fault_plan=fault_plan)
        caches = executor.run(plan, benchmarks=planner.benchmarks,
                              gpus=planner.gpus)
        assert_byte_identical(caches, reference)
        assert executor.retry_counts == {2: 1}
        assert executor.quarantine == []

    def test_permanent_fault_quarantines_only_its_unit(self, planner, plan,
                                                       reference):
        # Shard 1 belongs to hotspot (shards 0-2); gemm (shards 3-5) must merge
        # byte-identically while hotspot is withheld.
        fault_plan = FaultPlan([Fault(site="worker", kind="permanent",
                                      shard_id=1)])
        for executor in (ParallelExecutor(workers=2, retry_policy=FAST_RETRY,
                                          fault_plan=fault_plan),
                         SerialExecutor(retry_policy=FAST_RETRY,
                                        fault_plan=fault_plan)):
            caches = executor.run(plan, benchmarks=planner.benchmarks,
                                  gpus=planner.gpus)
            assert set(caches) == {("gemm", "RTX_3090")}
            assert cache_bytes(caches[("gemm", "RTX_3090")]) == reference[
                ("gemm", "RTX_3090")]
            assert len(executor.quarantine) == 1
            record = executor.quarantine[0]
            # Permanent failures quarantine on the first attempt: retrying a
            # deterministic failure is pointless.
            assert record["shard_id"] == 1
            assert record["attempts"] == 1
            assert record["transient"] is False
            assert record["error_type"] == "ExecutionError"

    def test_exhausted_transient_faults_quarantine_deterministically(
            self, planner, plan):
        # A poison shard: transient on every attempt, so the retry budget runs
        # dry.  Two runs of each executor must quarantine identically.
        policy = RetryPolicy(max_retries=2, base_delay=0.001, max_delay=0.01)
        fault_plan = FaultPlan([Fault(site="worker", kind="transient", shard_id=4,
                                      attempts=tuple(range(10)))])
        records = []
        for _ in range(2):
            for factory in (
                    lambda: ParallelExecutor(workers=2, retry_policy=policy,
                                             fault_plan=fault_plan),
                    lambda: SerialExecutor(retry_policy=policy,
                                           fault_plan=fault_plan)):
                executor = factory()
                caches = executor.run(plan, benchmarks=planner.benchmarks,
                                      gpus=planner.gpus)
                assert set(caches) == {("hotspot", "RTX_3090")}
                assert len(executor.quarantine) == 1
                records.append(executor.quarantine[0])
        # Identical decisions everywhere: same shard, same attempt count, same
        # classification, same error text (parallel and serial alike).
        assert all(r == records[0] for r in records[1:])
        assert records[0]["attempts"] == 3  # max_retries + 1
        assert records[0]["transient"] is True

    def test_without_retry_policy_faults_fail_fast(self, planner, plan):
        fault_plan = FaultPlan([Fault(site="worker", kind="permanent",
                                      shard_id=0)])
        with pytest.raises(ExecutionError, match="injected permanent fault"):
            SerialExecutor(fault_plan=fault_plan).run(
                plan, benchmarks=planner.benchmarks, gpus=planner.gpus)
        with pytest.raises(ExecutionError, match="injected permanent fault"):
            ParallelExecutor(workers=2, fault_plan=fault_plan).run(
                plan, benchmarks=planner.benchmarks, gpus=planner.gpus)

    def test_random_fault_storm_still_merges_byte_identical(self, planner, plan,
                                                            reference):
        # Seeded chaos across the whole plan: half the shards draw a transient
        # or crash fault on their first attempt.  Retries absorb all of it.
        fault_plan = random_fault_plan(seed=11, shard_ids=[s.shard_id
                                                           for s in plan.shards],
                                       rate=0.5)
        assert len(fault_plan) > 0
        executor = ParallelExecutor(workers=2, retry_policy=FAST_RETRY,
                                    fault_plan=fault_plan)
        caches = executor.run(plan, benchmarks=planner.benchmarks,
                              gpus=planner.gpus)
        assert_byte_identical(caches, reference)
        assert set(executor.retry_counts) == set(fault_plan.shard_ids())

    def test_happy_path_with_retry_policy_is_untouched(self, planner, plan,
                                                       reference):
        # The retry machinery enabled but never exercised: zero retries, zero
        # quarantine, and -- crucially -- the exact reference bytes (no RNG
        # stream was perturbed by merely arming the policy).
        executor = ParallelExecutor(workers=2, retry_policy=FAST_RETRY,
                                    shard_timeout=300.0)
        caches = executor.run(plan, benchmarks=planner.benchmarks,
                              gpus=planner.gpus)
        assert_byte_identical(caches, reference)
        assert executor.retry_counts == {}
        assert executor.quarantine == []


class TestFragmentIntegrity:
    @pytest.mark.parametrize("mode", ["truncate", "bitflip", "tamper"])
    def test_corrupt_fragment_is_detected(self, planner, plan, tmp_path, mode):
        store = CheckpointStore(tmp_path / "ckpt")
        SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                             gpus=planner.gpus, checkpoint=store)
        shard = plan.shards[0]
        corrupt_fragment(store.fragment_path(shard), mode)
        with pytest.raises(FragmentIntegrityError):
            store.load_shard(shard)
        report = store.verify_fragments(plan)
        assert [r["shard_id"] for r in report["damaged"]] == [shard.shard_id]
        assert len(report["ok"]) == len(plan.shards) - 1

    def test_resume_heals_exactly_the_damaged_shards(self, planner, plan,
                                                     reference, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                             gpus=planner.gpus, checkpoint=store)
        first_bytes = {s.shard_id: store.fragment_path(s).read_bytes()
                       for s in plan.shards}
        corrupt_fragment(store.fragment_path(plan.shards[1]), "truncate")
        corrupt_fragment(store.fragment_path(plan.shards[4]), "tamper")

        executor = _RecordingSerialExecutor()
        resumed = resume_campaign(store, executor=executor,
                                  benchmarks=planner.benchmarks,
                                  gpus=planner.gpus)
        assert sorted(executor.executed_shards) == [1, 4]
        assert sorted(executor.repaired_shards) == [1, 4]
        assert_byte_identical(resumed, reference)
        # The healed fragments are byte-identical to the originals: shard
        # evaluation is a pure function of (benchmark, GPU, indices).
        for shard in plan.shards:
            assert store.fragment_path(shard).read_bytes() == first_bytes[
                shard.shard_id]
        assert store.load_health()["repaired"] == [1, 4]

    def test_injected_fragment_faults_heal_on_resume(self, planner, plan,
                                                     reference, tmp_path):
        # The fragment fault site: the executor saves a valid fragment, the
        # fault plan rots it on disk immediately after.  The first run's merge
        # (from in-memory rows) is already correct; the resume must detect the
        # damage and re-execute.
        store = CheckpointStore(tmp_path / "ckpt")
        fault_plan = FaultPlan([
            Fault(site="fragment", kind="bitflip", shard_id=2),
            Fault(site="fragment", kind="tamper", shard_id=5),
        ])
        first = SerialExecutor(fault_plan=fault_plan).run(
            plan, benchmarks=planner.benchmarks, gpus=planner.gpus,
            checkpoint=store)
        assert_byte_identical(first, reference)
        assert [r["shard_id"]
                for r in store.verify_fragments(plan)["damaged"]] == [2, 5]

        executor = _RecordingSerialExecutor()
        resumed = resume_campaign(store, executor=executor,
                                  benchmarks=planner.benchmarks,
                                  gpus=planner.gpus)
        assert sorted(executor.executed_shards) == [2, 5]
        assert_byte_identical(resumed, reference)
        assert store.verify_fragments(plan)["damaged"] == []

    def test_fragment_checksum_catches_valid_json_tampering(self, planner, plan,
                                                            tmp_path):
        # `tamper` keeps the header well-formed and the row count right -- only
        # the checksum can catch it.  This is the test that fails if checksum
        # verification is ever dropped.
        store = CheckpointStore(tmp_path / "ckpt")
        SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                             gpus=planner.gpus, checkpoint=store)
        shard = plan.shards[3]
        corrupt_fragment(store.fragment_path(shard), "tamper")
        header = peek_columnar_header(store.fragment_path(shard))
        assert header["row_count"] == shard.n_configs  # still shape-valid
        with pytest.raises(FragmentIntegrityError, match="checksum"):
            store.load_shard(shard)

    def test_out_of_table_failure_codes_heal_on_resume(self, benchmarks, gpus,
                                                        tmp_path):
        # Valid checksums, but a failure code pointing past the fragment's own
        # error table: the load must refuse it inside the taxonomy (not as a raw
        # IndexError from the column merge), so the resume discards and
        # re-executes the shard.
        planner = ShardPlanner({"pnpoly": benchmarks["pnpoly"]},
                               {"RTX_3090": gpus["RTX_3090"]}, shard_size=1024)
        plan = planner.plan()
        reference = {key: cache_bytes(cache) for key, cache in SerialExecutor().run(
            plan, benchmarks=planner.benchmarks, gpus=planner.gpus).items()}
        store = CheckpointStore(tmp_path / "ckpt")
        SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                             gpus=planner.gpus, checkpoint=store)
        shard = plan.shards[0]
        values, codes, errors = store.load_shard_columns(shard)
        codes = codes.copy()
        codes[0] = len(errors)
        write_columnar(store.fragment_path(shard), "fragment",
                       {"shard": shard.to_dict()}, {"value": values, "code": codes},
                       errors)
        with pytest.raises(FragmentIntegrityError):
            store.load_shard(shard)
        with pytest.raises(FragmentIntegrityError):
            store.load_shard_columns(shard)

        executor = _RecordingSerialExecutor()
        resumed = resume_campaign(store, executor=executor,
                                  benchmarks=planner.benchmarks,
                                  gpus=planner.gpus)
        assert executor.repaired_shards == [shard.shard_id]
        assert executor.executed_shards == [shard.shard_id]
        assert_byte_identical(resumed, reference)


class TestQuarantineHealth:
    def test_quarantine_is_recorded_and_cleared_by_resume(self, planner, plan,
                                                          reference, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        fault_plan = FaultPlan([Fault(site="worker", kind="transient",
                                      shard_id=0, attempts=tuple(range(10)))])
        executor = SerialExecutor(retry_policy=FAST_RETRY, fault_plan=fault_plan)
        executor.run(plan, benchmarks=planner.benchmarks, gpus=planner.gpus,
                     checkpoint=store)
        health = store.load_health()
        assert [r["shard_id"] for r in health["quarantined"]] == [0]
        # The record names the file a completed shard 0 lands in; a stale name
        # would keep the record alive after the resume below.
        shard = next(s for s in plan.shards if s.shard_id == 0)
        assert health["quarantined"][0]["fragment"] == store.fragment_path(shard).name
        assert health["retries"][0] == FAST_RETRY.max_retries
        status = store.status(plan)
        assert status["quarantined_shards"] == 1
        assert status["retry_attempts"] == FAST_RETRY.max_retries

        # A clean resume completes the quarantined shard and clears its record.
        resumed = resume_campaign(store, executor=SerialExecutor(),
                                  benchmarks=planner.benchmarks,
                                  gpus=planner.gpus)
        assert_byte_identical(resumed, reference)
        assert store.load_health()["quarantined"] == []
        assert store.status(plan)["quarantined_shards"] == 0


class _InterruptingReporter(ShardProgressReporter):
    """Raises KeyboardInterrupt after N completed shards (a mid-campaign Ctrl-C)."""

    def __init__(self, after: int):
        super().__init__(emit=lambda line: None)
        self._after = after

    def shard_done(self, shard):
        super().shard_done(shard)
        self._after -= 1
        if self._after <= 0:
            raise KeyboardInterrupt


class TestGracefulShutdown:
    @pytest.mark.parametrize("make_executor", [
        lambda: SerialExecutor(),
        lambda: ParallelExecutor(workers=2),
    ], ids=["serial", "parallel"])
    def test_interrupt_leaves_resumable_checkpoint(self, planner, plan,
                                                   reference, tmp_path,
                                                   make_executor):
        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(KeyboardInterrupt):
            make_executor().run(plan, benchmarks=planner.benchmarks,
                                gpus=planner.gpus, checkpoint=store,
                                progress=_InterruptingReporter(after=2))
        # Completed shards were flushed as valid fragments before the abort...
        done = store.completed_shard_ids(plan)
        assert len(done) >= 2
        assert store.verify_fragments(plan)["damaged"] == []
        # ...and a plain resume finishes byte-identically.
        executor = _RecordingSerialExecutor()
        resumed = resume_campaign(store, executor=executor,
                                  benchmarks=planner.benchmarks,
                                  gpus=planner.gpus)
        assert set(executor.executed_shards) == (
            {s.shard_id for s in plan.shards} - done)
        assert_byte_identical(resumed, reference)


class TestRetryPolicyDeterminism:
    def test_hypothesis_fuzz_delay_bounds_and_determinism(self):
        hypothesis = pytest.importorskip("hypothesis")
        given, settings, st = (hypothesis.given, hypothesis.settings,
                               hypothesis.strategies)

        @settings(max_examples=200, deadline=None)
        @given(seed=st.integers(0, 2**32), shard_id=st.integers(0, 10**6),
               retry=st.integers(0, 12),
               base=st.floats(1e-4, 1.0, allow_nan=False),
               jitter=st.floats(0.0, 1.0, allow_nan=False))
        def check(seed, shard_id, retry, base, jitter):
            policy = RetryPolicy(max_retries=13, base_delay=base,
                                 max_delay=max(base, 5.0), jitter=jitter,
                                 seed=seed)
            delay = policy.delay(shard_id, retry)
            again = RetryPolicy(max_retries=13, base_delay=base,
                                max_delay=max(base, 5.0), jitter=jitter,
                                seed=seed).delay(shard_id, retry)
            assert delay == again  # pure function of (policy, shard, retry)
            backoff = min(base * 2.0 ** retry, policy.max_delay)
            assert backoff * (1.0 - jitter) - 1e-12 <= delay <= backoff

        check()

    def test_schedule_is_stable_and_seed_sensitive(self):
        policy = RetryPolicy(max_retries=5, seed=42)
        assert policy.delays(3) == policy.delays(3)
        assert len(policy.delays(3)) == 5
        assert policy.delays(3) != RetryPolicy(max_retries=5, seed=43).delays(3)
        assert policy.delays(3) != policy.delays(4)  # per-shard decorrelation
        assert RetryPolicy(jitter=0.0, max_retries=3).delays(0) == (
            0.05, 0.1, 0.2)

    def test_retry_and_fault_machinery_never_touch_global_rng(self):
        random.seed(1234)
        np.random.seed(5678)
        py_state = random.getstate()
        np_state = np.random.get_state()

        policy = RetryPolicy(max_retries=8, seed=3)
        for shard_id in range(50):
            policy.delays(shard_id)
            unit_uniform("probe", shard_id)
        random_fault_plan(seed=9, shard_ids=range(100), rate=0.5,
                          kinds=("transient", "crash", "hang"))

        assert random.getstate() == py_state
        after = np.random.get_state()
        assert after[0] == np_state[0]
        assert np.array_equal(after[1], np_state[1])
        assert after[2:] == np_state[2:]

    def test_invalid_policies_are_rejected(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ReproError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ReproError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)
        with pytest.raises(ReproError):
            SerialExecutor(shard_timeout=0.0)


class TestFaultPlanConstruction:
    def test_random_plan_is_seed_deterministic(self):
        a = random_fault_plan(seed=5, shard_ids=range(40), rate=0.3)
        b = random_fault_plan(seed=5, shard_ids=range(40), rate=0.3)
        assert a.to_dict() == b.to_dict()
        c = random_fault_plan(seed=6, shard_ids=range(40), rate=0.3)
        assert a.to_dict() != c.to_dict()
        assert len(random_fault_plan(seed=5, shard_ids=range(40), rate=0.0)) == 0

    def test_invalid_faults_are_rejected(self):
        with pytest.raises(ReproError):
            Fault(site="worker", kind="truncate", shard_id=0)
        with pytest.raises(ReproError):
            Fault(site="fragment", kind="crash", shard_id=0)
        with pytest.raises(ReproError):
            Fault(site="network", kind="crash", shard_id=0)
        with pytest.raises(ReproError):
            random_fault_plan(seed=1, shard_ids=[0], rate=2.0)

    def test_taxonomy_classification(self):
        assert is_transient(WorkerCrashError("x", exit_code=9))
        assert is_transient(ShardTimeoutError("x", timeout=1.0))
        assert is_transient(TransientExecutionError("x"))
        assert not is_transient(ExecutionError("x"))
        assert not is_transient(ValueError("x"))

        class OptIn(RuntimeError):
            transient = True

        assert is_transient(OptIn("x"))


class TestStatusSessions:
    def test_throughput_ignores_dead_time_between_sessions(self, planner, plan,
                                                           tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                             gpus=planner.gpus, checkpoint=store)
        # Fake an interrupted-then-resumed timeline: 3 fragments, hours of dead
        # time, 3 more.  10s between completions within a session.
        base = 1_000_000_000
        mtimes = [base, base + 10, base + 20,
                  base + 10_000, base + 10_010, base + 10_020]
        for shard, mtime in zip(plan.shards, mtimes):
            os.utime(store.fragment_path(shard), (mtime, mtime))
        # The adaptive threshold (10x median gap, floored at 60s) splits the
        # timeline into two sessions.
        status = store.status(plan)
        assert status["sessions"] == 2
        # Active elapsed: 4 intra-session gaps of 10s; the dead 9 980s gap and
        # the two session-head shards never enter the rate.
        assert status["elapsed_s"] == pytest.approx(40.0)
        assert status["configs_per_s"] == pytest.approx(4 * SHARD_SIZE / 40.0)

    def test_fresh_and_single_fragment_checkpoints_report_no_rate(self, planner,
                                                                  plan,
                                                                  tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.initialize(plan)
        status = store.status(plan)  # no fragments at all
        assert "elapsed_s" not in status and "configs_per_s" not in status
        SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                             gpus=planner.gpus, checkpoint=store,
                             only_units=[("hotspot", "RTX_3090")])
        for shard in plan.shards[1:3]:
            os.unlink(store.fragment_path(shard))
        status = store.status(plan)  # one fragment: no rate, no crash
        assert status["shards_completed"] == 1
        assert "configs_per_s" not in status

    def test_progress_reporter_edge_cases(self, plan):
        lines = []
        clock = iter([0.0, 0.0]).__next__  # zero elapsed on the first shard
        reporter = ShardProgressReporter(emit=lines.append, clock=clock)
        reporter.begin(plan, plan.shards, set())
        reporter.shard_done(plan.shards[0])
        assert "eta" not in lines[-1]  # zero-division ETA guarded
        reporter.note("shard 1 failed transiently; retry 1/3 in 0.01s")
        assert lines[-1].startswith("shard 1 failed")
        assert reporter.shards_done == 1  # notes never advance the counters


class TestChaosCLI:
    def run_cli(self, *argv) -> tuple[int, str]:
        out = io.StringIO()
        code = exec_main(list(argv), out=out)
        return code, out.getvalue()

    def test_run_accepts_fault_tolerance_flags(self, tmp_path):
        code, text = self.run_cli(
            "run", "--benchmarks", "hotspot", "--gpus", "RTX_3090",
            "--sample-size", "120", "--shard-size", "40", "--workers", "1",
            "--max-retries", "2", "--shard-timeout", "600",
            "--checkpoint-dir", str(tmp_path / "ckpt"), "--quiet")
        assert code == 0, text
        assert "hotspot/RTX_3090: 120 entries" in text

    def test_doctor_flags_fixes_and_resume_round_trip(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        outdir = str(tmp_path / "caches")
        code, text = self.run_cli(
            "run", "--benchmarks", "hotspot", "--gpus", "RTX_3090",
            "--sample-size", "120", "--shard-size", "40", "--workers", "1",
            "--checkpoint-dir", ckpt, "--output-dir", outdir, "--quiet")
        assert code == 0, text
        first = (tmp_path / "caches" / "hotspot_RTX_3090.json").read_bytes()

        code, text = self.run_cli("doctor", "--checkpoint-dir", ckpt)
        assert code == 0 and "0 damaged" in text

        store = CheckpointStore(ckpt)
        shards = store.load_plan().shards
        corrupt_fragment(store.fragment_path(shards[1]), "bitflip")
        corrupt_fragment(store.fragment_path(shards[2]), "tamper")
        code, text = self.run_cli("doctor", "--checkpoint-dir", ckpt)
        assert code == 1
        assert "2 damaged" in text and "--fix" in text

        code, text = self.run_cli("doctor", "--checkpoint-dir", ckpt, "--fix")
        assert code == 0
        assert text.count("deleted") == 2
        assert not store.fragment_path(shards[1]).exists()

        code, text = self.run_cli("resume", "--checkpoint-dir", ckpt,
                                  "--output-dir", outdir, "--quiet")
        assert code == 0, text
        assert (tmp_path / "caches" / "hotspot_RTX_3090.json").read_bytes() == first

        code, text = self.run_cli("doctor", "--checkpoint-dir", ckpt)
        assert code == 0 and "0 damaged" in text

    def test_doctor_without_manifest(self, tmp_path):
        code, text = self.run_cli("doctor", "--checkpoint-dir",
                                  str(tmp_path / "nothing"))
        assert code == 1
        assert "no manifest" in text

    def test_status_reports_health(self, planner, plan, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        fault_plan = FaultPlan([Fault(site="worker", kind="transient",
                                      shard_id=3, attempts=tuple(range(10)))])
        SerialExecutor(retry_policy=FAST_RETRY, fault_plan=fault_plan).run(
            plan, benchmarks=planner.benchmarks, gpus=planner.gpus,
            checkpoint=store)
        code, text = self.run_cli("status", "--checkpoint-dir",
                                  str(tmp_path / "ckpt"))
        assert code == 0
        assert "retries: 3 attempt(s) across 1 shard(s)" in text
        assert "quarantined: 1 shard(s)" in text
        assert "shard     3" in text
