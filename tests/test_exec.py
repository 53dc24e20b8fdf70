"""Tests for the campaign-execution subsystem (:mod:`repro.exec`).

The subsystem's load-bearing contract is *byte identity*: any executor, over any
shard plan, interrupted or not, must merge to exactly the caches the serial
reference produces -- same configurations, same order, same values, same error
strings, same serialized JSON.  Every test here ultimately asserts that.
"""

from __future__ import annotations

import io
import json
import math
import os

import numpy as np
import pytest

from repro.analysis.campaign import Campaign
from repro.core.budget import Budget
from repro.core.errors import ReproError, SerializationError
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.exec import (
    CampaignPlan,
    CheckpointStore,
    ParallelExecutor,
    SerialExecutor,
    ShardPlanner,
    resume_campaign,
)
from repro.exec.cli import main as exec_main
from repro.exec.planner import unit_indices
from repro.tuners.random_search import RandomSearch

from problem_oracle import assert_measures_like, campaign_measurement

KERNEL_NAMES = ("pnpoly", "nbody", "convolution", "gemm", "expdist", "hotspot",
                "dedispersion")

#: Small enough for fast tests, large enough that every unit splits into shards.
SAMPLE_N = 150
SHARD_SIZE = 40
EXHAUSTIVE_LIMIT = 5_000


def cache_bytes(cache) -> str:
    """Canonical serialized form used for byte-identity assertions."""
    return json.dumps(cache.to_dict())


@pytest.fixture(scope="module")
def planner(benchmarks, gpus):
    selected = {"RTX_3090": gpus["RTX_3090"]}
    return ShardPlanner(benchmarks, selected, sample_size=SAMPLE_N,
                        exhaustive_limit=EXHAUSTIVE_LIMIT, seed=99,
                        shard_size=SHARD_SIZE)


@pytest.fixture(scope="module")
def serial_caches(planner):
    """Reference output: the full plan through the SerialExecutor, built once."""
    return SerialExecutor().run(planner.plan(), benchmarks=planner.benchmarks,
                                gpus=planner.gpus)


class TestShardPlanner:
    def test_plan_is_deterministic(self, benchmarks, gpus):
        def make():
            return ShardPlanner(benchmarks, gpus, sample_size=SAMPLE_N,
                                exhaustive_limit=EXHAUSTIVE_LIMIT, seed=99,
                                shard_size=SHARD_SIZE).plan()
        assert make().to_dict() == make().to_dict()

    def test_plan_round_trips_through_json(self, planner):
        plan = planner.plan()
        restored = CampaignPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored == plan

    def test_shards_partition_each_unit(self, planner):
        plan = planner.plan()
        for unit in plan.units:
            shards = plan.shards_of(unit)
            assert shards[0].start == 0
            assert shards[-1].stop == unit.n_configs
            for a, b in zip(shards, shards[1:]):
                assert a.stop == b.start
            assert all(s.n_configs <= SHARD_SIZE for s in shards)

    def test_paper_design_decisions(self, planner):
        # The three huge spaces are always sampled; pnpoly fits under the
        # exhaustive limit and is enumerated.
        assert planner.is_sampled("hotspot")
        assert planner.is_sampled("dedispersion")
        assert planner.is_sampled("expdist")
        assert not planner.is_sampled("pnpoly")
        unit = planner.unit_for("pnpoly", "RTX_3090")
        assert unit.exhaustive and unit.n_configs == 4_092

    def test_per_gpu_seeds_follow_sorted_order(self, benchmarks, gpus):
        planner = ShardPlanner(benchmarks, gpus, seed=10)
        seeds = {g: planner.unit_seed(g) for g in gpus}
        assert seeds == {g: 10 + i for i, g in enumerate(sorted(gpus))}

    def test_sampled_unit_indices_match_space_sampling(self, planner, benchmarks):
        unit = planner.unit_for("hotspot", "RTX_3090")
        np.testing.assert_array_equal(
            unit_indices(benchmarks["hotspot"].space, unit),
            benchmarks["hotspot"].space.sample_indices(SAMPLE_N, rng=unit.seed,
                                                       valid_only=True, unique=True))


class TestSerialExecutor:
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_byte_identical_to_build_cache(self, planner, serial_caches,
                                           benchmarks, gpus, name):
        unit = planner.unit_for(name, "RTX_3090")
        reference = benchmarks[name].build_cache(
            gpus["RTX_3090"], sample_size=unit.sample_size, seed=unit.seed)
        assert cache_bytes(serial_caches[(name, "RTX_3090")]) == cache_bytes(reference)


class TestParallelExecutor:
    def test_byte_identical_to_serial_on_every_kernel_space(self, planner,
                                                            serial_caches):
        # One pool, all seven kernel spaces: the acceptance criterion of the
        # subsystem.  Shards complete out of order; the merge must not care.
        parallel = ParallelExecutor(workers=4).run(
            planner.plan(), benchmarks=planner.benchmarks, gpus=planner.gpus)
        assert set(parallel) == set(serial_caches)
        for key in serial_caches:
            assert cache_bytes(parallel[key]) == cache_bytes(serial_caches[key]), key

    def test_rejects_non_registry_benchmarks(self, gpus):
        space = SearchSpace([Parameter("x", (1, 2))], name="custom")

        class FakeBenchmark:
            def __init__(self):
                self.space = space

        planner = ShardPlanner({"custom": FakeBenchmark()},
                               {"RTX_3090": gpus["RTX_3090"]}, sample_size=2,
                               sampled_benchmarks=frozenset({"custom"}))
        with pytest.raises(ReproError, match="registry"):
            ParallelExecutor(workers=2).run(planner.plan(),
                                            benchmarks=planner.benchmarks,
                                            gpus=planner.gpus)

    def test_rejects_custom_workload_under_registry_name(self, gpus):
        # A custom workload under a registry name would be silently replaced by
        # the default rebuild in every worker; the mismatch must be refused.
        from repro.kernels import all_benchmarks

        custom = {"hotspot": all_benchmarks(hotspot={"grid_size": 64})["hotspot"]}
        planner = ShardPlanner(custom, {"RTX_3090": gpus["RTX_3090"]}, sample_size=4)
        with pytest.raises(ReproError, match=r"ShardPlanner\(specs=\.\.\.\)"):
            ParallelExecutor(workers=2).run(planner.plan(),
                                            benchmarks=planner.benchmarks,
                                            gpus=planner.gpus)

    @staticmethod
    def _custom_hotspot_run(gpus, tmp_path):
        """A checkpointed parallel run of hotspot at grid 64, built from its spec."""
        from repro.kernels import all_benchmarks

        custom = {"hotspot": all_benchmarks(hotspot={"grid_size": 64})["hotspot"]}
        planner = ShardPlanner(custom, {"RTX_3090": gpus["RTX_3090"]},
                               sample_size=8, shard_size=2,
                               specs={"hotspot": {
                                   "factory": "repro.kernels.hotspot:create_benchmark",
                                   "kwargs": {"grid_size": 64}}})
        plan = planner.plan()
        serial = SerialExecutor().run(plan, benchmarks=planner.benchmarks,
                                      gpus=planner.gpus)
        store = CheckpointStore(tmp_path / "ckpt")
        parallel = ParallelExecutor(workers=2).run(
            plan, benchmarks=planner.benchmarks, gpus=planner.gpus,
            checkpoint=store)
        return plan, store, serial, parallel

    def test_custom_workload_runs_in_parallel_from_its_spec(self, gpus, tmp_path):
        # With the spec that builds the custom workload, the same benchmark
        # runs in parallel and matches serial.
        _, _, serial, parallel = self._custom_hotspot_run(gpus, tmp_path)
        key = ("hotspot", "RTX_3090")
        assert set(parallel) == set(serial) == {key}
        assert cache_bytes(parallel[key]) == cache_bytes(serial[key])

    def test_custom_workload_resumes_from_manifest_specs_alone(self, gpus,
                                                               tmp_path):
        # Resume with no benchmarks= rebuilds the custom workload from the
        # manifest's unit specs alone, in the parent and in every worker.
        plan, store, serial, _ = self._custom_hotspot_run(gpus, tmp_path)
        dropped = [s for s in plan.shards if s.shard_id % 2 == 1]
        assert dropped
        for shard in dropped:
            os.unlink(store.fragment_path(shard))
        resumed = resume_campaign(store, executor=ParallelExecutor(workers=2))
        key = ("hotspot", "RTX_3090")
        assert cache_bytes(resumed[key]) == cache_bytes(serial[key])

    def test_rejects_invalid_worker_count(self):
        with pytest.raises(ReproError):
            ParallelExecutor(workers=0)

    @pytest.mark.parametrize("cores, affinity, noted", [
        (1, True, True),     # two workers on one core in the affinity mask
        (2, True, False),    # as many cores as workers
        (1, False, True),    # no affinity API: os.cpu_count() is read instead
    ])
    def test_notes_more_workers_than_cores(self, benchmarks, gpus, monkeypatch,
                                           cores, affinity, noted):
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(cores)), raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        planner = ShardPlanner({"hotspot": benchmarks["hotspot"]},
                               {"RTX_3090": gpus["RTX_3090"]}, sample_size=8,
                               seed=5, shard_size=4)
        lines: list[str] = []
        executor = ParallelExecutor(workers=2)
        parallel = executor.run(planner.plan(), benchmarks=planner.benchmarks,
                                gpus=planner.gpus, progress=lines.append)
        notes = [line for line in lines if "usable core" in line]
        assert notes == ([f"2 worker processes on {cores} usable core(s): they "
                          f"time-share the cores, so fewer workers may finish "
                          f"sooner"] if noted else [])
        assert executor.workers == 2  # warned about, not clamped
        serial = SerialExecutor().run(planner.plan(), benchmarks=planner.benchmarks,
                                      gpus=planner.gpus)
        key = ("hotspot", "RTX_3090")
        assert cache_bytes(parallel[key]) == cache_bytes(serial[key])


class TestRebuildPath:
    """The one way a benchmark is rebuilt in another process: the unit's spec."""

    HOTSPOT_64 = {"factory": "repro.kernels.hotspot:create_benchmark",
                  "kwargs": {"grid_size": 64}}

    def test_unit_spec_prefers_the_units_own_spec(self):
        from repro.core.registry import BenchmarkSpec
        from repro.exec import CampaignUnit
        from repro.exec.planner import unit_spec

        own = CampaignUnit("hotspot", "RTX_3090", 4, 0, True, 4,
                           spec=self.HOTSPOT_64)
        assert unit_spec(own) == BenchmarkSpec.from_dict(self.HOTSPOT_64)
        implicit = CampaignUnit("hotspot", "RTX_3090", 4, 0, True, 4)
        assert unit_spec(implicit) == BenchmarkSpec(
            "repro.kernels.hotspot:create_benchmark")
        unknown = CampaignUnit("no_such_kernel", "RTX_3090", 4, 0, True, 4)
        assert unit_spec(unknown) is None

    def test_init_worker_builds_exactly_the_specs_it_is_sent(self, monkeypatch):
        from repro.exec import worker

        monkeypatch.setattr(worker, "_BENCHMARKS", {})
        monkeypatch.setattr(worker, "_GPUS", {})
        worker.init_worker({"hotspot": self.HOTSPOT_64})
        assert set(worker._BENCHMARKS) == {"hotspot"}
        rebuilt = worker._BENCHMARKS["hotspot"]
        assert rebuilt.workload.sizes["grid_size"] == 64
        assert "RTX_3090" in worker._GPUS


class _MustNotEvaluate(SerialExecutor):
    """Executor that fails the test if any shard actually needs evaluating."""

    def _run_shards(self, tasks, on_complete):
        raise AssertionError(f"{len(tasks)} shards were re-evaluated on resume")


class TestCheckpointResume:
    @pytest.fixture()
    def small_planner(self, benchmarks, gpus):
        return ShardPlanner({"hotspot": benchmarks["hotspot"]},
                            {"RTX_3090": gpus["RTX_3090"]},
                            sample_size=SAMPLE_N, seed=5, shard_size=SHARD_SIZE)

    def test_interrupted_parallel_run_resumes_byte_identical(self, small_planner,
                                                             tmp_path):
        plan = small_planner.plan()
        store = CheckpointStore(tmp_path / "ckpt")
        parallel = ParallelExecutor(workers=2).run(
            plan, benchmarks=small_planner.benchmarks, gpus=small_planner.gpus,
            checkpoint=store)
        # Simulate a mid-campaign kill: drop some completed shards.  Atomic
        # fragment writes guarantee the survivors are complete files.
        dropped = [s for s in plan.shards if s.shard_id % 2 == 1]
        assert dropped
        for shard in dropped:
            os.unlink(store.fragment_path(shard))
        status = store.status(plan)
        assert status["shards_completed"] == len(plan.shards) - len(dropped)

        resumed = resume_campaign(store, executor=ParallelExecutor(workers=2),
                                  benchmarks=small_planner.benchmarks,
                                  gpus=small_planner.gpus)
        uninterrupted = SerialExecutor().run(plan,
                                             benchmarks=small_planner.benchmarks,
                                             gpus=small_planner.gpus)
        key = ("hotspot", "RTX_3090")
        assert cache_bytes(resumed[key]) == cache_bytes(uninterrupted[key])
        assert cache_bytes(parallel[key]) == cache_bytes(uninterrupted[key])

    def test_complete_checkpoint_resumes_without_reevaluating(self, small_planner,
                                                              tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        reference = SerialExecutor().run(small_planner.plan(),
                                         benchmarks=small_planner.benchmarks,
                                         gpus=small_planner.gpus, checkpoint=store)
        resumed = resume_campaign(store, executor=_MustNotEvaluate(),
                                  benchmarks=small_planner.benchmarks,
                                  gpus=small_planner.gpus)
        key = ("hotspot", "RTX_3090")
        assert cache_bytes(resumed[key]) == cache_bytes(reference[key])

    def test_checkpoint_refuses_foreign_plan(self, small_planner, benchmarks,
                                             gpus, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.initialize(small_planner.plan())
        other = ShardPlanner({"pnpoly": benchmarks["pnpoly"]},
                             {"RTX_3090": gpus["RTX_3090"]},
                             shard_size=SHARD_SIZE)
        with pytest.raises(SerializationError, match="different"):
            SerialExecutor().run(other.plan(), benchmarks=other.benchmarks,
                                 gpus=other.gpus, checkpoint=store)

    def test_resume_refuses_diverged_benchmark_definition(self, benchmarks, gpus,
                                                          tmp_path):
        # Fragments evaluated against a custom-workload benchmark must not merge
        # with the default registry definition (or vice versa): the manifest pins
        # a space+workload fingerprint per benchmark.
        from repro.kernels import all_benchmarks

        selected_g = {"RTX_3090": gpus["RTX_3090"]}
        custom = {"hotspot": all_benchmarks(hotspot={"grid_size": 64})["hotspot"]}
        planner = ShardPlanner(custom, selected_g, sample_size=20, shard_size=10)
        store = CheckpointStore(tmp_path / "ckpt")
        SerialExecutor().run(planner.plan(), benchmarks=custom, gpus=selected_g,
                             checkpoint=store)
        with pytest.raises(SerializationError, match="different definitions"):
            resume_campaign(store, executor=SerialExecutor(),
                            benchmarks={"hotspot": benchmarks["hotspot"]},
                            gpus=selected_g)

    def test_fragment_row_count_is_validated(self, small_planner, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        plan = small_planner.plan()
        shard = plan.shards[0]
        with pytest.raises(SerializationError, match="rows"):
            store.save_shard(shard, [(1.0, True, "")])  # wrong length


class TestExecCLI:
    def run_cli(self, *argv) -> tuple[int, str]:
        out = io.StringIO()
        code = exec_main(list(argv), out=out)
        return code, out.getvalue()

    def test_plan_prints_units_and_totals(self):
        code, text = self.run_cli("plan", "--benchmarks", "pnpoly,hotspot",
                                  "--gpus", "RTX_3090", "--sample-size", "100")
        assert code == 0
        assert "pnpoly" in text and "exhaustive" in text
        assert "sampled(100)" in text
        assert "shards" in text

    def test_plan_rejects_unknown_names(self):
        code, text = self.run_cli("plan", "--benchmarks", "warp_drive")
        assert code == 2
        assert "unknown benchmarks" in text

    def test_run_status_resume_round_trip(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        outdir = str(tmp_path / "caches")
        code, text = self.run_cli(
            "run", "--benchmarks", "hotspot", "--gpus", "RTX_3090",
            "--sample-size", "120", "--shard-size", "50", "--workers", "1",
            "--checkpoint-dir", ckpt, "--output-dir", outdir, "--quiet")
        assert code == 0, text
        assert "hotspot/RTX_3090: 120 entries" in text
        first = (tmp_path / "caches" / "hotspot_RTX_3090.json").read_bytes()

        code, text = self.run_cli("status", "--checkpoint-dir", ckpt)
        assert code == 0
        assert "3/3" in text

        # Drop a fragment, resume, and the rewritten cache is byte-identical.
        store = CheckpointStore(ckpt)
        os.unlink(store.fragment_path(store.load_plan().shards[1]))
        code, text = self.run_cli("resume", "--checkpoint-dir", ckpt,
                                  "--output-dir", outdir, "--quiet")
        assert code == 0, text
        assert (tmp_path / "caches" / "hotspot_RTX_3090.json").read_bytes() == first

    def test_status_without_manifest(self, tmp_path):
        code, text = self.run_cli("status", "--checkpoint-dir",
                                  str(tmp_path / "nothing"))
        assert code == 1
        assert "no manifest" in text


class TestCampaignDelegation:
    def test_parallel_campaign_matches_serial_campaign(self, benchmarks, gpus):
        selected_b = {name: benchmarks[name] for name in ("pnpoly", "hotspot")}
        selected_g = {"RTX_3090": gpus["RTX_3090"]}
        kwargs = dict(sample_size=SAMPLE_N, exhaustive_limit=EXHAUSTIVE_LIMIT, seed=7)
        serial = Campaign(selected_b, selected_g, **kwargs)
        parallel = Campaign(selected_b, selected_g,
                            executor=ParallelExecutor(workers=2), **kwargs)
        for key, cache in serial.all_caches().items():
            assert cache_bytes(parallel.all_caches()[key]) == cache_bytes(cache)

    def test_checkpointed_campaign_builds_pairs_lazily(self, benchmarks, gpus,
                                                       tmp_path):
        # Regression: per-key plans used to collide with the stored manifest on
        # the second lazily-built pair.  With a checkpoint the campaign executes
        # its full (stable) plan, so later accesses are pure cache hits.
        selected_b = {"pnpoly": benchmarks["pnpoly"]}
        selected_g = {name: gpus[name] for name in ("RTX_3090", "RTX_3060")}
        campaign = Campaign(selected_b, selected_g,
                            exhaustive_limit=EXHAUSTIVE_LIMIT,
                            checkpoint=tmp_path / "ckpt")
        first = campaign.cache("pnpoly", "RTX_3090")
        # Laziness holds under checkpointing: only the requested unit executed.
        store = CheckpointStore(tmp_path / "ckpt")
        by_unit = {(row["benchmark"], row["gpu"]): row
                   for row in store.status()["units"]}
        assert by_unit[("pnpoly", "RTX_3090")]["shards_completed"] > 0
        assert by_unit[("pnpoly", "RTX_3060")]["shards_completed"] == 0
        second = campaign.cache("pnpoly", "RTX_3060")  # must not raise
        assert first.gpu == "RTX_3090" and second.gpu == "RTX_3060"
        reference = Campaign(selected_b, selected_g,
                             exhaustive_limit=EXHAUSTIVE_LIMIT)
        assert cache_bytes(second) == cache_bytes(
            reference.cache("pnpoly", "RTX_3060"))

    def test_campaign_checkpoint_round_trip(self, benchmarks, gpus, tmp_path):
        selected_b = {"pnpoly": benchmarks["pnpoly"]}
        selected_g = {"RTX_3090": gpus["RTX_3090"]}
        first = Campaign(selected_b, selected_g, exhaustive_limit=EXHAUSTIVE_LIMIT,
                         checkpoint=tmp_path / "ckpt")
        reference = cache_bytes(first.cache("pnpoly", "RTX_3090"))
        # A second campaign over the same checkpoint loads fragments, never models.
        second = Campaign(selected_b, selected_g, exhaustive_limit=EXHAUSTIVE_LIMIT,
                          executor=_MustNotEvaluate(), checkpoint=tmp_path / "ckpt")
        assert cache_bytes(second.cache("pnpoly", "RTX_3090")) == reference


def _bound_tuner(problem, budget):
    """A tuner holding the run state ``tune`` sets up, so its evaluation
    primitives can be driven directly."""
    from repro.core.result import TuningResult

    tuner = RandomSearch(seed=0)
    tuner._problem = problem
    tuner._budget = budget
    tuner._result = TuningResult()
    tuner._track = [None, math.inf]
    return tuner


class TestBatchEvaluatePaths:
    def test_evaluate_index_run_matches_dict_path(self, pnpoly, gpu_3090):
        # A pre-validated index run must record what the campaign's column
        # path measures, duplicates included, and charge one evaluation each.
        space = pnpoly.space
        indices = space.sample_indices(40, rng=3).tolist()
        indices += indices[:5]  # duplicates
        budget = Budget(max_evaluations=42)
        fast_obs = _bound_tuner(pnpoly.problem(gpu_3090), budget).evaluate_index_run(indices)
        assert len(fast_obs) == 42
        assert ([dict(o.config) for o in fast_obs]
                == space.configs_at(np.asarray(indices[:42])))
        assert_measures_like(fast_obs, indices[:42],
                             campaign_measurement(pnpoly, gpu_3090, indices))
        assert budget.to_dict() == {"max_evaluations": 42, "evaluations_used": 42}

    @pytest.mark.parametrize("limit", [0, 1, 7, 45, None])
    def test_evaluate_index_run_stops_at_the_remaining_budget(self, pnpoly,
                                                              gpu_3090, limit):
        # A run evaluates min(len(run), remaining) indices, charges exactly that
        # many, and a run after exhaustion evaluates nothing.
        indices = pnpoly.space.sample_indices(45, rng=8)
        budget = Budget(max_evaluations=limit)
        tuner = _bound_tuner(pnpoly.problem(gpu_3090), budget)
        observations = tuner.evaluate_index_run(indices)
        expected = len(indices) if limit is None else min(len(indices), limit)
        assert len(observations) == len(tuner._result) == expected
        assert budget.evaluations_used == expected
        assert ([dict(o.config) for o in observations]
                == [pnpoly.space.config_at(i) for i in indices.tolist()[:expected]])
        valid = [(o.value, i) for o, i in zip(observations, indices.tolist())
                 if o.valid]
        best = min((value for value, _ in valid), default=None)
        assert tuner.best_index_so_far() == next(
            (i for value, i in valid if value == best), None)
        if limit is not None:
            assert tuner.evaluate_index_run(indices) == []
            assert budget.evaluations_used == expected

    def test_evaluate_indices_mask_matches_scalar_evaluate(self, benchmarks,
                                                           gpu_3090):
        # Without a validity hint the index path checks the constraints itself;
        # it must agree with the vectorized mask and with the campaign's column
        # path, constraint violations, launch failures and evaluation order
        # included.
        convolution = benchmarks["convolution"]
        space = convolution.space
        indices = np.random.default_rng(11).integers(0, space.cardinality, 40)
        mask = space.satisfied_mask(indices)
        assert mask.any() and not mask.all()
        index_problem = convolution.problem(gpu_3090)
        batch = [index_problem.evaluate_index(i) for i in indices.tolist()]
        assert_measures_like(batch, indices.tolist(),
                             campaign_measurement(convolution, gpu_3090, indices))
        for a, ok in zip(batch, mask.tolist()):
            if not ok:
                assert not a.valid and a.error.startswith("constraint violation")
        # The sample holds launch failures too, so their texts are compared.
        assert any(a.error.startswith("resource limit exceeded: ") for a in batch)
