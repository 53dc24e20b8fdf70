"""Parallel campaign execution.

The paper's evaluation is built entirely from per-(benchmark, GPU) campaign caches;
this subpackage is the execution layer that produces them at scale.  It splits a
campaign into deterministic shards (:mod:`repro.exec.planner`), evaluates them
serially or across a process pool (:mod:`repro.exec.executors`) with results
*byte-identical* to the serial reference, persists completed shards for resumable
runs (:mod:`repro.exec.checkpoint`), and exposes the whole thing as the suite's first
operational CLI (``python -m repro.exec``; see :mod:`repro.exec.cli`).

Quick start::

    from repro.exec import ParallelExecutor, ShardPlanner

    planner = ShardPlanner()
    caches = ParallelExecutor(workers=4).run(
        planner.plan(), benchmarks=planner.benchmarks, gpus=planner.gpus,
        checkpoint="ckpt/")

The division of labour mirrors worker-queue runner services: a *planner* that owns
the deterministic work breakdown, stateless *workers* that build each benchmark
from its picklable spec and evaluate index slices, a *checkpoint store* for
completed work units, and *executors* that merge in plan order.  Custom
benchmarks are first-class: anything registered through
:func:`repro.core.registry.register_benchmark` (e.g. the generated scenarios of
:mod:`repro.kernels.synthetic`) plans, runs in parallel and resumes exactly like
the built-in kernels -- its ``"module:factory"`` spec rides the plan manifest, so
``resume``/``status`` need no registration at all.  Multi-host
sharding only needs a new executor -- the plan, worker and checkpoint contracts
already hold.
"""

from repro.exec.checkpoint import CheckpointStore
from repro.exec.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    resume_campaign,
)
from repro.exec.faults import Fault, FaultPlan, corrupt_fragment
from repro.exec.progress import ShardProgressReporter
from repro.exec.retry import RetryPolicy
from repro.exec.planner import (
    DEFAULT_SHARD_SIZE,
    PAPER_SAMPLE_SIZE,
    PAPER_SAMPLED_BENCHMARKS,
    CampaignPlan,
    CampaignUnit,
    Shard,
    ShardPlanner,
)

__all__ = [
    "CampaignPlan", "CampaignUnit", "CheckpointStore", "Executor",
    "Fault", "FaultPlan", "ParallelExecutor", "RetryPolicy", "SerialExecutor",
    "Shard", "ShardPlanner", "corrupt_fragment",
    "resume_campaign", "ShardProgressReporter",
    "DEFAULT_SHARD_SIZE",
    "PAPER_SAMPLE_SIZE", "PAPER_SAMPLED_BENCHMARKS",
]
