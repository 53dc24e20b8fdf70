#!/usr/bin/env python3
"""Registering a custom benchmark and running it through ``repro.exec``.

The suite's benchmark registry is *open*: beyond the seven paper kernels, any factory
that mints a :class:`~repro.kernels.base.KernelBenchmark` can join -- registered as a
**picklable spec** (``"module:factory"`` plus JSON kwargs), never as a live object, so
worker processes can rebuild it by spec alone.  This walkthrough uses a generated
scenario from :mod:`repro.kernels.synthetic` and shows that a runtime-registered
benchmark is a first-class campaign citizen:

1. register a synthetic scenario with :func:`repro.register_benchmark`;
2. ``plan`` a campaign for it through the ``python -m repro.exec`` CLI;
3. ``run`` it serially and in parallel and verify the merged caches are
   *byte-identical*;
4. "crash" the checkpointed run and ``resume`` it -- with the registration gone, the
   spec recorded in the plan manifest rebuilds the scenario;
5. sweep a whole family of generated scenarios with ``run_matrix`` problem specs.

Every CLI call below is ``python -m repro.exec ...`` run in-process; the equivalent
shell command is printed first.  Run with::

    PYTHONPATH=src python examples/custom_benchmark.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from repro import get_benchmark, register_benchmark, unregister_benchmark
from repro.exec import CheckpointStore, ParallelExecutor, SerialExecutor, ShardPlanner
from repro.exec.cli import main as exec_cli
from repro.kernels.synthetic import FACTORY_SPEC


def run_cli(*argv: str) -> None:
    """Run one ``python -m repro.exec`` command in-process, echoing the shell form."""
    print(f"\n$ python -m repro.exec {' '.join(argv)}")
    code = exec_cli(list(argv))
    if code != 0:
        raise SystemExit(f"command failed with exit code {code}")


def main() -> None:
    gpu = "RTX_3090"
    scenario_kwargs = {"name": "demo_scn", "family": "coupled", "dimensions": 4,
                       "seed": 42, "constraint_density": 0.5, "failure_rate": 0.08}

    # ---------------------------------------------------------------- 1. register
    spec = register_benchmark("demo_scn", FACTORY_SPEC, **scenario_kwargs)
    benchmark = get_benchmark("demo_scn")
    print(f"registered {benchmark.name!r}: {benchmark.space.dimensions} parameters, "
          f"{benchmark.space.cardinality} configurations "
          f"({benchmark.space.count_constrained()} feasible)")
    print(f"spec: {json.dumps(spec.to_dict())}")

    # The CLI needs no registration at all -- a --benchmark-spec argument carries
    # the same spec, and the plan manifest records it.
    spec_argument = "demo_scn=" + json.dumps(spec.to_dict())

    # -------------------------------------------------------------------- 2. plan
    run_cli("plan", "--benchmark-spec", spec_argument,
            "--benchmarks", "demo_scn", "--gpus", gpu)

    # ------------------------------------------------- 3. serial vs parallel run
    planner = ShardPlanner({"demo_scn": benchmark}, gpus=None, shard_size=30)
    plan = planner.plan(units=[planner.unit_for("demo_scn", gpu)])
    serial = SerialExecutor().run(plan, benchmarks={"demo_scn": benchmark})
    parallel = ParallelExecutor(workers=2).run(plan, benchmarks={"demo_scn": benchmark})
    key = ("demo_scn", gpu)
    identical = (json.dumps(serial[key].to_dict())
                 == json.dumps(parallel[key].to_dict()))
    print(f"\nserial vs parallel caches byte-identical: {identical} "
          f"({len(serial[key])} entries, best {serial[key].optimum():.4f} ms)")
    if not identical:
        raise SystemExit("parallel cache diverged from the serial reference")

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = str(Path(tmp) / "ckpt")
        outdir = str(Path(tmp) / "caches")

        run_cli("run", "--benchmark-spec", spec_argument,
                "--benchmarks", "demo_scn", "--gpus", gpu,
                "--shard-size", "30", "--workers", "2",
                "--checkpoint-dir", ckpt, "--output-dir", outdir, "--quiet")
        first = (Path(outdir) / f"demo_scn_{gpu}.json").read_bytes()

        # ------------------------------------------------- 4. "crash" and resume
        store = CheckpointStore(ckpt)
        shards = store.load_plan().shards
        deleted = 0
        for shard in shards[::2]:
            if store.fragment_path(shard).exists():
                os.unlink(store.fragment_path(shard))
                deleted += 1
        print(f"\nsimulated crash: deleted {deleted} of "
              f"{len(shards)} shard fragments")
        if not deleted:
            raise SystemExit("found no shard fragments to delete; "
                             "the resume below would test nothing")
        # Drop the registration entirely: resume must rebuild the scenario from
        # the spec stored in the checkpoint manifest.
        unregister_benchmark("demo_scn")
        run_cli("status", "--checkpoint-dir", ckpt)
        run_cli("resume", "--checkpoint-dir", ckpt,
                "--output-dir", outdir, "--quiet")
        resumed = (Path(outdir) / f"demo_scn_{gpu}.json").read_bytes()
        print(f"resumed cache byte-identical to the uninterrupted run: "
              f"{resumed == first}")
        if resumed != first:
            raise SystemExit("resumed cache diverged from the uninterrupted run")

    # ------------------------------------------------------- 5. scenario sweeps
    from repro.core.runner import run_matrix
    from repro.kernels.synthetic import scenario_specs
    from repro.tuners.random_search import RandomSearch

    sweep = scenario_specs(4, base_seed=7, dimensions=3, failure_rate=0.0)
    for name, scenario_spec in sweep.items():
        register_benchmark(name, scenario_spec)
    try:
        results = run_matrix({"random": lambda seed=None: RandomSearch(seed=seed)},
                             {name: f"{name}@{gpu}" for name in sweep},
                             max_evaluations=30, seed=1)
        print("\nscenario sweep (random search, 30 evaluations):")
        for (tuner, problem), result in results.items():
            print(f"  {problem:>20}: best {result.best_value:.4f} ms")
    finally:
        for name in sweep:
            unregister_benchmark(name)


if __name__ == "__main__":
    sys.exit(main())
