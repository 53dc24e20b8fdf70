"""Benchmark of the suite's three jobs: build a campaign, replay it, learn from it.

Usage, from the root of a checkout::

    python3 bench/run.py --workload campaign|replay|learn|all \\
        [--seed 2023] [--seconds 5] [--trace 0|1]

An untraced run (``--trace 0``) sets up its workload several times, then repeats
timed passes until ``--seconds`` of pass time have been measured, checks every
pass's outputs, and prints each metric as ``<workload> <name> <value> <unit>``.
Meanwhile a reference job measures the host's speed (``refclock.py``), and the
gated times ``setup_s`` and ``pass_s`` are given at its nominal speed.
Its last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
the ``END_TO_END`` metrics.  ``--workload all`` runs the three workloads in turn
in one process (so each ``peak_rss_mb`` is the process peak so far) and ends
with one JSON object whose metric names carry the workload as a prefix.

A traced run (``--trace 1``) gives the per-layer breakdown.  The per-layer table
spans the layers of all three workloads, so it runs one untraced and one traced
pass of each, whichever ``--workload`` is named; it checks that the traced passes
produced the same outputs, writes the spans to ``.bench_out/`` and prints the
``PER_LAYER`` metrics.  ``--repin`` rewrites ``bench/pins.json`` with the
default seed's output digests instead of checking them.

The suite is imported from this checkout's ``src/``; without it the runner exits
with an error before printing any result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINS = BENCH / "pins.json"
DEFAULT_SEED = 2023
DEFAULT_SECONDS = 5

#: What a fresh interpreter imports before the runner can start a workload.
IMPORTS = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]; "
           "import metrics, traced, workloads")


def import_suite() -> None:
    """Import ``repro`` from this checkout and the runner's modules."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")
    import metrics  # noqa: F401
    import traced  # noqa: F401
    import workloads  # noqa: F401


def fresh_import() -> None:
    """Start an interpreter that imports what the runner imports, and wait for it.

    Each timed set-up includes one, so set-up time covers the imports a user pays
    on every run, repeated like the rest of the set-up."""
    subprocess.run([sys.executable, "-c", IMPORTS], check=True, cwd=ROOT)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_line(workload: str, name: str, value: float, unit: str, note: str = "") -> str:
    line = f"{workload:<9} {name:<36} {value:>16.6f} {unit}"
    return f"{line}  ({note})" if note else line


def run_workload(name: str, seed: int, seconds: float, pins: dict | None) -> dict:
    """One untraced run; prints its report lines and returns its result object."""
    from metrics import END_TO_END, RAW_TIMES, WORKLOAD_METRICS
    from passclock import PassClock
    from refclock import RefClock
    from stats import Ledger
    from workloads import SETUP_REPEATS, WORKLOADS, Env

    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    refclock = RefClock()
    env = Env(seed=seed, work=work, ledger=Ledger(), pins=pins, refclock=refclock)
    workload = WORKLOADS[name](env)
    setups: list = []
    timings: list = []
    try:
        with refclock:
            for i in range(SETUP_REPEATS[name]):
                directory = work / f"setup-{i}"
                directory.mkdir(parents=True)
                clock = PassClock(refclock.now, refclock.speed)
                with refclock.waiting():
                    fresh_import()
                clock.lap("import")
                workload.setup(directory, clock)
                setups.append(clock.finish())
                if i:
                    shutil.rmtree(work / f"setup-{i - 1}")
            measured = 0.0
            while not timings or measured < seconds:
                timing = workload.run_pass(len(timings))
                timings.append(timing)
                measured += timing.wall_s
    except Exception as exc:  # report the failure as a failed operation, then stop
        traceback.print_exc(file=sys.stderr)
        env.ledger.record("pass", False, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values: dict[str, tuple[float, str]] = {}
    if timings:
        setup_note = f"median of {len(setups)} set-ups"
        pass_note = f"median of {len(timings)} passes"
        values["setup_s"] = (statistics.median(t.nominal_s for t in setups), setup_note)
        values["pass_s"] = (statistics.median(t.nominal_s for t in timings), pass_note)
        values["peak_rss_mb"] = (peak_rss_mb(), "")
        values["setup_wall_s"] = (statistics.median(t.wall_s for t in setups), setup_note)
        values["wall_s"] = (statistics.median(t.wall_s for t in timings), pass_note)
        values["host_speed"] = (statistics.fmean(v for _, v in refclock.samples),
                                f"{len(refclock.samples)} reference jobs")
        values.update(workload.figures(timings))
    units = {m.name: m.unit for m in END_TO_END + RAW_TIMES + WORKLOAD_METRICS[name]}
    for metric, (value, note) in values.items():
        print(report_line(name, metric, value, units[metric], note))
    ledger = env.ledger
    print(report_line(name, "error_rate", ledger.error_rate, "failed/attempted ops",
                      f"{ledger.failed} of {ledger.attempted}"))
    for failure in ledger.failures:
        print(f"{name:<9} FAILED {failure}")
    return {"correct": ledger.failed == 0 and bool(timings),
            "attempted": max(ledger.attempted, 1), "failed": ledger.failed,
            "metrics": {m.name: {"value": values[m.name][0], "unit": m.unit}
                        for m in END_TO_END if m.name in values},
            "observed": env.observed}


def run_traced(seed: int, pins: dict | None) -> dict:
    """The per-layer breakdown: one untraced and one traced pass of each workload."""
    from metrics import PER_LAYER
    from spans import Tracer
    from stats import Ledger
    from traced import traced_run
    from workloads import Env

    work = ROOT / ".bench_work" / f"traced-{seed}-{os.getpid()}"
    env = Env(seed=seed, work=work, ledger=Ledger(), pins=pins)
    ledger = env.ledger
    tracer = Tracer()
    values: dict[str, float] = {}
    try:
        work.mkdir(parents=True)
        values = traced_run(env, tracer)
    except Exception as exc:  # report the failure as a failed operation, then stop
        traceback.print_exc(file=sys.stderr)
        ledger.record("traced run", False, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        spans_path = tracer.write(ROOT / ".bench_out" / f"spans-{seed}-{os.getpid()}.jsonl")

    by_name = {m.name: m for m in PER_LAYER}
    for name, value in values.items():
        metric = by_name[name]
        print(report_line(metric.workload, name, value, metric.unit,
                          f"moves {metric.moves}"))
    print(report_line("traced", "error_rate", ledger.error_rate, "failed/attempted ops",
                      f"{ledger.failed} of {ledger.attempted}"))
    for failure in ledger.failures:
        print(f"traced    FAILED {failure}")
    print(f"traced    spans written to {spans_path.relative_to(ROOT)}")
    return {"correct": ledger.failed == 0 and bool(values),
            "attempted": max(ledger.attempted, 1), "failed": ledger.failed,
            "metrics": {name: {"value": value, "unit": by_name[name].unit}
                        for name, value in values.items()},
            "observed": env.observed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "replay", "learn", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repin", action="store_true",
                        help="record the default seed's output digests in pins.json")
    args = parser.parse_args(argv)
    if args.repin and args.seed != DEFAULT_SEED:
        parser.error(f"--repin records the digests of seed {DEFAULT_SEED}")

    import_suite()
    pins = None
    if args.seed == DEFAULT_SEED and not args.repin:
        pins = json.loads(PINS.read_text(encoding="utf-8"))

    print(f"# seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"closed loop, 1 client, 1 process")
    if args.trace:
        results = [run_traced(args.seed, pins)]
    else:
        names = ("campaign", "replay", "learn") if args.workload == "all" else (args.workload,)
        results = [run_workload(name, args.seed, args.seconds, pins)
                   for name in names]

    correct = all(r["correct"] for r in results)
    if args.repin and correct:
        observed = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
        for result in results:
            observed.update(result["observed"])
        PINS.write_text(json.dumps(observed, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    if len(results) == 1:
        final = {key: results[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": correct,
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{name}.{metric}": value
                             for name, r in zip(names, results)
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
