"""Append one point to the bench trajectory: every workload over several seeds.

Usage, from the root of a checkout::

    python3 bench/record.py --label <commit> [--seeds 10] [--first-seed 1]

Runs ``bench/run.py`` once per workload and seed, one after another, then once
traced.  For every metric it records the median and quartiles over the seeds
(``statistics.quantiles`` with ``n=4``) and prints each end-to-end metric's
spread -- the quartile distance as a share of the median, which the bounds in
``BENCHMARK.json`` are checked against.  The point, with the traced per-layer
breakdown, is appended to ``bench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END
from stats import quartiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRAJECTORY = BENCH / "trajectory.json"
WORKLOADS = ("campaign", "replay", "learn")


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict[str, tuple[float, str]]]:
    """One benchmark run: its result object and every ``<workload> <name> <value>
    <unit>`` report line, keyed by name, plus the run's own duration as ``run_s``."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--trace", str(trace)],
                         capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if out.returncode or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stdout}\n{out.stderr}")
    reported = {"run_s": (time.perf_counter() - start, "s")}
    for line in lines[1:-1]:
        parts = line.split()
        try:
            reported[parts[1]] = (float(parts[2]), parts[3])
        except (IndexError, ValueError):
            continue  # notes and failure lines
    return result, reported


def host() -> str:
    """CPU model, usable CPU count and Python version of the measuring machine."""
    model = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return (f"{model}, {len(os.sched_getaffinity(0))} CPUs, "
            f"Python {platform.python_version()}")


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    bounds = {m.name: m.bound for m in END_TO_END}

    point: dict = {"label": args.label, "host": host(), "seeds": list(seeds),
                   "workloads": {}}
    for workload in WORKLOADS:
        samples: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds:
            _, reported = run(workload, seed, trace=0)
            for name, (value, unit) in reported.items():
                samples.setdefault(name, []).append(value)
                units[name] = unit
        point["workloads"][workload] = {
            name: {**summary(values), "unit": units[name]} for name, values in samples.items()}
        for name, bound in bounds.items():
            s = point["workloads"][workload][name]
            spread = (s["q3"] - s["q1"]) / s["median"]
            print(f"{workload:<9} {name:<12} median {s['median']:12.4f} {s['unit']:<4} "
                  f"spread {spread:.3f}  bound {bound}", flush=True)
        runs = point["workloads"][workload]["run_s"]
        print(f"{workload:<9} one run takes {runs['median']:.1f} s "
              f"(max {max(samples['run_s']):.1f} s)", flush=True)
    result, reported = run("campaign", seeds[0], trace=1)
    point["per_layer"] = {"seed": seeds[0], "run_s": reported["run_s"][0], **{
        name: metric["value"] for name, metric in result["metrics"].items()}}
    print(f"traced    one run takes {reported['run_s'][0]:.1f} s", flush=True)

    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(point)
    TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
