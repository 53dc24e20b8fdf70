"""Command-line entry point of the campaign-execution subsystem.

``python -m repro.exec`` is the first operational surface of the suite: it plans,
runs, resumes and inspects measurement campaigns without writing any Python.

Subcommands
-----------

``plan``
    Print the deterministic shard plan of a campaign (units, counts, shards) without
    evaluating anything.
``run``
    Execute a campaign (serial, or parallel with ``--workers N``), optionally
    checkpointing shards and writing the merged caches as
    ``<benchmark>_<gpu>.json[.gz]`` files.
``resume``
    Finish an interrupted ``run`` from its checkpoint directory; only missing shards
    are evaluated (damaged fragments are discarded and re-executed) and the merged
    caches are byte-identical to an uninterrupted run.
``status``
    Show per-unit completion of a checkpoint directory, plus its retry/quarantine
    history.
``doctor``
    Integrity-check every fragment of a checkpoint directory against its manifest
    and report stale ``*.tmp`` litter left by interrupted writes; ``--fix``
    deletes the damaged fragments (so ``resume`` re-executes exactly those
    shards) and sweeps the litter.

Checkpoint fragments are always columnar (:mod:`repro.io.columnar`).  ``run`` and
``resume`` accept ``--cache-format {json,columnar}`` for the ``--output-dir``
caches only: ``json`` (the default for both) writes the interchange files;
``columnar`` writes the binary memory-mappable format (identical values,
~order-of-magnitude faster replay opens).  A checkpoint directory written by an
earlier release with JSON fragments is refused by ``resume``, ``status`` and
``doctor`` with exit code 1: finish it with that release, or start a fresh
directory.

Fault tolerance: ``run`` and ``resume`` accept ``--max-retries N`` (retry transient
shard failures on a deterministic backoff schedule, then quarantine instead of
aborting -- exit code 3 signals a completed-but-quarantined campaign) and
``--shard-timeout S`` (kill and retry shards stuck past a wall-clock deadline;
parallel runs only).  Ctrl-C and SIGTERM shut down gracefully: completed shards are
flushed to the checkpoint first, and exit code 130 marks the run resumable.

Examples
--------

::

    python -m repro.exec plan --benchmarks hotspot --gpus RTX_3090
    python -m repro.exec run --benchmarks hotspot,expdist --workers 4 \
        --max-retries 3 --shard-timeout 600 \
        --checkpoint-dir ckpt/ --output-dir caches/
    python -m repro.exec resume --checkpoint-dir ckpt/ --workers 4 --output-dir caches/
    python -m repro.exec status --checkpoint-dir ckpt/
    python -m repro.exec doctor --checkpoint-dir ckpt/ --fix

Custom benchmarks join a campaign by *spec* (no registration, no Python): the spec is
recorded into the plan manifest, so ``resume``/``status`` round-trip it::

    python -m repro.exec run --gpus RTX_3090 --workers 4 \
        --benchmark-spec 'scn={"factory": "repro.kernels.synthetic:create_benchmark",
                               "kwargs": {"name": "scn", "family": "coupled", "seed": 7}}' \
        --benchmarks scn --checkpoint-dir ckpt/
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import threading
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core.errors import ReproError, SerializationError
from repro.core.registry import (
    BenchmarkSpec,
    _normalize_benchmark_name,
    _require_matching_name,
)
from repro.exec.checkpoint import CheckpointStore
from repro.exec.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    resume_campaign,
)
from repro.exec.planner import PAPER_SAMPLE_SIZE, DEFAULT_SHARD_SIZE, ShardPlanner
from repro.exec.progress import ShardProgressReporter, format_duration
from repro.exec.retry import RetryPolicy

__all__ = ["main", "build_parser"]

#: Exit code of a campaign that completed but quarantined shards (their units are
#: withheld from the merged caches; `status`/`resume` show and finish them).
EXIT_QUARANTINED = 3

#: Exit code of an interrupted (Ctrl-C / SIGTERM) but resumable run -- 128+SIGINT,
#: the conventional shell encoding.
EXIT_INTERRUPTED = 130


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Translate SIGTERM into KeyboardInterrupt while a campaign runs.

    Schedulers and ``timeout(1)`` send SIGTERM; routing it through the same
    graceful-shutdown path as Ctrl-C means completed shards are flushed to the
    checkpoint and the run exits resumable instead of dying mid-write.  Signal
    handlers are main-thread-only; elsewhere (tests, embedding) this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError):  # pragma: no cover - restricted environment
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _names(raw: str | None, known: Sequence[str], kind: str) -> list[str] | None:
    """Parse a comma-separated name list, validating against the registry."""
    if raw is None:
        return None
    names = [part.strip() for part in raw.split(",") if part.strip()]
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ReproError(f"unknown {kind} {unknown}; known: {sorted(known)}")
    return names


def _select(mapping: Mapping[str, Any], names: list[str] | None) -> dict[str, Any]:
    if names is None:
        return dict(mapping)
    return {name: mapping[name] for name in names}


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--benchmarks", default=None, metavar="NAMES",
                        help="comma-separated benchmark names (default: the seven "
                             "paper kernels plus every registered or --benchmark-"
                             "spec'd custom benchmark)")
    parser.add_argument("--gpus", default=None, metavar="NAMES",
                        help="comma-separated GPU names (default: the paper's four)")
    parser.add_argument("--sample-size", type=int, default=PAPER_SAMPLE_SIZE,
                        help="unique configurations per sampled campaign "
                             "(default: %(default)s, the paper's design)")
    parser.add_argument("--exhaustive-limit", type=int, default=None,
                        help="sample any space whose cardinality exceeds this "
                             "(default: follow the paper exactly)")
    parser.add_argument("--seed", type=int, default=2023,
                        help="base campaign seed; each GPU gets seed+index "
                             "(default: %(default)s)")
    parser.add_argument("--no-noise", action="store_true",
                        help="disable the deterministic measurement-noise model")
    parser.add_argument("--shard-size", type=int, default=DEFAULT_SHARD_SIZE,
                        help="maximum configurations per shard (default: %(default)s)")
    parser.add_argument("--benchmark-spec", action="append", default=None,
                        dest="benchmark_specs", metavar="NAME=SPEC",
                        help="add a custom benchmark: NAME=MODULE:FACTORY or "
                             "NAME={\"factory\": ..., \"kwargs\": {...}} (JSON); "
                             "repeatable.  The spec is recorded in the plan "
                             "manifest, so resume/status need no registration.")


def _add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; 1 runs serially (default: %(default)s)")
    parser.add_argument("--output-dir", default=None, metavar="DIR",
                        help="write merged caches as <benchmark>_<gpu>.json[.gz] "
                             "(or .col) here")
    parser.add_argument("--compress", action="store_true",
                        help="gzip the cache files written to --output-dir "
                             "(JSON format only)")
    parser.add_argument("--cache-format", default="json",
                        choices=("json", "columnar"), metavar="FMT",
                        help="format of the --output-dir caches: 'json' "
                             "(interchange, the default) or 'columnar' (binary "
                             "memory-mappable columns, see repro.io.columnar).  "
                             "Checkpoint fragments are always columnar")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-shard progress lines")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="retry transiently failed shards up to N times on a "
                             "deterministic backoff schedule, then quarantine them "
                             "instead of aborting the campaign (default: fail fast "
                             "on the first shard error)")
    parser.add_argument("--shard-timeout", type=float, default=None, metavar="S",
                        help="wall-clock seconds one shard attempt may take; a "
                             "worker stuck past it is killed and the shard retried "
                             "(parallel runs only; default: no timeout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec",
        description="Plan, run, resume and inspect measurement campaigns.")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="print the shard plan of a campaign")
    _add_campaign_arguments(plan)

    run = sub.add_parser("run", help="execute a campaign")
    _add_campaign_arguments(run)
    _add_executor_arguments(run)
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="persist completed shards here for resume")

    resume = sub.add_parser("resume", help="finish an interrupted campaign")
    resume.add_argument("--checkpoint-dir", required=True, metavar="DIR")
    _add_executor_arguments(resume)

    status = sub.add_parser("status", help="show checkpoint completion")
    status.add_argument("--checkpoint-dir", required=True, metavar="DIR")

    doctor = sub.add_parser("doctor",
                            help="integrity-check checkpoint fragments")
    doctor.add_argument("--checkpoint-dir", required=True, metavar="DIR")
    doctor.add_argument("--fix", action="store_true",
                        help="delete damaged fragments so resume re-executes "
                             "exactly those shards")
    return parser


def _make_executor(args: argparse.Namespace) -> Executor:
    retry_policy = (RetryPolicy(max_retries=args.max_retries)
                    if args.max_retries is not None else None)
    if args.workers > 1:
        return ParallelExecutor(workers=args.workers, retry_policy=retry_policy,
                                shard_timeout=args.shard_timeout)
    return SerialExecutor(retry_policy=retry_policy)


def _parse_benchmark_spec(raw: str) -> tuple[str, BenchmarkSpec]:
    """Parse one ``--benchmark-spec`` argument into ``(name, spec)``."""
    from repro.kernels import BENCHMARK_NAMES

    name, sep, value = raw.partition("=")
    name = _normalize_benchmark_name(name)
    value = value.strip()
    if not sep or not name or not value:
        raise ReproError(
            f"--benchmark-spec expects NAME=MODULE:FACTORY or NAME=JSON, got {raw!r}")
    if name in BENCHMARK_NAMES:
        # Same guard register_benchmark enforces: a spec must never silently
        # replace a paper kernel (its caches would carry the kernel's name).
        raise ReproError(
            f"--benchmark-spec {name}: cannot shadow the built-in {name!r} kernel")
    if value.startswith("{"):
        try:
            data = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"--benchmark-spec {name}: invalid JSON spec ({exc})") from None
        if not isinstance(data, Mapping) or "factory" not in data:
            raise ReproError(
                f"--benchmark-spec {name}: JSON spec must be an object with a "
                f"'factory' key")
        return name, BenchmarkSpec.from_dict(data)
    return name, BenchmarkSpec(value)


def _planner_from_args(args: argparse.Namespace) -> ShardPlanner:
    from repro.core.registry import benchmark_spec, registered_benchmarks
    from repro.gpus.specs import all_gpus
    from repro.kernels import BENCHMARK_NAMES

    specs: dict[str, BenchmarkSpec] = {}
    for raw in args.benchmark_specs or ():
        name, spec = _parse_benchmark_spec(raw)
        specs[name] = spec
    # Known names in stable order: paper kernels, registered customs, spec'd
    # additions.  Only the *selected* benchmarks are constructed, so planning one
    # scenario stays cheap no matter how many are registered.  Selection tokens
    # get the same normalization the registry applies to spec names, so
    # `--benchmark-spec demo-scn=... --benchmarks demo-scn` agrees with itself.
    known = list(BENCHMARK_NAMES)
    known += [n for n in registered_benchmarks() if n not in known]
    known += [n for n in specs if n not in known]
    raw_selection = args.benchmarks
    if raw_selection is not None:
        raw_selection = ",".join(_normalize_benchmark_name(part)
                                 for part in raw_selection.split(",") if part.strip())
    selected = _names(raw_selection, known, "benchmarks")
    if selected is None:
        selected = known
    benchmarks = {name: (_require_matching_name(name, specs[name].build())
                         if name in specs else benchmark_spec(name).build())
                  for name in selected}
    gpus = all_gpus()
    return ShardPlanner(
        benchmarks=benchmarks,
        gpus=_select(gpus, _names(args.gpus, list(gpus), "GPUs")),
        sample_size=args.sample_size,
        exhaustive_limit=args.exhaustive_limit,
        seed=args.seed,
        with_noise=not args.no_noise,
        shard_size=args.shard_size,
        specs=specs,
    )


def _print_plan_table(plan, out) -> None:
    print(f"{'benchmark':>14} {'gpu':>12} {'mode':>16} {'seed':>6} "
          f"{'configs':>9} {'shards':>7}", file=out)
    for row in plan.summary_rows():
        print(f"{row['benchmark']:>14} {row['gpu']:>12} {row['mode']:>16} "
              f"{row['seed']:>6} {row['configs']:>9} {row['shards']:>7}", file=out)
    print(f"total: {plan.n_configs} configurations in {len(plan.shards)} shards "
          f"(shard size {plan.shard_size})", file=out)


def _write_caches(caches, output_dir: str, compress: bool, out,
                  cache_format: str) -> None:
    from repro.io.cachefile import save_cache
    from repro.io.columnar import COLUMNAR_SUFFIX

    if cache_format == "columnar":
        if compress:
            raise ReproError("--compress applies to JSON cache files only; "
                             "columnar files are binary and uncompressed")
        directory = Path(output_dir)
        for (benchmark, gpu), cache in caches.items():
            path = cache.to_columnar(
                directory / f"{benchmark}_{gpu}{COLUMNAR_SUFFIX}")
            print(f"wrote {path} ({len(cache)} entries)", file=out)
        return
    suffix = ".json.gz" if compress else ".json"
    directory = Path(output_dir)
    for (benchmark, gpu), cache in caches.items():
        path = save_cache(cache, directory / f"{benchmark}_{gpu}{suffix}")
        print(f"wrote {path} ({len(cache)} entries)", file=out)


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plan":
            _print_plan_table(_planner_from_args(args).plan(), out)
            return 0

        progress = None if getattr(args, "quiet", True) else ShardProgressReporter(
            emit=lambda line: print(line, file=out))

        if args.command == "run":
            planner = _planner_from_args(args)
            executor = _make_executor(args)
            checkpoint = (CheckpointStore(args.checkpoint_dir)
                          if args.checkpoint_dir else None)
            try:
                with _sigterm_as_interrupt():
                    caches = executor.run(
                        planner.plan(), benchmarks=planner.benchmarks,
                        gpus=planner.gpus, checkpoint=checkpoint,
                        progress=progress)
            except KeyboardInterrupt:
                _print_interrupted(args.checkpoint_dir, out)
                return EXIT_INTERRUPTED
            # Persist before summarising: a summary hiccup must never discard a
            # completed campaign's caches.
            if args.output_dir:
                _write_caches(caches, args.output_dir, args.compress, out,
                              args.cache_format)
            for (benchmark, gpu), cache in caches.items():
                best = (f"best {cache.optimum():.4f} ms" if cache.num_valid
                        else "no valid entries")
                print(f"{benchmark}/{gpu}: {len(cache)} entries, {best}", file=out)
            return _print_quarantine(executor, out)

        if args.command == "resume":
            store = _open_checkpoint(args.checkpoint_dir, out)
            if store is None:
                return 1
            executor = _make_executor(args)
            try:
                with _sigterm_as_interrupt():
                    caches = resume_campaign(store, executor=executor,
                                             progress=progress)
            except KeyboardInterrupt:
                _print_interrupted(args.checkpoint_dir, out)
                return EXIT_INTERRUPTED
            if args.output_dir:
                _write_caches(caches, args.output_dir, args.compress, out,
                              args.cache_format)
            for (benchmark, gpu), cache in caches.items():
                print(f"{benchmark}/{gpu}: {len(cache)} entries", file=out)
            return _print_quarantine(executor, out)

        if args.command == "doctor":
            store = _open_checkpoint(args.checkpoint_dir, out)
            if store is None:
                return 1
            report = store.verify_fragments()
            print(f"{len(report['ok'])} ok, {len(report['missing'])} missing, "
                  f"{len(report['damaged'])} damaged "
                  f"(of {report['shards_total']} shards), "
                  f"{len(report['stale_tmp'])} stale tmp file(s)", file=out)
            for record in report["damaged"]:
                print(f"damaged shard {record['shard_id']:>5} "
                      f"[{record['benchmark']}/{record['gpu']}]: "
                      f"{record['error']}", file=out)
            for tmp in report["stale_tmp"]:
                print(f"stale tmp {tmp} (leftover of an interrupted write; "
                      f"never read, safe to delete)", file=out)
            if not report["damaged"] and not report["stale_tmp"]:
                return 0
            if not args.fix:
                print("run again with --fix to delete the damaged fragments "
                      "(resume then re-executes exactly those shards) and sweep "
                      "the stale tmp litter", file=out)
                return 1
            for record in report["damaged"]:
                Path(record["path"]).unlink(missing_ok=True)
                print(f"deleted {record['path']}; shard {record['shard_id']} "
                      f"will re-execute on resume", file=out)
            for tmp in store.sweep_stale_tmp():
                print(f"swept {tmp}", file=out)
            return 0

        if args.command == "status":
            store = _open_checkpoint(args.checkpoint_dir, out)
            if store is None:
                return 1
            status = store.status()
            for row in status["units"]:
                print(f"{row['benchmark']:>14}/{row['gpu']:<12} "
                      f"shards {row['shards_completed']:>4}/{row['shards_total']:<4} "
                      f"configs {row['configs_completed']:>8}/{row['configs_total']:<8} "
                      f"{row['percent']:>5.1f}%",
                      file=out)
            summary = (f"total: {status['shards_completed']}/{status['shards_total']} "
                       f"shards, {status['configs_completed']}/"
                       f"{status['configs_total']} configs "
                       f"({status['percent']:.1f}%) complete")
            if "elapsed_s" in status:
                summary += (f"; active {format_duration(status['elapsed_s'])} "
                            f"at {status['configs_per_s']:.0f} configs/s")
                if status.get("sessions", 1) > 1:
                    summary += f" over {status['sessions']} sessions"
                if "eta_s" in status:
                    summary += f", eta {format_duration(status['eta_s'])}"
            print(summary, file=out)
            if status.get("retry_attempts"):
                print(f"retries: {status['retry_attempts']} attempt(s) across "
                      f"{status['retried_shards']} shard(s)", file=out)
            if status.get("repaired_shards"):
                print(f"repaired: {status['repaired_shards']} damaged fragment(s) "
                      f"discarded and re-executed", file=out)
            if status.get("quarantined_shards"):
                print(f"quarantined: {status['quarantined_shards']} shard(s)",
                      file=out)
                for record in status.get("quarantined", ()):
                    print(f"  shard {record['shard_id']:>5} "
                          f"[{record['benchmark']}/{record['gpu']}] "
                          f"{record['error_type']}: {record['error']}", file=out)
            return 0
    except ReproError as exc:
        print(f"error: {exc}", file=out)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def _open_checkpoint(directory: str, out) -> CheckpointStore | None:
    """The store of an existing checkpoint directory, or None (reported to
    ``out``) when it has no manifest or its manifest cannot be read -- e.g. a
    JSON-fragment checkpoint of an earlier release."""
    store = CheckpointStore(directory)
    if not store.has_manifest():
        print(f"no manifest in {directory}", file=out)
        return None
    try:
        store.load_plan()
    except SerializationError as exc:
        print(f"error: {exc}", file=out)
        return None
    return store


def _print_interrupted(checkpoint_dir: str | None, out) -> None:
    if checkpoint_dir:
        print(f"interrupted; completed shards are checkpointed in "
              f"{checkpoint_dir} -- finish with `python -m repro.exec resume "
              f"--checkpoint-dir {checkpoint_dir}`", file=out)
    else:
        print("interrupted; no --checkpoint-dir was given, so completed shards "
              "were not persisted", file=out)


def _print_quarantine(executor: Executor, out) -> int:
    """Summarize a finished run's quarantine; the exit code of run/resume."""
    if not executor.quarantine:
        return 0
    print(f"quarantined {len(executor.quarantine)} shard(s); their units are "
          f"withheld from the merged caches:", file=out)
    for record in executor.quarantine:
        print(f"  shard {record['shard_id']:>5} "
              f"[{record['benchmark']}/{record['gpu']} "
              f"{record['start']}:{record['stop']}] after {record['attempts']} "
              f"attempt(s): {record['error_type']}: {record['error']}", file=out)
    return EXIT_QUARANTINED
