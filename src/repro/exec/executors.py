"""Campaign executors: serial reference and process-pool parallel execution.

An executor takes a :class:`~repro.exec.planner.CampaignPlan` and produces the same
``{(benchmark, gpu): EvaluationCache}`` mapping the serial campaign code builds --
*byte-identical*, down to the JSON the caches serialize to.  The contract rests on
three facts the planner and worker modules establish:

1. each unit's evaluation order is a pure function of the campaign definition
   (ascending feasible set, or the seeded unique-sampling stream);
2. each configuration's measurement is a pure function of (benchmark, GPU,
   configuration) -- the noise model is hash-based and process-stable;
3. shards partition the evaluation order into contiguous slices, so merging rows in
   shard order reconstructs the serial insertion order exactly (including
   ``evaluation_index`` assignment).

:class:`SerialExecutor` evaluates shards in-process and is the reference
implementation; :class:`ParallelExecutor` drives one long-lived worker process per
slot over a pipe protocol (see :func:`repro.exec.worker.shard_worker_loop`).  Both
support checkpointing: every completed shard is persisted immediately, and shards
whose fragment already exists are loaded instead of re-evaluated -- which is all
"resume" means.

Fault tolerance (opt-in via ``retry_policy``/``shard_timeout``) is layered on the
same contracts:

* **retries** -- a shard whose attempt fails *transiently* (crashed worker, hung
  worker killed by its timeout, :class:`~repro.core.errors.TransientExecutionError`)
  is re-queued after a deterministic backoff
  (:class:`~repro.exec.retry.RetryPolicy`); because shard evaluation is a pure
  function of (benchmark, GPU, indices), a retried shard reproduces exactly the
  rows the failed attempt would have produced, so retries never threaten the
  byte-identical-merge contract;
* **timeouts** -- with ``shard_timeout`` set, the parallel executor arms a
  wall-clock deadline per in-flight shard; a worker that blows it is killed and
  respawned, and the shard is charged a transient failure.  One worker per
  in-flight shard is what makes blame precise -- a crash or hang can only belong
  to the one shard its worker was evaluating;
* **quarantine** -- permanent failures, and transient ones that exhaust the retry
  budget, quarantine their shard: the campaign completes, the affected *unit* is
  withheld from the merged caches (a cache with silently missing rows would be
  worse than no cache), and the structured records land on
  :attr:`Executor.quarantine` and in the checkpoint's ``health.json``;
* **healing** -- a checkpoint fragment that fails its integrity check on resume
  (:class:`~repro.core.errors.FragmentIntegrityError`) is discarded and its shard
  re-executed instead of merging corrupt rows.

Without a ``retry_policy`` the executors keep their original fail-fast behaviour:
the first shard error propagates.  :class:`~repro.exec.faults.FaultPlan` injection
hooks (chaos testing) thread through the same seams.
"""

from __future__ import annotations

import abc
import heapq
import itertools
import multiprocessing as mp
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as mp_wait
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.errors import (
    ExecutionError,
    ReproError,
    SerializationError,
    ShardTimeoutError,
    TransientExecutionError,
    WorkerCrashError,
    is_transient,
)
from repro.core.registry import BenchmarkSpec
from repro.exec.checkpoint import CheckpointStore, benchmark_fingerprint
from repro.exec.config import apply_memoize_threshold, resolve_memoize_threshold
from repro.exec.faults import FaultPlan, corrupt_fragment
from repro.exec.planner import CampaignPlan, CampaignUnit, Shard, ShardPlanner, unit_indices
from repro.exec.progress import ShardProgressReporter
from repro.exec.retry import RetryPolicy
from repro.exec.worker import shard_worker_loop
from repro.io.columnar import concat_fragment_columns

__all__ = ["Executor", "SerialExecutor", "ParallelExecutor", "run_campaign",
           "resume_campaign"]

#: Worker-reported exception names rebuilt as their taxonomy class in the parent.
_ERROR_TYPES: dict[str, type[Exception]] = {
    "ExecutionError": ExecutionError,
    "TransientExecutionError": TransientExecutionError,
    "WorkerCrashError": WorkerCrashError,
    "ShardTimeoutError": ShardTimeoutError,
}


def _rebuild_worker_error(type_name: str, message: str, transient: bool) -> Exception:
    """Parent-side counterpart of the worker protocol's error reply.

    Workers describe exceptions instead of pickling them (arbitrary benchmark
    exceptions may not pickle, and must never poison the pipe); taxonomy classes
    are rebuilt exactly, anything else becomes an :class:`ExecutionError` of the
    right transience with the original type name in the message.
    """
    cls = _ERROR_TYPES.get(type_name)
    if cls is not None:
        return cls(message)
    rebuilt = TransientExecutionError if transient else ExecutionError
    return rebuilt(f"{type_name}: {message}")

#: Either a plain per-shard line sink, or a reporter with ``begin``/``shard_done``
#: (e.g. :class:`~repro.exec.progress.ShardProgressReporter` for percent/ETA lines).
Progress = Callable[[str], None] | ShardProgressReporter


#: One shard's ``(values, codes, errors)``, as ``evaluate_indices`` returns them.
_Columns = tuple[np.ndarray, np.ndarray, list[str]]


@dataclass(frozen=True)
class _ShardTask:
    """One shard to evaluate, with everything an executor needs resolved."""

    shard: Shard
    unit: CampaignUnit
    benchmark: Any
    gpu: Any
    indices: np.ndarray


class Executor(abc.ABC):
    """Base class of campaign executors.

    Parameters
    ----------
    memoize_threshold:
        Explicit feasible-set memoization ceiling; None resolves through the
        ``REPRO_MEMOIZE_THRESHOLD`` environment variable (see
        :mod:`repro.exec.config`) and falls back to each space's default.
    retry_policy:
        Optional :class:`~repro.exec.retry.RetryPolicy`.  None (the default)
        keeps the original fail-fast behaviour: the first shard error raises.
        With a policy, transient failures are retried on its deterministic
        backoff schedule and exhausted/permanent failures quarantine their shard
        instead of aborting the campaign.
    shard_timeout:
        Optional wall-clock seconds one shard attempt may take.  Enforced by the
        :class:`ParallelExecutor` (the hung worker is killed and the shard
        charged a transient :class:`~repro.core.errors.ShardTimeoutError`); the
        in-process :class:`SerialExecutor` cannot preempt itself and ignores it.
    fault_plan:
        Optional :class:`~repro.exec.faults.FaultPlan` for chaos testing;
        consulted per shard attempt (``"worker"`` site) and per fragment save
        (``"fragment"`` site).

    Attributes
    ----------
    retry_counts:
        ``{shard_id: retries}`` of the last :meth:`run` (retried shards only).
    quarantine:
        Structured records of the shards the last :meth:`run` quarantined.
    repaired_shards:
        Shard ids whose damaged fragments the last :meth:`run` discarded and
        re-executed.
    """

    def __init__(self, memoize_threshold: int | None = None,
                 retry_policy: RetryPolicy | None = None,
                 shard_timeout: float | None = None,
                 fault_plan: FaultPlan | None = None):
        self.memoize_threshold = resolve_memoize_threshold(memoize_threshold)
        if shard_timeout is not None and shard_timeout <= 0:
            raise ReproError(f"shard_timeout must be positive, got {shard_timeout}")
        self.retry_policy = retry_policy
        self.shard_timeout = shard_timeout
        self.fault_plan = fault_plan
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        self._attempts: dict[int, int] = {}
        self._fragment_saves: dict[int, int] = {}
        self._note: Callable[[str], None] = lambda line: None
        self.retry_counts: dict[int, int] = {}
        self.quarantine: list[dict[str, Any]] = []
        self.repaired_shards: list[int] = []

    # ------------------------------------------------------------------ protocol

    @abc.abstractmethod
    def _run_shards(self, tasks: list[_ShardTask],
                    on_complete: Callable[[Shard, _Columns], None]) -> None:
        """Evaluate every task, invoking ``on_complete(shard, columns)`` per shard."""

    # ----------------------------------------------------------- fault tolerance

    def _fault_for(self, shard_id: int) -> Any:
        """The injected worker fault of this shard's *next* attempt, if any."""
        if self.fault_plan is None:
            return None
        return self.fault_plan.fault_at("worker", shard_id,
                                        self._attempts.get(shard_id, 0))

    def _handle_shard_failure(self, task: _ShardTask,
                              error: Exception) -> float | None:
        """Decide what a failed shard attempt means: raise, retry, or quarantine.

        Returns the backoff in seconds before the retry, or None when the shard
        was quarantined.  Without a retry policy the error simply propagates --
        the executors' original fail-fast contract.
        """
        shard = task.shard
        attempts = self._attempts.get(shard.shard_id, 0) + 1
        self._attempts[shard.shard_id] = attempts
        policy = self.retry_policy
        if policy is None:
            raise error
        transient = is_transient(error)
        if transient and attempts < policy.max_attempts:
            self.retry_counts[shard.shard_id] = attempts
            delay = policy.delay(shard.shard_id, attempts - 1)
            self._note(f"shard {shard.shard_id} failed transiently "
                       f"({type(error).__name__}: {error}); "
                       f"retry {attempts}/{policy.max_retries} in {delay:.2f}s")
            return delay
        self.quarantine.append({
            "shard_id": shard.shard_id, "benchmark": shard.benchmark,
            "gpu": shard.gpu, "start": shard.start, "stop": shard.stop,
            "fragment": shard.fragment_name, "attempts": attempts,
            "error_type": type(error).__name__, "error": str(error),
            "transient": transient,
        })
        self._note(f"shard {shard.shard_id} quarantined after {attempts} "
                   f"attempt(s): {type(error).__name__}: {error}")
        return None

    # ----------------------------------------------------------------------- run

    def run(self, plan: CampaignPlan,
            benchmarks: Mapping[str, Any] | None = None,
            gpus: Mapping[str, Any] | None = None,
            checkpoint: CheckpointStore | str | None = None,
            progress: Progress | None = None,
            only_units: Iterable[tuple[str, str]] | None = None,
            ) -> dict[tuple[str, str], EvaluationCache]:
        """Execute ``plan`` and return the merged caches keyed ``(benchmark, gpu)``.

        Parameters
        ----------
        plan:
            The shard plan to execute.
        benchmarks / gpus:
            Name->object mappings used for index decoding and merging (default: the
            registries).  Parallel workers always rebuild from the registries.
        checkpoint:
            Optional :class:`CheckpointStore` (or directory path): completed shards
            are persisted as fragments, and existing fragments are loaded instead of
            re-evaluated.
        progress:
            Optional callable receiving one human-readable line per completed shard.
        only_units:
            Optional subset of unit keys to execute and merge.  The checkpoint
            manifest still binds the *whole* plan (missing fragments are exactly
            what resume tolerates), which is how a checkpointed
            :class:`~repro.analysis.campaign.Campaign` stays lazy per pair.
        """
        self._reset_run_state()
        if benchmarks is None:
            # The open-registry default, resolved per plan unit.  A unit's own spec
            # is authoritative -- a same-named registration in this process may have
            # diverged from what the plan was built against, and workers rebuild
            # from the unit spec, so the parent must too -- and it is what lets
            # `resume` rebuild a custom scenario from the manifest alone, with
            # nothing registered.  Spec-free names resolve through the registry
            # (built-in kernels and registered customs); only the benchmarks the
            # plan actually references are constructed.
            from repro.core.registry import benchmark_spec
            benchmarks = {}
            for unit in plan.units:
                if unit.benchmark in benchmarks:
                    continue
                if unit.spec:
                    benchmarks[unit.benchmark] = BenchmarkSpec.from_dict(unit.spec).build()
                else:
                    spec = benchmark_spec(unit.benchmark)
                    if spec is not None:
                        benchmarks[unit.benchmark] = spec.build()
                    # Unknown names fall through to the `missing` check below.
        if gpus is None:
            from repro.gpus.specs import all_gpus
            gpus = all_gpus()
        missing = {u.benchmark for u in plan.units} - set(benchmarks)
        if missing:
            raise ReproError(f"plan references unknown benchmarks {sorted(missing)}")
        missing_gpus = {u.gpu for u in plan.units} - set(gpus)
        if missing_gpus:
            raise ReproError(f"plan references unknown GPUs {sorted(missing_gpus)}")
        if only_units is None:
            units = list(plan.units)
        else:
            selected = set(only_units)
            units = [u for u in plan.units if u.key in selected]
            unknown_units = selected - {u.key for u in plan.units}
            if unknown_units:
                raise ReproError(f"plan has no units {sorted(unknown_units)}")
        apply_memoize_threshold(
            (benchmarks[name].space for name in {u.benchmark for u in plan.units}),
            self.memoize_threshold)

        if isinstance(checkpoint, (str,)) or hasattr(checkpoint, "__fspath__"):
            checkpoint = CheckpointStore(checkpoint)
        if checkpoint is not None:
            checkpoint.initialize(plan, fingerprints={
                name: benchmark_fingerprint(benchmarks[name])
                for name in {u.benchmark for u in plan.units}})
            done = checkpoint.completed_shard_ids(plan)
        else:
            done = set()

        # Each unit's evaluation order is computed once, in the parent, and sliced
        # per shard -- workers only ever see raw index arrays.  Exhaustive units of
        # the same benchmark visit the same feasible set regardless of GPU, so that
        # array is computed once per benchmark, not once per unit.
        indices_by_unit: dict[tuple[str, str], np.ndarray] = {}
        exhaustive_by_benchmark: dict[str, np.ndarray] = {}
        for unit in units:
            if unit.exhaustive and unit.benchmark in exhaustive_by_benchmark:
                indices_by_unit[unit.key] = exhaustive_by_benchmark[unit.benchmark]
            else:
                indices_by_unit[unit.key] = unit_indices(
                    benchmarks[unit.benchmark].space, unit)
                if unit.exhaustive:
                    exhaustive_by_benchmark[unit.benchmark] = indices_by_unit[unit.key]
            if indices_by_unit[unit.key].size != unit.n_configs:
                raise ReproError(
                    f"unit {unit.key} produced {indices_by_unit[unit.key].size} "
                    f"indices, plan expects {unit.n_configs}; the plan was built "
                    f"against a different space or seed")

        units_by_key = {u.key: u for u in units}
        columns_by_shard: dict[int, _Columns] = {}
        tasks: list[_ShardTask] = []
        selected_shards: list[Shard] = []
        heal_notes: list[str] = []
        for shard in plan.shards:
            if shard.unit_key not in units_by_key:
                continue
            selected_shards.append(shard)
            if shard.shard_id in done:
                try:
                    columns_by_shard[shard.shard_id] = (
                        checkpoint.load_shard_columns(shard))
                    continue
                except SerializationError as exc:
                    # Heal instead of dying: a fragment that is damaged (or
                    # describes the wrong shard) is discarded and its shard
                    # re-executed -- re-evaluation reproduces the exact rows, so
                    # the merge stays byte-identical.
                    checkpoint.fragment_path(shard).unlink(missing_ok=True)
                    done.discard(shard.shard_id)
                    self.repaired_shards.append(shard.shard_id)
                    heal_notes.append(
                        f"discarded damaged fragment of shard {shard.shard_id} "
                        f"({exc}); re-executing")
            unit = units_by_key[shard.unit_key]
            tasks.append(_ShardTask(
                shard=shard, unit=unit,
                benchmark=benchmarks[shard.benchmark], gpu=gpus[shard.gpu],
                indices=indices_by_unit[shard.unit_key][shard.start:shard.stop]))

        reporter = progress if isinstance(progress, ShardProgressReporter) else None
        if reporter is not None:
            reporter.begin(plan, selected_shards,
                           {s.shard_id for s in selected_shards
                            if s.shard_id in done})
            self._note = reporter.note
        elif progress is not None:
            self._note = progress
        for line in heal_notes:
            self._note(line)

        def on_complete(shard: Shard, columns: _Columns) -> None:
            if len(columns[0]) != shard.n_configs:
                raise ReproError(
                    f"shard {shard.shard_id} returned {len(columns[0])} rows, "
                    f"expected {shard.n_configs}")
            columns_by_shard[shard.shard_id] = columns
            if checkpoint is not None:
                path = checkpoint.save_shard_columns(shard, *columns)
                if self.fault_plan is not None:
                    save_count = self._fragment_saves.get(shard.shard_id, 0)
                    self._fragment_saves[shard.shard_id] = save_count + 1
                    fault = self.fault_plan.fault_at("fragment", shard.shard_id,
                                                     save_count)
                    if fault is not None:
                        corrupt_fragment(path, fault.kind)
            if reporter is not None:
                reporter.shard_done(shard)
            elif progress is not None:
                progress(f"shard {shard.shard_id:>5} done  "
                         f"[{shard.benchmark}/{shard.gpu} "
                         f"{shard.start}:{shard.stop}]")

        if tasks:
            try:
                self._run_shards(tasks, on_complete)
            finally:
                # Health lands even when the run is interrupted or fails fast,
                # so a later `status`/`resume` sees what this session survived.
                if checkpoint is not None and (
                        self.retry_counts or self.quarantine
                        or self.repaired_shards or checkpoint.has_health()):
                    checkpoint.record_health(self.retry_counts, self.quarantine,
                                             self.repaired_shards)

        if self.quarantine:
            # A unit with quarantined shards is withheld from the merge entirely:
            # a cache with silently missing rows would masquerade as complete.
            # Its healthy fragments stay on disk for a later resume.
            withheld = {(r["benchmark"], r["gpu"]) for r in self.quarantine}
            units = [u for u in units if u.key not in withheld]
        return self._merge(plan, units, benchmarks, gpus, indices_by_unit,
                           columns_by_shard)

    # --------------------------------------------------------------------- merge

    @staticmethod
    def _merge(plan: CampaignPlan, units: list[CampaignUnit],
               benchmarks: Mapping[str, Any], gpus: Mapping[str, Any],
               indices_by_unit: Mapping[tuple[str, str], np.ndarray],
               columns_by_shard: Mapping[int, _Columns],
               ) -> dict[tuple[str, str], EvaluationCache]:
        """Merge shard columns into campaign caches, in serial insertion order.

        ``plan.shards_of`` yields shards sorted by start offset -- evaluation
        order, never completion order -- which is what makes the merge (and the
        bytes of anything serialized from it) independent of scheduling.

        One path for every unit, whether its shards were evaluated in this run
        or loaded from the checkpoint: the value/code columns are concatenated
        in shard order with one error-table re-intern
        (:func:`repro.io.columnar.concat_fragment_columns`) and adopted by the
        cache wholesale (:meth:`~repro.core.cache.EvaluationCache.attach_columns`),
        without decoding a single row.
        """
        caches: dict[tuple[str, str], EvaluationCache] = {}
        for unit in units:
            cache = benchmarks[unit.benchmark].new_cache(gpus[unit.gpu],
                                                        sample_size=unit.sample_size)
            cache.attach_columns(indices_by_unit[unit.key], *concat_fragment_columns(
                [columns_by_shard[s.shard_id] for s in plan.shards_of(unit)]))
            caches[unit.key] = cache
        return caches


class SerialExecutor(Executor):
    """Reference executor: evaluates every shard in-process, in plan order.

    Byte-identical to :meth:`KernelBenchmark.build_cache` per unit (asserted by
    tests); exists so the parallel path has a same-code-path baseline to be compared
    against, and so checkpointing/resume work without a worker pool.  A shard is
    evaluated as the columns a worker replies with, so the merge has one path.

    Fault semantics in-process: injected worker faults are *simulated* (the
    taxonomy exception the parallel parent would observe is raised -- a serial
    executor cannot survive a real ``os._exit`` or preempt a real hang), so retry
    and quarantine decisions match the parallel executor's exactly.
    """

    def _run_shards(self, tasks, on_complete):
        queue = deque(tasks)
        while queue:
            task = queue.popleft()
            fault = self._fault_for(task.shard.shard_id)
            try:
                if fault is not None:
                    raise fault.to_exception()
                columns = task.benchmark.evaluate_indices(
                    task.gpu, task.indices, with_noise=task.unit.with_noise)
            except Exception as error:
                delay = self._handle_shard_failure(task, error)
                if delay is None:
                    continue  # quarantined; the campaign moves on
                if delay > 0:
                    time.sleep(delay)
                queue.appendleft(task)
                continue
            on_complete(task.shard, columns)


class _ShardWorker:
    """One worker process and its command pipe -- one slot of the parallel pool.

    A dedicated process per in-flight shard is the load-bearing design decision of
    the fault-tolerant executor: when a process dies or hangs, exactly one shard
    can be blamed, killed and retried, and the other slots keep working.  (A shared
    ``ProcessPoolExecutor`` fails *every* in-flight future on one crash and cannot
    cancel a running task at all.)
    """

    def __init__(self, ctx: Any, slot: int, memoize_threshold: int | None,
                 workload_overrides: Mapping[str, Mapping[str, Any]] | None,
                 benchmark_specs: Mapping[str, Any] | None):
        self.slot = slot
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=shard_worker_loop,
            args=(child_conn, memoize_threshold, workload_overrides,
                  benchmark_specs),
            daemon=True, name=f"repro-shard-worker-{slot}")
        self.process.start()
        child_conn.close()
        self.task: _ShardTask | None = None
        self.deadline: float | None = None

    @property
    def busy(self) -> bool:
        return self.task is not None

    def submit(self, task: _ShardTask, fault_payload: tuple[str, float] | None,
               timeout: float | None) -> None:
        self.conn.send((task.shard.benchmark, task.shard.gpu, task.indices,
                        task.unit.with_noise, fault_payload))
        self.task = task
        self.deadline = (time.monotonic() + timeout) if timeout is not None else None

    def finish(self) -> _ShardTask:
        task = self.task
        self.task = None
        self.deadline = None
        return task

    def stop(self) -> None:
        """Graceful shutdown of an idle worker (protocol EOF, then join)."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck teardown
            self.process.terminate()
            self.process.join(timeout=5.0)
        self.conn.close()

    def retire(self) -> None:
        """Hard kill: the worker crashed, hung, or the run is being aborted."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # pragma: no cover - SIGTERM ignored
                self.process.kill()
                self.process.join(timeout=5.0)
        else:
            self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class ParallelExecutor(Executor):
    """Multi-process executor: fans shards out over long-lived worker processes.

    Parameters
    ----------
    workers:
        Pool size (the paper-scale campaign saturates at ~#physical-cores).
    memoize_threshold:
        See :class:`Executor`; forwarded to worker initializers.
    workload_overrides:
        Per-benchmark factory keyword overrides forwarded to workers, for callers
        that run non-default workloads (must match the parent's ``benchmarks``
        mapping or rows will diverge from the serial path).
    mp_context:
        Optional :mod:`multiprocessing` context (e.g. ``get_context("spawn")``).
    retry_policy / shard_timeout / fault_plan:
        See :class:`Executor`.  This executor is where ``shard_timeout`` has
        teeth: every in-flight shard carries a wall-clock deadline, and a worker
        that blows it is killed and respawned while its shard is charged a
        transient failure.

    Notes
    -----
    Workers rebuild benchmarks *by name* from the registry or *by spec* (a
    ``"module:factory"`` description carried by the plan's units or supplied by
    :func:`repro.core.registry.register_benchmark`), so every benchmark in the plan
    must be one or the other; anonymous live benchmark objects require the
    :class:`SerialExecutor` (or registration).

    On interruption (Ctrl-C / SIGTERM translated to :class:`KeyboardInterrupt`)
    the executor flushes results its workers have already sent -- their fragments
    land on disk -- before tearing the pool down, so an interrupted checkpointed
    campaign loses at most the shards that were genuinely mid-evaluation.
    """

    def __init__(self, workers: int = 4, memoize_threshold: int | None = None,
                 workload_overrides: Mapping[str, Mapping[str, Any]] | None = None,
                 mp_context: Any = None,
                 retry_policy: RetryPolicy | None = None,
                 shard_timeout: float | None = None,
                 fault_plan: FaultPlan | None = None):
        super().__init__(memoize_threshold=memoize_threshold,
                         retry_policy=retry_policy, shard_timeout=shard_timeout,
                         fault_plan=fault_plan)
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.workload_overrides = ({k: dict(v) for k, v in workload_overrides.items()}
                                   if workload_overrides else None)
        self.mp_context = mp_context

    def _check_registry_resolvable(self, tasks: list[_ShardTask]
                                   ) -> dict[str, dict[str, Any]] | None:
        """Workers must be able to rebuild *these exact* benchmarks by name or spec.

        Built-in kernel names resolve through :func:`repro.kernels.all_benchmarks`;
        any other name needs a picklable spec, taken from the plan's units first
        and the open registry second.  A name (or spec) collision is not enough:
        a caller's benchmark object carrying a custom workload or a diverged space
        would be silently replaced by the rebuild in every worker, so the parent's
        objects are compared against what :func:`init_worker` will construct and
        any mismatch is refused loudly.  Returns the spec dictionaries to ship to
        the worker initializer (None when every benchmark is built-in).
        """
        from repro.core.registry import registered_benchmarks
        from repro.kernels import BENCHMARK_NAMES, all_benchmarks

        by_name = {t.shard.benchmark: t.benchmark for t in tasks}
        specs: dict[str, dict[str, Any]] = {}
        for task in tasks:
            if task.unit.spec and task.shard.benchmark not in specs:
                specs[task.shard.benchmark] = dict(task.unit.spec)
        registered = None
        unknown = []
        for name in by_name:
            if name in BENCHMARK_NAMES or name in specs:
                continue
            if registered is None:
                registered = registered_benchmarks()
            if name in registered:
                specs[name] = registered[name].to_dict()
            else:
                unknown.append(name)
        if unknown:
            raise ReproError(
                f"ParallelExecutor workers rebuild benchmarks from the registry (or "
                f"from picklable specs) and cannot resolve {sorted(unknown)}; "
                f"register them with repro.core.registry.register_benchmark (or "
                f"pass specs= to ShardPlanner), or use SerialExecutor for "
                f"anonymous benchmark objects")
        builtin = [name for name in by_name if name not in specs]
        rebuilt: dict[str, Any] = (all_benchmarks(**(self.workload_overrides or {}))
                                   if builtin else {})
        for name, spec in specs.items():
            rebuilt[name] = BenchmarkSpec.from_dict(spec).build()
        for name, benchmark in by_name.items():
            if (benchmark.name != rebuilt[name].name
                    or dict(benchmark.workload.sizes) != dict(rebuilt[name].workload.sizes)
                    or benchmark.space.to_dict() != rebuilt[name].space.to_dict()):
                hint = ("pass matching workload_overrides= to ParallelExecutor"
                        if name not in specs else
                        "re-register it so the spec matches the object")
                raise ReproError(
                    f"benchmark {name!r} differs from what workers would rebuild "
                    f"(custom workload or space under a registry name); {hint}, "
                    f"or use SerialExecutor")
        return specs or None

    def _run_shards(self, tasks, on_complete):
        benchmark_specs = self._check_registry_resolvable(tasks)
        ctx = self.mp_context if self.mp_context is not None else mp.get_context()

        def spawn(slot: int) -> _ShardWorker:
            return _ShardWorker(ctx, slot, self.memoize_threshold,
                                self.workload_overrides, benchmark_specs)

        workers = [spawn(slot) for slot in range(min(self.workers, len(tasks)))]
        ready: deque[_ShardTask] = deque(tasks)
        delayed: list[tuple[float, int, _ShardTask]] = []  # (wake, seq, task) heap
        seq = itertools.count()
        remaining = len(tasks)

        def respawn(worker: _ShardWorker) -> None:
            slot = workers.index(worker)
            worker.retire()
            workers[slot] = spawn(worker.slot)

        def schedule_failure(task: _ShardTask, error: Exception) -> None:
            nonlocal remaining
            delay = self._handle_shard_failure(task, error)
            if delay is None:
                remaining -= 1  # quarantined; nothing left to run for this shard
            elif delay > 0:
                heapq.heappush(delayed,
                               (time.monotonic() + delay, next(seq), task))
            else:
                ready.append(task)

        def collect(worker: _ShardWorker) -> None:
            """A busy worker's pipe or sentinel fired: reap its result or death."""
            nonlocal remaining
            try:
                has_reply = worker.conn.poll(0)
            except (EOFError, OSError):
                has_reply = False
            if has_reply:
                try:
                    reply = worker.conn.recv()
                except (EOFError, OSError):
                    has_reply = False
            if not has_reply:
                # The sentinel fired with no buffered reply: the process died
                # mid-shard (crash fault, OOM kill, signal).
                exit_code = worker.process.exitcode
                task = worker.finish()
                respawn(worker)
                schedule_failure(task, WorkerCrashError(
                    f"worker died evaluating shard {task.shard.shard_id} "
                    f"(exit code {exit_code})", exit_code=exit_code))
                return
            task = worker.finish()
            if reply[0] == "ok":
                on_complete(task.shard, reply[1])
                remaining -= 1
            else:
                _, type_name, message, transient = reply
                schedule_failure(
                    task, _rebuild_worker_error(type_name, message, transient))

        def kill_hung(worker: _ShardWorker) -> None:
            task = worker.finish()
            respawn(worker)
            schedule_failure(task, ShardTimeoutError(
                f"shard {task.shard.shard_id} exceeded its "
                f"{self.shard_timeout}s wall-clock timeout; worker killed",
                timeout=self.shard_timeout))

        def flush_and_stop() -> None:
            # Interrupted: harvest replies the workers have already sent so their
            # fragments land on disk, then tear everything down.  Failure replies
            # are dropped -- no retrying on the way out.
            for worker in workers:
                if not worker.busy:
                    continue
                try:
                    if not worker.conn.poll(0.05):
                        continue
                    reply = worker.conn.recv()
                except (EOFError, OSError):
                    continue
                if reply[0] == "ok":
                    try:
                        on_complete(worker.finish().shard, reply[1])
                    # repro: allow[RPL004] interrupt teardown: the fragment (saved
                    # first inside on_complete) is what matters on the way out; a
                    # raising progress sink must not abort the flush or mask the
                    # interrupt
                    except Exception:
                        pass
            for worker in workers:
                worker.retire()

        try:
            while remaining > 0:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    ready.append(heapq.heappop(delayed)[2])
                for worker in workers:
                    if not ready:
                        break
                    if worker.busy:
                        continue
                    task = ready.popleft()
                    fault = self._fault_for(task.shard.shard_id)
                    try:
                        worker.submit(
                            task, fault.payload() if fault is not None else None,
                            self.shard_timeout)
                    except (BrokenPipeError, OSError):
                        # Died between shards (its last reply still counted);
                        # not the task's fault -- requeue without charging it.
                        ready.appendleft(task)
                        respawn(worker)
                busy = [w for w in workers if w.busy]
                if not busy:
                    if ready:
                        continue
                    if delayed:
                        time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                        continue
                    break  # everything left was quarantined
                timeout = None
                deadlines = [w.deadline for w in busy if w.deadline is not None]
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.monotonic())
                if delayed:
                    wake = max(0.0, delayed[0][0] - time.monotonic())
                    timeout = wake if timeout is None else min(timeout, wake)
                fired = set(mp_wait(
                    [w.conn for w in busy] + [w.process.sentinel for w in busy],
                    timeout))
                for worker in busy:
                    if worker.conn in fired or worker.process.sentinel in fired:
                        collect(worker)
                now = time.monotonic()
                for worker in workers:
                    if (worker.busy and worker.deadline is not None
                            and now >= worker.deadline):
                        # Prefer a reply racing in right at the deadline over
                        # killing a worker that actually finished.
                        try:
                            racing = worker.conn.poll(0)
                        except (EOFError, OSError):
                            racing = False
                        if racing:
                            collect(worker)
                        else:
                            kill_hung(worker)
            for worker in workers:
                worker.stop()
        except BaseException:
            flush_and_stop()
            raise


# ------------------------------------------------------------------- conveniences


def run_campaign(benchmarks: Mapping[str, Any] | None = None,
                 gpus: Mapping[str, Any] | None = None,
                 sample_size: int | None = None,
                 exhaustive_limit: int | None = None,
                 seed: int = 2023, with_noise: bool = True,
                 shard_size: int | None = None,
                 executor: Executor | None = None,
                 checkpoint: CheckpointStore | str | None = None,
                 progress: Progress | None = None,
                 ) -> dict[tuple[str, str], EvaluationCache]:
    """Plan and execute a campaign in one call (the API behind the ``run`` CLI)."""
    planner_kwargs: dict[str, Any] = {
        "benchmarks": benchmarks, "gpus": gpus, "exhaustive_limit": exhaustive_limit,
        "seed": seed, "with_noise": with_noise,
    }
    if sample_size is not None:
        planner_kwargs["sample_size"] = sample_size
    if shard_size is not None:
        planner_kwargs["shard_size"] = shard_size
    planner = ShardPlanner(**planner_kwargs)
    executor = executor or SerialExecutor()
    return executor.run(planner.plan(), benchmarks=planner.benchmarks,
                        gpus=planner.gpus, checkpoint=checkpoint, progress=progress)


def resume_campaign(checkpoint: CheckpointStore | str,
                    executor: Executor | None = None,
                    benchmarks: Mapping[str, Any] | None = None,
                    gpus: Mapping[str, Any] | None = None,
                    progress: Progress | None = None,
                    ) -> dict[tuple[str, str], EvaluationCache]:
    """Finish an interrupted campaign from its checkpoint directory.

    The plan is read back from the manifest; shards with an existing fragment are
    loaded, the rest are evaluated, and the merged caches are byte-identical to an
    uninterrupted run.
    """
    if not isinstance(checkpoint, CheckpointStore):
        checkpoint = CheckpointStore(checkpoint)
    plan = checkpoint.load_plan()
    executor = executor or SerialExecutor()
    return executor.run(plan, benchmarks=benchmarks, gpus=gpus,
                        checkpoint=checkpoint, progress=progress)
