"""Worker-process side of parallel campaign execution.

Shard workers never receive live benchmark objects: compiled constraint code objects
(and the closures built on them) do not pickle, and shipping them would tie the
protocol to one process-start method.  Instead a worker receives one picklable
*spec* per benchmark of the plan (``"module:factory"`` plus JSON kwargs, see
:class:`repro.core.registry.BenchmarkSpec`, resolved per unit by
:func:`repro.exec.planner.unit_spec`) and builds exactly those once per process in
:func:`init_worker`.  Built-in kernels, runtime-registered and synthetic scenarios
all arrive this way.  A shard task is then just
``(benchmark_name, gpu_name, index_array, with_noise)`` and its result the
``(values, codes, errors)`` columns of
:meth:`~repro.kernels.base.KernelBenchmark.evaluate_indices`.

Determinism: a rebuilt benchmark is value-identical to the parent's (spec
factories are pure constructors), configurations are decoded from mixed-radix
indices by the same columnar codec, and the noise model hashes with blake2b
(process-stable, unlike ``hash()``).  A worker therefore returns exactly the
columns the parent would have computed serially -- the byte-identity contract of
:mod:`repro.exec.executors`.

:func:`shard_worker_loop` is the long-lived pipe protocol the fault-tolerant
:class:`~repro.exec.executors.ParallelExecutor` drives -- one worker process per
slot, receiving ``(benchmark, gpu, indices, with_noise, fault)`` tuples, running
:func:`evaluate_shard` on each and answering ``("ok", (values, codes, errors))`` or
``("error", type_name, message, transient)``.  A dedicated process per in-flight
shard is what makes blame precise: a crash or hang can only ever belong to the one
shard its worker was evaluating.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.errors import ExecutionError, TransientExecutionError, is_transient

__all__ = ["init_worker", "evaluate_shard", "shard_worker_loop"]

#: Per-process registries, built by :func:`init_worker`.
_BENCHMARKS: dict[str, Any] = {}
_GPUS: dict[str, Any] = {}


def init_worker(benchmark_specs: Mapping[str, Any]) -> None:
    """Build the per-process benchmark/GPU registries.

    A worker only evaluates the index slices the parent sends and never
    enumerates a space, so it needs no feasible-set memo of its own.

    Parameters
    ----------
    benchmark_specs:
        Picklable specs of the plan's benchmarks, keyed by name (any
        :meth:`~repro.core.registry.BenchmarkSpec.parse` form).  Each is built
        fresh in this process, and nothing else is.
    """
    global _BENCHMARKS, _GPUS
    from repro.core.registry import BenchmarkSpec
    from repro.gpus.specs import all_gpus

    _BENCHMARKS = {name: BenchmarkSpec.parse(spec).build()
                   for name, spec in benchmark_specs.items()}
    _GPUS = all_gpus()


def _apply_worker_fault(fault: tuple[str, float]) -> None:
    """Realize an injected fault payload inside a worker process.

    The parent decided *whether* this attempt faults (from its deterministic
    :class:`~repro.exec.faults.FaultPlan`); the worker only realizes the outcome --
    a real hard exit, a real sleep, or a taxonomy exception.
    """
    from repro.exec.faults import FAULT_CRASH_EXIT_CODE

    kind, hang_seconds = fault
    if kind == "crash":
        # A real abrupt death: no exception, no cleanup, no reply on the pipe --
        # exactly what an OOM kill or node loss looks like to the parent.
        os._exit(FAULT_CRASH_EXIT_CODE)
    if kind == "hang":
        time.sleep(hang_seconds)
        # Only reached when the hang outlasts its purpose (no shard timeout armed);
        # fail transiently rather than hand back rows late.
        raise TransientExecutionError(
            f"injected hang woke after {hang_seconds}s without being killed")
    if kind == "transient":
        raise TransientExecutionError("injected transient fault")
    if kind == "permanent":
        raise ExecutionError("injected permanent fault")
    raise ExecutionError(f"unknown injected fault kind {kind!r}")


def evaluate_shard(benchmark_name: str, gpu_name: str,
                   indices: Sequence[int] | np.ndarray,
                   with_noise: bool = True,
                   fault: tuple[str, float] | None = None,
                   ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Evaluate one shard's columns in a process set up by :func:`init_worker`.

    ``fault`` is an optional injected-fault payload (see :mod:`repro.exec.faults`),
    applied *before* any evaluation so a faulted attempt never half-computes.
    """
    if fault is not None:
        _apply_worker_fault(fault)
    benchmark = _BENCHMARKS[benchmark_name]
    gpu = _GPUS[gpu_name]
    return benchmark.evaluate_indices(gpu, indices, with_noise=with_noise)


def shard_worker_loop(conn: Any, benchmark_specs: Mapping[str, Any]) -> None:
    """Long-lived worker: evaluate shard requests arriving on a pipe until EOF.

    The worker first builds ``benchmark_specs`` (see :func:`init_worker`).
    Protocol (one request, one reply, strictly alternating):

    * request: ``(benchmark_name, gpu_name, indices, with_noise, fault)`` --
      ``fault`` as in :func:`evaluate_shard`; or ``None`` to shut down cleanly.
    * reply: ``("ok", (values, codes, errors))`` on success, or
      ``("error", type_name, message, transient)`` when evaluation raised -- the
      exception is *described*, not pickled, so arbitrary benchmark exceptions
      can never poison the pipe.

    SIGINT is ignored: on a terminal Ctrl-C the parent (which does receive it)
    flushes completed shards and tears the pool down deliberately; workers dying
    first would turn a graceful stop into a storm of crash retries.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main-thread fallback
        pass
    init_worker(benchmark_specs)
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        if request is None:
            break
        benchmark_name, gpu_name, indices, with_noise, fault = request
        try:
            columns = evaluate_shard(benchmark_name, gpu_name, indices,
                                     with_noise=with_noise, fault=fault)
        except Exception as exc:
            reply = ("error", type(exc).__name__, str(exc), is_transient(exc))
        else:
            reply = ("ok", columns)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            break
