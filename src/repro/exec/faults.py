"""Deterministic fault injection for chaos-testing campaign execution.

A :class:`FaultPlan` names exactly which faults strike which shards on which
attempts, so a chaos test (or a reproduction of a production incident) is a pure
function of its plan -- run it twice and the same workers crash, the same shards
hang, the same fragments rot.  The executors consult the plan at two sites:

``"worker"``
    Applied to a shard attempt.  In the :class:`~repro.exec.executors.ParallelExecutor`
    the fault payload ships to the worker process, which *really* crashes
    (``os._exit``), hangs (``time.sleep``) or raises; the
    :class:`~repro.exec.executors.SerialExecutor` simulates the same outcomes
    in-process by raising the taxonomy exception the parallel parent would observe.
``"fragment"``
    Applied to a checkpoint fragment right after it is written: the file is
    truncated, bit-flipped or value-tampered on disk, exercising the
    checksum/integrity detection and the heal-on-resume path.

Fault kinds
-----------

==========  =========  ===========================================================
site        kind       effect
==========  =========  ===========================================================
worker      crash      worker process exits hard (transient: retried)
worker      hang       worker sleeps ``hang_seconds`` (killed by the shard timeout)
worker      transient  raises :class:`~repro.core.errors.TransientExecutionError`
worker      permanent  raises :class:`~repro.core.errors.ExecutionError` (quarantined
                       immediately -- retrying a permanent failure is pointless)
fragment    truncate   fragment file cut to half its bytes
fragment    bitflip    one bit flipped inside the column data
fragment    tamper     a row value edited, header kept valid (checksum must catch it)
==========  =========  ===========================================================

The standing contract the chaos suite asserts: under every one of these, the merged
:class:`~repro.core.cache.EvaluationCache` is byte-identical to the serial no-fault
run (or the affected unit is quarantined deterministically).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.core.errors import (
    ExecutionError,
    ReproError,
    ShardTimeoutError,
    TransientExecutionError,
    WorkerCrashError,
)
from repro.io.columnar import peek_columnar_header

__all__ = ["Fault", "FaultPlan", "corrupt_fragment",
           "WORKER_FAULT_KINDS", "FRAGMENT_FAULT_KINDS"]

#: Fault kinds applicable at the ``"worker"`` site.
WORKER_FAULT_KINDS: tuple[str, ...] = ("crash", "hang", "transient", "permanent")

#: Fault kinds applicable at the ``"fragment"`` site.
FRAGMENT_FAULT_KINDS: tuple[str, ...] = ("truncate", "bitflip", "tamper")

#: Exit code of an injected worker crash (recognizable in worker post-mortems).
FAULT_CRASH_EXIT_CODE = 57


@dataclass(frozen=True)
class Fault:
    """One injected fault: a ``kind`` striking ``shard_id`` at ``site``.

    ``attempts`` lists the 0-based attempt numbers the fault strikes on (for the
    ``"fragment"`` site: the 0-based save count), so "fails once then succeeds"
    and "fails every attempt" are both expressible.
    """

    site: str
    kind: str
    shard_id: int
    attempts: tuple[int, ...] = (0,)
    hang_seconds: float = 3600.0

    def __post_init__(self):
        if self.site == "worker":
            allowed = WORKER_FAULT_KINDS
        elif self.site == "fragment":
            allowed = FRAGMENT_FAULT_KINDS
        else:
            raise ReproError(f"unknown fault site {self.site!r} "
                             f"(expected 'worker' or 'fragment')")
        if self.kind not in allowed:
            raise ReproError(f"unknown {self.site} fault kind {self.kind!r}; "
                             f"expected one of {allowed}")
        if self.hang_seconds <= 0:
            raise ReproError(f"hang_seconds must be positive, got {self.hang_seconds}")

    def matches(self, site: str, shard_id: int, attempt: int) -> bool:
        return (self.site == site and self.shard_id == shard_id
                and attempt in self.attempts)

    def payload(self) -> tuple[str, float]:
        """Picklable description shipped to worker processes."""
        return (self.kind, self.hang_seconds)

    def to_exception(self) -> Exception:
        """The taxonomy exception an in-process (serial) executor raises.

        A serial executor cannot survive a real crash or preempt a real hang, so
        it simulates the *outcome* the parallel parent would observe: the same
        exception class, hence the same retry/quarantine decision.
        """
        if self.kind == "crash":
            return WorkerCrashError("injected worker crash (simulated in-process)",
                                    exit_code=FAULT_CRASH_EXIT_CODE)
        if self.kind == "hang":
            return ShardTimeoutError("injected hang (simulated as an immediate "
                                     "timeout in-process)")
        if self.kind == "transient":
            return TransientExecutionError("injected transient fault")
        if self.kind == "permanent":
            return ExecutionError("injected permanent fault")
        raise ReproError(f"fault kind {self.kind!r} has no in-process simulation")

    def to_dict(self) -> dict[str, object]:
        return {"site": self.site, "kind": self.kind, "shard_id": self.shard_id,
                "attempts": list(self.attempts), "hang_seconds": self.hang_seconds}


class FaultPlan:
    """An ordered collection of :class:`Fault`\\ s consulted by the executors.

    Deterministic by construction: the plan lists its faults, and lookups are pure.
    """

    def __init__(self, faults: Iterable[Fault] = ()):
        self.faults: tuple[Fault, ...] = tuple(faults)
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise ReproError(f"FaultPlan expects Fault instances, got {fault!r}")

    def fault_at(self, site: str, shard_id: int, attempt: int) -> Fault | None:
        """The first fault striking ``(site, shard_id, attempt)``, or None."""
        for fault in self.faults:
            if fault.matches(site, shard_id, attempt):
                return fault
        return None

    def shard_ids(self) -> tuple[int, ...]:
        """Sorted shard ids the plan strikes, at either site."""
        return tuple(sorted({f.shard_id for f in self.faults}))

    def to_dict(self) -> dict[str, object]:
        return {"faults": [f.to_dict() for f in self.faults]}

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({list(self.faults)!r})"


def corrupt_fragment(path: str | Path, mode: str = "bitflip") -> Path:
    """Damage a columnar checkpoint fragment on disk (the ``"fragment"`` fault site).

    ``truncate`` halves the file (a torn write that bypassed the atomic rename,
    e.g. filesystem loss after a power cut); ``bitflip`` flips one bit in the
    middle of the first column's data (storage rot; never header padding, which
    no checksum covers); ``tamper`` rewrites the first float of the value column,
    located through the header directory, keeping the file structurally valid --
    the case only the column checksum can catch.
    """
    path = Path(path)
    data = path.read_bytes()
    if not data:
        raise ReproError(f"cannot corrupt empty fragment {path}")
    if mode == "truncate":
        # repro: allow[RPL003] deliberate in-place damage: this is the fault injector
        path.write_bytes(data[: len(data) // 2])
    elif mode == "bitflip":
        entry = peek_columnar_header(path)["columns"][0]
        buffer = bytearray(data)
        buffer[int(entry["offset"]) + int(entry["nbytes"]) // 2] ^= 0x01
        # repro: allow[RPL003] deliberate in-place damage: this is the fault injector
        path.write_bytes(bytes(buffer))
    elif mode == "tamper":
        header = peek_columnar_header(path)
        entry = next(e for e in header["columns"] if e["name"] == "value")
        if int(entry["nbytes"]) < 8:
            raise ReproError(f"fragment {path} has no rows to tamper with")
        offset = int(entry["offset"])
        current = struct.unpack_from("<d", data, offset)[0]
        buffer = bytearray(data)
        struct.pack_into("<d", buffer, offset,
                         123456.75 if current != 123456.75 else 654321.5)
        # repro: allow[RPL003] deliberate in-place damage: this is the fault injector
        path.write_bytes(bytes(buffer))
    else:
        raise ReproError(f"unknown corruption mode {mode!r}; "
                         f"expected one of {FRAGMENT_FAULT_KINDS}")
    return path
