"""CUDA occupancy calculator.

Occupancy -- the ratio of resident warps to the maximum the SM supports -- is the single
most important latency-hiding metric on NVIDIA GPUs, and most of the interesting
interactions between tuning parameters (block size x unroll factor x shared-memory
usage) act through it: larger tiles and deeper unrolling raise per-thread register and
shared-memory demands, which lowers the number of blocks the SM can keep resident,
which in turn reduces the hardware's ability to hide memory latency.

The calculation follows the standard CUDA occupancy rules: the number of resident
blocks per SM is the minimum of four limits (block-count limit, warp limit, register
limit, shared-memory limit), and occupancy is then resident warps over maximum warps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.errors import ResourceLimitError
from repro.gpus.columns import at
from repro.gpus.specs import GPUSpec

__all__ = ["OccupancyResult", "occupancy_columns", "compute_occupancy"]

#: The four CUDA limits on resident blocks, in tie-breaking order.
_LIMITS = np.array(["blocks", "warps", "registers", "shared_memory"])


@dataclass(frozen=True)
class OccupancyResult:
    """Outcome of an occupancy calculation, for one launch or as columns of many.

    Attributes
    ----------
    blocks_per_sm:
        Resident thread blocks per SM (0 when the block cannot launch at all).
    active_warps:
        Resident warps per SM.
    occupancy:
        ``active_warps / max_warps_per_sm`` in ``[0, 1]``.
    limiting_factor:
        Which resource bound the block count (``"blocks"``, ``"warps"``,
        ``"registers"`` or ``"shared_memory"``).
    warps_per_block:
        Warps needed by one block (ceil of threads / warp size).
    """

    blocks_per_sm: Any
    active_warps: Any
    occupancy: Any
    limiting_factor: Any
    warps_per_block: Any

    def row(self, i: int) -> "OccupancyResult":
        """Row ``i`` of a column result, as Python scalars."""
        return OccupancyResult(
            blocks_per_sm=int(at(self.blocks_per_sm, i)),
            active_warps=int(at(self.active_warps, i)),
            occupancy=float(at(self.occupancy, i)),
            limiting_factor=str(at(self.limiting_factor, i)),
            warps_per_block=int(at(self.warps_per_block, i)),
        )


def occupancy_columns(gpu: GPUSpec, threads_per_block: Any, registers_per_thread: Any,
                      shared_mem_per_block_bytes: Any
                      ) -> tuple[OccupancyResult, list[str]]:
    """Occupancy of many launch configurations on ``gpu``.

    Parameters
    ----------
    gpu:
        Target device specification.
    threads_per_block:
        Total threads in one block (product of the block dimensions).
    registers_per_thread:
        Estimated register usage per thread (the per-kernel models estimate this from
        unroll/tile factors).
    shared_mem_per_block_bytes:
        Static + dynamic shared memory requested per block.

    ``threads_per_block`` is a column; the other two are columns of the same length
    or scalars that broadcast.  A
    ``__launch_bounds__`` hint does not appear here: it asks the compiler to cut
    register usage, which the caller folds into ``registers_per_thread``.

    Returns the occupancy columns and one error string per row: empty when the block
    can launch, otherwise why not (too few or too many threads per block, or more
    shared memory than the per-block limit), checked in that order.  The occupancy
    columns of failing rows are meaningless.
    """
    threads = np.asarray(threads_per_block, dtype=np.int64)
    n = threads.size
    shared = np.broadcast_to(np.asarray(shared_mem_per_block_bytes, dtype=np.float64), n)
    shared_limit = gpu.shared_mem_per_block_kb * 1024

    errors = [""] * n
    no_threads = threads <= 0
    too_many = ~no_threads & (threads > gpu.max_threads_per_block)
    too_shared = ~no_threads & ~too_many & (shared > shared_limit)
    for i in np.flatnonzero(no_threads).tolist():
        errors[i] = "thread block must contain at least one thread"
    for i in np.flatnonzero(too_many).tolist():
        errors[i] = (f"{int(threads[i])} threads per block exceeds the device limit "
                     f"of {gpu.max_threads_per_block}")
    for i in np.flatnonzero(too_shared).tolist():
        errors[i] = (f"{float(shared[i]) / 1024:.1f} KiB shared memory per block exceeds "
                     f"the device limit of {gpu.shared_mem_per_block_kb} KiB")

    # Real compilers spill to local memory instead of failing; the per-kernel models
    # apply a spill penalty.  Here we clamp so occupancy stays defined.
    registers = np.minimum(np.maximum(registers_per_thread, 1.0),
                           float(gpu.max_registers_per_thread))

    # Clamped to one warp so that failing rows stay finite.
    warps_per_block = np.maximum(np.ceil(threads / gpu.warp_size).astype(np.int64), 1)

    # The four CUDA limits on resident blocks per SM.
    limit_blocks = np.full(n, gpu.max_blocks_per_sm, dtype=np.int64)
    limit_warps = gpu.max_warps_per_sm // warps_per_block
    regs_per_block = registers * warps_per_block * gpu.warp_size
    limit_registers = (gpu.registers_per_sm // regs_per_block).astype(np.int64)
    has_shared = shared > 0
    limit_shared = np.where(
        has_shared,
        ((gpu.shared_mem_per_sm_kb * 1024) // np.where(has_shared, shared, 1.0)
         ).astype(np.int64),
        limit_blocks)

    limits = np.stack([limit_blocks, limit_warps, limit_registers, limit_shared], axis=1)
    choice = np.argmin(limits, axis=1)
    blocks_per_sm = np.maximum(limits[np.arange(n), choice], 0)
    active_warps = blocks_per_sm * warps_per_block
    occupancy = np.minimum(active_warps / gpu.max_warps_per_sm, 1.0)

    return OccupancyResult(
        blocks_per_sm=blocks_per_sm,
        active_warps=active_warps,
        occupancy=occupancy,
        limiting_factor=_LIMITS[choice],
        warps_per_block=warps_per_block,
    ), errors


def compute_occupancy(gpu: GPUSpec, threads_per_block: int, registers_per_thread: float,
                      shared_mem_per_block_bytes: float) -> OccupancyResult:
    """Occupancy of one launch configuration (a batch of one of :func:`occupancy_columns`).

    Raises
    ------
    ResourceLimitError
        If the block can never launch on this device: too many threads per block or
        more shared memory than the per-block limit.
    """
    occ, errors = occupancy_columns(gpu, [threads_per_block], [registers_per_thread],
                                    [shared_mem_per_block_bytes])
    if errors[0]:
        raise ResourceLimitError(errors[0], resource="occupancy")
    return occ.row(0)
