"""Memory-hierarchy model.

The analytical kernel models express their memory behaviour as "bytes moved from DRAM"
plus a set of *efficiency* factors describing how well the access pattern uses the
hardware: coalescing, vectorised accesses, the read-only (texture) cache path, L2
reuse, and shared-memory bank conflicts.  This module centralises those factors so the
per-kernel models stay small and the calibration knobs live in one place.

Every function takes scalars or equal-length NumPy columns and returns the same
shape: the models evaluate whole batches of configurations at once (see
:mod:`repro.gpus.perfmodel` for the bit-exactness rules the formulas follow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.gpus.columns import per_value
from repro.gpus.specs import GPUSpec

__all__ = [
    "MemoryTraffic",
    "coalescing_efficiency",
    "vector_access_efficiency",
    "read_only_cache_factor",
    "bank_conflict_factor",
    "dram_time_ms",
]


@dataclass(frozen=True)
class MemoryTraffic:
    """DRAM traffic of one kernel launch (or columns of many), split by direction.

    Attributes
    ----------
    read_bytes / write_bytes:
        Bytes moved from / to DRAM assuming perfect caching of reused data.
    efficiency:
        Combined access efficiency in ``(0, 1]``; effective bandwidth is
        ``peak * efficiency``.
    """

    read_bytes: Any
    write_bytes: Any
    efficiency: Any = 1.0

    @property
    def total_bytes(self) -> Any:
        """Total DRAM traffic in bytes."""
        return self.read_bytes + self.write_bytes


def coalescing_efficiency(gpu: GPUSpec, block_size_x: Any) -> Any:
    """Fraction of a 32-byte DRAM sector that is useful for a warp's accesses.

    Warps whose x-dimension spans at least a full warp access consecutive addresses
    and are fully coalesced.  Narrow blocks in x (the degenerate 1/2/4/8-wide blocks
    that several BAT benchmarks allow) waste most of each memory transaction.
    """
    block_size_x = np.asarray(block_size_x)
    # A warp is folded over several rows; only block_size_x consecutive elements per
    # row are useful out of a warp-wide transaction.  The floor reflects that the L2
    # still captures part of the wasted sectors for neighbouring rows.
    return np.where(block_size_x >= gpu.warp_size, 1.0,
                    np.maximum(block_size_x / gpu.warp_size, 0.125))[()]


def vector_access_efficiency(gpu: GPUSpec, vector_width: Any) -> Any:
    """Bandwidth multiplier of vectorised loads/stores (float2/float4/...).

    Wider accesses reduce the number of memory instructions and improve achieved
    bandwidth up to the device's preferred width; widths beyond the preferred width
    increase register pressure without bandwidth benefit and are slightly penalised.
    """
    preferred = gpu.preferred_vector_width

    def efficiency(width: int) -> float:
        if width <= 0:
            width = 1
        if width <= preferred:
            # 1 -> 0.82, preferred -> 1.0, log-shaped ramp.
            span = math.log2(preferred) if preferred > 1 else 1.0
            return 0.82 + 0.18 * (math.log2(width) / span if span else 1.0)
        # Over-wide accesses: mild penalty per doubling beyond preferred.
        over = math.log2(width / preferred)
        return max(1.0 - 0.06 * over, 0.7)

    return per_value(efficiency, vector_width)


def read_only_cache_factor(gpu: GPUSpec, use_read_only: Any) -> Any:
    """Bandwidth multiplier for routing loads through the read-only/texture path.

    The benefit is larger on Turing (smaller, unified L1) than on Ampere (bigger L1),
    which is one of the architecture-specific effects behind the paper's portability
    asymmetries.
    """
    return np.where(use_read_only, 1.10 if gpu.architecture == "Turing" else 1.04,
                    1.0)[()]


def bank_conflict_factor(gpu: GPUSpec, block_size_x: Any, use_padding: Any,
                         banks: int = 32) -> Any:
    """Shared-memory slowdown factor caused by bank conflicts (>= 1).

    Mirrors the Convolution kernel's padding optimisation: when ``block_size_x`` is
    not a multiple of the number of banks, unpadded shared-memory tiles suffer
    conflicts; padding removes them at a negligible footprint cost.
    """
    block_size_x = np.asarray(block_size_x, dtype=np.int64)
    # Conflict degree grows as the stride's gcd with the bank count shrinks.
    degree = banks // np.gcd(block_size_x, banks)
    return np.where(np.asarray(use_padding, dtype=bool) | (block_size_x % banks == 0),
                    1.0, 1.0 + 0.05 * np.minimum(degree, 8))[()]


def dram_time_ms(gpu: GPUSpec, traffic: MemoryTraffic) -> Any:
    """Time to move ``traffic`` at the achieved bandwidth, in milliseconds."""
    efficiency = np.minimum(np.maximum(traffic.efficiency, 1e-3), 1.0)
    achieved = gpu.peak_bandwidth_bytes * efficiency
    return traffic.total_bytes / achieved * 1e3
