"""Architecture specifications of the simulated GPUs.

The four devices mirror the paper's testbed: two Turing-family GPUs (RTX 2080 Ti and
RTX Titan, both TU102) and two Ampere-family GPUs (RTX 3060 / GA106 and RTX 3090 /
GA102).  The numbers are datasheet values; they are the *inputs* of the analytical
performance model, and the family structure (Turing vs Ampere differ in cores per SM,
maximum resident threads per SM, shared-memory capacity and bandwidth/compute ratio)
is what produces the paper's portability result: configurations transfer well within a
family and poorly across families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["GPUSpec", "all_gpus", "RTX_2080_TI", "RTX_3060", "RTX_3090", "RTX_TITAN"]


@dataclass(frozen=True)
class GPUSpec:
    """Datasheet-level description of one GPU.

    Attributes
    ----------
    name:
        Canonical identifier used throughout the suite (e.g. ``"RTX_3090"``).
    architecture:
        Family name (``"Turing"`` or ``"Ampere"`` for the paper's devices).
    compute_capability:
        CUDA compute capability, e.g. ``(7, 5)``.
    sm_count:
        Number of streaming multiprocessors.
    cores_per_sm:
        FP32 CUDA cores per SM (64 on Turing, 128 on Ampere).
    boost_clock_mhz:
        Boost clock; the model assumes kernels run at boost.
    memory_bandwidth_gb_s:
        Peak DRAM bandwidth in GB/s.
    l2_cache_kb:
        L2 cache size in KiB.
    shared_mem_per_sm_kb / shared_mem_per_block_kb:
        Shared-memory capacity per SM and the per-block limit.
    registers_per_sm / max_registers_per_thread:
        Register file size (32-bit registers) per SM and the per-thread cap.
    max_threads_per_block / max_threads_per_sm / max_blocks_per_sm / warp_size:
        CUDA launch limits used by the occupancy calculator.
    fp32_tflops:
        Peak single-precision throughput.
    preferred_vector_width:
        The widest global-memory vector access that still improves effective
        bandwidth on this device (model calibration knob; wider accesses on Ampere
        benefit more because of its 128-byte sectors and larger L1).
    """

    name: str
    architecture: str
    compute_capability: tuple[int, int]
    sm_count: int
    cores_per_sm: int
    boost_clock_mhz: float
    memory_bandwidth_gb_s: float
    l2_cache_kb: int
    shared_mem_per_sm_kb: float
    shared_mem_per_block_kb: float
    registers_per_sm: int
    max_registers_per_thread: int
    max_threads_per_block: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    warp_size: int
    fp32_tflops: float
    memory_size_gb: float
    preferred_vector_width: int
    kernel_launch_overhead_us: float = 5.0

    # ------------------------------------------------------------------ derived

    @property
    def max_warps_per_sm(self) -> int:
        """Maximum resident warps per SM."""
        return self.max_threads_per_sm // self.warp_size

    @property
    def peak_flops(self) -> float:
        """Peak FP32 FLOP/s (FMA counted as two operations)."""
        return self.fp32_tflops * 1e12

    @property
    def peak_bandwidth_bytes(self) -> float:
        """Peak DRAM bandwidth in bytes/s."""
        return self.memory_bandwidth_gb_s * 1e9

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable description."""
        return {
            "name": self.name,
            "architecture": self.architecture,
            "compute_capability": list(self.compute_capability),
            "sm_count": self.sm_count,
            "cores_per_sm": self.cores_per_sm,
            "boost_clock_mhz": self.boost_clock_mhz,
            "memory_bandwidth_gb_s": self.memory_bandwidth_gb_s,
            "l2_cache_kb": self.l2_cache_kb,
            "shared_mem_per_sm_kb": self.shared_mem_per_sm_kb,
            "shared_mem_per_block_kb": self.shared_mem_per_block_kb,
            "registers_per_sm": self.registers_per_sm,
            "max_registers_per_thread": self.max_registers_per_thread,
            "max_threads_per_block": self.max_threads_per_block,
            "max_threads_per_sm": self.max_threads_per_sm,
            "max_blocks_per_sm": self.max_blocks_per_sm,
            "warp_size": self.warp_size,
            "fp32_tflops": self.fp32_tflops,
            "memory_size_gb": self.memory_size_gb,
            "preferred_vector_width": self.preferred_vector_width,
        }


# --------------------------------------------------------------------------- devices
# Turing family -- TU102.  64 FP32 cores per SM, 64 KiB shared memory per SM,
# at most 1024 resident threads per SM (CC 7.5), 16 blocks per SM.

RTX_2080_TI = GPUSpec(
    name="RTX_2080_Ti",
    architecture="Turing",
    compute_capability=(7, 5),
    sm_count=68,
    cores_per_sm=64,
    boost_clock_mhz=1545.0,
    memory_bandwidth_gb_s=616.0,
    l2_cache_kb=5632,
    shared_mem_per_sm_kb=64.0,
    shared_mem_per_block_kb=48.0,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    max_threads_per_block=1024,
    max_threads_per_sm=1024,
    max_blocks_per_sm=16,
    warp_size=32,
    fp32_tflops=13.45,
    memory_size_gb=11.0,
    preferred_vector_width=4,
)

RTX_TITAN = GPUSpec(
    name="RTX_Titan",
    architecture="Turing",
    compute_capability=(7, 5),
    sm_count=72,
    cores_per_sm=64,
    boost_clock_mhz=1770.0,
    memory_bandwidth_gb_s=672.0,
    l2_cache_kb=6144,
    shared_mem_per_sm_kb=64.0,
    shared_mem_per_block_kb=48.0,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    max_threads_per_block=1024,
    max_threads_per_sm=1024,
    max_blocks_per_sm=16,
    warp_size=32,
    fp32_tflops=16.31,
    memory_size_gb=24.0,
    preferred_vector_width=4,
)

# Ampere family -- GA106 / GA102.  128 FP32 cores per SM, up to 100 KiB shared memory
# per SM, 1536 resident threads per SM (CC 8.6), 16 blocks per SM.

RTX_3060 = GPUSpec(
    name="RTX_3060",
    architecture="Ampere",
    compute_capability=(8, 6),
    sm_count=28,
    cores_per_sm=128,
    boost_clock_mhz=1777.0,
    memory_bandwidth_gb_s=360.0,
    l2_cache_kb=3072,
    shared_mem_per_sm_kb=100.0,
    shared_mem_per_block_kb=99.0,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    max_threads_per_block=1024,
    max_threads_per_sm=1536,
    max_blocks_per_sm=16,
    warp_size=32,
    fp32_tflops=12.74,
    memory_size_gb=12.0,
    preferred_vector_width=8,
)

RTX_3090 = GPUSpec(
    name="RTX_3090",
    architecture="Ampere",
    compute_capability=(8, 6),
    sm_count=82,
    cores_per_sm=128,
    boost_clock_mhz=1695.0,
    memory_bandwidth_gb_s=936.0,
    l2_cache_kb=6144,
    shared_mem_per_sm_kb=100.0,
    shared_mem_per_block_kb=99.0,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    max_threads_per_block=1024,
    max_threads_per_sm=1536,
    max_blocks_per_sm=16,
    warp_size=32,
    fp32_tflops=35.58,
    memory_size_gb=24.0,
    preferred_vector_width=8,
)


def all_gpus() -> dict[str, GPUSpec]:
    """The four GPUs of the paper's testbed, keyed by canonical name."""
    return {
        RTX_2080_TI.name: RTX_2080_TI,
        RTX_3060.name: RTX_3060,
        RTX_3090.name: RTX_3090,
        RTX_TITAN.name: RTX_TITAN,
    }
