"""Dedispersion benchmark (paper Sec. IV-G, Table VII).

Brute-force incoherent dedispersion from the AMBER single-pulse search pipeline: for
every trial dispersion measure (DM) the kernel shifts each frequency channel by the
dispersion delay and accumulates it into the output time series.  The workload mirrors
the ARTS survey configuration on the Apertif telescope: a 24.4 kHz sampling rate,
2048 DM trials and 1536 frequency channels.

Each thread processes ``tile_size_x`` time samples for ``tile_size_y`` DM values;
``tile_stride_x``/``tile_stride_y`` choose between consecutive and block-strided
assignment, ``loop_unroll_factor_channel`` partially unrolls the channel loop (any
divisor of the channel count), and ``blocks_per_sm`` is a ``__launch_bounds__`` hint.

The kernel is memory-bandwidth bound: its arithmetic intensity is a single addition per
loaded sample, so the decisive optimisation is reusing each loaded channel sample
across many DM values (the ``tile_size_y`` direction) before it leaves the cache --
which is exactly what the feature-importance analysis of the paper singles out.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.gpus.columns import int_column, per_value
from repro.gpus.memory import MemoryTraffic, coalescing_efficiency
from repro.gpus.perfmodel import AnalyticalKernelModel, KernelLaunchConfig, ilp_factor
from repro.gpus.specs import GPUSpec
from repro.kernels.base import KernelBenchmark, Workload
from repro.kernels.reference import dedispersion_reference

__all__ = ["DedispersionModel", "create_benchmark", "PARAMETERS", "CONSTRAINTS"]

#: Thread-block x sizes: {1, 2, 4, 8} plus multiples of 16 up to 512 (36 values).
_BLOCK_SIZE_X = (1, 2, 4, 8) + tuple(range(16, 513, 16))

#: Thread-block y sizes: multiples of 4 up to 128 (32 values).
_BLOCK_SIZE_Y = tuple(range(4, 129, 4))

#: Channel-loop unroll factors: 0 (compiler decides) plus every divisor of 1536.
_CHANNEL_UNROLL = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384,
                   512, 768, 1536)

#: Tunable parameters exactly as listed in Table VII of the paper.
PARAMETERS: tuple[Parameter, ...] = (
    Parameter("block_size_x", _BLOCK_SIZE_X, default=32,
              description="thread block dimension x (time samples)"),
    Parameter("block_size_y", _BLOCK_SIZE_Y, default=4,
              description="thread block dimension y (dispersion measures)"),
    Parameter("tile_size_x", tuple(range(1, 17)), description="samples per thread"),
    Parameter("tile_size_y", tuple(range(1, 17)), description="DMs per thread"),
    Parameter("tile_stride_x", (0, 1), description="consecutive (0) or strided (1) samples"),
    Parameter("tile_stride_y", (0, 1), description="consecutive (0) or strided (1) DMs"),
    Parameter("loop_unroll_factor_channel", _CHANNEL_UNROLL,
              description="partial unroll of the channel loop (divisor of 1536)"),
    Parameter("blocks_per_sm", (0, 1, 2, 3, 4),
              description="__launch_bounds__ occupancy hint (0 = none)"),
)

#: Launch constraint: the CUDA per-block thread limit.
CONSTRAINTS = ConstraintSet([
    "block_size_x * block_size_y <= 1024",
])


class DedispersionModel(AnalyticalKernelModel):
    """Analytical performance model of the AMBER dedispersion kernel."""

    def __init__(self, num_samples: int, num_dms: int, num_channels: int):
        super().__init__("dedispersion", occupancy_saturation=0.50, noise_sigma=0.015)
        self.num_samples = int(num_samples)
        self.num_dms = int(num_dms)
        self.num_channels = int(num_channels)

    # ---------------------------------------------------------------- launch shape

    def launch_config(self, columns: Mapping[str, np.ndarray],
                      gpu: GPUSpec) -> KernelLaunchConfig:
        bx = int_column(columns, "block_size_x")
        by = int_column(columns, "block_size_y")
        tx = int_column(columns, "tile_size_x")
        ty = int_column(columns, "tile_size_y")
        unroll_c = int_column(columns, "loop_unroll_factor_channel")
        bpsm = int_column(columns, "blocks_per_sm")

        grid = (np.ceil(self.num_samples / (bx * tx))
                * np.ceil(self.num_dms / (by * ty)))

        # Each thread keeps tx * ty running sums plus per-DM delay offsets; channel
        # unrolling keeps several loads in flight.  The compiler keeps the sums in a
        # blocked register tile, so pressure grows sub-linearly with the tile area.
        registers = 20 + 1.0 * tx * ty + 1.0 * ty + 0.04 * np.maximum(unroll_c, 1)
        registers = np.where(
            bpsm > 0,
            np.minimum(registers, gpu.registers_per_sm / np.maximum(bpsm * bx * by, 1)),
            registers)
        shared_bytes = 0.0

        return KernelLaunchConfig(
            threads_per_block=bx * by,
            grid_blocks=grid,
            registers_per_thread=registers,
            shared_mem_bytes=shared_bytes,
            blocks_per_sm_hint=bpsm,
            launches=1,
        )

    # -------------------------------------------------------------------- work

    def flops(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> float:
        # One add per (DM, channel, sample); the shift's address arithmetic is hoisted
        # out of the inner loop by the compiler.
        return 1.0 * float(self.num_dms) * float(self.num_channels) * float(self.num_samples)

    def traffic(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> MemoryTraffic:
        bx = int_column(columns, "block_size_x")
        by = int_column(columns, "block_size_y")
        ty = int_column(columns, "tile_size_y")
        tile_stride_x = int_column(columns, "tile_stride_x")

        samples = float(self.num_samples)
        dms = float(self.num_dms)
        channels = float(self.num_channels)

        # Each channel sample must be loaded once per *block row* of DMs it serves; the
        # number of DMs that share one load grows with the per-block DM extent, but the
        # sharing happens through the L1/register file, whose capacity caps how many
        # DMs can actually reuse a resident sample (a larger cap on Ampere's bigger L1).
        # Floor of 16: neighbouring DM blocks scheduled in the same wave hit the same
        # channel samples in L2 even when a single block covers few DMs.
        reuse_cap = 48 if gpu.architecture == "Ampere" else 24
        dms_per_block = np.minimum(np.maximum(by * ty, 16), reuse_cap)
        reuse_groups = np.ceil(dms / dms_per_block)
        reads = channels * samples * 4.0 * reuse_groups
        writes = dms * samples * 4.0

        # Narrow blocks in x hurt coalescing, but far less than in a generic streaming
        # kernel: threads stacked in y read overlapping, slightly-shifted windows of
        # the same channel row, so the L1 serves most of the "wasted" sectors.
        efficiency = np.maximum(coalescing_efficiency(gpu, bx), 0.55)
        # Strided sample assignment keeps neighbouring threads on neighbouring samples
        # and is slightly friendlier to the coalescer than long consecutive runs.
        efficiency = np.where(tile_stride_x != 0, np.minimum(efficiency * 1.05, 1.0),
                              efficiency)
        return MemoryTraffic(read_bytes=reads, write_bytes=writes, efficiency=efficiency)

    # ----------------------------------------------------------- compute efficiency

    def compute_efficiency(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> np.ndarray:
        unroll_c = int_column(columns, "loop_unroll_factor_channel")
        tile_stride_y = int_column(columns, "tile_stride_y")
        tx = int_column(columns, "tile_size_x")

        base = 0.40  # address arithmetic dominates; far from FMA peak
        unroll_factor = per_value(lambda f: f ** 2, ilp_factor(
            unroll_c, 32 if gpu.architecture == "Ampere" else 16, falloff=0.03))
        stride_factor = np.where(tile_stride_y != 0, 0.97, 1.0)
        work_factor = per_value(lambda t: 1.0 + 0.03 * math.log2(max(t, 1)), tx)
        return base * unroll_factor * stride_factor * work_factor


def _reference(config: Mapping[str, Any], rng, num_channels: int = 32, num_dms: int = 16,
               num_output_samples: int = 64, **kwargs: Any):
    """Reference driver bound to the benchmark (small default size for tests)."""
    return dedispersion_reference.run(config, rng, num_channels=num_channels,
                                      num_dms=num_dms,
                                      num_output_samples=num_output_samples, **kwargs)


def create_benchmark(num_samples: int = 25000, num_dms: int = 2048,
                     num_channels: int = 1536) -> KernelBenchmark:
    """Create the Dedispersion benchmark (ARTS/Apertif survey parameters by default)."""
    space = SearchSpace(PARAMETERS, CONSTRAINTS, name="dedispersion")
    workload = Workload(
        name=f"{num_dms}dms_{num_channels}ch_{num_samples}samples",
        sizes={"num_samples": num_samples, "num_dms": num_dms, "num_channels": num_channels},
        description="Incoherent dedispersion with ARTS survey parameters (24.4 kHz, "
                    "2048 DMs, 1536 channels)",
    )
    model = DedispersionModel(num_samples, num_dms, num_channels)
    return KernelBenchmark(
        name="dedispersion",
        display_name="Dedisp",
        space=space,
        model=model,
        workload=workload,
        reference=_reference,
        description="Shift-and-sum dedispersion of radio-telescope filterbank data",
        application_domain="radio astronomy",
        origin="AMBER single-pulse detection pipeline (Sclocco et al.)",
        paper_table="Table VII",
    )
