"""Convolution benchmark (paper Sec. IV-E, Table V).

2D convolution of a large image with a dense filter, from van Werkhoven et al.'s
adaptive-tiling GPU convolution library.  Each thread block computes a tile of
``(block_size_x * tile_size_x) x (block_size_y * tile_size_y)`` output pixels from an
input region staged in shared memory (output tile plus filter halo).  ``use_padding``
pads the shared-memory rows to avoid bank conflicts when ``block_size_x`` is not a
multiple of the number of banks, and ``read_only`` routes image loads through the
read-only (texture) cache.

Convolution is the hardest benchmark to tune in the paper: the good configurations are
a small corner of the space where the shared tile fits, the halo overhead is amortised
by large tiles, the block shape keeps loads coalesced and occupancy stays high -- these
requirements pull in opposite directions, producing strong parameter interactions.
Random search consequently needs hundreds of evaluations to reach 90% of optimal
(Fig. 2d), and the regression model's R^2 is visibly lower than for the other
benchmarks (Sec. VI-F).
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.gpus.columns import int_column, per_value
from repro.gpus.memory import (
    MemoryTraffic,
    bank_conflict_factor,
    coalescing_efficiency,
    read_only_cache_factor,
)
from repro.gpus.perfmodel import AnalyticalKernelModel, KernelLaunchConfig
from repro.gpus.specs import GPUSpec
from repro.kernels.base import KernelBenchmark, Workload
from repro.kernels.reference import convolution_reference

__all__ = ["ConvolutionModel", "create_benchmark", "PARAMETERS", "CONSTRAINTS"]

#: Tunable parameters exactly as listed in Table V of the paper.
PARAMETERS: tuple[Parameter, ...] = (
    Parameter("block_size_x", (1, 2, 4, 8, 16, 32, 48, 64, 80, 96, 112, 128), default=16,
              description="thread block dimension x"),
    Parameter("block_size_y", (1, 2, 4, 8, 16, 32), default=16,
              description="thread block dimension y"),
    Parameter("tile_size_x", tuple(range(1, 9)), description="output pixels per thread in x"),
    Parameter("tile_size_y", tuple(range(1, 9)), description="output pixels per thread in y"),
    Parameter("use_padding", (0, 1), description="pad shared memory to avoid bank conflicts"),
    Parameter("read_only", (0, 1), description="load the image through the read-only cache"),
)

#: Launch constraints: a full warp at minimum, the CUDA block limit at maximum.
CONSTRAINTS = ConstraintSet([
    "block_size_x * block_size_y >= 32",
    "block_size_x * block_size_y <= 1024",
])


class ConvolutionModel(AnalyticalKernelModel):
    """Analytical performance model of the adaptive-tiling 2D convolution kernel."""

    def __init__(self, image_size: int, filter_size: int):
        super().__init__("convolution", occupancy_saturation=0.50, noise_sigma=0.030)
        self.image_size = int(image_size)
        self.filter_size = int(filter_size)

    # ------------------------------------------------------------------- helpers

    def _tile_dims(self, columns: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        return (int_column(columns, "block_size_x") * int_column(columns, "tile_size_x"),
                int_column(columns, "block_size_y") * int_column(columns, "tile_size_y"))

    def _shared_tile_bytes(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        tile_x, tile_y = self._tile_dims(columns)
        halo = self.filter_size - 1
        pad = np.where(int_column(columns, "use_padding") != 0, 1, 0)
        return ((tile_x + halo + pad) * (tile_y + halo) * 4).astype(np.float64)

    # ---------------------------------------------------------------- launch shape

    def launch_config(self, columns: Mapping[str, np.ndarray],
                      gpu: GPUSpec) -> KernelLaunchConfig:
        bx = int_column(columns, "block_size_x")
        by = int_column(columns, "block_size_y")
        tx = int_column(columns, "tile_size_x")
        ty = int_column(columns, "tile_size_y")

        tile_x, tile_y = self._tile_dims(columns)
        out = self.image_size - self.filter_size + 1
        grid = np.ceil(out / tile_x) * np.ceil(out / tile_y)

        # One accumulator per output pixel of the thread plus input staging registers.
        registers = 16 + 2.0 * tx * ty + 0.5 * (tx + ty)
        shared_bytes = self._shared_tile_bytes(columns)

        return KernelLaunchConfig(
            threads_per_block=bx * by,
            grid_blocks=grid,
            registers_per_thread=registers,
            shared_mem_bytes=shared_bytes,
            launches=1,
        )

    # -------------------------------------------------------------------- work

    def flops(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> float:
        out = self.image_size - self.filter_size + 1
        return 2.0 * float(out) * float(out) * self.filter_size * self.filter_size

    def traffic(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> MemoryTraffic:
        bx = int_column(columns, "block_size_x")
        use_padding = int_column(columns, "use_padding") != 0
        read_only = int_column(columns, "read_only") != 0

        tile_x, tile_y = self._tile_dims(columns)
        halo = self.filter_size - 1
        out = self.image_size - self.filter_size + 1

        # Every block reads its output tile plus the halo; small tiles re-read the halo
        # many times over the whole image.
        halo_overhead = (((tile_x + halo) * (tile_y + halo))
                         / (tile_x * tile_y).astype(np.float64))
        reads = float(out) * float(out) * 4.0 * halo_overhead
        reads += self.filter_size * self.filter_size * 4.0
        writes = float(out) * float(out) * 4.0

        efficiency = coalescing_efficiency(gpu, bx)
        efficiency *= read_only_cache_factor(gpu, read_only)
        efficiency /= bank_conflict_factor(gpu, bx, use_padding)
        return MemoryTraffic(read_bytes=reads, write_bytes=writes,
                             efficiency=np.minimum(efficiency, 1.0))

    # ----------------------------------------------------------- compute efficiency

    def compute_efficiency(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> np.ndarray:
        bx = int_column(columns, "block_size_x")
        by = int_column(columns, "block_size_y")
        tx = int_column(columns, "tile_size_x")
        ty = int_column(columns, "tile_size_y")
        use_padding = int_column(columns, "use_padding") != 0

        base = 0.52
        # Per-thread output tiles create register-level reuse of the filter and image
        # rows; the sweet spot is architecture dependent (larger on Ampere) and the
        # penalty on either side is steep -- small tiles waste the filter reuse, large
        # tiles thrash registers.  Together with the aspect-ratio and coalescing
        # requirements this makes the well-performing region a small corner of the
        # space, which is why the paper finds Convolution the hardest benchmark for
        # random search (Fig. 2d) and the hardest to model (lowest R^2).
        best_work = 16 if gpu.architecture == "Ampere" else 8

        def work_curve(work: int) -> float:
            if work <= best_work:
                return 0.62 + 0.38 * (math.log2(max(work, 1)) / math.log2(best_work))
            return max(1.0 - 0.10 * math.log2(work / best_work), 0.7)

        work_factor = per_value(work_curve, tx * ty)

        # Wide-and-flat blocks keep warps row-aligned for the shared-memory reads;
        # tall-and-narrow blocks serialise them.  The preferred aspect ratio differs
        # between the families (Ampere's wider L1 sectors reward wider rows).
        best_aspect = 16.0 if gpu.architecture == "Ampere" else 4.0
        aspect = bx / np.maximum(by, 1)
        aspect_factor = per_value(
            lambda a: max(1.0 - 0.07 * abs(math.log2(max(a, 1e-3) / best_aspect)), 0.60),
            aspect)

        # The x-tile depth controls how many consecutive pixels a thread loads at once;
        # even values vectorise into float2/float4 accesses.
        vector_factor = np.where(tx % 4 == 0, 1.04, np.where(tx % 2 == 0, 1.0, 0.93))

        # Shared-memory bank conflicts also slow the compute phase of the inner loop.
        conflict = bank_conflict_factor(gpu, bx, use_padding)

        return base * work_factor * aspect_factor * vector_factor / conflict


def _reference(config: Mapping[str, Any], rng, image_size: int = 96, filter_size: int = 9,
               **kwargs: Any):
    """Reference driver bound to the benchmark (small default size for tests)."""
    return convolution_reference.run(config, rng, image_size=image_size,
                                     filter_size=filter_size, **kwargs)


def create_benchmark(image_size: int = 4096, filter_size: int = 17) -> KernelBenchmark:
    """Create the Convolution benchmark (paper-scale default: 4096^2 image, 17x17 filter)."""
    space = SearchSpace(PARAMETERS, CONSTRAINTS, name="convolution")
    workload = Workload(
        name=f"{image_size}x{image_size}_f{filter_size}",
        sizes={"image_size": image_size, "filter_size": filter_size},
        description="Dense 2D convolution with adaptive tiling (van Werkhoven et al.)",
    )
    model = ConvolutionModel(image_size, filter_size)
    return KernelBenchmark(
        name="convolution",
        display_name="Convolution",
        space=space,
        model=model,
        workload=workload,
        reference=_reference,
        description="2D image convolution with shared-memory tiling",
        application_domain="image processing / machine learning",
        origin="van Werkhoven et al. GPU convolution library",
        paper_table="Table V",
    )
