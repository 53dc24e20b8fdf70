"""Expdist benchmark (paper Sec. IV-F, Table VI).

The Expdist kernel scores the registration of two localization-microscopy particles by
summing a Gaussian kernel over all pairs of localizations, taking per-localization
uncertainties into account.  It is called thousands of times inside the template-free
particle-fusion pipeline of Heydarian et al., so its performance matters despite the
modest data size -- the computation is quadratic in the number of localizations and
thoroughly compute-bound.

Two kernel structures are exposed: the default row-parallel form, and a column-blocked
form (``use_column == 1``) that limits the grid's y extent to ``n_y_blocks`` blocks and
performs a second-stage reduction; ``use_shared_mem`` selects among three staging
strategies for the model particle's localizations.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.gpus.columns import int_column, per_value
from repro.gpus.memory import MemoryTraffic
from repro.gpus.perfmodel import AnalyticalKernelModel, KernelLaunchConfig, ilp_factor
from repro.gpus.specs import GPUSpec
from repro.kernels.base import KernelBenchmark, Workload
from repro.kernels.reference import expdist_reference

__all__ = ["ExpdistModel", "create_benchmark", "PARAMETERS", "CONSTRAINTS"]

#: Tunable parameters exactly as listed in Table VI of the paper.
PARAMETERS: tuple[Parameter, ...] = (
    Parameter("block_size_x", (32, 64, 128, 256, 512, 1024), default=64,
              description="thread block dimension x"),
    Parameter("block_size_y", (1, 2, 4, 8, 16, 32), description="thread block dimension y"),
    Parameter("tile_size_x", tuple(range(1, 9)),
              description="template localizations per thread in x"),
    Parameter("tile_size_y", tuple(range(1, 9)),
              description="model localizations per thread in y"),
    Parameter("use_shared_mem", (0, 1, 2), description="shared-memory staging strategy"),
    Parameter("loop_unroll_factor_x", tuple(range(1, 9)),
              description="partial unroll of the x tile loop"),
    Parameter("loop_unroll_factor_y", tuple(range(1, 9)),
              description="partial unroll of the y tile loop"),
    Parameter("use_column", (0, 1), description="column-blocked kernel structure"),
    Parameter("n_y_blocks", (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
              description="fixed number of thread blocks in y (column variant)"),
)

#: Reconstructed validity constraints: the block must fit the CUDA limit, the unroll
#: factors must divide their tile loops, and the column-count parameter only exists in
#: the column-blocked variant.
CONSTRAINTS = ConstraintSet([
    "block_size_x * block_size_y <= 1024",
    "tile_size_x % loop_unroll_factor_x == 0",
    "tile_size_y % loop_unroll_factor_y == 0",
    "use_column == 1 or n_y_blocks == 1",
])


class ExpdistModel(AnalyticalKernelModel):
    """Analytical performance model of the Expdist registration kernel."""

    #: Operations per localization pair (distance, two squares, division, exp, add).
    FLOPS_PER_PAIR = 30.0

    def __init__(self, num_localizations: int):
        super().__init__("expdist", occupancy_saturation=0.40, noise_sigma=0.012)
        self.num_localizations = int(num_localizations)

    # ---------------------------------------------------------------- launch shape

    def launch_config(self, columns: Mapping[str, np.ndarray],
                      gpu: GPUSpec) -> KernelLaunchConfig:
        bx = int_column(columns, "block_size_x")
        by = int_column(columns, "block_size_y")
        tx = int_column(columns, "tile_size_x")
        ty = int_column(columns, "tile_size_y")
        use_shared = int_column(columns, "use_shared_mem")
        use_column = int_column(columns, "use_column") != 0
        n_y_blocks = int_column(columns, "n_y_blocks")
        ux = int_column(columns, "loop_unroll_factor_x")
        uy = int_column(columns, "loop_unroll_factor_y")

        k = self.num_localizations
        grid_x = np.ceil(k / (bx * tx))
        rows = np.ceil(k / (by * ty))
        grid_y = np.where(use_column, np.minimum(n_y_blocks, np.maximum(rows, 1)), rows)
        grid = grid_x * np.maximum(grid_y, 1)

        registers = 22 + 2.0 * tx * ty + 1.0 * (ux + uy)
        # Staging strategies: 0 = none, 1 = model points, 2 = model points + sigmas.
        per_point_bytes = np.array([0, 12, 16])[use_shared]
        shared_bytes = (by * ty * per_point_bytes * 8).astype(np.float64)
        # The column variant additionally reduces partial sums in shared memory.
        shared_bytes = np.where(use_column, shared_bytes + bx * by * 8.0, shared_bytes)

        return KernelLaunchConfig(
            threads_per_block=bx * by,
            grid_blocks=grid,
            registers_per_thread=registers,
            shared_mem_bytes=shared_bytes,
            launches=1 + np.where(use_column, 1, 0),   # second-stage reduction launch
        )

    # -------------------------------------------------------------------- work

    def flops(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> float:
        k = float(self.num_localizations)
        return self.FLOPS_PER_PAIR * k * k

    def traffic(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> MemoryTraffic:
        by = int_column(columns, "block_size_y")
        ty = int_column(columns, "tile_size_y")
        use_shared = int_column(columns, "use_shared_mem")
        use_column = int_column(columns, "use_column") != 0
        n_y_blocks = int_column(columns, "n_y_blocks")

        k = float(self.num_localizations)
        bytes_per_loc = 12.0  # x, y coordinates + sigma

        # Template localizations are read once per thread block row; model
        # localizations are streamed once per block row of the pair matrix -- staging
        # them in shared memory lets the whole block share one read, otherwise each
        # warp fetches its own copy and only the L2 limits the damage.
        reuse = np.maximum(by * ty, 1.0) * np.where(use_shared != 0, 8.0, 2.0)
        reads = k * bytes_per_loc + (k * k / reuse) * bytes_per_loc / 16.0
        writes = np.where(use_column, n_y_blocks, 1) * 8.0 * max(k / 256.0, 1.0)

        return MemoryTraffic(read_bytes=reads, write_bytes=writes, efficiency=0.9)

    # ----------------------------------------------------------- compute efficiency

    def compute_efficiency(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> np.ndarray:
        tx = int_column(columns, "tile_size_x")
        ty = int_column(columns, "tile_size_y")
        ux = int_column(columns, "loop_unroll_factor_x")
        uy = int_column(columns, "loop_unroll_factor_y")
        use_shared = int_column(columns, "use_shared_mem")
        use_column = int_column(columns, "use_column") != 0

        # exp() goes through the SFU, capping the sustained FMA fraction.  The SFU
        # bottleneck also flattens the landscape: most tiling/unrolling choices end up
        # within a few percent of each other (the paper's Fig. 2g shows random search
        # reaching 90% of optimal in about ten evaluations), so every efficiency
        # factor below is compressed towards 1.
        base = 0.48

        best_work = 8 if gpu.architecture == "Turing" else 16
        work_factor = per_value(lambda f: f ** 2,
                                ilp_factor(tx * ty, best_work, falloff=0.03))
        unroll_factor = 0.75 + 0.125 * (ilp_factor(ux, 4) + ilp_factor(uy, 4))

        staging_factor = np.array([0.96, 1.0, 1.01])[use_shared]
        column_factor = np.where(use_column, 1.02, 1.0)

        return base * work_factor * unroll_factor * staging_factor * column_factor


def _reference(config: Mapping[str, Any], rng, num_localizations: int = 192, **kwargs: Any):
    """Reference driver bound to the benchmark (small default size for tests)."""
    return expdist_reference.run(config, rng, num_localizations=num_localizations, **kwargs)


def create_benchmark(num_localizations: int = 32768) -> KernelBenchmark:
    """Create the Expdist benchmark (paper-scale default: 32768 localizations per particle)."""
    space = SearchSpace(PARAMETERS, CONSTRAINTS, name="expdist")
    workload = Workload(
        name=f"{num_localizations}_localizations",
        sizes={"num_localizations": num_localizations},
        description="Gaussian registration score of two super-resolution particles",
    )
    model = ExpdistModel(num_localizations)
    return KernelBenchmark(
        name="expdist",
        display_name="Expdist",
        space=space,
        model=model,
        workload=workload,
        reference=_reference,
        description="Template-free particle fusion registration distance",
        application_domain="localization microscopy",
        origin="Heydarian et al. particle fusion pipeline",
        paper_table="Table VI",
    )
