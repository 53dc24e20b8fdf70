"""N-body benchmark (paper Sec. IV-B, Table II).

All-pairs gravitational interaction of ``N`` bodies, the KTT tunable version of the
CUDA SDK sample.  Every thread accumulates the force on one or more bodies
(``outer_unroll_factor`` bodies per thread); the inner loop over all other bodies can
be partially unrolled (``inner_unroll_factor1/2``), the bodies can be stored as a
structure of arrays or an array of structures (``use_soa``), a shared-memory software
cache can stage the body tile (``local_mem``), and loads can be vectorised
(``vector_type``).

The kernel is strongly compute-bound (quadratic work over linear data), so most valid
configurations land within a modest factor of the optimum -- which is exactly the
behaviour the paper reports (90% of optimal within ~10 random evaluations) -- except
for a cluster of slow configurations where a small block size combined with no
software cache collapses both occupancy and data reuse (the distinct "poor" cluster in
Fig. 1f).
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.gpus.columns import int_column, per_value
from repro.gpus.memory import MemoryTraffic, vector_access_efficiency
from repro.gpus.perfmodel import AnalyticalKernelModel, KernelLaunchConfig, ilp_factor
from repro.gpus.specs import GPUSpec
from repro.kernels.base import KernelBenchmark, Workload
from repro.kernels.reference import nbody_reference

__all__ = ["NbodyModel", "create_benchmark", "PARAMETERS", "CONSTRAINTS"]

#: Tunable parameters exactly as listed in Table II of the paper.
PARAMETERS: tuple[Parameter, ...] = (
    Parameter("block_size", (64, 128, 256, 512), description="threads per block"),
    Parameter("outer_unroll_factor", (1, 2, 4, 8), description="bodies per thread"),
    Parameter("inner_unroll_factor1", (0, 1, 2, 4, 8, 16, 32),
              description="partial unroll of the global-memory inner loop"),
    Parameter("inner_unroll_factor2", (0, 1, 2, 4, 8, 16, 32),
              description="partial unroll of the shared-memory inner loop"),
    Parameter("use_soa", (0, 1), description="structure-of-arrays body layout"),
    Parameter("local_mem", (0, 1), description="shared-memory software cache"),
    Parameter("vector_type", (1, 2, 4), description="elements loaded per memory instruction"),
)

#: Reconstructed validity constraints (the original CUDA sources gate the code paths
#: the same way: the second inner loop only exists when the software cache is used and
#: vectorised body loads require the SoA layout).
CONSTRAINTS = ConstraintSet([
    "local_mem == 1 or inner_unroll_factor2 == 0",
    "local_mem == 0 or inner_unroll_factor1 == 0",
    "use_soa == 1 or vector_type == 1",
    "inner_unroll_factor1 <= block_size",
    "inner_unroll_factor2 <= block_size",
])


class NbodyModel(AnalyticalKernelModel):
    """Analytical performance model of the KTT N-body kernel."""

    #: Floating-point operations per body-body interaction (distance, rsqrt, FMA chain).
    FLOPS_PER_INTERACTION = 20.0

    def __init__(self, n_bodies: int):
        super().__init__("nbody", occupancy_saturation=0.30, noise_sigma=0.012)
        self.n_bodies = int(n_bodies)

    # ---------------------------------------------------------------- launch shape

    def launch_config(self, columns: Mapping[str, np.ndarray],
                      gpu: GPUSpec) -> KernelLaunchConfig:
        block = int_column(columns, "block_size")
        outer = int_column(columns, "outer_unroll_factor")
        inner1 = int_column(columns, "inner_unroll_factor1")
        inner2 = int_column(columns, "inner_unroll_factor2")
        local_mem = int_column(columns, "local_mem")
        vector = int_column(columns, "vector_type")

        grid = np.ceil(self.n_bodies / (block * outer))
        # Each extra body per thread needs its own position/acceleration registers;
        # unrolling keeps more interaction temporaries alive.
        registers = (26 + 8.0 * outer + 0.45 * np.maximum(inner1, 1)
                     + 0.45 * np.maximum(inner2, 1) + 2.0 * vector)
        # x, y, z, mass per cached body
        shared_bytes = (local_mem * block * 4 * 4).astype(np.float64)

        return KernelLaunchConfig(
            threads_per_block=block,
            grid_blocks=grid,
            registers_per_thread=registers,
            shared_mem_bytes=shared_bytes,
            launches=1,
        )

    # -------------------------------------------------------------------- work

    def flops(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> float:
        return self.FLOPS_PER_INTERACTION * float(self.n_bodies) * float(self.n_bodies)

    def traffic(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> MemoryTraffic:
        block = int_column(columns, "block_size")
        outer = int_column(columns, "outer_unroll_factor")
        local_mem = int_column(columns, "local_mem")
        use_soa = int_column(columns, "use_soa")
        vector = int_column(columns, "vector_type")

        n = float(self.n_bodies)
        bytes_per_body = 16.0  # float4: x, y, z, mass
        # With the software cache every block streams all bodies once through its
        # shared-memory tile; the L2 serves most of those streams because concurrently
        # resident blocks walk the same tiles in lockstep, so only a fraction reaches
        # DRAM.
        blocks = np.ceil(n / (block * outer))
        cached_reads = 0.25 * blocks * n * bytes_per_body
        # Without the software cache the tile reuse happens (imperfectly) in L1/L2:
        # every thread's loop re-reads bodies, the caches absorb reuse within a warp.
        uncached_reads = (n / np.maximum(outer, 1)) * n * bytes_per_body / gpu.warp_size * 1.8
        reads = np.where(local_mem != 0, cached_reads, uncached_reads)
        writes = n * bytes_per_body

        efficiency = vector_access_efficiency(gpu, vector)
        # Array-of-structures loads of individual components waste part of each
        # transaction unless the full float4 is consumed.
        efficiency = np.where(use_soa != 0, efficiency, efficiency * 0.9)
        return MemoryTraffic(read_bytes=reads, write_bytes=writes, efficiency=efficiency)

    # ----------------------------------------------------------- compute efficiency

    def compute_efficiency(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> np.ndarray:
        outer = int_column(columns, "outer_unroll_factor")
        inner1 = int_column(columns, "inner_unroll_factor1")
        inner2 = int_column(columns, "inner_unroll_factor2")
        local_mem = int_column(columns, "local_mem")
        use_soa = int_column(columns, "use_soa")

        # The interaction loop is an FMA/rsqrt mix; base sustained fraction of peak.
        base = 0.62

        # ILP from unrolling whichever inner loop is active; Ampere profits from
        # deeper unrolling than Turing (dual-issue FP32).  The effect is compressed
        # towards 1 because the rsqrt-heavy loop is mostly SFU bound: many
        # configurations land close to the optimum, which is why random search reaches
        # 90% of optimal within about ten evaluations on this benchmark (Fig. 2f).
        best_unroll = 16 if gpu.architecture == "Ampere" else 8
        active_inner = np.where(local_mem != 0, inner2, inner1)
        unroll_factor = 0.75 + 0.25 * ilp_factor(active_inner, best_unroll, falloff=0.02)

        # Multiple bodies per thread amortise the loop overhead slightly.
        outer_factor = per_value(lambda o: 1.0 + 0.01 * math.log2(max(o, 1)), outer)

        # Reading the body tile from shared memory instead of L2 keeps the FMA pipes fed.
        cache_factor = np.where(local_mem != 0, 1.04, 0.94)

        layout_factor = np.where(use_soa != 0, 1.0, 0.98)

        return base * unroll_factor * outer_factor * cache_factor * layout_factor


def _reference(config: Mapping[str, Any], rng, n_bodies: int = 192, **kwargs: Any):
    """Reference driver bound to the benchmark (small default size for tests)."""
    return nbody_reference.run(config, rng, n_bodies=n_bodies, **kwargs)


def create_benchmark(n_bodies: int = 262144) -> KernelBenchmark:
    """Create the N-body benchmark instance (default: 262144 bodies, a problem size
    large enough that every block shape keeps all SMs of the largest GPU busy)."""
    space = SearchSpace(PARAMETERS, CONSTRAINTS, name="nbody")
    workload = Workload(
        name=f"{n_bodies}_bodies",
        sizes={"n_bodies": n_bodies},
        description="All-pairs gravitational N-body step (KTT tunable CUDA SDK sample)",
    )
    model = NbodyModel(n_bodies)
    return KernelBenchmark(
        name="nbody",
        display_name="Nbody",
        space=space,
        model=model,
        workload=workload,
        reference=_reference,
        description="All-pairs gravitational force computation",
        application_domain="astrophysics",
        origin="KTT benchmark set (Petrovic et al., 2019)",
        paper_table="Table II",
    )
