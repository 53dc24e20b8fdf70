"""GEMM benchmark (paper Sec. IV-A, Table I).

Generalized dense matrix-matrix multiplication ``C = alpha * A @ B + beta * C`` using
the tunable CLBlast kernel structure: the output is partitioned into ``MWG x NWG``
workgroup tiles computed by ``MDIMC x NDIMC`` threads, ``MDIMA``/``NDIMB`` re-shape the
cooperative loading of the A/B panels, ``VWM``/``VWN`` are the global-memory vector
widths, and ``SA``/``SB`` toggle staging of the A/B panels in shared memory.

The constraint set follows the CLBlast kernel's divisibility rules restricted to the
parameters that BAT exposes (the reduction-tile size ``KWG`` is fixed at 32 in BAT, so
rules involving it become constants checked against that value).
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
from repro.gpus.perfmodel import AnalyticalKernelModel, KernelLaunchConfig
from repro.gpus.specs import GPUSpec
from repro.kernels.base import KernelBenchmark, Workload
from repro.kernels.reference import gemm_reference

__all__ = ["GemmModel", "create_benchmark", "PARAMETERS", "CONSTRAINTS", "KWG"]

#: Fixed reduction-dimension tile of the BAT GEMM kernel.
KWG = 32

#: Tunable parameters exactly as listed in Table I of the paper.
PARAMETERS: tuple[Parameter, ...] = (
    Parameter("MWG", (16, 32, 64, 128), description="work-group tile size in M"),
    Parameter("NWG", (16, 32, 64, 128), description="work-group tile size in N"),
    Parameter("MDIMC", (8, 16, 32), description="threads per work-group in M"),
    Parameter("NDIMC", (8, 16, 32), description="threads per work-group in N"),
    Parameter("MDIMA", (8, 16, 32), description="re-shaped tile dimension for loading A"),
    Parameter("NDIMB", (8, 16, 32), description="re-shaped tile dimension for loading B"),
    Parameter("VWM", (1, 2, 4, 8), description="vector width for loading/storing M-direction"),
    Parameter("VWN", (1, 2, 4, 8), description="vector width for loading/storing N-direction"),
    Parameter("SA", (0, 1), description="stage A tiles in shared memory"),
    Parameter("SB", (0, 1), description="stage B tiles in shared memory"),
)

#: CLBlast divisibility constraints restricted to BAT's parameter set.
CONSTRAINTS = ConstraintSet([
    "MWG % (MDIMC * VWM) == 0",
    "NWG % (NDIMC * VWN) == 0",
    "MWG % (MDIMA * VWM) == 0",
    "NWG % (NDIMB * VWN) == 0",
    f"{KWG} % ((MDIMC * NDIMC) // MDIMA) == 0",
    f"{KWG} % ((MDIMC * NDIMC) // NDIMB) == 0",
    "MDIMC * NDIMC <= 1024",
])


class GemmModel(AnalyticalKernelModel):
    """Analytical performance model of the CLBlast GEMM kernel.

    GEMM at 4096^3 is compute-bound on every GPU of the testbed, so the dominant
    effects are (i) per-thread register tiling (``MWG/MDIMC x NWG/NDIMC`` accumulators
    give instruction-level parallelism until register pressure kills occupancy) and
    (ii) how much global traffic the A/B panel reuse removes (``NWG``/``MWG`` and the
    shared-memory switches).  The loader re-shaping parameters ``MDIMA``/``NDIMB``
    only perturb load efficiency slightly, which is why the paper's Fig. 6a shows them
    with near-zero importance.
    """

    def __init__(self, m: int, n: int, k: int):
        super().__init__("gemm", occupancy_saturation=0.30, noise_sigma=0.012)
        self.m = int(m)
        self.n = int(n)
        self.k = int(k)

    # ---------------------------------------------------------------- launch shape

    def launch_config(self, columns: Mapping[str, np.ndarray],
                      gpu: GPUSpec) -> KernelLaunchConfig:
        mwg, nwg = int_column(columns, "MWG"), int_column(columns, "NWG")
        mdimc, ndimc = int_column(columns, "MDIMC"), int_column(columns, "NDIMC")
        vwm, vwn = int_column(columns, "VWM"), int_column(columns, "VWN")
        sa, sb = int_column(columns, "SA"), int_column(columns, "SB")

        threads = mdimc * ndimc
        grid = np.ceil(self.m / mwg) * np.ceil(self.n / nwg)

        mwi = np.maximum(mwg // mdimc, 1)    # per-thread tile in M
        nwi = np.maximum(nwg // ndimc, 1)    # per-thread tile in N
        # Accumulators plus operand registers plus addressing/loop state.
        registers = 24 + mwi * nwi + 2.0 * (mwi + nwi) + 1.5 * (vwm + vwn)
        shared_bytes = ((sa * mwg * KWG + sb * nwg * KWG) * 4).astype(np.float64)

        return KernelLaunchConfig(
            threads_per_block=threads,
            grid_blocks=grid,
            registers_per_thread=registers,
            shared_mem_bytes=shared_bytes,
            blocks_per_sm_hint=0,
            launches=1,
        )

    # -------------------------------------------------------------------- work

    def flops(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> float:
        return 2.0 * self.m * self.n * self.k

    def traffic(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> MemoryTraffic:
        mwg, nwg = int_column(columns, "MWG"), int_column(columns, "NWG")
        vwm, vwn = int_column(columns, "VWM"), int_column(columns, "VWN")
        sa, sb = int_column(columns, "SA"), int_column(columns, "SB")

        # Each workgroup column re-reads the A panel; staging in shared memory reads it
        # exactly once per workgroup, without staging the hardware caches absorb part of
        # the re-reads but not all of them.  The 0.55 factor accounts for L2 capturing
        # re-reads between neighbouring workgroups of the same wave.
        reads_a = 0.75 * self.m * self.k * 4.0 * (self.n / nwg) * np.where(sa != 0, 1.0, 1.45)
        reads_b = 0.75 * self.k * self.n * 4.0 * (self.m / mwg) * np.where(sb != 0, 1.0, 1.45)
        writes_c = self.m * self.n * 4.0

        efficiency = 0.5 * (vector_access_efficiency(gpu, vwm)
                            + vector_access_efficiency(gpu, vwn))
        return MemoryTraffic(read_bytes=reads_a + reads_b, write_bytes=writes_c,
                             efficiency=efficiency)

    # ----------------------------------------------------------- compute efficiency

    def compute_efficiency(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> np.ndarray:
        mwg, nwg = int_column(columns, "MWG"), int_column(columns, "NWG")
        mdimc, ndimc = int_column(columns, "MDIMC"), int_column(columns, "NDIMC")
        mdima, ndimb = int_column(columns, "MDIMA"), int_column(columns, "NDIMB")
        mwi = np.maximum(mwg // mdimc, 1)
        nwi = np.maximum(nwg // ndimc, 1)

        # Register-tile ILP: the per-thread tile size controls how many FMAs each load
        # amortises, which is THE first-order effect in register-blocked GEMM -- a
        # 2x2 tile cannot come close to peak while an 8x8 tile can.  Ampere's dual
        # FP32 pipes want a larger tile than Turing, which shifts the optimum between
        # families.  The steep curve makes the top of the space a narrow corner (the
        # paper's Fig. 2a needs hundreds of random evaluations to reach 90%).
        best_tile = 64 if gpu.architecture == "Ampere" else 32

        def tile_curve(work: int) -> float:
            if work <= best_tile:
                return min(max((work / best_tile) ** 0.55, 0.15), 1.0)
            return max(1.0 - 0.05 * math.log2(work / best_tile), 0.8)

        tile_factor = per_value(tile_curve, mwi * nwi)

        # The per-thread tile should be roughly square: a skewed tile starves one of
        # the FMA operand pipes and wastes register bandwidth.
        skew = np.maximum(mwi, nwi) / np.maximum(np.minimum(mwi, nwi), 1)
        skew_factor = per_value(
            lambda s: 1.0 / (1.0 + 0.06 * math.log2(s)) if s > 1 else 1.0, skew)

        # FMA-dominated inner loop sustains a high fraction of peak.
        base = 0.78

        # Staging the operand panels in shared memory keeps the inner loop free of
        # global-memory instructions; without it the FMA pipes stall on loads.
        sa, sb = int_column(columns, "SA"), int_column(columns, "SB")
        staging_factor = np.array([0.85, 0.93, 1.0])[sa + sb]

        # Wider vector accesses cut the number of load instructions competing with the
        # FMAs for issue slots; the benefit saturates at the device's preferred width.
        vwm, vwn = int_column(columns, "VWM"), int_column(columns, "VWN")
        vector_factor = per_value(lambda w: 0.90 + 0.05 * min(math.log2(w) / 2.0, 2.0),
                                  vwm * vwn)

        # Loader re-shaping: a mismatch between the compute grid and the load grid
        # costs a few percent (this is deliberately a small effect, matching Fig. 6a).
        loader = np.ones(len(mwg))
        loader = np.where(mdima != mdimc, loader * 0.985, loader)
        loader = np.where(ndimb != ndimc, loader * 0.985, loader)

        return base * tile_factor * skew_factor * staging_factor * vector_factor * loader


def _reference(config: Mapping[str, Any], rng, matrix_size: int = 96, **kwargs: Any):
    """Reference driver bound to the benchmark (small default size for tests)."""
    return gemm_reference.run(config, rng, matrix_size=matrix_size, **kwargs)


def create_benchmark(matrix_size: int = 4096) -> KernelBenchmark:
    """Create the GEMM benchmark instance.

    Parameters
    ----------
    matrix_size:
        Square matrix dimension used by the performance model (the paper tunes a
        4096^3 problem); the functional reference always runs on small matrices.
    """
    space = SearchSpace(PARAMETERS, CONSTRAINTS, name="gemm")
    workload = Workload(
        name=f"{matrix_size}x{matrix_size}x{matrix_size}",
        sizes={"m": matrix_size, "n": matrix_size, "k": matrix_size},
        description="Square single-precision GEMM, the CLBlast tunable kernel",
    )
    model = GemmModel(matrix_size, matrix_size, matrix_size)
    return KernelBenchmark(
        name="gemm",
        display_name="GEMM",
        space=space,
        model=model,
        workload=workload,
        reference=_reference,
        description="Generalized dense matrix-matrix multiplication from CLBlast",
        application_domain="linear algebra / machine learning",
        origin="CLBlast (Nugteren, 2018)",
        paper_table="Table I",
    )
