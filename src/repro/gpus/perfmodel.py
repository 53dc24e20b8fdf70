"""Base analytical kernel performance model, evaluated over columns.

Every BAT benchmark in :mod:`repro.kernels` provides a subclass of
:class:`AnalyticalKernelModel` that describes a *batch* of configurations, given as
value columns -- a ``Mapping[str, np.ndarray]`` with one equal-length array per
parameter, as :meth:`~repro.core.searchspace.SearchSpace.columns_at` returns them:

* :meth:`~AnalyticalKernelModel.launch_config` -- the *launch shape* (threads per
  block, number of blocks, per-thread registers, per-block shared memory), consumed
  by the occupancy calculator;
* :meth:`~AnalyticalKernelModel.flops` and :meth:`~AnalyticalKernelModel.traffic` --
  the *work* (floating-point operations) and the *DRAM traffic* (bytes, with access
  efficiency), consumed by a roofline-style combiner;
* :meth:`~AnalyticalKernelModel.compute_efficiency` -- kernel-specific *efficiency
  factors* (divergence, instruction mix, software caching).

Each returns arrays (or scalars that broadcast).  :meth:`AnalyticalKernelModel.evaluate`
turns them into a :class:`ModelColumns` result: simulated runtimes, a launch-failure
mask with one error string per row, and the breakdown columns.  The combiner is
deliberately a *latency-aware roofline*: at full occupancy compute and memory phases
overlap (time = max of the two), while at low occupancy the hardware cannot hide
latency and the phases serialise (time tends to their sum).  Two additional
first-order GPU effects are modelled because several tuning parameters act through
them: the *tail effect* (the last wave of blocks underutilises the SMs when the grid
is small) and *register spilling* (configurations whose estimated register demand
exceeds the hardware cap pay a local-memory penalty).

There is one formula per kernel.  The scalar :meth:`~AnalyticalKernelModel.estimate`,
:meth:`~AnalyticalKernelModel.time_ms` and :meth:`~AnalyticalKernelModel.occupancy`
evaluate a batch of one and raise :class:`~repro.core.errors.ResourceLimitError` for a
configuration that cannot launch.

Bit-exactness
-------------
Campaign caches are pinned byte for byte, so the column formulas must produce the
same float64 values plain Python arithmetic on one configuration would:

* keep each expression's evaluation order (Python evaluates ``a * b * c`` as
  ``(a * b) * c``; so does NumPy);
* ``+ - * / //``, ``sqrt``, ``min``/``max``, ``ceil`` and ``gcd`` map one to one onto
  NumPy (``np.minimum``, ``np.ceil``, ...), and ``if``/``else`` onto ``np.where``;
* every transcendental -- ``math.log2``, ``**`` on floats, ``log``/``cos``/``exp`` --
  runs in scalar :mod:`math` on the distinct values through
  :func:`repro.gpus.columns.per_value`, never through NumPy's ufuncs, which round
  differently (``repro.lint`` rule RPL008 enforces this);
* a configuration that cannot launch is a row of the failure mask, with the text
  the scalar view raises, checked in the same order (threads <= 0, threads over the
  device limit, shared memory over the block limit, no resident block);
* the noise hashes each row's configuration key (:mod:`repro.gpus.noise`) into the
  same bytes :func:`~repro.gpus.noise.stable_hash` produces for the mapping.

``tests/test_model_batch.py`` pins every kernel x GPU against golden digests taken
from the per-configuration formulas.

The absolute times produced are approximations -- the reproduction does not claim
nanosecond fidelity -- but the *relative* structure (which parameters matter, how they
interact, how optima move between architectures) follows from the same mechanisms that
drive real hardware, which is what the paper's analyses measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.errors import ResourceLimitError
from repro.gpus.columns import at, per_value
from repro.gpus.memory import MemoryTraffic, dram_time_ms
from repro.gpus.noise import config_key, keyed_hashes, lognormal_factors
from repro.gpus.occupancy import OccupancyResult, occupancy_columns
from repro.gpus.specs import GPUSpec

__all__ = [
    "KernelLaunchConfig",
    "ModelEstimate",
    "ModelColumns",
    "AnalyticalKernelModel",
    "failure_mask",
    "occupancy_throughput_factor",
    "ilp_factor",
    "tail_effect_factor",
]


@dataclass(frozen=True)
class KernelLaunchConfig:
    """Launch shape of one kernel invocation, or columns of many.

    Attributes
    ----------
    threads_per_block:
        Total threads per block (product of the block dimensions).
    grid_blocks:
        Total number of thread blocks launched.
    registers_per_thread:
        Estimated register demand per thread.
    shared_mem_bytes:
        Shared memory requested per block, in bytes.
    blocks_per_sm_hint:
        Value of a ``__launch_bounds__``-style tuning parameter (0 = no hint).
    launches:
        Number of back-to-back kernel launches needed for the whole problem (e.g.
        Hotspot performs ``total_iterations / temporal_tiling_factor`` launches).
    """

    threads_per_block: Any
    grid_blocks: Any
    registers_per_thread: Any
    shared_mem_bytes: Any
    blocks_per_sm_hint: Any = 0
    launches: Any = 1

    def row(self, i: int) -> "KernelLaunchConfig":
        """Row ``i`` of a column launch shape, as Python scalars."""
        return KernelLaunchConfig(
            threads_per_block=int(at(self.threads_per_block, i)),
            grid_blocks=int(at(self.grid_blocks, i)),
            registers_per_thread=float(at(self.registers_per_thread, i)),
            shared_mem_bytes=float(at(self.shared_mem_bytes, i)),
            blocks_per_sm_hint=int(at(self.blocks_per_sm_hint, i)),
            launches=int(at(self.launches, i)),
        )


@dataclass
class ModelEstimate:
    """Full breakdown of one simulated measurement.

    The analysis layer only needs :attr:`time_ms`, but the breakdown is kept for the
    ablation benchmarks and for debugging model calibration.
    """

    time_ms: float
    compute_time_ms: float
    memory_time_ms: float
    occupancy: OccupancyResult
    launch: KernelLaunchConfig
    factors: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable breakdown."""
        return {
            "time_ms": self.time_ms,
            "compute_time_ms": self.compute_time_ms,
            "memory_time_ms": self.memory_time_ms,
            "occupancy": self.occupancy.occupancy,
            "limiting_factor": self.occupancy.limiting_factor,
            "threads_per_block": self.launch.threads_per_block,
            "grid_blocks": self.launch.grid_blocks,
            "factors": dict(self.factors),
        }


@dataclass
class ModelColumns:
    """Simulated measurements of a batch of configurations.

    ``time_ms`` is ``inf`` and ``errors`` holds the launch-failure text on rows that
    cannot launch (``failed``); the breakdown columns of those rows are meaningless.
    """

    time_ms: np.ndarray
    failed: np.ndarray
    errors: list[str]
    compute_time_ms: np.ndarray
    memory_time_ms: np.ndarray
    occupancy: OccupancyResult
    launch: KernelLaunchConfig
    factors: dict[str, np.ndarray]

    def estimate(self, i: int) -> ModelEstimate:
        """The breakdown of row ``i``."""
        return ModelEstimate(
            time_ms=float(self.time_ms[i]),
            compute_time_ms=float(self.compute_time_ms[i]),
            memory_time_ms=float(self.memory_time_ms[i]),
            occupancy=self.occupancy.row(i),
            launch=self.launch.row(i),
            factors={name: float(at(value, i)) for name, value in self.factors.items()},
        )


def failure_mask(errors: Sequence[str]) -> np.ndarray:
    """Boolean mask of the rows with a non-empty error string."""
    return np.fromiter(map(bool, errors), dtype=bool, count=len(errors))


# ----------------------------------------------------------------------- helper curves


def occupancy_throughput_factor(occupancy: Any, saturation: float) -> Any:
    """Fraction of peak throughput sustained at a given occupancy.

    GPUs reach full throughput well below 100% occupancy; ``saturation`` is the
    occupancy at which the curve flattens (lower for compute-bound kernels with high
    ILP, higher for latency/memory-bound kernels).  Below saturation the curve is a
    smooth concave ramp rather than a straight line, matching measured behaviour.
    """
    saturation = min(max(saturation, 1e-3), 1.0)
    x = np.minimum(np.maximum(occupancy, 0.0), 1.0) / saturation
    # Smooth ramp: sqrt-shaped so the first warps contribute the most.
    return np.where(x >= 1.0, 1.0, np.maximum(np.sqrt(x) * (0.55 + 0.45 * x), 0.02))[()]


def ilp_factor(unroll: Any, best_unroll: int, falloff: float = 0.03) -> Any:
    """Instruction-level-parallelism benefit of partial loop unrolling.

    Benefit grows logarithmically up to ``best_unroll`` and then degrades gently
    (instruction-cache pressure, scheduler pressure).  ``unroll=0`` means "compiler
    decides" and is treated as a modest default benefit.
    """
    best_unroll = max(best_unroll, 1)

    def factor(u: int) -> float:
        if u <= 0:
            return 0.92
        if u <= best_unroll:
            span = math.log2(best_unroll) if best_unroll > 1 else 1.0
            return 0.80 + 0.20 * (math.log2(u) / span if span else 1.0)
        over = math.log2(u / best_unroll)
        return max(1.0 - falloff * over, 0.75)

    return per_value(factor, unroll)


def tail_effect_factor(gpu: GPUSpec, grid_blocks: Any, blocks_per_sm: Any) -> Any:
    """SM utilisation of the block schedule in ``(0, 1]``.

    When the grid has fewer blocks than the device can keep resident -- or the last
    wave is only partially full -- part of the machine idles.  The factor is the
    fraction of resident-block slots doing useful work averaged over waves.
    """
    grid_blocks = np.asarray(grid_blocks)
    concurrent = gpu.sm_count * np.maximum(blocks_per_sm, 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        waves = np.ceil(grid_blocks / concurrent)
        utilisation = np.minimum(grid_blocks / (waves * concurrent), 1.0)
    return np.where(grid_blocks <= 0, 1e-3, utilisation)[()]


# -------------------------------------------------------------------------- base model


class AnalyticalKernelModel:
    """Base class of the per-kernel analytical models.

    Subclasses implement the column formulas :meth:`launch_config`, :meth:`flops`,
    :meth:`traffic` and :meth:`compute_efficiency`, and inherit the roofline combiner
    (:meth:`evaluate`) plus the noise model.

    Parameters
    ----------
    name:
        Benchmark name, used for noise seeding and reports.
    occupancy_saturation:
        Occupancy at which the kernel reaches full throughput (kernel-specific
        calibration; compute-dense kernels saturate earlier).
    noise_sigma:
        Standard deviation of the persistent per-configuration lognormal model error.
    """

    def __init__(self, name: str, occupancy_saturation: float = 0.45,
                 noise_sigma: float = 0.015):
        self.name = name
        self.occupancy_saturation = occupancy_saturation
        self.noise_sigma = noise_sigma

    # ----------------------------------------------------- subclass responsibilities

    def launch_config(self, columns: Mapping[str, np.ndarray],
                      gpu: GPUSpec) -> KernelLaunchConfig:
        """Launch-shape columns of the configurations on ``gpu``."""
        raise NotImplementedError

    def flops(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> Any:
        """Total floating-point operations of the whole problem, per configuration."""
        raise NotImplementedError

    def traffic(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> MemoryTraffic:
        """DRAM traffic columns (bytes + access efficiency) of the whole problem."""
        raise NotImplementedError

    def compute_efficiency(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> Any:
        """Fraction of peak FLOP/s the instruction stream sustains at full occupancy."""
        return 1.0

    # ------------------------------------------------------------------ composition

    def _effective_registers(self, gpu: GPUSpec,
                             launch: KernelLaunchConfig) -> tuple[np.ndarray, np.ndarray]:
        """Registers per thread after the compiler's launch-feasibility cap.

        Real compilers never emit a kernel that cannot launch because of register
        demand: ``nvcc`` caps the per-thread register count so that at least one block
        fits on an SM (and honours ``__launch_bounds__``) and spills the rest to local
        memory.  Returns ``(effective_registers, spill_fraction)`` where the spill
        fraction is the relative amount of demand that had to be spilled.
        """
        threads = launch.threads_per_block
        hint = np.asarray(launch.blocks_per_sm_hint)
        demanded = np.maximum(launch.registers_per_thread, 1.0)
        # Hardware cap per thread plus "one block must fit" cap.
        cap = np.minimum(float(gpu.max_registers_per_thread),
                         gpu.registers_per_sm / np.maximum(threads, 1))
        cap = np.where(hint > 0,
                       np.minimum(cap, gpu.registers_per_sm
                                  / np.maximum(hint * threads, 1)),
                       cap)
        cap = np.maximum(cap, 16.0)  # the ABI always grants a handful of registers
        spilled = demanded > cap
        return (np.where(spilled, cap, demanded),
                np.where(spilled, (demanded - cap) / demanded, 0.0))

    def _launch(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec
                ) -> tuple[KernelLaunchConfig, OccupancyResult, np.ndarray, list[str]]:
        """Launch shape, occupancy, spill fraction and launch errors of a batch."""
        n = len(next(iter(columns.values())))
        launch = self.launch_config(columns, gpu)
        regs, spill_fraction = self._effective_registers(gpu, launch)
        occ, errors = occupancy_columns(gpu, np.broadcast_to(launch.threads_per_block, n),
                                        regs, launch.shared_mem_bytes)
        for i in np.flatnonzero(occ.blocks_per_sm <= 0).tolist():
            if not errors[i]:
                errors[i] = f"configuration cannot keep a single block resident on {gpu.name}"
        return launch, occ, spill_fraction, errors

    def launch_errors(self, columns: Mapping[str, np.ndarray], keys: Sequence[bytes],
                      gpu: GPUSpec) -> list[str]:
        """Per-row launch-failure text (empty for rows that launch) on ``gpu``.

        ``keys`` are the configurations' keys (:func:`repro.gpus.noise.config_keys`);
        the kernel models do not need them, generated scenarios hash them.
        """
        return self._launch(columns, gpu)[3]

    def evaluate(self, columns: Mapping[str, np.ndarray], keys: Sequence[bytes],
                 gpu: GPUSpec, with_noise: bool = True) -> ModelColumns:
        """Simulated measurements of a batch of configurations on ``gpu``.

        ``columns`` holds one value array per parameter and ``keys`` the matching
        configuration keys (:func:`repro.gpus.noise.config_keys`), which seed the noise.
        """
        launch, occ, spill_fraction, errors = self._launch(columns, gpu)
        failed = failure_mask(errors)
        saturation = self.occupancy_saturation
        # Rows that cannot launch compute meaningless values; they are masked below.
        with np.errstate(all="ignore"):
            flops = self.flops(columns, gpu)
            traffic = self.traffic(columns, gpu)
            compute_eff = np.maximum(np.minimum(self.compute_efficiency(columns, gpu),
                                                1.0), 1e-3)

            occ_factor = occupancy_throughput_factor(occ.occupancy, saturation)
            tail = tail_effect_factor(gpu, launch.grid_blocks, occ.blocks_per_sm)

            # Register spilling: demand the compiler could not fit goes to local
            # memory, costing extra instructions and extra traffic on every access.
            spill_factor = 1.0 + 1.2 * np.maximum(spill_fraction, 0.0)

            sustained_flops = gpu.peak_flops * compute_eff * occ_factor * tail
            compute_time_ms = flops / sustained_flops * 1e3 * spill_factor

            # DRAM bandwidth is a device-wide resource: even modest occupancy keeps
            # enough loads in flight to approach peak, so the memory stream saturates
            # at a lower occupancy than the ALUs and never degrades as steeply.
            mem_occ_factor = np.maximum(
                occupancy_throughput_factor(occ.occupancy, saturation * 0.5), 0.40)
            memory_time_ms = dram_time_ms(gpu, traffic) / np.maximum(mem_occ_factor * tail,
                                                                      1e-3)

            # Latency-aware overlap: full overlap at saturated occupancy,
            # serialisation when the SM has too few warps to hide either latency.
            hiding = np.minimum(occ.occupancy / saturation, 1.0)
            overlapped = np.maximum(compute_time_ms, memory_time_ms)
            serialised = np.minimum(compute_time_ms, memory_time_ms)
            kernel_time_ms = overlapped + (1.0 - hiding) * serialised

            # flops()/traffic() describe the WHOLE problem (all launches together);
            # only the per-launch overhead scales with the launch count.
            launch_overhead_ms = (gpu.kernel_launch_overhead_us * 1e-3
                                  * np.maximum(launch.launches, 1))
            total = kernel_time_ms + launch_overhead_ms

        factors = {
            "occupancy_factor": occ_factor,
            "tail_factor": tail,
            "compute_efficiency": compute_eff,
            "memory_efficiency": traffic.efficiency,
            "spill_factor": spill_factor,
            "hiding": hiding,
        }
        if with_noise:
            noise = self._noise(keys, gpu, failed)
            total = total * noise
            factors["noise"] = noise

        return ModelColumns(
            time_ms=np.where(failed, np.inf, total),
            failed=failed,
            errors=errors,
            compute_time_ms=compute_time_ms,
            memory_time_ms=memory_time_ms,
            occupancy=occ,
            launch=launch,
            factors=factors,
        )

    def _noise(self, keys: Sequence[bytes], gpu: GPUSpec, failed: np.ndarray) -> np.ndarray:
        """Per-row ``config_noise`` factors (1.0 on failed rows, which are not hashed)."""
        rows = np.flatnonzero(~failed).tolist()
        noise = np.ones(len(keys))
        noise[rows] = lognormal_factors(
            keyed_hashes(("config", gpu.name, self.name), [keys[i] for i in rows]),
            self.noise_sigma)
        return noise

    # ---------------------------------------------------------------- scalar views

    def estimate(self, config: Mapping[str, Any], gpu: GPUSpec,
                 with_noise: bool = True) -> ModelEstimate:
        """Full simulated measurement of ``config`` on ``gpu`` (a batch of one).

        Raises
        ------
        ResourceLimitError
            If the configuration cannot launch on the device; callers treat this as
            an invalid configuration.
        """
        columns = {name: np.asarray([value]) for name, value in config.items()}
        batch = self.evaluate(columns, [config_key(config)], gpu, with_noise=with_noise)
        if batch.errors[0]:
            raise ResourceLimitError(batch.errors[0], resource="launch")
        return batch.estimate(0)

    def occupancy(self, config: Mapping[str, Any], gpu: GPUSpec) -> OccupancyResult:
        """Occupancy of ``config`` on ``gpu`` (raises ResourceLimitError if unlaunchable)."""
        return self.estimate(config, gpu, with_noise=False).occupancy

    def time_ms(self, config: Mapping[str, Any], gpu: GPUSpec,
                with_noise: bool = True) -> float:
        """Simulated runtime in milliseconds (shortcut around :meth:`estimate`)."""
        return self.estimate(config, gpu, with_noise=with_noise).time_ms
