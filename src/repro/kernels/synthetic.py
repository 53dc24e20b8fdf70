"""Synthetic tuning scenarios: generated benchmarks beyond the paper's seven kernels.

The paper's suite is seven hand-modelled kernels; campaigns that stress the execution
subsystem (or train/evaluate tuners at scale) want *hundreds* of scenarios.  This
module mints them: :func:`create_benchmark` generates a complete
:class:`~repro.kernels.base.KernelBenchmark` -- discrete parameter table, string
constraints inside the search space's truth-table cap, analytical value model with
a deterministic failure mode -- from a handful of JSON-serializable knobs,
deterministically per seed.  Because the factory is
a module-level callable with JSON kwargs, a scenario is exactly the *picklable spec*
the open registry (:func:`repro.core.registry.register_benchmark`) and the
:mod:`repro.exec` worker contract require: parent and worker processes rebuild the
identical benchmark from ``("repro.kernels.synthetic:create_benchmark", kwargs)``
alone, so generated scenarios ride the parallel/checkpoint/resume machinery with
byte-identical caches.

Scenario families
-----------------
``"separable"``
    A rastrigin-like surface: per-parameter quadratic bowls plus cosine ripple.
    Parameters contribute independently, so local search climbs it well -- lots of
    shallow local minima, one global basin.
``"coupled"``
    A rosenbrock-like surface: consecutive parameters are coupled through a curved
    valley, so greedy one-parameter moves stall and the scenario is genuinely harder
    for Hamming-neighbourhood optimizers.

Both families place their optimum *per device* (a deterministic shift derived from the
GPU name via :func:`repro.gpus.noise.stable_hash`), so portability analyses see optima
move between architectures just like the real kernels.  The failure model is equally
deterministic: a configurable fraction of configurations fail to launch with a stable
error string, which is what keeps serial and parallel campaign caches byte-identical.
"""

from __future__ import annotations

import math
# repro: allow[RPL001] only seeded random.Random(stable_hash(...)) instances are
# built below; the module-level global-state functions are never called
import random
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.constraints import ConstraintSet
from repro.core.errors import InvalidConfigurationError, ReproError
from repro.core.parameter import Parameter
from repro.core.searchspace import SearchSpace
from repro.gpus.noise import keyed_hashes, stable_hash
from repro.gpus.occupancy import OccupancyResult
from repro.gpus.perfmodel import (
    AnalyticalKernelModel,
    KernelLaunchConfig,
    ModelColumns,
    failure_mask,
)
from repro.gpus.specs import GPUSpec
from repro.kernels.base import KernelBenchmark, Workload

__all__ = [
    "FAMILIES",
    "FACTORY_SPEC",
    "SyntheticKernelModel",
    "create_benchmark",
    "scenario_specs",
]

#: Scenario families (value-surface structure) this module can generate.
FAMILIES: tuple[str, ...] = ("separable", "coupled")

#: The ``"module:factory"`` spec string of :func:`create_benchmark` -- what
#: plan manifests and ``--benchmark-spec`` arguments name.
FACTORY_SPEC = "repro.kernels.synthetic:create_benchmark"

#: Denominator of the deterministic failure draw (see
#: :meth:`SyntheticKernelModel.launch_errors`).
_FAILURE_BUCKETS = 2**32

#: Amplitude of the per-device optimum shift in normalized coordinates.
_DEVICE_SHIFT = 0.35


class SyntheticKernelModel(AnalyticalKernelModel):
    """Analytical value model of one generated scenario.

    The model bypasses the roofline combiner: the simulated runtime is an explicit
    function of the configuration's normalized digit coordinates (family-dependent,
    see the module docstring), scaled to ``base_time_ms`` and perturbed by the same
    deterministic lognormal noise the kernel models use.  Validity checks and
    measurements share one failure draw (:meth:`launch_errors`), so they can never
    disagree about which configurations fail.

    Parameters
    ----------
    name:
        Scenario name (seeds the noise and failure hashes).
    family:
        ``"separable"`` or ``"coupled"``.
    parameters:
        The generated parameter tuple (defines the digit coordinates).
    weights / ripples / frequencies:
        Per-parameter surface coefficients, generated once per seed.
    failure_rate:
        Fraction of (configuration, device) pairs that fail to launch.
    base_time_ms:
        Runtime scale of the scenario.
    """

    def __init__(self, name: str, family: str, parameters: Sequence[Parameter],
                 weights: Sequence[float], ripples: Sequence[float],
                 frequencies: Sequence[int], failure_rate: float,
                 base_time_ms: float):
        super().__init__(name, occupancy_saturation=0.45, noise_sigma=0.015)
        self.family = family
        self.failure_rate = float(failure_rate)
        self.base_time_ms = float(base_time_ms)
        self._weights = tuple(float(w) for w in weights)
        self._ripples = tuple(float(r) for r in ripples)
        self._frequencies = tuple(int(k) for k in frequencies)
        self._parameters = tuple(parameters)

    # ----------------------------------------------------------------- coordinates

    def _digits(self, columns: Mapping[str, np.ndarray]) -> list[np.ndarray]:
        """Digit column of every parameter (the coordinates before normalization)."""
        digits = []
        for p in self._parameters:
            values = np.asarray(columns[p.name]).tolist()
            try:
                digits.append(p.digits_of(values))
            except InvalidConfigurationError:
                bad = next(v for v in values if v not in p.values)
                raise ReproError(
                    f"configuration value {bad!r} for {p.name!r} is not "
                    f"part of scenario {self.name!r}") from None
        return digits

    def _device_center(self, gpu: GPUSpec, j: int) -> float:
        """Optimum location of parameter ``j`` on ``gpu`` (deterministic)."""
        draw = stable_hash("synthetic-center", gpu.name, self.name, j) % _FAILURE_BUCKETS
        offset = (draw / _FAILURE_BUCKETS - 0.5) * 2.0 * _DEVICE_SHIFT
        return min(max(0.5 + offset, 0.0), 1.0)

    # --------------------------------------------------------------- value surface

    def surface(self, columns: Mapping[str, np.ndarray], gpu: GPUSpec) -> np.ndarray:
        """Family value surface over the normalized coordinates (>= 0).

        Each term is a function of one or two digits, so it is tabulated per digit
        (pair) with scalar :mod:`math` and gathered.
        """
        digits = self._digits(columns)
        coordinates = [[digit / max(p.cardinality - 1, 1) for digit in range(p.cardinality)]
                       for p in self._parameters]
        centers = [self._device_center(gpu, j) for j in range(len(digits))]
        total: Any = 0.0
        if self.family == "separable":
            for j, (x, cj, w, amp, k) in enumerate(zip(coordinates, centers, self._weights,
                                                       self._ripples, self._frequencies)):
                terms = []
                for xj in x:
                    d = xj - cj
                    terms.append(w * (d * d + amp * (1.0 - math.cos(2.0 * math.pi * k * d))))
                total = total + np.asarray(terms)[digits[j]]
            return total
        # Coupled (rosenbrock-like): consecutive coordinates share a curved valley
        # whose position shifts per device.
        y = [[0.15 + 0.7 * xj + 0.3 * (cj - 0.5) for xj in x]
             for x, cj in zip(coordinates, centers)]
        if len(y) == 1:  # degenerate single-parameter scenario
            w = self._weights[0]
            return np.asarray([w * (1.0 - y0) ** 2 for y0 in y[0]])[digits[0]]
        for j in range(len(y) - 1):
            w = self._weights[j]
            terms = [[w * (4.0 * (y1 - y0 * y0) ** 2 + 0.25 * (1.0 - y0) ** 2)
                      for y1 in y[j + 1]] for y0 in y[j]]
            total = total + np.asarray(terms)[digits[j], digits[j + 1]]
        return total

    # ------------------------------------------------------------------ model API

    def launch_errors(self, columns: Mapping[str, np.ndarray], keys: Sequence[bytes],
                      gpu: GPUSpec) -> list[str]:
        """The deterministic, process-stable failure model, one draw per key."""
        if self.failure_rate <= 0.0:
            return [""] * len(keys)
        message = (f"synthetic scenario {self.name!r} rejects this configuration on "
                   f"{gpu.name} (deterministic failure model, "
                   f"rate {self.failure_rate:g})")
        rate = self.failure_rate
        return [message if (draw % _FAILURE_BUCKETS) / _FAILURE_BUCKETS < rate else ""
                for draw in keyed_hashes(("synthetic-fail", gpu.name, self.name), keys)]

    def evaluate(self, columns: Mapping[str, np.ndarray], keys: Sequence[bytes],
                 gpu: GPUSpec, with_noise: bool = True) -> ModelColumns:
        """Simulated measurements of a batch (see the class docstring)."""
        errors = self.launch_errors(columns, keys, gpu)
        failed = failure_mask(errors)
        n = len(errors)
        surface = self.surface(columns, gpu)
        total = self.base_time_ms * (0.2 + surface)
        factors = {"surface": surface}
        if with_noise:
            noise = self._noise(keys, gpu, failed)
            total = total * noise
            factors["noise"] = noise
        occupancy = OccupancyResult(blocks_per_sm=4, active_warps=16, occupancy=0.5,
                                    limiting_factor="synthetic", warps_per_block=4)
        launch = KernelLaunchConfig(threads_per_block=128, grid_blocks=1024,
                                    registers_per_thread=32.0, shared_mem_bytes=0.0)
        return ModelColumns(time_ms=np.where(failed, np.inf, total), failed=failed,
                            errors=errors, compute_time_ms=total,
                            memory_time_ms=np.zeros(n), occupancy=occupancy,
                            launch=launch, factors=factors)


# ----------------------------------------------------------------- space generation


def _generate_parameters(rng: random.Random, radix_profile: Sequence[int]
                         ) -> tuple[Parameter, ...]:
    """Ordered numeric parameters with seeded value ladders."""
    parameters = []
    for j, radix in enumerate(radix_profile):
        kind = rng.choice(("pow2", "linear", "odd"))
        if kind == "pow2":
            start = rng.choice((1, 2, 4))
            values = tuple(start << i for i in range(radix))
        elif kind == "linear":
            start = rng.randrange(1, 9)
            step = rng.randrange(1, 5)
            values = tuple(start + step * i for i in range(radix))
        else:
            offset = rng.randrange(0, 4)
            values = tuple(2 * (offset + i) + 1 for i in range(radix))
        parameters.append(Parameter(f"p{j}", values,
                                    description=f"synthetic {kind} ladder"))
    return tuple(parameters)


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of a pre-sorted sequence."""
    rank = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[rank]


def _generate_constraints(rng: random.Random, parameters: Sequence[Parameter],
                          constraint_density: float) -> list[str]:
    """Seeded constraint expressions inside the table cap (each reads <= 2 parameters).

    Each constraint keeps a known (seeded) fraction of its parameter pair feasible,
    so densities below ~1 cannot accidentally empty the space.
    """
    n_constraints = int(round(constraint_density * len(parameters)))
    expressions: list[str] = []
    for _ in range(n_constraints):
        if len(parameters) >= 2:
            a, b = rng.sample(range(len(parameters)), 2)
        else:
            a = b = 0
        pa, pb = parameters[a], parameters[b]
        template = rng.choice(("product", "sum", "exclude"))
        if template == "product" and a != b:
            products = sorted(float(va) * float(vb)
                              for va in pa.values for vb in pb.values)
            limit = _quantile(products, rng.uniform(0.6, 0.95))
            expressions.append(f"{pa.name} * {pb.name} <= {int(limit)}")
        elif template == "sum" and a != b:
            sums = sorted(float(va) + float(vb)
                          for va in pa.values for vb in pb.values)
            limit = _quantile(sums, rng.uniform(0.6, 0.95))
            expressions.append(f"{pa.name} + {pb.name} <= {int(limit)}")
        else:
            dropped = rng.choice(pa.values[1:]) if pa.cardinality > 1 else None
            if dropped is not None:
                expressions.append(f"{pa.name} != {dropped}")
    return expressions


def create_benchmark(name: str = "synthetic", family: str = "separable",
                     dimensions: int = 5, radix_profile: Sequence[int] | None = None,
                     constraint_density: float = 0.5, failure_rate: float = 0.05,
                     seed: int = 0, base_time_ms: float = 1.0,
                     min_radix: int = 3, max_radix: int = 6) -> KernelBenchmark:
    """Generate one synthetic scenario as a full :class:`KernelBenchmark`.

    Every argument is JSON-serializable, so ``(FACTORY_SPEC, kwargs)`` is a valid
    :class:`~repro.core.registry.BenchmarkSpec` and the scenario can be registered,
    planned, executed in worker processes and resumed from a manifest.  The same
    arguments always generate the same benchmark (space, constraints, surface
    coefficients and failure draws are all pure functions of the arguments).

    Parameters
    ----------
    name:
        Scenario name (also seeds the noise/failure hashes, so two scenarios with
        different names have different landscapes even at the same seed).
    family:
        ``"separable"`` (rastrigin-like) or ``"coupled"`` (rosenbrock-like).
    dimensions:
        Number of tunable parameters.
    radix_profile:
        Explicit per-parameter value counts; default draws each from
        ``[min_radix, max_radix]`` with the scenario's RNG.
    constraint_density:
        Expected constraints per parameter (``round(density * dimensions)`` total),
        generated from feasibility-preserving templates over parameter pairs,
        each inside the search space's truth-table cap.
    failure_rate:
        Fraction of (configuration, device) pairs the failure model rejects.
    seed:
        Generator seed.
    base_time_ms:
        Runtime scale of the simulated measurements.
    """
    if family not in FAMILIES:
        raise ReproError(f"unknown synthetic family {family!r}; choose from {FAMILIES}")
    if dimensions < 1:
        raise ReproError(f"dimensions must be >= 1, got {dimensions}")
    # The space depends on (name, seed) but not on the family, so the two value
    # surfaces can be compared on identical spaces at the same seed.
    rng = random.Random(stable_hash("synthetic-scenario", name, seed))
    if radix_profile is None:
        radix_profile = [rng.randint(min_radix, max_radix) for _ in range(dimensions)]
    else:
        radix_profile = [int(r) for r in radix_profile]
        if len(radix_profile) != dimensions:
            raise ReproError(
                f"radix_profile has {len(radix_profile)} entries, expected "
                f"{dimensions}")
        if any(r < 2 for r in radix_profile):
            raise ReproError("every radix must be >= 2")

    parameters = _generate_parameters(rng, radix_profile)
    expressions = _generate_constraints(rng, parameters, constraint_density)
    # Constraints are generated feasibility-preserving, but compounded templates can
    # still conspire against tiny spaces; dropping from the back keeps the result a
    # pure function of the arguments.  Emptiness is checked exactly (the feasible
    # block stream stops at the first surviving point), never by a sampled count
    # estimate -- an estimate rounding to zero on a sparse-but-feasible space would
    # silently discard valid constraints.
    while True:
        space = SearchSpace(parameters, ConstraintSet(expressions), name=name)
        if not expressions or next(iter(space._iter_feasible_blocks()), None) is not None:
            break
        expressions = expressions[:-1]

    weights = [rng.uniform(0.5, 2.0) for _ in range(dimensions)]
    ripples = [rng.uniform(0.05, 0.3) for _ in range(dimensions)]
    frequencies = [rng.randint(1, 3) for _ in range(dimensions)]
    model = SyntheticKernelModel(name, family, parameters, weights, ripples,
                                 frequencies, failure_rate, base_time_ms)
    workload = Workload(
        name=f"{family}-d{dimensions}-s{seed}",
        sizes={"family": family, "dimensions": dimensions, "seed": seed,
               "constraint_density": constraint_density,
               "failure_rate": failure_rate, "base_time_ms": base_time_ms,
               "radix_profile": list(radix_profile)},
        description="Generated synthetic tuning scenario (no physical kernel)",
    )
    return KernelBenchmark(
        name=name,
        display_name=name.replace("_", " ").title(),
        space=space,
        model=model,
        workload=workload,
        reference=None,
        description=f"Synthetic {family} scenario generated from seed {seed}",
        application_domain="synthetic benchmarking",
        origin="repro.kernels.synthetic",
        paper_table="generated",
    )


def scenario_specs(count: int = 8, families: Sequence[str] = FAMILIES,
                   base_seed: int = 0, **overrides: Any) -> dict[str, dict[str, Any]]:
    """Spec dictionaries for a sweep of ``count`` scenarios.

    Returns ``{name: {"factory": FACTORY_SPEC, "kwargs": {...}}}`` -- directly
    consumable by :func:`repro.core.registry.register_benchmark`, a
    :class:`~repro.exec.planner.ShardPlanner`, or repeated ``--benchmark-spec``
    CLI arguments.  Families alternate; seeds increment from ``base_seed``.
    """
    specs: dict[str, dict[str, Any]] = {}
    for i in range(count):
        family = families[i % len(families)]
        name = f"syn_{family}_{base_seed + i:03d}"
        kwargs: dict[str, Any] = {"name": name, "family": family,
                                  "seed": base_seed + i}
        kwargs.update(overrides)
        specs[name] = {"factory": FACTORY_SPEC, "kwargs": kwargs}
    return specs

