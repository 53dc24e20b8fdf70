"""Deterministic shard planning for measurement campaigns.

A campaign -- the paper's per-(benchmark, GPU) evaluation design -- is an
embarrassingly parallel workload once its evaluation order is pinned down: every
configuration it will visit is identified by a mixed-radix index of the benchmark's
:class:`~repro.core.searchspace.SearchSpace`, and the order is a pure function of the
campaign definition (exhaustive campaigns visit the ascending feasible set, sampled
campaigns visit the unique-rejection-sampling stream of their seed).  The planner
exploits that:

* a :class:`CampaignUnit` fixes one (benchmark, GPU) pair's design -- sample size
  (None = exhaustive), seed, noise flag -- and its exact evaluation count;
* a :class:`Shard` is a contiguous slice ``[start, stop)`` of one unit's
  evaluation-order index array, the atom of distribution and checkpointing;
* a :class:`CampaignPlan` is the ordered list of units and shards plus the settings
  that produced them; it serializes to JSON, which is what checkpoint manifests store
  and what ``python -m repro.exec plan`` prints.

Because shard boundaries are deterministic offsets into a deterministic evaluation
order, *any* executor that evaluates every shard and merges the rows in shard order
reproduces the serial campaign byte for byte -- the invariant the executor tests
assert and the checkpoint/resume machinery relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.errors import ReproError
from repro.core.registry import BenchmarkSpec, benchmark_spec
from repro.core.searchspace import SearchSpace
from repro.io.columnar import COLUMNAR_SUFFIX

__all__ = [
    "PAPER_SAMPLED_BENCHMARKS", "PAPER_SAMPLE_SIZE", "DEFAULT_SHARD_SIZE",
    "CUSTOM_EXHAUSTIVE_LIMIT",
    "CampaignUnit", "Shard", "CampaignPlan", "ShardPlanner", "unit_indices",
    "unit_spec",
]

#: Benchmarks the paper samples (10 000 random configurations) instead of enumerating.
PAPER_SAMPLED_BENCHMARKS: frozenset[str] = frozenset({"hotspot", "dedispersion", "expdist"})

#: Number of random configurations per sampled campaign in the paper.
PAPER_SAMPLE_SIZE: int = 10_000

#: Default shard length: small enough that a 10k-sample unit splits across a worker
#: pool, large enough that per-shard dispatch overhead stays negligible.
DEFAULT_SHARD_SIZE: int = 2_500

#: Cardinality ceiling above which *custom* (non-paper) benchmarks are sampled when
#: no explicit ``exhaustive_limit`` is given.  The paper kernels follow the paper's
#: design exactly; a registered scenario with a 1e8-point space must not silently
#: schedule a full enumeration (feasible-set sweep at plan time, every feasible
#: config at run time).  Equal to the feasible memo's ``MEMOIZE_THRESHOLD``, which is
#: also the largest space the suite treats as comfortably enumerable.
CUSTOM_EXHAUSTIVE_LIMIT: int = 1_000_000


@dataclass(frozen=True)
class CampaignUnit:
    """The evaluation design of one (benchmark, GPU) pair.

    Attributes
    ----------
    benchmark / gpu:
        Canonical names (workers re-resolve them against the registries).
    sample_size:
        Unique random configurations to draw, or None for exhaustive enumeration.
    seed:
        Seed of the sampled index stream (ignored for exhaustive units but kept so
        the manifest fully describes the campaign).
    with_noise:
        Whether the simulated measurements include the deterministic noise model.
    n_configs:
        Exact number of configurations this unit evaluates (feasible count for
        exhaustive units, ``sample_size`` otherwise).
    spec:
        Optional benchmark spec dictionary (:meth:`~repro.core.registry.BenchmarkSpec.to_dict`
        form) describing how workers -- and ``resume`` runs with no registration --
        rebuild this benchmark.  None for a default built-in kernel, which is
        rebuilt from its implicit spec (see :func:`unit_spec`).
    """

    benchmark: str
    gpu: str
    sample_size: int | None
    seed: int
    with_noise: bool
    n_configs: int
    spec: dict[str, Any] | None = None

    @property
    def key(self) -> tuple[str, str]:
        """Dictionary key used for caches and merges: ``(benchmark, gpu)``."""
        return (self.benchmark, self.gpu)

    @property
    def exhaustive(self) -> bool:
        """True when this unit enumerates the whole feasible set."""
        return self.sample_size is None

    def to_dict(self) -> dict[str, Any]:
        return {"benchmark": self.benchmark, "gpu": self.gpu,
                "sample_size": self.sample_size, "seed": self.seed,
                "with_noise": self.with_noise, "n_configs": self.n_configs,
                "spec": self.spec}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignUnit":
        spec = data.get("spec")
        return cls(benchmark=data["benchmark"], gpu=data["gpu"],
                   sample_size=data["sample_size"], seed=int(data["seed"]),
                   with_noise=bool(data["with_noise"]), n_configs=int(data["n_configs"]),
                   spec=dict(spec) if spec else None)


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of a unit's evaluation order -- the unit of work.

    ``start``/``stop`` are offsets into the unit's evaluation-order index array (not
    raw mixed-radix indices), so a shard is meaningful without materialising that
    array and fragments can validate their length against ``stop - start``.
    """

    shard_id: int
    benchmark: str
    gpu: str
    start: int
    stop: int

    @property
    def unit_key(self) -> tuple[str, str]:
        return (self.benchmark, self.gpu)

    @property
    def n_configs(self) -> int:
        return self.stop - self.start

    @property
    def fragment_name(self) -> str:
        """Checkpoint fragment file name for this shard."""
        return f"shard_{self.shard_id:05d}{COLUMNAR_SUFFIX}"

    def to_dict(self) -> dict[str, Any]:
        return {"shard_id": self.shard_id, "benchmark": self.benchmark,
                "gpu": self.gpu, "start": self.start, "stop": self.stop}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Shard":
        return cls(shard_id=int(data["shard_id"]), benchmark=data["benchmark"],
                   gpu=data["gpu"], start=int(data["start"]), stop=int(data["stop"]))


@dataclass(frozen=True)
class CampaignPlan:
    """An ordered, serializable description of every shard of a campaign."""

    units: tuple[CampaignUnit, ...]
    shards: tuple[Shard, ...]
    shard_size: int

    @property
    def n_configs(self) -> int:
        """Total number of configurations the campaign evaluates."""
        return sum(u.n_configs for u in self.units)

    def unit(self, benchmark: str, gpu: str) -> CampaignUnit:
        for u in self.units:
            if u.key == (benchmark, gpu):
                return u
        raise ReproError(f"plan has no unit ({benchmark}, {gpu})")

    def shards_of(self, unit: CampaignUnit) -> list[Shard]:
        """Shards of one unit, in evaluation (offset) order."""
        return sorted((s for s in self.shards if s.unit_key == unit.key),
                      key=lambda s: s.start)

    def to_dict(self) -> dict[str, Any]:
        return {"shard_size": self.shard_size,
                "units": [u.to_dict() for u in self.units],
                "shards": [s.to_dict() for s in self.shards]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignPlan":
        return cls(units=tuple(CampaignUnit.from_dict(d) for d in data["units"]),
                   shards=tuple(Shard.from_dict(d) for d in data["shards"]),
                   shard_size=int(data["shard_size"]))

    def summary_rows(self) -> list[dict[str, Any]]:
        """One row per unit for reports and the ``plan``/``status`` CLI."""
        rows = []
        for u in self.units:
            rows.append({
                "benchmark": u.benchmark, "gpu": u.gpu,
                "mode": "exhaustive" if u.exhaustive else f"sampled({u.sample_size})",
                "seed": u.seed, "configs": u.n_configs,
                "shards": len(self.shards_of(u)),
            })
        return rows


def unit_indices(space: SearchSpace, unit: CampaignUnit) -> np.ndarray:
    """The unit's evaluation-order mixed-radix index array.

    Exhaustive units visit the ascending feasible set; sampled units replay the
    batched unique rejection-sampling stream of ``unit.seed`` -- exactly the
    configurations, in exactly the order, that
    :meth:`~repro.kernels.base.KernelBenchmark.build_cache` evaluates serially.
    """
    if unit.exhaustive:
        # Memoized on small spaces; computed afresh, and not kept, on large ones.
        return space.feasible_indices(force=True)
    return space.sample_indices(unit.sample_size, rng=unit.seed,
                                valid_only=True, unique=True)


def unit_spec(unit: CampaignUnit) -> BenchmarkSpec | None:
    """The spec that rebuilds ``unit``'s benchmark in any process, or None if unknown.

    The unit's own spec is authoritative: it is what the plan was built against,
    and what lets ``resume`` rebuild a custom scenario from the manifest alone.
    Spec-free units resolve through the open registry
    (:func:`repro.core.registry.benchmark_spec`), which answers built-in kernels
    with their implicit ``repro.kernels.<name>:create_benchmark`` spec.
    """
    if unit.spec:
        return BenchmarkSpec.from_dict(unit.spec)
    return benchmark_spec(unit.benchmark)


class ShardPlanner:
    """Splits a campaign into deterministic shards.

    Parameters mirror :class:`~repro.analysis.campaign.Campaign` (which delegates its
    design decisions here): ``sampled_benchmarks`` are always sampled,
    ``exhaustive_limit`` forces sampling above a cardinality ceiling, and each GPU's
    sampled stream is seeded ``seed + index`` with GPUs in sorted-name order.

    Parameters
    ----------
    benchmarks:
        Mapping of benchmark name to :class:`~repro.kernels.base.KernelBenchmark`
        (default: the full registry).
    gpus:
        Mapping of GPU name to spec (default: the paper's four GPUs).
    sample_size:
        Unique configurations per sampled campaign (paper: 10 000).
    exhaustive_limit:
        Benchmarks whose cardinality exceeds this are sampled even if the paper
        enumerates them; None follows the paper exactly.
    seed:
        Base seed (each GPU gets ``seed + index``).
    with_noise:
        Whether measurements include the deterministic noise model.
    shard_size:
        Maximum configurations per shard.
    specs:
        Optional explicit benchmark specs (any :meth:`BenchmarkSpec.parse` form)
        recorded into the plan's units so that workers, checkpoint manifests and
        registration-free ``resume`` runs can rebuild the benchmarks.  This is
        how a built-in kernel with a non-default workload runs in parallel and
        resumes.  Names without an explicit spec fall back to the open registry
        (:func:`repro.core.registry.benchmark_spec`); default built-in kernels
        record no spec and are rebuilt from their implicit one
        (:func:`unit_spec`).
    """

    def __init__(self, benchmarks: Mapping[str, Any] | None = None,
                 gpus: Mapping[str, Any] | None = None,
                 sample_size: int = PAPER_SAMPLE_SIZE,
                 exhaustive_limit: int | None = None,
                 seed: int = 2023, with_noise: bool = True,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 sampled_benchmarks: frozenset[str] = PAPER_SAMPLED_BENCHMARKS,
                 specs: Mapping[str, Any] | None = None):
        if benchmarks is None:
            from repro.core.registry import benchmark_suite
            benchmarks = benchmark_suite()
        if gpus is None:
            from repro.gpus.specs import all_gpus
            gpus = all_gpus()
        if shard_size <= 0:
            raise ReproError(f"shard_size must be positive, got {shard_size}")
        self.benchmarks = dict(benchmarks)
        self.gpus = dict(gpus)
        self.sample_size = int(sample_size)
        self.exhaustive_limit = exhaustive_limit
        self.seed = int(seed)
        self.with_noise = with_noise
        self.shard_size = int(shard_size)
        self.sampled_benchmarks = frozenset(sampled_benchmarks)
        self.specs = {name: BenchmarkSpec.parse(spec)
                      for name, spec in (specs or {}).items()}
        self._exhaustive_counts: dict[str, int] = {}

    # -------------------------------------------------------------------- design

    def is_sampled(self, benchmark_name: str) -> bool:
        """True when the campaign for this benchmark uses random sampling.

        Paper kernels follow the paper design exactly (the ``sampled_benchmarks``
        list, or an explicit ``exhaustive_limit``).  Custom benchmarks above
        :data:`CUSTOM_EXHAUSTIVE_LIMIT` are sampled by default -- a registered
        scenario with a huge space must opt *in* to exhaustive enumeration via
        ``exhaustive_limit``, not hang plan time by accident.
        """
        if benchmark_name in self.sampled_benchmarks:
            return True
        if self.exhaustive_limit is not None:
            return self.benchmarks[benchmark_name].space.cardinality > self.exhaustive_limit
        from repro.kernels import BENCHMARK_NAMES

        if benchmark_name not in BENCHMARK_NAMES:
            return (self.benchmarks[benchmark_name].space.cardinality
                    > CUSTOM_EXHAUSTIVE_LIMIT)
        return False

    def unit_seed(self, gpu_name: str) -> int:
        """Seed of one GPU's sampled streams (``seed + index``, sorted GPU names)."""
        return self.seed + sorted(self.gpus).index(gpu_name)

    def spec_for(self, benchmark_name: str) -> dict[str, Any] | None:
        """Spec dictionary recorded into this benchmark's units, or None.

        Explicit ``specs=`` entries win; otherwise custom registrations in the
        open registry supply their spec.  Built-in kernels return None, so their
        manifests stay as they were; :func:`unit_spec` resolves their implicit
        spec when a worker or ``resume`` rebuilds them.
        """
        spec = self.specs.get(benchmark_name)
        if spec is not None:
            return spec.to_dict()
        from repro.core.registry import registered_benchmarks

        registered = registered_benchmarks().get(benchmark_name)
        return registered.to_dict() if registered is not None else None

    def unit_for(self, benchmark_name: str, gpu_name: str) -> CampaignUnit:
        """The campaign unit of one (benchmark, GPU) pair."""
        benchmark = self.benchmarks[benchmark_name]
        if gpu_name not in self.gpus:
            raise ReproError(f"unknown GPU {gpu_name!r}; known: {sorted(self.gpus)}")
        sampled = self.is_sampled(benchmark_name)
        if sampled:
            n_configs = self.sample_size
        elif benchmark_name in self._exhaustive_counts:
            n_configs = self._exhaustive_counts[benchmark_name]
        else:
            # The count is memoized here per benchmark.  It is exact and, with
            # every constraint tabled, needs no sweep; execution enumerates the
            # feasible set once when it runs the unit.
            n_configs = self._exhaustive_counts[benchmark_name] = \
                benchmark.space.count_constrained()
        return CampaignUnit(benchmark=benchmark_name, gpu=gpu_name,
                            sample_size=self.sample_size if sampled else None,
                            seed=self.unit_seed(gpu_name),
                            with_noise=self.with_noise, n_configs=n_configs,
                            spec=self.spec_for(benchmark_name))

    def units(self) -> list[CampaignUnit]:
        """Every (benchmark, GPU) unit, benchmarks in mapping order, GPUs sorted."""
        return [self.unit_for(b, g) for b in self.benchmarks for g in sorted(self.gpus)]

    # ---------------------------------------------------------------------- plans

    def plan(self, units: Sequence[CampaignUnit] | None = None) -> CampaignPlan:
        """Split the given units (default: all) into a deterministic shard plan."""
        if units is None:
            units = self.units()
        shards: list[Shard] = []
        shard_id = 0
        for unit in units:
            for start in range(0, unit.n_configs, self.shard_size):
                stop = min(start + self.shard_size, unit.n_configs)
                shards.append(Shard(shard_id=shard_id, benchmark=unit.benchmark,
                                    gpu=unit.gpu, start=start, stop=stop))
                shard_id += 1
        return CampaignPlan(units=tuple(units), shards=tuple(shards),
                            shard_size=self.shard_size)

