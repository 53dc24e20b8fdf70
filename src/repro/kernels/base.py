"""Kernel-benchmark base class: the "kernel handler" of the shared problem interface.

A :class:`KernelBenchmark` couples together everything the suite knows about one
tunable kernel -- its parameter table, its constraints, its workload, its analytical
performance model and its functional reference implementation -- and can mint
:class:`~repro.core.problem.TuningProblem` instances for any simulated GPU.  This is
the class a new benchmark has to provide to join the suite, mirroring the paper's
"kernel handler classes providing for easy integration".

The model is a column model (:class:`~repro.gpus.perfmodel.AnalyticalKernelModel`):
a new kernel implements ``launch_config``, ``flops``, ``traffic`` and
``compute_efficiency`` over value columns (one NumPy array per parameter) and
follows the bit-exactness rules in :mod:`repro.gpus.perfmodel`.  The benchmark
feeds it whole batches: :meth:`KernelBenchmark.evaluate_batch` maps configurations
to their digit matrix, gathers the value columns and configuration keys from the
search space, and evaluates them in one call; launch feasibility (Table VIII
'Valid') reads the same failure mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.problem import TuningProblem
from repro.core.searchspace import SearchSpace
from repro.gpus.noise import config_keys
from repro.gpus.perfmodel import (
    AnalyticalKernelModel,
    ModelColumns,
    ModelEstimate,
    failure_mask,
)
from repro.gpus.specs import GPUSpec

__all__ = ["Workload", "KernelBenchmark"]


@dataclass(frozen=True)
class Workload:
    """Problem-size description of a benchmark instance.

    Attributes
    ----------
    name:
        Short label (e.g. ``"4096x4096"``).
    sizes:
        Dictionary of the size quantities the model and the reference implementation
        need (e.g. ``{"m": 4096, "n": 4096, "k": 4096}``).
    description:
        Human-readable origin of the workload (e.g. "ARTS survey parameters on the
        Apertif telescope", mirroring Sec. IV-G of the paper).
    """

    name: str
    sizes: dict[str, Any] = field(default_factory=dict)
    description: str = ""

    def __getitem__(self, key: str) -> Any:
        return self.sizes[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Dictionary-style access with default."""
        return self.sizes.get(key, default)


class KernelBenchmark:
    """One tunable kernel benchmark of the suite.

    Parameters
    ----------
    name:
        Canonical lowercase name (``"gemm"``, ``"hotspot"``, ...).
    display_name:
        Name as printed in the paper's tables and figures.
    space:
        The constrained search space (Tables I--VII).
    model:
        Analytical performance model producing simulated runtimes.
    workload:
        Problem sizes the model is evaluated with.
    reference:
        Optional callable ``reference(config, rng, **sizes)`` running the NumPy
        functional implementation on a (small) instance and returning its output
        array; used by correctness tests and examples, never by the tuning loop.
    description / application_domain / origin:
        Documentation strings mirrored from Sec. IV of the paper.
    paper_table:
        Which paper table defines the parameter list (e.g. ``"Table I"``).
    """

    def __init__(self, name: str, display_name: str, space: SearchSpace,
                 model: AnalyticalKernelModel, workload: Workload,
                 reference: Callable[..., np.ndarray] | None = None,
                 description: str = "", application_domain: str = "",
                 origin: str = "", paper_table: str = ""):
        self.name = name
        self.display_name = display_name
        self.space = space
        self.model = model
        self.workload = workload
        self.reference = reference
        self.description = description
        self.application_domain = application_domain
        self.origin = origin
        self.paper_table = paper_table

    # ------------------------------------------------------------------ problems

    def problem(self, gpu: GPUSpec, with_noise: bool = True,
                memoize: bool = True) -> TuningProblem:
        """A tuning problem for this benchmark on ``gpu``.

        The objective function calls the analytical model; configurations that cannot
        launch on the device raise :class:`ResourceLimitError` inside the model and
        are turned into invalid observations by the problem.
        """
        def _evaluate(config: Mapping[str, Any]) -> float:
            return self.model.time_ms(config, gpu, with_noise=with_noise)

        return TuningProblem(name=self.name, space=self.space, evaluate_fn=_evaluate,
                             gpu=gpu.name, memoize=memoize)

    # ------------------------------------------------------------------- validity

    def _columns_and_keys(self, digits: np.ndarray
                          ) -> tuple[dict[str, np.ndarray], list[bytes]]:
        """Model inputs of the configurations in a digit matrix."""
        space = self.space
        return space.columns_at(None, digits=digits), config_keys(space.parameters, digits)

    def _launchable(self, gpu: GPUSpec, digits: np.ndarray) -> np.ndarray:
        """Launch-feasibility mask of the configurations in a digit matrix."""
        columns, keys = self._columns_and_keys(digits)
        return ~failure_mask(self.model.launch_errors(columns, keys, gpu))

    def is_valid_on(self, config: Mapping[str, Any], gpu: GPUSpec) -> bool:
        """Static constraints plus device-launch feasibility (Table VIII 'Valid')."""
        if not self.space.is_valid(config):
            return False
        return bool(self._launchable(gpu, self.space.digits_of_configs([config]))[0])

    def count_valid(self, gpu: GPUSpec, limit: int | None = 200_000,
                    seed: int = 99) -> int:
        """Number (or sampled estimate) of configurations valid on ``gpu``.

        For spaces small enough to enumerate (``cardinality <= limit``) the count is
        exact; otherwise it is estimated from ``limit`` uniform samples of the raw
        Cartesian product, matching how the paper leaves the huge spaces as "N/A" or
        estimates them.
        """
        space = self.space
        if limit is None or space.cardinality <= limit:
            # Static constraints are resolved by the vectorized mask (via the
            # feasible-index blocks); the survivors go through the launch mask.
            return sum(int(self._launchable(gpu, space.indices_to_digits(block)).sum())
                       for block in space.enumerate_chunked(valid_only=True))
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, space.cardinality, size=limit)
        feasible = idx[space.satisfied_mask(idx)]
        hits = int(self._launchable(gpu, space.indices_to_digits(feasible)).sum())
        return int(round(space.cardinality * hits / limit))

    # ---------------------------------------------------------------- measurements

    def measure(self, config: Mapping[str, Any], gpu: GPUSpec,
                with_noise: bool = True) -> ModelEstimate:
        """Full model estimate (time plus breakdown) of one configuration."""
        return self.model.estimate(config, gpu, with_noise=with_noise)

    def evaluate_digits(self, gpu: GPUSpec, digits: np.ndarray,
                        with_noise: bool = True) -> ModelColumns:
        """One column evaluation of the configurations in a digit matrix."""
        columns, keys = self._columns_and_keys(digits)
        return self.model.evaluate(columns, keys, gpu, with_noise=with_noise)

    def evaluate_batch(self, gpu: GPUSpec, configs: Sequence[Mapping[str, Any]],
                       with_noise: bool = True) -> list[tuple[float, bool, str]]:
        """Evaluate many configurations and return ``(value, valid, error)`` rows.

        This is the batched kernel-model call shared by :meth:`build_cache` and the
        shard workers of :mod:`repro.exec`: configurations that cannot launch on the
        device become ``(inf, False, reason)`` rows, exactly the shape
        :meth:`~repro.core.cache.EvaluationCache.add` stores.  Keeping the evaluation
        (and in particular the error strings) in one place is what makes parallel
        shard evaluation byte-identical to the serial path.
        """
        if not configs:
            return []
        batch = self.evaluate_digits(gpu, self.space.digits_of_configs(configs),
                                     with_noise=with_noise)
        return list(zip(batch.time_ms.tolist(), (~batch.failed).tolist(), batch.errors))

    def new_cache(self, gpu: GPUSpec, sample_size: int | None = None) -> EvaluationCache:
        """An empty campaign cache with the canonical metadata for this benchmark.

        Both :meth:`build_cache` and the shard-merge step of :mod:`repro.exec` create
        their caches here so the metadata layout (and therefore the serialized bytes)
        cannot drift apart.
        """
        cache = EvaluationCache(self.name, gpu.name, self.space,
                                exhaustive=sample_size is None)
        cache.metadata["workload"] = dict(self.workload.sizes)
        cache.metadata["sample_size"] = sample_size
        return cache

    def build_cache(self, gpu: GPUSpec, sample_size: int | None = None,
                    seed: int = 0, with_noise: bool = True) -> EvaluationCache:
        """Evaluate the benchmark on ``gpu`` and return the campaign cache.

        Parameters
        ----------
        sample_size:
            If None the whole valid space is enumerated (the paper does this for
            Pnpoly, Nbody, GEMM and Convolution); otherwise ``sample_size`` unique
            random configurations are drawn (the paper uses 10 000 for Hotspot,
            Dedispersion and Expdist).
        """
        cache = self.new_cache(gpu, sample_size=sample_size)
        if sample_size is None:
            # Prime the feasible-index memo (free below the memoization threshold):
            # enumeration then slices the cached array, and any later constrained
            # count or sample on the same space reuses it.
            self.space.feasible_indices()
            configs: Sequence[Mapping[str, Any]] = list(self.space.enumerate(valid_only=True))
        else:
            configs = self.space.sample(sample_size, rng=seed, valid_only=True, unique=True)
        for config, (value, valid, error) in zip(configs,
                                                 self.evaluate_batch(gpu, configs,
                                                                     with_noise=with_noise)):
            cache.add(config, value, valid=valid, error=error)
        return cache

    # ------------------------------------------------------------------ reference

    def run_reference(self, config: Mapping[str, Any], rng: np.random.Generator | int = 0,
                      **size_overrides: Any) -> np.ndarray:
        """Run the NumPy functional reference implementation for ``config``.

        Sizes default to small, test-friendly values chosen by each benchmark module;
        callers may override them (e.g. ``matrix_size=64``).  Returns the output array
        so tests can assert that every configuration computes the same result.
        """
        if self.reference is None:
            raise NotImplementedError(f"benchmark {self.name!r} has no reference implementation")
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        return self.reference(config, rng, **size_overrides)

    # ------------------------------------------------------------------- reporting

    def parameter_table(self) -> list[dict[str, Any]]:
        """Rows of the paper's parameter table: name, allowed values and count."""
        return [
            {"parameter": p.name, "values": list(p.values), "count": p.cardinality}
            for p in self.space.parameters
        ]

    def summary(self) -> dict[str, Any]:
        """Compact description used by reports and the quickstart example."""
        return {
            "name": self.name,
            "display_name": self.display_name,
            "paper_table": self.paper_table,
            "application_domain": self.application_domain,
            "dimensions": self.space.dimensions,
            "cardinality": self.space.cardinality,
            "workload": dict(self.workload.sizes),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"KernelBenchmark(name={self.name!r}, dimensions={self.space.dimensions}, "
                f"cardinality={self.space.cardinality})")
