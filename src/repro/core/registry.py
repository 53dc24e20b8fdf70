"""Registries of benchmarks, GPUs and tuners.

The paper's suite is valuable because it is *enumerable*: a researcher can ask "give me
all benchmarks" and "give me all devices" and sweep the cross product.  These helpers
provide exactly that, with lazy imports so that ``import repro`` stays cheap.

Open benchmark registry
-----------------------
The benchmark side of the registry is *open*: beyond the seven built-in BAT kernels,
:func:`register_benchmark` admits any factory that mints a
:class:`~repro.kernels.base.KernelBenchmark` -- for example the generated scenarios of
:mod:`repro.kernels.synthetic`.  Registration is **by picklable spec, not by live
object**: a spec is a ``"module:factory"`` string (plus JSON-serializable keyword
arguments), mirroring the worker contract of :mod:`repro.exec` -- shards carry names,
and every worker process rebuilds its registry from specs alone.  That is what lets a
runtime-registered scenario ride the parallel/checkpoint/resume machinery (and,
eventually, a multi-host executor) with caches byte-identical to the serial path:
parent and workers construct the benchmark from the same spec, so spaces, models and
error strings cannot diverge.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.core.errors import ReproError

__all__ = [
    "BenchmarkSpec",
    "benchmark_suite",
    "gpu_catalog",
    "tuner_catalog",
    "get_benchmark",
    "get_gpu",
    "get_tuner",
    "register_benchmark",
    "unregister_benchmark",
    "registered_benchmarks",
    "benchmark_spec",
    "temporary_benchmark",
]

#: Runtime-registered benchmark specs, keyed by normalized name.  Process-local by
#: design: a worker process receives the spec of every benchmark it evaluates,
#: built-in or custom, and builds exactly those (see
#: :func:`repro.exec.worker.init_worker`) instead of inheriting mutable state.
_CUSTOM_SPECS: dict[str, "BenchmarkSpec"] = {}


def _normalize_benchmark_name(name: str) -> str:
    """Canonical registry key: lowercase with ``-``/spaces collapsed to ``_``."""
    return name.strip().lower().replace("-", "_").replace(" ", "_")


@dataclass(frozen=True)
class BenchmarkSpec:
    """A picklable description of how to build one benchmark.

    Attributes
    ----------
    factory:
        ``"module.path:attribute"`` string naming a module-level callable that
        returns a :class:`~repro.kernels.base.KernelBenchmark` (the attribute part
        may be dotted for nested access).
    kwargs:
        JSON-serializable keyword arguments passed to the factory.  They are
        canonicalized through a JSON round-trip at construction so that a spec
        that travelled through a plan manifest builds exactly the same benchmark
        as the original.
    """

    factory: str
    kwargs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.factory, str) or ":" not in self.factory:
            raise ReproError(
                f"benchmark factory spec must be a 'module:callable' string, "
                f"got {self.factory!r}")
        module, _, attr = self.factory.partition(":")
        if not module or not attr:
            raise ReproError(
                f"benchmark factory spec must name both a module and a callable, "
                f"got {self.factory!r}")
        try:
            canonical = json.loads(json.dumps(self.kwargs))
        except (TypeError, ValueError) as exc:
            raise ReproError(
                f"benchmark spec kwargs must be JSON-serializable (they travel "
                f"through plan manifests and worker initializers): {exc}") from None
        object.__setattr__(self, "kwargs", canonical)

    # ------------------------------------------------------------------ construction

    @classmethod
    def parse(cls, spec: "BenchmarkSpec | str | Mapping[str, Any] | Callable[..., Any]",
              **kwargs: Any) -> "BenchmarkSpec":
        """Build a spec from any accepted form.

        Accepted forms: an existing spec, a ``"module:factory"`` string, a mapping
        ``{"factory": ..., "kwargs": {...}}`` (the :meth:`to_dict` form), or a
        module-level callable (converted to its import path and verified to
        resolve back to the same object -- lambdas, closures and bound methods are
        rejected because worker processes could never rebuild them).
        """
        if isinstance(spec, cls):
            if kwargs:
                return cls(spec.factory, {**spec.kwargs, **kwargs})
            return spec
        if isinstance(spec, str):
            return cls(spec, dict(kwargs))
        if isinstance(spec, Mapping):
            merged = dict(spec.get("kwargs", {}))
            merged.update(kwargs)
            return cls(spec["factory"], merged)
        if callable(spec):
            module = getattr(spec, "__module__", None)
            qualname = getattr(spec, "__qualname__", "")
            path = f"{module}:{qualname}"
            if (module is None or "<" in qualname or "." in qualname
                    or module == "__main__"):
                raise ReproError(
                    f"benchmark factories must be picklable specs, not live "
                    f"objects: {spec!r} is not an importable module-level "
                    f"callable; pass a 'module:factory' string (with keyword "
                    f"arguments for parametrization) instead")
            resolved = cls(path, dict(kwargs))
            if resolved.resolve() is not spec:
                raise ReproError(
                    f"benchmark factory {spec!r} does not resolve back from "
                    f"{path!r}; register an importable module-level callable")
            return resolved
        raise ReproError(f"cannot interpret benchmark spec {spec!r}")

    # ------------------------------------------------------------------- resolution

    def resolve(self) -> Callable[..., Any]:
        """Import and return the factory callable."""
        module_name, _, attr = self.factory.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise ReproError(
                f"cannot import module {module_name!r} of benchmark spec "
                f"{self.factory!r}: {exc}") from None
        target: Any = module
        for part in attr.split("."):
            try:
                target = getattr(target, part)
            except AttributeError:
                raise ReproError(
                    f"module {module_name!r} has no attribute {attr!r} "
                    f"(benchmark spec {self.factory!r})") from None
        if not callable(target):
            raise ReproError(f"benchmark spec {self.factory!r} is not callable")
        return target

    def build(self) -> Any:
        """Construct a fresh benchmark instance from this spec."""
        benchmark = self.resolve()(**self.kwargs)
        if not hasattr(benchmark, "space") or not hasattr(benchmark, "name"):
            raise ReproError(
                f"benchmark spec {self.factory!r} built {benchmark!r}, which does "
                f"not look like a KernelBenchmark (no 'space'/'name' attributes)")
        return benchmark

    # ---------------------------------------------------------------- serialization

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (stored in plan manifests)."""
        return {"factory": self.factory, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchmarkSpec":
        return cls(data["factory"], dict(data.get("kwargs", {})))


def _builtin_spec(name: str) -> BenchmarkSpec:
    """The implicit spec of one built-in kernel benchmark."""
    return BenchmarkSpec(f"repro.kernels.{name}:create_benchmark")


def register_benchmark(name: str,
                       factory: BenchmarkSpec | str | Mapping[str, Any] | Callable[..., Any],
                       /, overwrite: bool = False,
                       **kwargs: Any) -> BenchmarkSpec:
    """Register a custom benchmark under ``name``.

    The benchmark is built once now, which catches a broken factory at
    registration time, and the built benchmark's ``name`` must match the
    registry key: caches, plan units and output files all carry that name, so a
    mismatch would mislabel campaign data (and distinct registrations of a
    name-defaulting factory would silently share one noise/failure identity).

    Parameters
    ----------
    name:
        Registry key (normalized: lowercase, ``-``/spaces become ``_``).  Built-in
        kernel names cannot be shadowed.
    factory:
        Any form :meth:`BenchmarkSpec.parse` accepts -- a ``"module:factory"``
        string, a spec/spec-dict, or an importable module-level callable.  Live
        benchmark objects are deliberately *not* accepted: the registry stores
        picklable specs so that :mod:`repro.exec` workers (and future multi-host
        executors) can rebuild the benchmark by spec alone.
    overwrite:
        Allow replacing an existing custom registration.
    **kwargs:
        JSON-serializable keyword arguments stored in the spec and passed to the
        factory on every build.  A factory whose own keyword is ``overwrite``
        can always be registered through the explicit spec form instead:
        ``register_benchmark(name, {"factory": ..., "kwargs": {...}})``.

    Returns
    -------
    BenchmarkSpec
        The stored spec (useful for plan manifests and worker initializers).
    """
    from repro.kernels import BENCHMARK_NAMES

    key = _normalize_benchmark_name(name)
    if not key:
        raise ReproError("benchmark name must be a non-empty string")
    if key in BENCHMARK_NAMES:
        raise ReproError(
            f"cannot register benchmark {name!r}: it would shadow the built-in "
            f"{key!r} kernel")
    if key in _CUSTOM_SPECS and not overwrite:
        raise ReproError(
            f"benchmark {name!r} is already registered "
            f"(pass overwrite=True to replace it)")
    spec = BenchmarkSpec.parse(factory, **kwargs)
    _require_matching_name(key, spec.build())
    _CUSTOM_SPECS[key] = spec
    return spec


def _require_matching_name(key: str, benchmark: Any) -> Any:
    """Refuse a built benchmark whose ``name`` disagrees with its registry key."""
    built_name = str(getattr(benchmark, "name", ""))
    if _normalize_benchmark_name(built_name) != key:
        raise ReproError(
            f"benchmark spec registered as {key!r} builds a benchmark named "
            f"{built_name!r}; pass the matching name to the factory (e.g. a "
            f"name={key!r} kwarg) so caches and plan units carry one identity")
    return benchmark


def unregister_benchmark(name: str) -> None:
    """Remove a custom benchmark registration."""
    key = _normalize_benchmark_name(name)
    if key not in _CUSTOM_SPECS:
        raise ReproError(
            f"benchmark {name!r} is not registered; registered custom benchmarks: "
            f"{sorted(_CUSTOM_SPECS)}")
    del _CUSTOM_SPECS[key]


@contextlib.contextmanager
def temporary_benchmark(name: str,
                        factory: BenchmarkSpec | str | Mapping[str, Any] | Callable[..., Any],
                        /, **kwargs: Any) -> Iterator[BenchmarkSpec]:
    """Context manager registering a benchmark for the enclosed block only.

    An existing registration under the same name is shadowed for the duration of
    the block and restored on exit.
    """
    key = _normalize_benchmark_name(name)
    displaced = _CUSTOM_SPECS.get(key)
    spec = register_benchmark(name, factory, overwrite=displaced is not None,
                              **kwargs)
    try:
        yield spec
    finally:
        if _CUSTOM_SPECS.get(key) is spec:
            if displaced is not None:
                _CUSTOM_SPECS[key] = displaced
            else:
                del _CUSTOM_SPECS[key]


def registered_benchmarks() -> dict[str, BenchmarkSpec]:
    """Specs of the runtime-registered custom benchmarks, keyed by name."""
    return dict(_CUSTOM_SPECS)


def benchmark_spec(name: str) -> BenchmarkSpec | None:
    """The spec a worker would rebuild ``name`` from, or None if unknown.

    Custom registrations win; built-in kernels answer with their implicit
    ``repro.kernels.<name>:create_benchmark`` spec.
    """
    from repro.kernels import BENCHMARK_NAMES

    key = _normalize_benchmark_name(name)
    if key in _CUSTOM_SPECS:
        return _CUSTOM_SPECS[key]
    if key in BENCHMARK_NAMES:
        return _builtin_spec(key)
    return None


def benchmark_suite() -> dict[str, Any]:
    """The seven BAT 2.0 kernels plus every registered custom benchmark.

    Returns fresh :class:`repro.kernels.base.KernelBenchmark` instances keyed by
    canonical lowercase name (built-ins first, in paper order).
    """
    from repro.kernels import all_benchmarks

    suite = all_benchmarks()
    for name, spec in _CUSTOM_SPECS.items():
        suite[name] = spec.build()
    return suite


def gpu_catalog() -> dict[str, Any]:
    """The four simulated GPUs used in the paper, keyed by name (e.g. ``"RTX_3090"``)."""
    from repro.gpus import all_gpus

    return all_gpus()


def tuner_catalog() -> dict[str, Callable[..., Any]]:
    """Factories for every optimizer shipped with the suite, keyed by name.

    Each value is a callable accepting ``seed=`` plus tuner-specific keyword options
    and returning a fresh tuner instance.
    """
    from repro.tuners import all_tuners

    return all_tuners()


def get_benchmark(name: str) -> Any:
    """Look up one benchmark by name (case-insensitive, ``-``/space tolerant).

    Resolves built-in kernels and runtime-registered custom benchmarks alike,
    with the same normalization :func:`get_gpu` applies to device names.
    """
    spec = benchmark_spec(name)
    if spec is None:
        from repro.kernels import BENCHMARK_NAMES

        available = sorted(set(BENCHMARK_NAMES) | set(_CUSTOM_SPECS))
        custom = (f"; registered custom benchmarks: {sorted(_CUSTOM_SPECS)}"
                  if _CUSTOM_SPECS else "")
        raise ReproError(
            f"unknown benchmark {name!r}; available: {available}{custom}")
    return spec.build()


def get_gpu(name: str) -> Any:
    """Look up one GPU spec by name (case-insensitive, ``-``/space tolerant)."""
    catalog = gpu_catalog()
    normalized = name.replace("-", "_").replace(" ", "_").upper()
    for key, value in catalog.items():
        if key.upper() == normalized:
            return value
    raise ReproError(f"unknown GPU {name!r}; available: {sorted(catalog)}")


def get_tuner(name: str, **kwargs: Any) -> Any:
    """Instantiate one tuner by name, forwarding keyword options to its factory."""
    catalog = tuner_catalog()
    key = name.lower().replace("-", "_")
    if key not in catalog:
        raise ReproError(f"unknown tuner {name!r}; available: {sorted(catalog)}")
    return catalog[key](**kwargs)
