"""Search-space size accounting (paper Table VIII).

Table VIII reports, per benchmark:

* **Cardinality** -- the size of the raw Cartesian product of the parameter values;
* **Constrained** -- configurations that satisfy the kernel's static constraints;
* **Valid** -- configurations that additionally compile/launch on the tested GPUs
  (a range across GPUs; "N/A" for the spaces too large to check exhaustively);
* **Reduced** -- the cardinality after dropping every parameter whose permutation
  feature importance stays below 0.05 on all GPUs;
* **Reduce-Constrained** -- the constrained count of that reduced space (unimportant
  parameters frozen at the overall best configuration's values).

Both constrained columns are exact for every kernel: the count is a variable
elimination over the constraint truth tables
(:meth:`~repro.core.searchspace.SearchSpace.count_constrained`), never a sample.
Exact counts expose where the reconstructed constraints differ from the paper's.
Only gemm (17,956) and pnpoly (4,092) match its "Constrained" column; the others
are nbody 896 vs 1,568, convolution 12,032 vs 9,400, expdist 302,400 vs 540,000,
hotspot 2,106,000 vs 21,850,147 and dedispersion 19,138,560 vs 107,011,905.
Reconstructing the constraints to close the gap would move every golden and
export digest, so it is left to a dedicated repin; reports print the paper's
values and the ratio beside ours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.importance import ImportanceReport, important_parameters
from repro.core.cache import EvaluationCache
from repro.core.errors import ReproError
from repro.gpus.specs import GPUSpec
from repro.kernels.base import KernelBenchmark

__all__ = ["SpaceSizeRow", "space_size_table", "PAPER_TABLE8"]

#: The values printed in the paper's Table VIII, for side-by-side comparison in
#: reports and EXPERIMENTS.md.  ``valid`` is a (min, max) range or None for "N/A".
PAPER_TABLE8: dict[str, dict[str, object]] = {
    "pnpoly": {"cardinality": 4_092, "constrained": 4_092, "valid": (3_734, 3_774),
               "reduced": 4_092, "reduce_constrained": (3_734, 3_774)},
    "nbody": {"cardinality": 9_408, "constrained": 1_568, "valid": (1_568, 1_568),
              "reduced": 112, "reduce_constrained": 70},
    "convolution": {"cardinality": 18_432, "constrained": 9_400, "valid": (5_220, 5_256),
                    "reduced": 4_700, "reduce_constrained": 4_700},
    "gemm": {"cardinality": 82_944, "constrained": 17_956, "valid": (17_956, 17_956),
             "reduced": 17_956, "reduce_constrained": 17_956},
    "expdist": {"cardinality": 9_732_096, "constrained": 540_000, "valid": None,
                "reduced": 144, "reduce_constrained": 96},
    "hotspot": {"cardinality": 22_200_000, "constrained": 21_850_147, "valid": None,
                "reduced": 220_000, "reduce_constrained": 202_582},
    "dedispersion": {"cardinality": 123_863_040, "constrained": 107_011_905, "valid": None,
                     "reduced": 3_870_720, "reduce_constrained": 3_327_135},
}


@dataclass
class SpaceSizeRow:
    """One row of the reproduced Table VIII.

    ``valid_range`` is None when the space is too large to check per-GPU validity
    exhaustively (mirroring the paper's "N/A" entries).
    """

    benchmark: str
    cardinality: int
    constrained: int
    valid_range: tuple[int, int] | None
    reduced: int
    reduce_constrained: int
    important_parameters: tuple[str, ...]

    @property
    def constrained_ratio(self) -> float | None:
        """Our constrained count over the paper's (None for a benchmark it lacks)."""
        paper = PAPER_TABLE8.get(self.benchmark, {}).get("constrained")
        return self.constrained / paper if paper else None

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly representation, including the paper's values for comparison."""
        paper = PAPER_TABLE8.get(self.benchmark, {})
        return {
            "benchmark": self.benchmark,
            "cardinality": self.cardinality,
            "constrained": self.constrained,
            "constrained_vs_paper": self.constrained_ratio,
            "valid_range": list(self.valid_range) if self.valid_range else None,
            "reduced": self.reduced,
            "reduce_constrained": self.reduce_constrained,
            "important_parameters": list(self.important_parameters),
            "paper": paper,
        }


def space_size_table(benchmarks: Mapping[str, KernelBenchmark],
                     gpus: Mapping[str, GPUSpec],
                     importance_reports: Mapping[tuple[str, str], ImportanceReport],
                     caches: Mapping[tuple[str, str], EvaluationCache] | None = None,
                     importance_threshold: float = 0.05,
                     enumeration_limit: int = 200_000) -> list[SpaceSizeRow]:
    """Reproduce Table VIII.

    Parameters
    ----------
    benchmarks / gpus:
        The suite and devices.
    importance_reports:
        Output of :func:`repro.analysis.importance.importance_study` (needed for the
        Reduced columns).
    caches:
        Campaign caches; used to pick the values the unimportant parameters are frozen
        at (the overall best configuration).  Defaults to parameter defaults.
    importance_threshold:
        PFI threshold above which a parameter is kept (paper: 0.05 on any GPU).
    enumeration_limit:
        Per-GPU validity is enumerated only for spaces with cardinality at or below
        this; larger ones report None (the paper's "N/A").  The constrained counts
        are exact for every space.
    """
    rows: list[SpaceSizeRow] = []
    for name, benchmark in benchmarks.items():
        space = benchmark.space
        cardinality = space.cardinality
        constrained = space.count_constrained()

        if cardinality <= enumeration_limit:
            valid_counts = [benchmark.count_valid(gpu) for gpu in gpus.values()]
            valid_range: tuple[int, int] | None = (min(valid_counts), max(valid_counts))
        else:
            valid_range = None

        reports = [r for (bench, _), r in importance_reports.items() if bench == name]
        if not reports:
            raise ReproError(f"no importance reports supplied for benchmark {name!r}")
        keep = important_parameters(reports, threshold=importance_threshold)
        if not keep:
            # Degenerate (should not happen with the suite's benchmarks): keep the
            # single most important parameter so the reduced space is well defined.
            best_name = max(reports[0].importances, key=reports[0].importances.get)
            keep = (best_name,)

        # Freeze the unimportant parameters at the best-known configuration's values.
        fixed = {}
        if caches:
            best_configs = [cache.best().config for (bench, _), cache in caches.items()
                            if bench == name and cache.num_valid > 0]
            if best_configs:
                fixed = dict(best_configs[0])
        reduced_space = space.reduced(keep, fixed=fixed)
        reduced = reduced_space.cardinality
        reduce_constrained = reduced_space.count_constrained()

        rows.append(SpaceSizeRow(
            benchmark=name,
            cardinality=cardinality,
            constrained=int(constrained),
            valid_range=valid_range,
            reduced=int(reduced),
            reduce_constrained=int(reduce_constrained),
            important_parameters=keep,
        ))
    return rows
