"""Pin golden outputs of the analytical GPU model for the batch differential suite.

For every kernel model (the seven paper benchmarks plus one scenario of each
synthetic family), on each of the four simulated GPUs, with and without noise, the
script evaluates a fixed configuration set through
:meth:`~repro.kernels.base.KernelBenchmark.evaluate_batch` and records

* ``values_sha256`` -- SHA-256 of the little-endian float64 runtimes (``inf`` for
  configurations that cannot launch),
* ``errors_sha256`` -- SHA-256 of the per-row error strings joined by NUL bytes,
* ``n`` / ``n_failed`` -- row and launch-failure counts, for readable diffs.

The configuration set is the full feasible set when it has at most
:data:`FULL_SET_LIMIT` points, otherwise a seeded :data:`SAMPLE_SIZE`-point sample of
the unconstrained product (whose indices are stored in the file).  The model
evaluates constraint-violating points like any other, and the unconstrained sample
is checked to contain launch failures, so the error strings are pinned too.

The golden file was generated **before the model was vectorized**, with the
per-configuration scalar formulas; ``tests/test_model_batch.py`` asserts the column
model reproduces it bit for bit.  Re-running this script on a revision that changes
model semantics silently re-pins the goldens -- only do that deliberately, with a
CHANGES.md note.

Usage::

    PYTHONPATH=src python scripts/pin_model_golden.py
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.gpus.specs import all_gpus
from repro.kernels import all_benchmarks
from repro.kernels.base import KernelBenchmark
from repro.kernels.synthetic import create_benchmark as create_synthetic

#: Feasible sets up to this size are pinned in full.
FULL_SET_LIMIT = 20_000

#: Size and seed of the unconstrained sample pinned for larger spaces.
SAMPLE_SIZE = 5_000
SAMPLE_SEED = 2023

OUT_PATH = Path(__file__).resolve().parent.parent / "tests" / "data" / \
    "model_golden.json.gz"


def golden_benchmarks() -> dict[str, KernelBenchmark]:
    """The paper kernels plus one scenario of each synthetic family."""
    suite = dict(all_benchmarks())
    for family in ("separable", "coupled"):
        name = f"golden_{family}"
        suite[name] = create_synthetic(name=name, family=family, dimensions=5, seed=11)
    return suite


def golden_indices(benchmark: KernelBenchmark) -> tuple[np.ndarray, bool]:
    """``(indices, sampled)``: the pinned configuration set of one benchmark."""
    space = benchmark.space
    if space.cardinality <= space.memoize_threshold:
        feasible = space.feasible_indices()
        if feasible.size <= FULL_SET_LIMIT:
            return feasible, False
    return space.sample_indices(SAMPLE_SIZE, rng=SAMPLE_SEED, valid_only=False), True


def digest_rows(rows: list[tuple[float, bool, str]]) -> dict[str, object]:
    """The pinned digest of one ``evaluate_batch`` output."""
    values = np.asarray([value for value, _, _ in rows], dtype="<f8")
    errors = "\0".join(error for _, _, error in rows)
    return {
        "n": len(rows),
        "n_failed": sum(1 for _, valid, _ in rows if not valid),
        "values_sha256": hashlib.sha256(values.tobytes()).hexdigest(),
        "errors_sha256": hashlib.sha256(errors.encode("utf-8")).hexdigest(),
    }


def main() -> None:
    gpus = all_gpus()
    golden: dict[str, object] = {"full_set_limit": FULL_SET_LIMIT,
                                 "sample_size": SAMPLE_SIZE,
                                 "sample_seed": SAMPLE_SEED,
                                 "benchmarks": {}}
    for name, benchmark in golden_benchmarks().items():
        indices, sampled = golden_indices(benchmark)
        configs = benchmark.space.configs_at(indices)
        entry: dict[str, object] = {
            "sampled": sampled,
            "indices_sha256": hashlib.sha256(
                np.asarray(indices, dtype="<i8").tobytes()).hexdigest(),
            "runs": {},
        }
        if sampled:
            entry["indices"] = [int(i) for i in indices]
        failures = 0
        for gpu_name, gpu in gpus.items():
            for with_noise in (True, False):
                digest = digest_rows(benchmark.evaluate_batch(gpu, configs,
                                                              with_noise=with_noise))
                failures += digest["n_failed"]
                entry["runs"][f"{gpu_name}/{'noise' if with_noise else 'clean'}"] = digest
        if sampled and not failures:
            raise SystemExit(f"{name}: the pinned sample contains no launch failures")
        golden["benchmarks"][name] = entry
        print(f"{name}: {len(indices)} configs ({'sampled' if sampled else 'full'}), "
              f"{failures} failing rows over all runs")
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(OUT_PATH, "wb", mtime=0) as fh:
        fh.write(json.dumps(golden, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    print(f"wrote {OUT_PATH}")


if __name__ == "__main__":
    main()
