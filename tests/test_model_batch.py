"""Differential suite of the column model against golden scalar outputs.

``tests/data/model_golden.json.gz`` holds digests of ``evaluate_batch`` output taken
from the per-configuration model formulas (``scripts/pin_model_golden.py``) for every
kernel model x GPU x noise setting.  The column model must reproduce them bit for
bit, and its scalar views (``time_ms``, ``estimate``, ``is_valid_on``) must agree
with the batch rows they are a batch of one of.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import ResourceLimitError
from repro.gpus.specs import all_gpus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "data" / "model_golden.json.gz"

#: Rows per (benchmark, GPU) the scalar views are compared on.
SCALAR_ROWS = 40


def _load_pin_script():
    spec = importlib.util.spec_from_file_location(
        "pin_model_golden", ROOT / "scripts" / "pin_model_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PIN = _load_pin_script()
GPUS = all_gpus()


@pytest.fixture(scope="module")
def golden():
    with gzip.open(GOLDEN_PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def suite():
    return PIN.golden_benchmarks()


def _indices(benchmark, entry):
    if entry["sampled"]:
        indices = np.asarray(entry["indices"], dtype=np.int64)
    else:
        indices, _ = PIN.golden_indices(benchmark)
    digest = hashlib.sha256(np.asarray(indices, dtype="<i8").tobytes()).hexdigest()
    assert digest == entry["indices_sha256"]
    return indices


def _scalar_rows(rows):
    """A few valid and (where any) failing row positions."""
    failed = [i for i, (_, valid, _) in enumerate(rows) if not valid]
    valid = [i for i, (_, ok, _) in enumerate(rows) if ok]
    step = max(len(valid) // SCALAR_ROWS, 1)
    return valid[::step][:SCALAR_ROWS] + failed[:SCALAR_ROWS // 4]


@pytest.mark.parametrize("name", sorted(PIN.golden_benchmarks()))
def test_batch_matches_golden(golden, suite, name):
    benchmark = suite[name]
    entry = golden["benchmarks"][name]
    configs = benchmark.space.configs_at(_indices(benchmark, entry))
    for gpu_name, gpu in GPUS.items():
        for with_noise in (True, False):
            key = f"{gpu_name}/{'noise' if with_noise else 'clean'}"
            got = PIN.digest_rows(benchmark.evaluate_batch(gpu, configs,
                                                           with_noise=with_noise))
            assert got == entry["runs"][key], f"{name} {key} differs from the golden"


@pytest.mark.parametrize("name", sorted(PIN.golden_benchmarks()))
def test_scalar_views_are_batch_rows(golden, suite, name):
    benchmark = suite[name]
    space = benchmark.space
    indices = _indices(benchmark, golden["benchmarks"][name])
    configs = space.configs_at(indices)
    for gpu in GPUS.values():
        rows = benchmark.evaluate_batch(gpu, configs, with_noise=True)
        batch = benchmark.evaluate_digits(gpu, space.indices_to_digits(indices))
        for i in _scalar_rows(rows):
            value, valid, error = rows[i]
            config = configs[i]
            assert benchmark.is_valid_on(config, gpu) == (valid and space.is_valid(config))
            if valid:
                assert benchmark.model.time_ms(config, gpu) == value
                assert (benchmark.model.estimate(config, gpu).to_dict()
                        == batch.estimate(i).to_dict())
            else:
                with pytest.raises(ResourceLimitError) as info:
                    benchmark.model.time_ms(config, gpu)
                assert str(info.value) == error == batch.errors[i]


def test_count_valid_matches_batch_mask(benchmarks, gpus):
    benchmark = benchmarks["convolution"]
    space = benchmark.space
    for gpu in gpus.values():
        rows = benchmark.evaluate_batch(gpu, space.configs_at(space.feasible_indices()),
                                        with_noise=False)
        assert benchmark.count_valid(gpu) == sum(valid for _, valid, _ in rows)


def test_empty_batch(benchmarks, gpu_3090):
    assert benchmarks["gemm"].evaluate_batch(gpu_3090, []) == []
