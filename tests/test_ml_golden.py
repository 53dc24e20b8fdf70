"""Differential suite of the GBDT substrate against golden per-node-builder outputs.

``tests/data/ml_golden.json.gz`` holds digests of predictions, training scores,
importances, tree sizes and permutation-importance matrices taken from the recursive
per-node tree builder (``scripts/pin_ml_golden.py``).  The level-wise grower must
reproduce every one bit for bit.
"""

from __future__ import annotations

import gzip
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "data" / "ml_golden.json.gz"


def _load_pin_script():
    spec = importlib.util.spec_from_file_location(
        "pin_ml_golden", ROOT / "scripts" / "pin_ml_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PIN = _load_pin_script()


@pytest.fixture(scope="module")
def golden():
    with gzip.open(GOLDEN_PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)["fixtures"]


def test_golden_covers_every_fixture(golden):
    assert sorted(golden) == sorted(PIN.golden_fixtures())


@pytest.mark.parametrize("name", sorted(PIN.golden_fixtures()))
def test_fixture_matches_golden(golden, name):
    got = PIN.digest_arrays(PIN.golden_fixtures()[name]())
    assert got == golden[name]
