"""Canaries for the library behaviour the byte-identity contracts rest on.

The goldens, the oracle suites and ``bench/pins.json`` were pinned on one
NumPy and one zlib.  Each test here checks one behaviour of those libraries
directly, against a plain-Python statement of it, so that a NumPy or zlib
upgrade that changes it fails here with the names of the contracts that
depend on it, instead of as a dozen unexplained digest diffs elsewhere.

Nothing here is tolerant: a canary that fails means the environment changed,
not that the canary needs widening.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import sys
import zlib

import numpy as np
import pytest

ENVIRONMENT = (f"python {sys.version.split()[0]}, numpy {np.__version__}, "
               f"zlib {zlib.ZLIB_RUNTIME_VERSION}")


def _changed(behaviour: str, contracts: str) -> str:
    return (f"{behaviour} changed under {ENVIRONMENT}; {contracts} rely on it, "
            f"so expect their byte-identity checks to fail too")


def _pairwise_sum(values: list[float]) -> float:
    """NumPy's float64 pairwise summation: sequential below 8 terms, eight
    running sums up to 128, halves (cut at a multiple of 8) above."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        r = values[:8]
        stop = n - n % 8
        for start in range(8, stop, 8):
            r = [acc + value for acc, value in zip(r, values[start:start + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[stop:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _spread(rng: np.random.Generator, shape) -> np.ndarray:
    """Signed values over 16 decades, so a different summation order shows."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)


LENGTHS = (1, 2, 3, 7, 8, 9, 16, 127, 128, 129, 1000, 8192)


@pytest.mark.parametrize("high", [2, 7, 1000, 2**31, 2**32 + 5, 2**40])
def test_sized_integers_equal_scalar_draws(high):
    sized_rng, scalar_rng = np.random.default_rng(2023), np.random.default_rng(2023)
    sized = sized_rng.integers(0, high, size=9).tolist()
    scalar = [int(scalar_rng.integers(0, high)) for _ in range(9)]
    message = _changed(
        "Generator.integers(0, N, size=k) matching k scalar draws",
        "the GA's paired tournament draw, SearchSpace.sample_indices against the "
        "per-draw loop in tests/constraint_oracle.py, and the tuner trajectory "
        "goldens")
    assert sized == scalar, message
    assert sized_rng.bit_generator.state == scalar_rng.bit_generator.state, message


@pytest.mark.parametrize("high", [7, 2**32, 2**32 + 5, 2**40])
@pytest.mark.parametrize("p", [0, 1, 9])
def test_rewound_sized_draw_equals_scalar_draws(high, p):
    rng = np.random.default_rng(2023)
    rng.integers(0, 1000, size=3)  # an odd number of 32-bit draws
    assert rng.bit_generator.state["has_uint32"] == 1
    scalar_rng = np.random.default_rng()
    scalar_rng.bit_generator.state = rng.bit_generator.state
    saved = rng.bit_generator.state
    rng.integers(0, high, size=2 * p + 5)  # the block that overshot the hit
    rng.bit_generator.state = saved
    sized = rng.integers(0, high, size=p + 1).tolist()
    scalar = [int(scalar_rng.integers(0, high)) for _ in range(p + 1)]
    message = _changed(
        "restoring a saved bit_generator.state, then Generator.integers(0, N, "
        "size=p + 1), matching p + 1 scalar draws (with a buffered 32-bit half)",
        "the block restart draw of SearchSpace.sample_indices (n == 1, "
        "unique=False), its diff test against the scalar loop and the tuner "
        "trajectory goldens")
    assert sized == scalar, message
    assert rng.bit_generator.state == scalar_rng.bit_generator.state, message


def test_bincount_adds_weights_in_input_order():
    rng = np.random.default_rng(7)
    targets = rng.integers(0, 40, size=4000)
    weights = _spread(rng, 4000)
    expected = [0.0] * 40
    for target, weight in zip(targets.tolist(), weights.tolist()):
        expected[target] += weight
    got = np.bincount(targets, weights=weights, minlength=40)
    assert got.tolist() == expected, _changed(
        "np.bincount accumulating weights in input order",
        "PageRank (byte-equal to the SciPy power iteration in "
        "tests/pagerank_oracle.py), Fig. 3 centrality and the replay pins")
    # The data is order-sensitive, so the check above could fail.
    reversed_order = np.bincount(targets[::-1], weights=weights[::-1], minlength=40)
    assert reversed_order.tolist() != expected


def test_row_sums_of_a_c_contiguous_block_are_pairwise():
    rng = np.random.default_rng(11)
    message = _changed(
        "the row sums of a C-contiguous float64 block",
        "repro.ml.tree.node_totals (which must equal the per-node 1-D .sum() of "
        "the per-node builder), tests/test_ml_node_sums.py and the ML goldens")
    rows = _spread(rng, (50, 3))
    assert rows.sum(axis=1).tolist() == [(a + b) + c for a, b, c in rows.tolist()], message
    for length in LENGTHS:
        block = _spread(rng, (3, length + 5))[:, 2:2 + length]
        got = np.add.reduce(block, axis=1).tolist()
        assert got == [_pairwise_sum(row) for row in block.tolist()], (length, message)
        assert got == [row.sum() for row in block], (length, message)


def test_reduceat_adds_the_pairwise_rest_to_each_segment_head():
    rng = np.random.default_rng(13)
    values = _spread(rng, sum(LENGTHS))
    starts = np.cumsum((0,) + LENGTHS[:-1])
    got = np.add.reduceat(values, starts).tolist()
    expected = [segment[0] + _pairwise_sum(segment[1:])
                for segment in (values[lo:lo + n].tolist() for lo, n in zip(starts, LENGTHS))]
    assert got == expected, _changed(
        "np.add.reduceat summing a segment as head + pairwise sum of the rest",
        "the PageRank out-degrees (the A.sum(axis=1) of the SciPy oracle in "
        "tests/pagerank_oracle.py) and Fig. 3 centrality")


#: SHA-256 of the level-9, mtime=0 gzip of :func:`_export_like_payload`.
GZIP_DIGEST = "5452ef7347787874459cce0401681653e179d1c8e2b72674d43818b6ee9eea3e"


def _export_like_payload() -> bytes:
    rows = [{"config": {"block_size_x": 32 * (i % 8 + 1), "tile": i % 5},
             "value": round(1.0 + (i * 37 % 101) / 7.0, 6), "valid": i % 13 != 0}
            for i in range(300)]
    return json.dumps({"benchmark": "canary", "gpu": "RTX_3090",
                       "observations": rows}).encode()


def test_gzip_level_9_bytes_are_pinned():
    buffer = io.BytesIO()
    # The settings of repro.io.cachefile.atomic_write_chunks.
    with gzip.GzipFile(filename="", mode="wb", compresslevel=9, fileobj=buffer,
                       mtime=0) as stream:
        stream.write(_export_like_payload())
    assert hashlib.sha256(buffer.getvalue()).hexdigest() == GZIP_DIGEST, _changed(
        "the level-9 gzip bytes of a fixed payload",
        "every .json.gz export (the campaign.exports digest in bench/pins.json, "
        "tests/test_cache_json_export.py)")
